"""Benchmark runner for darter: one workload, one process, one thread.

    python3 perfbench/run.py --workload train-bundled --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a checkout; it imports darter from ``src/`` there
and from nowhere else.  With ``--trace 0`` the run is untraced and reports
the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` it
alternates untraced units with units run while darter's entry points are
wrapped, and reports the per-layer metrics, including traced against
untraced throughput.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it describe the environment and the run.
"""

import os

# One BLAS and OpenMP thread, for this process only; numpy reads these when
# it loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (Checks, GradcheckSmall, PredictLong,  # noqa: E402
                       TrainBundled, build_checkpoint, checkpoint_path,
                       import_darter)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SAMPLES = 41
TRACED_SETUP_REPEATS = 3
# Measured by an untraced run and printed in its detail line, but not
# declared in BENCHMARK.json: they follow the machine's load too closely to
# be bounded (perfbench/README.md).
INFORMATIONAL = ("items_per_s", "op_ms_p50", "op_ms_p90")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"{path}: {exc}") from None


def use_checkout_source() -> None:
    """Put this checkout's src/ first on the import path, and only it."""
    package = os.path.join(ROOT, "src", "darter", "__init__.py")
    if not os.path.isfile(package):
        raise BenchError(f"{package} not found: run from a darter checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                     "OMP_NUM_THREADS")}}


def source_lines() -> dict[str, int]:
    src = os.path.join(ROOT, "src", "darter")
    lines = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                lines[f"src.lines.{name[:-3]}"] = sum(1 for _ in handle)
    lines["src.lines.total"] = sum(lines.values())
    return lines


def make_workload(name: str, seed: int):
    if name == "train-bundled":
        return TrainBundled(seed)
    if name == "predict-long":
        path = checkpoint_path(ROOT)
        build_checkpoint(import_darter(), path)
        return PredictLong(seed, path)
    if name == "gradcheck-small":
        return GradcheckSmall(seed)
    raise BenchError(f"unknown workload {name!r}")


def timed_setup(workload):
    """Set up once from a fresh import of darter; (seconds, state)."""
    start = time.perf_counter()
    state = workload.setup(import_darter())
    return time.perf_counter() - start, state


def run_phase(workload, seconds: float, checks: Checks, setups=None):
    """Run whole units until `seconds` of unit time have passed;
    (items/s, {group: op times}).

    With a list `setups`, SETUP_SAMPLES set-ups are timed between the units,
    spread evenly over the phase, and their times appended to it.  Their
    garbage is collected before the next unit, and the rate counts the
    units' own time only.
    """
    samples, items, busy = {}, 0, 0.0
    while True:
        start = time.perf_counter()
        try:
            unit_samples, unit_items = workload.run_unit(checks)
        except Exception as exc:  # a failed operation ends the run
            checks.expect(False, f"{type(exc).__name__}: {exc}")
            break
        busy += time.perf_counter() - start
        for group, times in unit_samples.items():
            samples.setdefault(group, []).extend(times)
        items += unit_items
        done = busy >= seconds
        if setups is not None:
            owed = (SETUP_SAMPLES if done else
                    min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * busy
                                                 / seconds)))
            while len(setups) < owed:
                setups.append(timed_setup(workload)[0])
                gc.collect()
        if done:
            break
    return (items / busy if busy > 0 else 0.0), samples


def final_checks(workload, checks: Checks) -> dict:
    try:
        return workload.final_checks(checks)
    except Exception as exc:
        checks.expect(False, f"{type(exc).__name__}: {exc}")
        return {}


def latency(samples: dict) -> tuple[float, float, float]:
    """Minimum, median and p90 of each group's op times, averaged over the
    groups with their sample counts as weights, in ms."""
    count = sum(len(times) for times in samples.values())
    if not count:
        return 0.0, 0.0, 0.0
    low, p50, p90 = sum(len(times) * np.array([min(times),
                                               *np.percentile(times, [50, 90])])
                        for times in samples.values()) / count * 1e3
    return low, p50, p90


def end_to_end(workload, seconds: float, checks: Checks) -> dict:
    setups, state = [], timed_setup(workload)[1]
    workload.start(state, checks)
    rate, samples = run_phase(workload, seconds, checks, setups)
    final_checks(workload, checks)
    low, p50, p90 = latency(samples)
    return {"items_per_s": rate, "op_ms_min": low, "op_ms_p50": p50,
            "op_ms_p90": p90,
            "setup_s": min(setups, default=0.0),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples": sum(len(times) for times in samples.values())}


def per_layer(workload, seconds: float, checks: Checks) -> tuple[dict, list]:
    """Alternate untraced and traced units, so that both see the same
    machine; only the traced ones leave spans."""
    state = timed_setup(workload)[1]
    workload.start(state, checks)
    tracer = Tracer()

    def traced(run, *args):
        tracer.install(state.dm)
        try:
            return run(*args)
        finally:
            tracer.uninstall()

    for _ in range(TRACED_SETUP_REPEATS):
        traced(workload.setup, state.dm)
    plain_rates, traced_rates = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and not checks.failed:
        plain_rates.append(run_phase(workload, 0, checks)[0])
        traced_rates.append(traced(run_phase, workload, 0, checks)[0])
    extra = traced(final_checks, workload, checks)
    metrics = tracer.metrics()
    metrics.update(extra)
    metrics.update(source_lines())
    if plain_rates and statistics.median(plain_rates) > 0:
        metrics["trace.throughput_ratio"] = (statistics.median(traced_rates)
                                             / statistics.median(plain_rates))
    return metrics, tracer.missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = spec()["per_layer" if args.trace else "end_to_end"]
        use_checkout_source()
        workload = make_workload(args.workload, args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    checks = Checks()
    missing: list[str] = []
    if args.trace:
        measured, missing = per_layer(workload, args.seconds, checks)
    else:
        measured = end_to_end(workload, args.seconds, checks)
    # A declared metric this workload does not exercise, or whose entry
    # point is gone, is absent: reported as 0 and listed here.
    absent = [m["name"] for m in declared if m["name"] not in measured]
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps({"detail": {
        "workload": args.workload, "trace": args.trace,
        "samples": measured.get("samples"), "absent": absent,
        "informational": {k: measured[k] for k in INFORMATIONAL
                          if k in measured},
        "missing_entry_points": missing, "failures": checks.messages}}))
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
