"""Fault-injection tests for the benchmark's correctness checks.

Each test runs a check on healthy code, where it must pass, then injects a
fault into darter through monkeypatching and confirms that the same check
fails.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from run import SETUP_SAMPLES, latency, per_layer, run_phase  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (Checks, GradcheckSmall, PredictLong,  # noqa: E402
                       TrainBundled, darter_modules, tables_ok)


@pytest.fixture
def dm():
    return darter_modules()


def started(workload, dm):
    checks = Checks()
    workload.start(workload.setup(dm), checks)
    return checks


def small_gradcheck(seed=3):
    workload = GradcheckSmall(seed)
    workload.strata = workload.strata[:2]
    return workload


def test_gradient_check_fires_on_wrong_gradient(dm, monkeypatch):
    workload = small_gradcheck()
    checks = started(workload, dm)
    workload.run_unit(checks)
    assert checks.attempted == 2 and checks.failed == 0
    assert workload.worst <= GradcheckSmall.tolerance

    backward = dm.autodiff.Record.backward

    def off_by_a_little(self, loss):
        grads = backward(self, loss)
        for nid, node in enumerate(self.nodes):
            if node.tag == "leaf" and nid in grads:
                grads[nid] = grads[nid] + 1e-2
        return grads

    monkeypatch.setattr(dm.autodiff.Record, "backward", off_by_a_little)
    workload.run_unit(checks)
    assert checks.failed == 2
    assert "max rel err" in checks.messages[0]


def tiny_predict(dm, tmp_path):
    schema, corpus = (dm.synthetic.synthetic_schema(),
                      dm.synthetic.synthetic_corpus())
    vocab = dm.corpus.Vocabulary.from_corpus(corpus)
    model = dm.model.JointModel(
        dm.model.ModelConfig(variant="bidarter", d_p=4, d_h=4), schema, vocab)
    path = str(tmp_path / "model.json")
    dm.training.save_checkpoint(path, model)
    workload = PredictLong(seed=5, checkpoint=path)
    workload.lengths = (20, 30)
    workload.per_length = 1
    workload.checked_length = 20
    return workload


def test_probability_check_fires_on_corrupted_table(dm, monkeypatch,
                                                     tmp_path):
    workload = tiny_predict(dm, tmp_path)
    checks = started(workload, dm)
    workload.run_unit(checks)
    assert checks.attempted == 4 and checks.failed == 0

    decode = dm.model.decode_streams

    def corrupted(*args, **kwargs):
        entities, relations = decode(*args, **kwargs)
        values = entities.probs.values.copy()
        values[0, -1, 0] = 1.5
        entities.probs.values = values
        return entities, relations

    monkeypatch.setattr(dm.model, "decode_streams", corrupted)
    checks = started(workload, dm)
    assert checks.failed == 2
    assert "bad probability tables" in checks.messages[0]


def test_prediction_check_fires_when_predictions_change(dm, monkeypatch,
                                                        tmp_path):
    workload = tiny_predict(dm, tmp_path)
    checks = started(workload, dm)
    threshold = dm.model.threshold_predictions

    def one_more(*args, **kwargs):
        got = threshold(*args, **kwargs)
        return type(got)(got.entities | {(0, 0, 99)}, got.relations)

    monkeypatch.setattr(dm.model, "threshold_predictions", one_more)
    workload.run_unit(checks)
    assert checks.failed == 2


def test_recorded_forward_check_fires(dm, monkeypatch, tmp_path):
    workload = tiny_predict(dm, tmp_path)
    checks = started(workload, dm)
    workload.final_checks(checks)
    assert checks.failed == 0

    forward = dm.model.JointModel.forward

    def drifting(self, token_ids, recording=True):
        out = forward(self, token_ids, recording)
        if not recording:
            probs = out.relations.probs
            probs.values = probs.values * (1 - 1e-15)
        return out

    monkeypatch.setattr(dm.model.JointModel, "forward", drifting)
    workload.final_checks(checks)
    assert checks.failed == 1
    assert "recorded and unrecorded" in checks.messages[0]


def test_replay_check_fires_on_nondeterministic_step(dm, monkeypatch):
    workload = TrainBundled(seed=7)
    checks = started(workload, dm)
    workload.final_checks(checks)
    assert checks.attempted == 2 and checks.failed == 0

    step = dm.training.Adam.step
    calls = []

    def drifting(self, grads):
        step(self, grads)
        calls.append(None)
        self.store.set_("embedding",
                        self.store["embedding"] + len(calls) * 1e-12)

    monkeypatch.setattr(dm.training.Adam, "step", drifting)
    workload.final_checks(checks)
    assert checks.failed == 2
    assert "replayed epoch differs" in checks.messages[0]


def test_loss_check_fires_on_non_finite_loss(dm, monkeypatch):
    workload = TrainBundled(seed=7)
    checks = started(workload, dm)
    run_phase(workload, 0.0, checks)
    assert checks.attempted == 2 and checks.failed == 0

    loss = dm.training.sentence_loss

    def diverging(*args, **kwargs):
        return dm.autodiff.affine_const(loss(*args, **kwargs), math.inf)

    monkeypatch.setattr(dm.training, "sentence_loss", diverging)
    rate, samples = run_phase(workload, 0.0, checks)
    assert checks.failed == 1 and samples == {}
    assert checks.messages[0].startswith("TrainingDiverged")


def test_tables_check_rejects_each_defect(dm):
    t, u, v = 3, 2, 1
    good = np.full((t, t, u), 0.5), np.full((t, t, v), 0.5)

    def probs(values):
        return type("Logits", (), {"probs": dm.autodiff.constant(values)})

    assert tables_ok(probs(good[0]), probs(good[1]), t, u, v)
    for bad in (np.full((t, t + 1, u), 0.5), np.full((t, t, u), np.nan),
                np.full((t, t, u), -0.1), np.full((t, t, u), 1.1)):
        assert not tables_ok(probs(bad), probs(good[1]), t, u, v)


def test_tracer_derives_self_time_and_reports_missing_names(dm, monkeypatch,
                                                            tmp_path):
    monkeypatch.delattr(dm.evaluation, "evaluate_corpus")
    workload = tiny_predict(dm, tmp_path)
    checks = started(workload, dm)
    forward = dm.model.JointModel.forward
    tracer = Tracer()
    tracer.install(dm)
    try:
        workload.run_unit(checks)
    finally:
        tracer.uninstall()
    assert dm.model.JointModel.forward is forward
    assert tracer.missing == ["evaluation.evaluate_corpus"]
    metrics = tracer.metrics()
    assert 0 < metrics["model.forward_self_us"] < metrics["model.forward_us"]
    assert metrics["decoders.decode_streams_ms.t20"] > 0
    assert "autodiff.backward_ms" not in metrics


def test_traced_run_covers_the_final_checks(dm, tmp_path):
    workload = tiny_predict(dm, tmp_path)
    metrics, missing = per_layer(workload, 0.1, Checks())
    assert missing == []
    assert metrics["evaluation.evaluate_corpus_ms"] > 0
    assert metrics["encoder.nodes_per_call"] > 0      # the recorded check
    assert metrics["trace.throughput_ratio"] > 0


def test_setups_are_spread_between_units():
    class Stub:
        def __init__(self):
            self.log = []

        def setup(self, dm):
            self.log.append("setup")

        def run_unit(self, checks):
            time.sleep(0.005)
            self.log.append("unit")
            return {"op": [0.005]}, 1

    stub, setups = Stub(), []
    rate, samples = run_phase(stub, 0.1, Checks(), setups)
    assert len(setups) == SETUP_SAMPLES
    assert stub.log.count("setup") == SETUP_SAMPLES
    first, last = stub.log.index("setup"), len(stub.log) - 1
    assert stub.log[first - 1] == "unit"
    assert "setup" in stub.log[:last // 2]       # not all at the end
    assert len(samples["op"]) == stub.log.count("unit")
    assert rate > 100                            # unit time only


def test_latency_weights_groups_by_samples():
    low, p50, p90 = latency({"cheap": [1.0] * 30, "dear": [4.0, 2.0] * 5})
    assert low == pytest.approx((30 * 1.0 + 10 * 2.0) / 40 * 1e3)
    assert p50 == pytest.approx((30 * 1.0 + 10 * 3.0) / 40 * 1e3)
    assert p90 == pytest.approx((30 * 1.0 + 10 * 4.0) / 40 * 1e3)
    assert latency({}) == (0.0, 0.0, 0.0)
