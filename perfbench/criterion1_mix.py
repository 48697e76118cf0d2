"""Compare gradcheck-small's strata with the configs of acceptance criterion 1.

    python3 perfbench/criterion1_mix.py

Draws criterion 1's 101 configs the way ``test_criterion_1_gradient_correctness``
in ``tests/test_acceptance.py`` does (same seed, same draws), and prints, for
each (variant, layers, t) class, its share of the finite-difference
evaluations (two per parameter) and the time of one evaluation, next to the
same figures for one cycle of ``GradcheckSmall.strata``.  Both sides time the
benchmark's loss, ``model.forward(recording=False)`` then
``training.sentence_loss``, alternating in one process so that both see the
same machine.  It is a report for whoever changes the strata; the benchmark
never runs it.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import GradcheckSmall, darter_modules  # noqa: E402

ROUNDS = 3
EVALS_PER_ROUND = 7


def criterion1_configs(dm):
    """Criterion 1's configs: (model, ids, gold_e, gold_r, mask, weights)."""
    c = dm.corpus
    rng = np.random.default_rng(20260814)

    def small_biased(lo, hi):
        return int(rng.integers(lo, hi + 1, size=3).min())

    def build(config, schema, sentence, weights):
        vocab = c.Vocabulary.from_corpus([sentence])
        mask = c.entity_mask(len(sentence), schema.u, config.match_mode,
                             config.mask_reversed_entity_cells)
        return (dm.model.JointModel(config, schema, vocab),
                vocab.encode(sentence.tokens),
                *c.gold_tables(sentence, schema), mask, weights)

    out = []
    for trial in range(100):
        variant = ("darter", "bidarter")[trial % 2]
        n_layers = 2 if variant == "bidarter" else int(rng.integers(1, 3))
        mode = c.MatchMode.TAIL if trial % 5 == 0 else c.MatchMode.EXACT
        schema = c.LabelSchema(
            tuple(f"e{k}" for k in range(int(rng.integers(1, 4)))),
            tuple(f"r{k}" for k in range(int(rng.integers(1, 4)))))
        sentence = dm.synthetic.random_corpus(rng, schema, 1, max_tokens=5,
                                              mode=mode)[0]
        config = dm.model.ModelConfig(
            variant=variant, n_layers=n_layers, d_p=small_biased(1, 8),
            d_h=small_biased(2, 8), interaction=bool(rng.integers(2)),
            entity_features_in_re=bool(rng.integers(2)),
            alpha=float(rng.choice(dm.decoders.ALPHA_BETA_GRID)),
            beta=float(rng.choice(dm.decoders.ALPHA_BETA_GRID)),
            match_mode=mode, seed=trial)
        weights = dm.training.LossWeights(
            gamma=float(rng.choice(dm.training.GAMMA_DELTA_GRID)),
            delta=float(rng.choice(dm.training.GAMMA_DELTA_GRID)))
        out.append(build(config, schema, sentence, weights))
    schema = c.LabelSchema(("e0", "e1", "e2"), ("r0", "r1", "r2"))
    sentence = next(s for s in dm.synthetic.random_corpus(rng, schema, 40,
                                                          max_tokens=5)
                    if len(s) == 5)
    stress = dm.model.ModelConfig(variant="bidarter", d_p=8, d_h=8, seed=1001)
    out.append(build(stress, schema, sentence, dm.training.LossWeights()))
    return out


def eval_seconds(dm, model, ids, gold_e, gold_r, mask, weights) -> float:
    times = []
    for _ in range(EVALS_PER_ROUND):
        start = time.perf_counter()
        fwd = model.forward(ids, recording=False)
        dm.training.sentence_loss(fwd, gold_e, gold_r, mask, weights).item()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    dm = darter_modules()
    sides = {"criterion 1": criterion1_configs(dm),
             "strata": GradcheckSmall(0).configs(dm)}
    seconds = {name: [[] for _ in configs] for name, configs in sides.items()}
    for _ in range(ROUNDS):
        for name, configs in sides.items():
            for k, config in enumerate(configs):
                seconds[name][k].append(eval_seconds(dm, *config))

    table = defaultdict(dict)
    for name, configs in sides.items():
        evals = [2 * model.store.n_components() for model, *_ in configs]
        cost = [statistics.median(s) for s in seconds[name]]
        total = sum(evals)
        classes = defaultdict(lambda: [0, 0.0])
        for (model, ids, *_), n, s in zip(configs, evals, cost):
            key = (model.config.variant, model.config.n_layers, len(ids))
            classes[key][0] += n
            classes[key][1] += n * s
        for key, (n, s) in classes.items():
            table[key][name] = (n / total, s / n * 1e6)
        busy = sum(n * s for n, s in zip(evals, cost))
        print(f"{name}: {len(configs)} configs, {total} evaluations "
              f"({total / len(configs):.0f} per config), "
              f"{busy / total * 1e6:.0f} us per evaluation, "
              f"{busy:.1f} s of evaluations")
    print(f"{'variant':9s} {'layers':>6s} {'t':>2s}   "
          f"{'share (crit. 1 / strata)':>25s}   "
          f"{'us per eval (crit. 1 / strata)':>31s}")
    for key in sorted(table):
        row = table[key]
        share = " / ".join(f"{row[n][0]:.3f}" if n in row else "    -"
                           for n in sides)
        cost = " / ".join(f"{row[n][1]:5.0f}" if n in row else "    -"
                          for n in sides)
        print(f"{key[0]:9s} {key[1]:6d} {key[2]:2d}   {share:>25s}   "
              f"{cost:>31s}")


if __name__ == "__main__":
    main()
