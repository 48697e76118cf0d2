"""End-to-end guarantees, one test per shipped promise.

Each test prints a single "[criterion N] name: PASS/FAIL" line (visible with
pytest -s or in failure output), so a run of this module doubles as a release
checklist.  Tolerances are part of the contract and sit next to each check.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from darter.autodiff import ParamStore, Record, constant
from darter.cli import main
from darter.corpus import (LabelSchema, MatchMode, Vocabulary, entity_mask,
                           gold_tables)
from darter.decoders import ALPHA_BETA_GRID
from darter.encoder import (SUBTASKS, DamParams, encode_sequence,
                            trace_sequence)
from darter.evaluation import evaluate_corpus
from darter.gradcheck import max_relative_error, numeric_gradients
from darter.model import JointModel, ModelConfig
from darter.synthetic import (random_corpus, synthetic_corpus,
                              synthetic_paths, synthetic_schema)
from darter.training import (GAMMA_DELTA_GRID, LossWeights, TrainConfig,
                             sentence_loss, train)

from fixtures import adversarial_fixture


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences on random models


def random_schema(rng) -> LabelSchema:
    return LabelSchema(
        tuple(f"e{k}" for k in range(int(rng.integers(1, 4)))),
        tuple(f"r{k}" for k in range(int(rng.integers(1, 4)))))


def np_bce(probs: np.ndarray, gold: np.ndarray,
           mask: np.ndarray | None = None, eps: float = 1e-7) -> float:
    q = np.clip(probs, eps, 1.0 - eps)
    cells = gold * np.log(q) + (1.0 - gold) * np.log(1.0 - q)
    if mask is not None:
        cells = cells * mask
    return -float(cells.sum())


def joint_loss_value(model, ids, gold_e, gold_r, mask, weights) -> float:
    fwd = model.forward(ids, recording=False)
    return (weights.gamma * np_bce(fwd.entities.probs.values, gold_e, mask)
            + weights.delta * np_bce(fwd.relations.probs.values, gold_r))


def small_biased(rng, lo: int, hi: int) -> int:
    """Random size in [lo, hi], favoring the cheap end of the range."""
    return int(rng.integers(lo, hi + 1, size=3).min())


def check_gradients(config, schema, sentence, weights, step) -> float:
    vocab = Vocabulary.from_corpus([sentence])
    model = JointModel(config, schema, vocab)
    ids = vocab.encode(sentence.tokens)
    gold_e, gold_r = gold_tables(sentence, schema)
    mask = entity_mask(len(sentence), schema.u, config.match_mode,
                       config.mask_reversed_entity_cells)
    fwd = model.forward(ids)
    loss = sentence_loss(fwd, gold_e, gold_r, mask, weights)
    fwd.record.backward(loss)
    analytic = {}
    for name, tensor in fwd.bound.items():
        grad = fwd.record.grad(tensor)
        analytic[name] = (np.zeros_like(model.store[name])
                          if grad is None else grad)
    numeric = numeric_gradients(
        lambda: joint_loss_value(model, ids, gold_e, gold_r, mask, weights),
        model.store, step=step)
    return max_relative_error(analytic, numeric)


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(20260814)
    trials = 100
    worst = 0.0
    start = time.perf_counter()
    for trial in range(trials):
        variant = ("darter", "bidarter")[trial % 2]
        n_layers = 2 if variant == "bidarter" else int(rng.integers(1, 3))
        mode = MatchMode.TAIL if trial % 5 == 0 else MatchMode.EXACT
        schema = random_schema(rng)
        sentence = random_corpus(rng, schema, 1, max_tokens=5, mode=mode)[0]
        config = ModelConfig(
            variant=variant, n_layers=n_layers,
            d_p=small_biased(rng, 1, 8), d_h=small_biased(rng, 2, 8),
            interaction=bool(rng.integers(2)),
            entity_features_in_re=bool(rng.integers(2)),
            alpha=float(rng.choice(ALPHA_BETA_GRID)),
            beta=float(rng.choice(ALPHA_BETA_GRID)),
            match_mode=mode, seed=trial)
        weights = LossWeights(gamma=float(rng.choice(GAMMA_DELTA_GRID)),
                              delta=float(rng.choice(GAMMA_DELTA_GRID)))
        worst = max(worst, check_gradients(config, schema, sentence,
                                           weights, step=1e-6))

    # one run pinned at the top of every size range
    schema = LabelSchema(("e0", "e1", "e2"), ("r0", "r1", "r2"))
    sentence = next(s for s in random_corpus(rng, schema, 40, max_tokens=5)
                    if len(s) == 5)
    stress = ModelConfig(variant="bidarter", d_p=8, d_h=8, seed=1001)
    worst = max(worst, check_gradients(stress, schema, sentence,
                                       LossWeights(), step=1e-6))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    report(1, "gradient correctness", ok,
           f"{trials + 1} random configs, max rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: the cross-stream mixes are the advertised sums and differences


def randomized_cell(rng, trial: int, d_in: int, d_h: int) -> DamParams:
    store = ParamStore(trial)
    DamParams.register(store, "dam", d_in, d_h)
    for name in store.names():
        store.set_(name, rng.standard_normal(store[name].shape))
    return DamParams.bind(store.bind(Record()), "dam")


def test_criterion_2_cross_stream_mixing_identities():
    rng = np.random.default_rng(2)
    worst = 0.0
    checked = 0
    for trial in range(25):
        d_p = int(rng.integers(1, 7))
        d_h = int(rng.integers(2, 7))
        t = int(rng.integers(1, 7))
        params = randomized_cell(rng, trial, d_p, d_h)
        reverse = trial % 2 == 1
        trace = trace_sequence(constant(rng.standard_normal((t, d_p))),
                               params, reverse=reverse)
        f_s, f_r, f_o = (trace["f"][:, SUBTASKS.index(p)]
                         for p in ("s", "r", "o"))
        for p, want in (("s", f_o - f_r), ("r", f_o - f_s),
                        ("o", f_s + f_r)):
            got = trace["inter"][:, SUBTASKS.index(p)]
            worst = max(worst, float(np.abs(got - want).max()))
            checked += t
    ok = worst <= 1e-12
    report(2, "cross-stream mixing identities", ok,
           f"{checked} token mixes, max abs err {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 3: an all-zero model is exactly indifferent


def test_criterion_3_zero_model_behavior():
    rng = np.random.default_rng(3)
    ln2 = math.log(2.0)
    all_half = True
    all_empty = True
    worst_loss_err = 0.0
    for variant in ("darter", "bidarter"):
        for mode in (MatchMode.EXACT, MatchMode.TAIL):
            schema = LabelSchema(("e0", "e1"), ("r0",))
            sentence = random_corpus(rng, schema, 1, max_tokens=5,
                                     mode=mode)[0]
            vocab = Vocabulary.from_corpus([sentence])
            model = JointModel(ModelConfig(variant=variant, d_p=4, d_h=4,
                                           match_mode=mode), schema, vocab)
            model.store.zero_all()
            fwd = model.forward(vocab.encode(sentence.tokens))
            all_half &= bool(np.all(fwd.entities.probs.values == 0.5))
            all_half &= bool(np.all(fwd.relations.probs.values == 0.5))
            pred = model.predict_tokens(sentence.tokens)
            all_empty &= not pred.entities and not pred.relations
            gold_e, gold_r = gold_tables(sentence, schema)
            t = len(sentence)
            mask = entity_mask(t, schema.u, mode)
            loss = sentence_loss(fwd, gold_e, gold_r, mask, LossWeights())
            want = (float(mask.sum()) + t * t * schema.v) * ln2
            worst_loss_err = max(worst_loss_err,
                                 abs(loss.values.item() - want))
    ok = all_half and all_empty and worst_loss_err <= 1e-9
    report(3, "zero model behavior", ok,
           f"probs all 0.5: {all_half}, predictions empty: {all_empty}, "
           f"loss err {worst_loss_err:.1e}")


# ---------------------------------------------------------------------------
# criterion 4: one cell, run backwards, is the mirror of running forwards


def test_criterion_4_direction_symmetry():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        d_p = int(rng.integers(1, 7))
        d_h = int(rng.integers(2, 7))
        t = int(rng.integers(1, 8))
        params = randomized_cell(rng, trial, d_p, d_h)
        x = rng.standard_normal((t, d_p))
        rtl = encode_sequence(constant(x), params, reverse=True)
        ltr = encode_sequence(constant(x[::-1].copy()), params, reverse=False)
        for k in range(3):
            for field in (0, 1):        # h_tilde, hidden
                a = rtl.values[:, field, k]
                b = ltr.values[:, field, k][::-1]
                worst = max(worst, float(np.abs(a - b).max()))
    ok = worst <= 1e-12
    report(4, "direction symmetry", ok, f"max abs err {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 5: both variants overfit the bundled corpus with stock settings


def test_criterion_5_overfit_bundled_corpus():
    schema = synthetic_schema()
    corpus = synthetic_corpus()
    vocab = Vocabulary.from_corpus(corpus)
    ok = True
    details = []
    for variant in ("darter", "bidarter"):
        model = JointModel(ModelConfig(variant=variant), schema, vocab)
        start = time.perf_counter()
        train(model, corpus, TrainConfig(epochs=500))
        elapsed = time.perf_counter() - start
        scores = evaluate_corpus(corpus, model.predict_corpus(corpus),
                                 schema, MatchMode.EXACT)
        ner = scores["ner"]["micro"]["f1"]
        re = scores["re"]["micro"]["f1"]
        ok = ok and ner == 1.0 and re == 1.0 and elapsed < 120.0
        details.append(f"{variant} ner {ner:.3f} re {re:.3f} in "
                       f"{elapsed:.0f}s")
    report(5, "overfit convergence", ok, ", ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: scores and error counters equal the hand-tallied fixture


def test_criterion_6_metric_oracle_equivalence():
    schema, sentences, predictions, expected = adversarial_fixture()
    rep = evaluate_corpus(sentences, predictions, schema, MatchMode.EXACT)
    checks = []

    def micro(block):
        return (block["tp"], block["fp"], block["fn"])

    checks.append((micro(rep["ner"]["micro"]), expected["ner_micro"]))
    checks.append((rep["ner"]["micro"]["f1"], float(expected["ner_f1"])))
    checks.append((micro(rep["re"]["micro"]), expected["re_micro"]))
    checks.append((rep["re"]["micro"]["f1"], float(expected["re_f1"])))
    for name, want in expected["ner_per_type_f1"].items():
        checks.append((rep["ner"]["per_type"][name]["f1"], float(want)))
    for name, want in expected["re_per_type_f1"].items():
        checks.append((rep["re"]["per_type"][name]["f1"], float(want)))
    checks.append((rep["oot"]["n_sentences"], expected["oot_sentences"]))
    checks.append((rep["it"]["n_sentences"], expected["it_sentences"]))
    checks.append((micro(rep["oot"]["ner"]["micro"]), expected["oot_ner"]))
    checks.append((micro(rep["oot"]["re"]["micro"]), expected["oot_re"]))
    checks.append((micro(rep["it"]["ner"]["micro"]), expected["it_ner"]))
    checks.append((micro(rep["it"]["re"]["micro"]), expected["it_re"]))
    checks.append((rep["error_taxonomy"], expected["taxonomy"]))

    bad = [f"{got!r} != {want!r}" for got, want in checks if got != want]
    ok = not bad
    report(6, "metric oracle equivalence", ok,
           f"{len(checks)} exact tallies" if ok else "; ".join(bad[:3]))


# ---------------------------------------------------------------------------
# criterion 7: same seed, same bytes


def test_criterion_7_training_determinism(tmp_path):
    corpus_path, schema_path = synthetic_paths()
    entries = {
        "schema": schema_path,
        "train_corpus": corpus_path,
        "checkpoint": "fit.json",
        "history": "history.json",
        "model": {"d_p": 8, "d_h": 8},
        "train": {"lr": 0.005, "epochs": 4},
    }
    blobs = []
    for run in ("a", "b"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        config = run_dir / "run.json"
        config.write_text(json.dumps(entries), encoding="utf-8")
        assert main(["train", "--config", str(config), "--seed", "11"]) == 0
        blobs.append(((run_dir / "fit.json").read_bytes(),
                      (run_dir / "history.json").read_bytes()))
    ok = blobs[0] == blobs[1]
    report(7, "training determinism", ok,
           f"checkpoint {len(blobs[0][0])} bytes and history "
           f"{len(blobs[0][1])} bytes bit-identical: {ok}")


# ---------------------------------------------------------------------------
# criterion 8: the ablation switches cut exactly the paths they name


def grad_is_zero(fwd, name) -> bool:
    grad = fwd.record.grad(fwd.bound[name])
    return grad is None or bool(np.all(grad == 0.0))


def dam_slice_grads(fwd, stream_index: int) -> list:
    kinds = ("w_z", "b_z", "w_f", "b_f", "w_c", "b_c", "w_a", "b_a")
    out = []
    for kind in kinds:
        grad = fwd.record.grad(fwd.bound[f"dam0.{kind}"])
        tensor = fwd.bound[f"dam0.{kind}"]
        out.append(np.zeros_like(tensor.values[stream_index])
                   if grad is None else grad[stream_index])
    return out


def backward_pass(model, sentence, schema, weights):
    fwd = model.forward(model.vocab.encode(sentence.tokens))
    gold_e, gold_r = gold_tables(sentence, schema)
    mask = entity_mask(len(sentence), schema.u, model.config.match_mode)
    loss = sentence_loss(fwd, gold_e, gold_r, mask, weights)
    fwd.record.backward(loss)
    return fwd


def test_criterion_8_ablation_parity():
    rng = np.random.default_rng(8)
    schema = LabelSchema(("e0", "e1"), ("r0", "r1"))
    sentence = random_corpus(rng, schema, 1, max_tokens=5)[0]
    vocab = Vocabulary.from_corpus([sentence])
    base = ModelConfig(d_p=4, d_h=5, seed=81)
    s_idx, r_idx, o_idx = (SUBTASKS.index(p) for p in ("s", "r", "o"))

    # with mixing off and an entity-only loss, the relation stream's cell
    # parameters sit on a dead path; turning mixing on revives them
    ner_only = LossWeights(gamma=1.0, delta=0.0)
    off = backward_pass(JointModel(replace(base, interaction=False),
                                   schema, vocab), sentence, schema, ner_only)
    mixing_cut = all(np.all(g == 0.0) for g in dam_slice_grads(off, r_idx))
    re_head_silent = all(grad_is_zero(off, name)
                         for name in ("re.w_pair", "re.b_pair", "re.ln_gain",
                                      "re.ln_bias", "re.w_out", "re.b_out"))
    on = backward_pass(JointModel(base, schema, vocab),
                       sentence, schema, ner_only)
    mixing_live = any(np.any(g != 0.0) for g in dam_slice_grads(on, r_idx))

    # with entity streams kept out of relation decoding (and mixing off),
    # a relation-only loss never reaches the subject or object cells
    re_only = LossWeights(gamma=0.0, delta=1.0)
    bare = JointModel(replace(base, interaction=False,
                              entity_features_in_re=False), schema, vocab)
    fwd_bare = backward_pass(bare, sentence, schema, re_only)
    streams_cut = all(np.all(g == 0.0)
                      for idx in (s_idx, o_idx)
                      for g in dam_slice_grads(fwd_bare, idx))
    ner_head_silent = all(grad_is_zero(fwd_bare, name)
                          for name in ("ner.w_pair", "ner.b_pair",
                                       "ner.ln_gain", "ner.ln_bias",
                                       "ner.w_out", "ner.b_out"))
    fed = JointModel(replace(base, interaction=False), schema, vocab)
    fwd_fed = backward_pass(fed, sentence, schema, re_only)
    streams_live = all(any(np.any(g != 0.0)
                           for g in dam_slice_grads(fwd_fed, idx))
                       for idx in (s_idx, o_idx))

    # the relation-side switch must leave entity scoring untouched
    ner_unchanged = np.array_equal(fwd_bare.entities.probs.values,
                                   fwd_fed.entities.probs.values)

    ok = (mixing_cut and re_head_silent and mixing_live and streams_cut
          and ner_head_silent and streams_live and ner_unchanged)
    report(8, "ablation switches cut only their paths", ok,
           f"mixing cut/live: {mixing_cut}/{mixing_live}, entity streams "
           f"cut/live: {streams_cut}/{streams_live}, relation head silent: "
           f"{re_head_silent}, entity head silent: {ner_head_silent}, "
           f"entity probabilities unchanged: {ner_unchanged}")
