"""Loss arithmetic, the optimizer, the fit loop, search, and checkpoints."""

import dataclasses
import json
import math
import os
import re
import types

import numpy as np
import numpy.testing as npt
import pytest

import darter.autodiff as ad
import darter.training as training
from darter import synthetic
from darter.autodiff import ContractError, ParamStore, Record, constant
from darter.corpus import (Entity, LabelSchema, MatchMode, Relation,
                           Sentence, Vocabulary, entity_mask, gold_tables,
                           load_corpus)
from darter.gradcheck import max_relative_error, numeric_gradients
from darter.model import ConfigError, JointModel, ModelConfig
from darter.training import (GAMMA_DELTA_GRID, Adam, GridPoint, LossWeights,
                             TrainConfig, TrainingDiverged, grid_search,
                             load_checkpoint, save_checkpoint, save_history,
                             sentence_loss, train)

import ops
import oracles

SCHEMA = LabelSchema(("per", "org"), ("works",))
VOCAB = Vocabulary(("ada", "built", "acme", "mill", "runs"))


def tiny_config(**over):
    base = dict(d_p=3, d_h=4, seed=7)
    base.update(over)
    return ModelConfig(**base)


def sentence(tokens, entities=(), relations=()):
    return Sentence(tuple(tokens), tuple(Entity(*e) for e in entities),
                    tuple(Relation(*r) for r in relations), MatchMode.EXACT)


CORPUS = [
    sentence(["ada", "built", "acme"],
             entities=[(0, 0, "per"), (2, 2, "org")],
             relations=[(0, 1, "works")]),
    sentence(["mill", "runs"], entities=[(0, 0, "org")]),
]


# ---------------------------------------------------------------------------
# loss

def test_bce_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    probs = rng.uniform(0.01, 0.99, (2, 2, 2))
    gold = (rng.uniform(size=(2, 2, 2)) > 0.5).astype(float)
    mask = (rng.uniform(size=(2, 2, 2)) > 0.3).astype(float)
    got = ad.bce(constant(probs), gold, mask).item()
    want = oracles.bce_sum(probs.tolist(), gold.tolist(), mask.tolist())
    assert abs(got - want) <= 1e-12


def test_bce_rejects_non_binary_gold():
    probs = constant(np.full((1, 1, 1), 0.5))
    with pytest.raises(ContractError, match="binary"):
        ad.bce(probs, np.full((1, 1, 1), 0.5))
    with pytest.raises(ContractError, match="shape"):
        ad.bce(probs, np.zeros((2, 1, 1)))


def test_bce_rejects_a_mask_of_the_wrong_shape():
    probs = constant(np.full((2, 2, 1), 0.5))
    with pytest.raises(ContractError, match=r"mask shape \(2, 2\) != probs"):
        ad.bce(probs, np.zeros((2, 2, 1)), np.ones((2, 2)))


def test_bce_clamp_keeps_saturated_probabilities_finite():
    probs = constant(np.array([[0.0, 1.0]]))
    value = ad.bce(probs, np.array([[1.0, 0.0]])).item()
    assert np.isfinite(value)
    assert abs(value - 2 * -math.log(1e-7)) <= 1e-6


def test_bce_perfect_prediction_is_only_clamp_deep():
    gold = np.array([[1.0, 0.0], [0.0, 1.0]])
    eps = 1e-7
    value = ad.bce(constant(gold), gold).item()
    assert 0.0 < value <= gold.size * -math.log(1.0 - eps) + 1e-15


def test_bce_gradient_against_finite_differences():
    rng = np.random.default_rng(1)
    store = ParamStore(2)
    store.add_uniform("p", (3, 3, 2), fan_in=1)
    store.set_("p", rng.uniform(0.05, 0.95, (3, 3, 2)))
    gold = (rng.uniform(size=(3, 3, 2)) > 0.5).astype(float)
    mask = np.triu(np.ones((3, 3)))[:, :, None] * np.ones(2)

    def run(recording=True):
        rec = Record(recording=recording)
        bound = store.bind(rec)
        return rec, bound, ad.bce(bound["p"], gold, mask)

    rec, bound, loss = run()
    rec.backward(loss)
    analytic = {"p": rec.grad(bound["p"])}
    numeric = numeric_gradients(lambda: run(False)[2].item(), store)
    assert max_relative_error(analytic, numeric) <= 1e-6


def test_zero_model_loss_is_cells_times_ln2():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    model.store.zero_all()
    s = CORPUS[0]
    t = len(s)
    entity_gold, relation_gold = gold_tables(s, SCHEMA)
    mask = entity_mask(t, SCHEMA.u, MatchMode.EXACT)
    forward = model.forward(VOCAB.encode(s.tokens))
    loss = sentence_loss(forward, entity_gold, relation_gold, mask,
                         LossWeights())
    cells = mask.sum() + t * t * SCHEMA.v
    assert abs(loss.item() - cells * math.log(2.0)) <= 1e-12


def test_loss_weights_scale_the_parts():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    s = CORPUS[0]
    entity_gold, relation_gold = gold_tables(s, SCHEMA)
    mask = entity_mask(len(s), SCHEMA.u, MatchMode.EXACT)

    def value(gamma, delta):
        forward = model.forward(VOCAB.encode(s.tokens), recording=False)
        return sentence_loss(forward, entity_gold, relation_gold, mask,
                             LossWeights(gamma=gamma, delta=delta)).item()

    ner_only = value(1.0, 0.0)
    re_only = value(0.0, 1.0)
    both = value(0.75, 0.85)
    assert abs(both - (0.75 * ner_only + 0.85 * re_only)) <= 1e-9


def test_loss_weights_reject_negatives():
    with pytest.raises(ConfigError):
        LossWeights(gamma=-0.1)


# ---------------------------------------------------------------------------
# optimizer

def test_adam_first_step_is_signed_lr():
    store = ParamStore(0)
    store.add_zeros("w", (3,))
    before = store["w"].copy()
    opt = Adam(store, lr=0.01)
    opt.step(np.array([1.0, -2.0, 0.5]))
    delta = store["w"] - before
    npt.assert_allclose(delta, [-0.01, 0.01, -0.01], rtol=1e-6)


def test_adam_is_deterministic():
    def run():
        store = ParamStore(3)
        store.add_uniform("w", (4,), fan_in=4)
        opt = Adam(store, lr=0.05)
        rng = np.random.default_rng(0)
        for _ in range(5):
            opt.step(rng.standard_normal(4))
        return store["w"].copy()

    npt.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# training loop

def test_train_config_contracts():
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("field", ["epochs", "seed"])
def test_train_config_rejects_a_negative_count(field):
    with pytest.raises(ConfigError, match=f"{field} must be non-negative"):
        TrainConfig(**{field: -1})


def test_zero_learning_rate_changes_nothing():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    before = {name: model.store[name].copy() for name in model.store.names()}
    history = train(model, CORPUS, TrainConfig(lr=0.0, epochs=3))
    assert len(history) == 3
    for name, values in before.items():
        npt.assert_array_equal(model.store[name], values)
    # every epoch sees the same model, so the mean loss repeats exactly
    assert history[0] == history[1] == history[2]


def test_training_is_deterministic():
    def run():
        model = JointModel(tiny_config(), SCHEMA, VOCAB)
        history = train(model, CORPUS,
                        TrainConfig(lr=1e-2, epochs=4, seed=11))
        return history, {n: model.store[n].copy()
                         for n in model.store.names()}

    history_a, params_a = run()
    history_b, params_b = run()
    assert history_a == history_b
    for name in params_a:
        npt.assert_array_equal(params_a[name], params_b[name])


def test_training_reduces_loss():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    history = train(model, CORPUS, TrainConfig(lr=1e-2, epochs=30))
    assert history[-1] < history[0]


def test_batched_and_online_updates_both_run():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    history = train(model, CORPUS,
                    TrainConfig(lr=1e-2, epochs=2, batch_size=2))
    assert len(history) == 2 and all(np.isfinite(history))


def test_empty_corpus_rejected():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    with pytest.raises(ContractError, match="empty"):
        train(model, [], TrainConfig(epochs=1))


def test_mode_mismatch_rejected():
    model = JointModel(tiny_config(match_mode=MatchMode.TAIL), SCHEMA, VOCAB)
    with pytest.raises(ContractError, match="tail"):
        train(model, CORPUS, TrainConfig(epochs=1))


def test_nan_loss_aborts_with_location():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    poisoned = model.store["embedding"].copy()
    poisoned[1, 0] = np.nan
    model.store.set_("embedding", poisoned)
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(model, CORPUS, TrainConfig(lr=1e-2, epochs=1))


def test_single_sentence_overfits_to_gold():
    model = JointModel(tiny_config(d_p=8, d_h=8), SCHEMA, VOCAB)
    target = CORPUS[0]
    history = train(model, [target], TrainConfig(lr=1e-2, epochs=150))
    pred = model.predict_tokens(target.tokens)
    assert pred.entities == {(0, 0, 0), (2, 2, 1)}
    assert pred.relations == {(0, 2, 0)}
    assert history[-1] < 0.01 * history[0]


def test_default_rate_crushes_single_sentence_loss():
    model = JointModel(ModelConfig(seed=7), SCHEMA, VOCAB)
    history = train(model, [CORPUS[0]], TrainConfig(epochs=500))
    assert history[-1] < 0.01 * history[0]


# ---------------------------------------------------------------------------
# grid search

def test_grid_search_picks_rigged_best_and_breaks_ties(monkeypatch):
    scores = {}
    order = []

    def scorer(model, dev):
        key = (model.config.alpha, model.config.beta)
        order.append(key)
        return scores[key]

    # two candidates tie on relation F1; entity F1 breaks the tie
    for alpha in (-1.0, 0.5):
        for beta in (0.5, 1.0):
            scores[(alpha, beta)] = (0.1, 0.2)
    scores[(-1.0, 1.0)] = (0.5, 0.9)
    scores[(0.5, 0.5)] = (0.7, 0.9)
    monkeypatch.setattr(training, "_default_scorer", scorer)

    result = grid_search(tiny_config(), SCHEMA, VOCAB, CORPUS, CORPUS,
                         TrainConfig(epochs=0),
                         alphas=(-1.0, 0.5), betas=(0.5, 1.0),
                         gammas=(1.0,), deltas=(1.0,))
    assert (result.best.alpha, result.best.beta) == (0.5, 0.5)
    assert result.best.ner_f1 == 0.7 and result.best.re_f1 == 0.9
    assert len(result.points) == 4
    # enumeration follows the printed nesting order
    assert order == [(-1.0, 0.5), (-1.0, 1.0), (0.5, 0.5), (0.5, 1.0)]


def test_grid_search_full_tie_takes_lexicographically_smallest(monkeypatch):
    def scorer(model, dev):
        return (0.5, 0.5)

    monkeypatch.setattr(training, "_default_scorer", scorer)

    # enumeration order deliberately scrambled; the tie-break ignores it
    result = grid_search(tiny_config(), SCHEMA, VOCAB, CORPUS, CORPUS,
                         TrainConfig(epochs=0),
                         alphas=(1.0, -1.0), betas=(1.0,),
                         gammas=(1.0, 0.75), deltas=(1.0,))
    best = result.best
    assert (best.alpha, best.beta, best.gamma, best.delta) == \
        (-1.0, 1.0, 0.75, 1.0)


def test_grid_search_single_point():
    result = grid_search(tiny_config(), SCHEMA, VOCAB, CORPUS, CORPUS,
                         TrainConfig(lr=1e-2, epochs=2),
                         alphas=(1.0,), betas=(1.0,), gammas=(1.0,),
                         deltas=(1.0,))
    assert len(result.points) == 1
    assert result.best == result.points[0]
    assert isinstance(result.best, GridPoint)
    assert 0.0 <= result.best.re_f1 <= 1.0


@pytest.mark.parametrize("grid", ["alphas", "betas", "gammas", "deltas"])
def test_grid_search_rejects_an_empty_grid_before_training(monkeypatch, grid):
    def never(*args, **kwargs):
        raise AssertionError("trained on an empty grid")

    monkeypatch.setattr(training, "train", never)
    with pytest.raises(ContractError, match=f"the {grid} grid is empty"):
        grid_search(tiny_config(), SCHEMA, VOCAB, CORPUS, CORPUS,
                    TrainConfig(epochs=0), **{grid: ()})


# ---------------------------------------------------------------------------
# artifacts

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = JointModel(tiny_config(variant="bidarter", seed=5), SCHEMA, VOCAB)
    train(model, CORPUS, TrainConfig(lr=1e-2, epochs=2))
    path = tmp_path / "model.json"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.schema == model.schema
    assert loaded.vocab == model.vocab
    for name in model.store.names():
        npt.assert_array_equal(loaded.store[name], model.store[name])


def test_checkpoint_keeps_every_config_field(tmp_path):
    """A 3-layer darter moves every field but the variant off its default;
    a bidarter, which has exactly two layers, moves the variant."""
    off = dict(d_p=3, d_h=4, interaction=False, entity_features_in_re=False,
               alpha=-1.0, beta=0.5, match_mode=MatchMode.TAIL,
               mask_reversed_entity_cells=False, seed=7)
    assert set(off) | {"variant", "n_layers"} == {
        f.name for f in dataclasses.fields(ModelConfig)}
    path = tmp_path / "model.json"
    for config in (ModelConfig(n_layers=3, **off),
                   ModelConfig(variant="bidarter", **off)):
        save_checkpoint(path, JointModel(config, SCHEMA, VOCAB))
        assert load_checkpoint(path).config == config


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ConfigError, match="checkpoint"):
        load_checkpoint(path)
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed"):
        load_checkpoint(path)


def test_checkpoint_rejects_mismatched_parameters(tmp_path):
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    path = tmp_path / "model.json"
    save_checkpoint(path, model)
    obj = json.loads(path.read_text(encoding="utf-8"))
    del obj["params"]["embedding"]
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ConfigError, match="architecture"):
        load_checkpoint(path)


def test_history_file(tmp_path):
    path = tmp_path / "history.json"
    save_history(path, [3.0, 2.5, 2.25])
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj == {"epoch_mean_loss": [3.0, 2.5, 2.25]}


def test_checkpoint_write_failure_keeps_the_previous_file(tmp_path,
                                                          monkeypatch):
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    checkpoint, history = tmp_path / "model.json", tmp_path / "history.json"
    save_checkpoint(checkpoint, model)
    save_history(history, [1.0, 0.5])
    before = {path: path.read_bytes() for path in (checkpoint, history)}

    def failing_dump(obj, handle, **kwargs):
        handle.write('{"format": "darter-checkpoint", "par')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    model.store.zero_all()
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(checkpoint, model)
    with pytest.raises(OSError, match="disk full"):
        save_history(history, [0.25])
    for path, data in before.items():
        assert path.read_bytes() == data
    assert sorted(os.listdir(tmp_path)) == ["history.json", "model.json"]


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(path, JointModel(tiny_config(), SCHEMA, VOCAB))
    return path, json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", ["config", "schema", "vocab", "params"])
def test_checkpoint_missing_key_is_config_error(tmp_path, key):
    path, obj = _saved_checkpoint(tmp_path)
    del obj[key]
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"model.json: {key}: "
                                                    f"missing")):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [
    ("vocab", "abcde"),
    ("vocab", [1, 2, 3, 4, 5]),
    ("vocab", ["ada", "built", "", "mill", "runs"]),
    ("schema", {"entity_types": "po", "relation_types": ["works"]}),
    ("schema", {"entity_types": ["per", "org"], "relation_types": ["works"],
                "notes": []}),
])
def test_checkpoint_bad_vocab_or_schema_is_config_error(tmp_path, key, value):
    # each value fits the saved parameters' shapes
    path, obj = _saved_checkpoint(tmp_path)
    obj[key] = value
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"model.json: {key}: ")):
        load_checkpoint(path)


def test_checkpoint_of_a_model_above_the_size_limit_is_config_error(
        tmp_path):
    path, obj = _saved_checkpoint(tmp_path)
    obj["config"]["d_p"] = 10 ** 30
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(
            f"model.json: config: d_p = {10 ** 30}")):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["shape", "data"])
def test_checkpoint_parameter_missing_field_is_config_error(tmp_path, field):
    path, obj = _saved_checkpoint(tmp_path)
    del obj["params"]["ner.b_out"][field]
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(
            f"model.json: params.ner.b_out.{field}: missing")):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf, "x"])
def test_checkpoint_parameter_bad_value_is_config_error(tmp_path, bad):
    path, obj = _saved_checkpoint(tmp_path)
    obj["params"]["dam0.w_f"]["data"][3] = bad
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=re.escape("model.json: params.dam0.w_f: ")):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# the fused loss node and the flat Adam against their composed references


def composed_bce(probs, gold, mask=None, eps=1e-7):
    """The entity/relation BCE as a chain of elementary nodes: clamp, two
    logs, three products, an affine, an add, a sum and a final affine."""
    gold = np.asarray(gold, dtype=np.float64)
    p = ops.clamp(probs, eps, 1.0 - eps)
    hit = ops.mul(constant(gold), ops.log(p))
    miss = ops.mul(constant(1.0 - gold),
                   ops.log(ad.affine_const(p, -1.0, 1.0)))
    cells = ad.add(hit, miss)
    if mask is not None:
        cells = ops.mul(cells, constant(np.asarray(mask, dtype=np.float64)))
    return ad.affine_const(ops.sum_all(cells), -1.0, 0.0)


def _bce_value_and_grad(loss_fn, probs, gold, mask):
    rec = Record()
    leaf = rec.leaf(probs)
    loss = ad.affine_const(loss_fn(leaf, gold, mask), 0.85, 0.0)
    rec.backward(loss)
    return loss.values, rec.grad(leaf)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("eps", [1e-3, 1e-7, 1e-16])
def test_fused_bce_matches_composed_chain_bit_for_bit(monkeypatch, masked,
                                                      eps):
    monkeypatch.setattr(ad, "_CLAMP_EPS", eps)
    rng = np.random.default_rng(int(-math.log10(eps)) + 10 * masked)
    # sigmoid outputs, like the heads': 1 - p is then rarely exact
    probs = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 3.0, (5, 5, 3))))
    # saturated cells, cells on and just inside the clamp bounds
    probs.flat[:8] = (0.0, 1.0, eps, 1.0 - eps, eps / 2, 1.0 - eps / 2,
                      eps * 1.5, 1.0 - eps * 1.5)
    gold = (rng.uniform(size=probs.shape) > 0.5).astype(float)
    gold.flat[:8] = (1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    mask = (np.triu(np.ones((5, 5)))[:, :, None] * np.ones(3)
            if masked else None)
    fused = _bce_value_and_grad(ad.bce, probs, gold, mask)
    composed = _bce_value_and_grad(
        lambda p, y, m: composed_bce(p, y, m, eps), probs, gold, mask)
    for got, want in zip(fused, composed):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # a table's sum can round a last-bit difference of one cell away
    for p, y in zip(probs.ravel(), gold.ravel()):
        cell = constant(np.full((1, 1), p))
        assert (ad.bce(cell, np.full((1, 1), y)).values.tobytes()
                == composed_bce(cell, np.full((1, 1), y), eps=eps)
                .values.tobytes())


@pytest.mark.parametrize("probs, eps, message", [
    ([0.0, 0.5], 0.0, "strictly positive"),       # log(0)
    ([0.5, 1.0], 1e-300, "strictly positive"),    # 1 - eps rounds to 1
    ([0.2, 0.5], 0.5, "lo < hi"),
    ([0.2, 0.5], 0.75, "lo < hi"),
])
def test_fused_bce_keeps_the_clamp_and_log_contracts(probs, eps, message):
    probs = constant(np.array([probs]))
    gold = np.array([[1.0, 0.0]])
    with pytest.raises(ContractError, match=message):
        composed_bce(probs, gold, None, eps)


class ReferenceAdam:
    """Adam as the per-array formula, one named parameter at a time."""

    def __init__(self, store, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store, self.lr = store, lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m = {n: np.zeros_like(store[n]) for n in store.names()}
        self._v = {n: np.zeros_like(store[n]) for n in store.names()}

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        for name in self.store.names():
            g, m, v = grads[name], self._m[name], self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            self.store.set_(name, self.store[name]
                            - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))


def test_flat_adam_matches_per_name_reference_bit_for_bit():
    def store():
        s = ParamStore(9)
        s.add_uniform("w", (3, 4), fan_in=3)
        s.add_zeros("b", (4,))
        s.add_ones("still", (2, 2))     # never receives a gradient
        return s

    flat_store, ref_store = store(), store()
    flat, ref = Adam(flat_store, lr=0.03), ReferenceAdam(ref_store, lr=0.03)
    # a larger optimizer stepping in between must not disturb this one
    other_store = ParamStore(2)
    other_store.add_uniform("big", (7, 9), fan_in=7)
    other = Adam(other_store, lr=0.5)
    rng = np.random.default_rng(4)
    for step in range(7):
        grads = {"w": rng.standard_normal((3, 4)),
                 "b": rng.standard_normal(4) if step % 3 else np.zeros(4),
                 "still": np.zeros((2, 2))}
        flat.step(np.concatenate([grads[k] for k in flat_store.names()],
                                 axis=None))
        other.step(rng.standard_normal(63))
        ref.step(grads)
        for name in ref_store.names():
            assert flat_store[name].tobytes() == ref_store[name].tobytes()
    npt.assert_array_equal(flat_store["still"], np.ones((2, 2)))


def reference_train(model, sentences, config, weights):
    """The fit loop built from the composed loss and the per-name Adam:
    every batch sums its gradients into zeros and then scales them."""
    schema, cfg = model.schema, model.config
    prepared = [(model.vocab.encode(s.tokens), *gold_tables(s, schema),
                 entity_mask(len(s), schema.u, cfg.match_mode,
                             cfg.mask_reversed_entity_cells))
                for s in sentences]
    rng = np.random.default_rng(config.seed)
    optimizer = ReferenceAdam(model.store, config.lr)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(prepared))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = {n: np.zeros_like(model.store[n])
                     for n in model.store.names()}
            for idx in batch:
                ids, entity_gold, relation_gold, mask = prepared[idx]
                forward = model.forward(ids)
                eps = ad._CLAMP_EPS
                loss = ad.add(
                    ad.affine_const(composed_bce(forward.entities.probs,
                                                 entity_gold, mask, eps),
                                    weights.gamma, 0.0),
                    ad.affine_const(composed_bce(forward.relations.probs,
                                                 relation_gold, None, eps),
                                    weights.delta, 0.0))
                total += loss.item()
                forward.record.backward(loss)
                for name in grads:
                    grad = forward.record.grad(forward.bound[name])
                    if grad is not None:
                        grads[name] += grad
            scale = 1.0 / len(batch)
            optimizer.step({n: g * scale for n, g in grads.items()})
        history.append(total / len(prepared))
    return history


def bundled_corpus():
    corpus_path, schema_path = synthetic.synthetic_paths()
    schema = LabelSchema.load(schema_path)
    sentences = load_corpus(corpus_path, schema, MatchMode.EXACT)
    return schema, sentences, Vocabulary.from_corpus(sentences)


@pytest.mark.parametrize("variant", ["darter", "bidarter"])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_train_reproduces_the_composed_reference_bit_for_bit(variant,
                                                             batch_size):
    schema, sentences, vocab = bundled_corpus()
    config = TrainConfig(lr=1e-2, epochs=2, batch_size=batch_size, seed=5)
    weights = LossWeights(gamma=0.85, delta=0.75)
    runs = []
    for fit in (train, reference_train):
        model = JointModel(ModelConfig(variant=variant, seed=3), schema,
                           vocab)
        runs.append((fit(model, sentences, config, weights), model.store))
    (history, store), (ref_history, ref_store) = runs
    assert [h.hex() for h in history] == [h.hex() for h in ref_history]
    for name in ref_store.names():
        assert store[name].tobytes() == ref_store[name].tobytes(), name


@pytest.mark.parametrize("batch_size", [1, 3])
def test_parameters_the_loss_does_not_reach_keep_their_bytes(monkeypatch,
                                                             batch_size):
    """With a loss of the entity table alone, the relation head's
    parameters get zero gradients and Adam leaves them as they were;
    every other parameter moves."""
    def entity_loss(forward, entity_gold, relation_gold, mask, weights):
        return ad.bce(forward.entities.probs, entity_gold, mask)

    monkeypatch.setattr(training, "sentence_loss", entity_loss)
    schema, sentences, vocab = bundled_corpus()
    model = JointModel(ModelConfig(seed=3), schema, vocab)
    before = model.store.copy()
    train(model, sentences, TrainConfig(lr=1e-2, epochs=2,
                                        batch_size=batch_size, seed=5))
    for name in model.store.names():
        kept = model.store[name].tobytes() == before[name].tobytes()
        assert kept == name.startswith("re."), name


def test_training_step_node_budget():
    """A stock darter step records one loss node per table plus the
    weighted sum; the whole step stays within its node budget."""
    schema, sentences, vocab = bundled_corpus()
    model = JointModel(ModelConfig(variant="darter"), schema, vocab)
    s = sentences[0]
    forward = model.forward(vocab.encode(s.tokens))
    before = len(forward.record.nodes)
    entity_gold, relation_gold = gold_tables(s, schema)
    sentence_loss(forward, entity_gold, relation_gold,
                  entity_mask(len(s), schema.u, MatchMode.EXACT),
                  LossWeights())
    assert len(forward.record.nodes) - before <= 5
    assert len(forward.record.nodes) <= 28


@pytest.mark.parametrize("variant,budget", [("darter", 28), ("bidarter", 37)])
def test_forward_and_loss_node_budget(variant, budget):
    """Every bundled sentence's forward and loss stay within the budget,
    and the last layer's output feeds the two heads and nothing else."""
    schema, sentences, vocab = bundled_corpus()
    model = JointModel(ModelConfig(variant=variant), schema, vocab)
    for s in sentences:
        forward = model.forward(vocab.encode(s.tokens))
        entity_gold, relation_gold = gold_tables(s, schema)
        sentence_loss(forward, entity_gold, relation_gold,
                      entity_mask(len(s), schema.u, MatchMode.EXACT),
                      LossWeights())
        nodes = forward.record.nodes
        assert len(nodes) <= budget
        last = max(i for i, node in enumerate(nodes)
                   if node.tag == "dam_sequence")
        readers = [node.tag for node in nodes if last in node.input_ids]
        assert readers == ["pair_scores", "pair_scores"]


@pytest.mark.parametrize("gamma", GAMMA_DELTA_GRID)
@pytest.mark.parametrize("delta", GAMMA_DELTA_GRID)
def test_weighted_bce_nodes_match_the_affine_chain_bit_for_bit(gamma,
                                                               delta):
    """sentence_loss applies gamma and delta inside its two BCE nodes:
    three nodes with the bits of affine_const/add over unweighted ones."""
    rng = np.random.default_rng(int(100 * gamma + 10 * delta))
    t, u, v = 4, 2, 3
    probs_e = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 3.0, (t, t, u))))
    probs_r = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 3.0, (t, t, v))))
    gold_e = (rng.uniform(size=probs_e.shape) > 0.7).astype(float)
    gold_r = (rng.uniform(size=probs_r.shape) > 0.8).astype(float)
    mask = entity_mask(t, u, MatchMode.EXACT)

    def run(loss_fn):
        rec = Record()
        leaves = rec.leaf(probs_e), rec.leaf(probs_r)
        forward = types.SimpleNamespace(
            entities=types.SimpleNamespace(probs=leaves[0]),
            relations=types.SimpleNamespace(probs=leaves[1]))
        before = len(rec.nodes)
        loss = loss_fn(forward)
        nodes = len(rec.nodes) - before
        rec.backward(loss)
        return nodes, loss.values, [rec.grad(leaf) for leaf in leaves]

    def chain(forward):
        return ad.add(
            ad.affine_const(ad.bce(forward.entities.probs, gold_e, mask),
                            gamma, 0.0),
            ad.affine_const(ad.bce(forward.relations.probs, gold_r),
                            delta, 0.0))

    nodes, value, grads = run(lambda forward: sentence_loss(
        forward, gold_e, gold_r, mask, LossWeights(gamma, delta)))
    chain_nodes, chain_value, chain_grads = run(chain)
    assert (nodes, chain_nodes) == (3, 5)
    assert np.asarray(value).tobytes() == np.asarray(chain_value).tobytes()
    for got, want in zip(grads, chain_grads):
        assert got.tobytes() == want.tobytes()
