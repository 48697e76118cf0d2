"""Model assembly: configuration contracts and end-to-end forward passes."""

import functools
import gc
import os
import sys
import threading
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import darter.autodiff as ad
from darter.autodiff import Record, constant
from darter.corpus import LabelSchema, MatchMode, Vocabulary
from darter.decoders import ALPHA_BETA_GRID
from darter.gradcheck import max_relative_error, numeric_gradients
from darter.model import ConfigError, JointModel, ModelConfig, check_size

import ops

SCHEMA = LabelSchema(("per", "org"), ("works",))
VOCAB = Vocabulary(("ada", "built", "acme", "mill"))


def tiny_config(**over):
    base = dict(d_p=3, d_h=4, seed=7)
    base.update(over)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# configuration

def test_layer_defaults_follow_variant():
    assert ModelConfig().n_layers == 1
    assert ModelConfig(variant="bidarter").n_layers == 2
    assert ModelConfig(n_layers=3).n_layers == 3


@pytest.mark.parametrize("kwargs,match", [
    (dict(variant="rnn"), "variant"),
    (dict(variant="bidarter", n_layers=1), "exactly"),
    (dict(n_layers=0), "positive"),
    (dict(d_p=0), "d_p"),
    (dict(d_h=1), "d_h"),
    (dict(alpha=0.25), "alpha"),
    (dict(beta=2.0), "beta"),
    (dict(match_mode="tail"), "MatchMode"),
    (dict(seed=-1), "seed"),
])
def test_config_rejections(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        ModelConfig(**kwargs)


def test_config_json_round_trip():
    config = ModelConfig(variant="bidarter", d_p=5, d_h=6, alpha=-1.0,
                         beta=0.5, interaction=False,
                         match_mode=MatchMode.TAIL, seed=3)
    assert ModelConfig.from_json(config.to_json()) == config


def test_config_from_json_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="learning_rate"):
        ModelConfig.from_json({"learning_rate": 0.1})


# ---------------------------------------------------------------------------
# parameter registry

def test_registered_parameter_names():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    names = set(model.store.names())
    assert "embedding" in names
    assert any(n.startswith("dam0.") for n in names)
    assert not any(n.startswith("dam1.") for n in names)
    assert {"ner.w_pair", "ner.w_out", "re.w_pair", "re.w_out"} <= names
    assert model.store["embedding"].shape == (VOCAB.size, 3)
    # one stream: pair features are [h_i; h_j]
    assert model.store["ner.w_pair"].shape == (2 * 4, 4)
    assert model.store["ner.w_out"].shape == (4, SCHEMA.u)
    assert model.store["re.w_out"].shape == (4, SCHEMA.v)


def test_bidirectional_registry_widens_heads():
    model = JointModel(tiny_config(variant="bidarter"), SCHEMA, VOCAB)
    names = set(model.store.names())
    assert any(n.startswith("dam1.") for n in names)
    # two streams: [fwd_i; fwd_j; bwd_i; bwd_j]
    assert model.store["ner.w_pair"].shape == (4 * 4, 4)
    assert model.store["dam0.w_z"].shape == (3, 3, 4)
    assert model.store["dam1.w_z"].shape == (3, 4, 4)


@pytest.mark.parametrize("over", [{}, dict(variant="bidarter"),
                                  dict(n_layers=3, d_p=5, d_h=2)])
def test_check_size_counts_the_registered_parameters(over):
    model = JointModel(tiny_config(**over), SCHEMA, VOCAB)
    assert check_size(model.config, SCHEMA, VOCAB) == \
        model.store.n_components()


def test_same_seed_same_parameters():
    a = JointModel(tiny_config(), SCHEMA, VOCAB)
    b = JointModel(tiny_config(), SCHEMA, VOCAB)
    for name in a.store.names():
        npt.assert_array_equal(a.store[name], b.store[name])
    c = JointModel(tiny_config(seed=8), SCHEMA, VOCAB)
    assert any(not np.array_equal(a.store[name], c.store[name])
               for name in a.store.names())


# ---------------------------------------------------------------------------
# forward

@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_forward_shapes(variant):
    model = JointModel(tiny_config(variant=variant), SCHEMA, VOCAB)
    forward = model.forward(VOCAB.encode(["ada", "built", "acme"]))
    assert forward.entities.probs.shape == (3, 3, SCHEMA.u)
    assert forward.relations.probs.shape == (3, 3, SCHEMA.v)
    probs = forward.entities.probs.values
    assert np.all((probs > 0) & (probs < 1))


def test_forward_deterministic():
    ids = VOCAB.encode(["mill", "ada"])
    a = JointModel(tiny_config(), SCHEMA, VOCAB).forward(ids)
    b = JointModel(tiny_config(), SCHEMA, VOCAB).forward(ids)
    npt.assert_array_equal(a.entities.probs.values, b.entities.probs.values)
    npt.assert_array_equal(a.relations.probs.values,
                           b.relations.probs.values)


def test_zero_model_predicts_nothing_at_half():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    model.store.zero_all()
    forward = model.forward(VOCAB.encode(["ada", "built"]))
    npt.assert_array_equal(forward.entities.probs.values,
                           np.full((2, 2, 2), 0.5))
    npt.assert_array_equal(forward.relations.probs.values,
                           np.full((2, 2, 1), 0.5))
    pred = model.predict_tokens(["ada", "built"])
    assert pred.entities == frozenset() and pred.relations == frozenset()


def test_unknown_tokens_share_the_embedding_row():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    a = model.forward(VOCAB.encode(["zzz", "acme"]))
    b = model.forward(VOCAB.encode(["qqq", "acme"]))
    npt.assert_array_equal(a.entities.probs.values, b.entities.probs.values)


def test_embedding_gradient_is_sparse():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    ids = VOCAB.encode(["ada", "acme", "ada"])  # rows 1 and 3, row 1 twice
    forward = model.forward(ids)
    loss = ops.sum_all(forward.entities.probs)
    forward.record.backward(loss)
    grad = forward.record.grad(forward.bound["embedding"])
    used = {1, 3}
    for row in range(VOCAB.size):
        if row in used:
            assert np.any(grad[row] != 0.0)
        else:
            npt.assert_array_equal(grad[row], np.zeros(3))


def test_predict_corpus_aligns_with_sentences():
    from darter.corpus import Entity, Sentence
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    model.store.zero_all()
    corpus = [Sentence(("ada",), (Entity(0, 0, "per"),), (), MatchMode.EXACT),
              Sentence(("mill", "acme"), (), (), MatchMode.EXACT)]
    preds = model.predict_corpus(corpus)
    assert len(preds) == 2
    assert all(p.entities == frozenset() for p in preds)


@pytest.mark.parametrize("variant,interaction,entity_features",
                         [("darter", True, True),
                          ("darter", False, False),
                          ("bidarter", True, True)])
def test_full_model_gradients(variant, interaction, entity_features):
    config = tiny_config(variant=variant, d_p=2, d_h=3, alpha=0.5, beta=-1.0,
                         interaction=interaction,
                         entity_features_in_re=entity_features)
    model = JointModel(config, SCHEMA, VOCAB)
    ids = VOCAB.encode(["ada", "built", "acme"])
    rng = np.random.default_rng(0)
    w_e = rng.standard_normal((3, 3, SCHEMA.u))
    w_r = rng.standard_normal((3, 3, SCHEMA.v))

    def loss_value():
        forward = model.forward(ids, recording=False)
        return (ops.sum_all(ops.mul(forward.entities.probs, constant(w_e)))
                .item()
                + ops.sum_all(ops.mul(forward.relations.probs, constant(w_r)))
                .item())

    forward = model.forward(ids)
    loss = ad.add(
        ops.sum_all(ops.mul(forward.entities.probs, constant(w_e))),
        ops.sum_all(ops.mul(forward.relations.probs, constant(w_r))))
    forward.record.backward(loss)
    analytic = {}
    for name, tensor in forward.bound.items():
        grad = forward.record.grad(tensor)
        analytic[name] = (np.zeros_like(model.store[name])
                          if grad is None else grad)
    numeric = numeric_gradients(loss_value, model.store)
    err = max_relative_error(analytic, numeric)
    assert err <= 1e-4, f"model gradient mismatch: {err:.2e}"


@pytest.mark.parametrize("mode", [MatchMode.EXACT, MatchMode.TAIL])
@pytest.mark.parametrize("entity_features", [True, False])
@pytest.mark.parametrize("interaction", [True, False])
@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_recorded_and_unrecorded_forwards_are_bit_identical(
        variant, interaction, entity_features, mode):
    # finite-difference checks differentiate the unrecorded forward and
    # compare with gradients of the recorded one: both must be one program
    config = tiny_config(variant=variant, interaction=interaction,
                         entity_features_in_re=entity_features,
                         match_mode=mode, alpha=0.5, beta=-1.0)
    model = JointModel(config, SCHEMA, VOCAB)
    ids = VOCAB.encode(["ada", "built", "acme", "mill", "ada"])
    recorded = model.forward(ids, recording=True)
    plain = model.forward(ids, recording=False)
    assert recorded.record.nodes and not plain.record.nodes
    npt.assert_array_equal(recorded.entities.probs.values,
                           plain.entities.probs.values)
    npt.assert_array_equal(recorded.relations.probs.values,
                           plain.relations.probs.values)


@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_alpha_and_beta_reach_the_relation_table_only_with_entity_features(
        variant):
    """Without entity features the relation head reads the relation stream
    alone, so every (alpha, beta) on the grid gives the same tables to the
    bit; with them, each pair gives its own relation table. The entity
    table never depends on alpha or beta."""
    ids = VOCAB.encode(["ada", "built", "acme", "mill"])
    for features in (False, True):
        entities, relations = set(), set()
        for alpha in ALPHA_BETA_GRID:
            for beta in ALPHA_BETA_GRID:
                config = tiny_config(variant=variant, alpha=alpha, beta=beta,
                                     entity_features_in_re=features)
                forward = JointModel(config, SCHEMA, VOCAB).forward(
                    ids, recording=False)
                entities.add(forward.entities.probs.values.tobytes())
                relations.add(forward.relations.probs.values.tobytes())
        assert len(entities) == 1
        assert len(relations) == (len(ALPHA_BETA_GRID) ** 2 if features
                                  else 1)


# ---------------------------------------------------------------------------
# the parameter structs unrecorded forwards reuse

def _probs(forward):
    return (forward.entities.probs.values.tobytes()
            + forward.relations.probs.values.tobytes())


@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_unrecorded_forward_sees_in_place_parameter_changes(variant):
    # gradient checks perturb the store's arrays in place between forwards
    model = JointModel(tiny_config(variant=variant), SCHEMA, VOCAB)
    ids = VOCAB.encode(["ada", "built", "acme"])
    before = _probs(model.forward(ids, recording=False))
    for name in ("embedding", "dam0.w_f", "ner.w_out", "re.b_pair"):
        model.store[name][...] += 0.25
        changed = model.forward(ids, recording=False)
        assert _probs(changed) != before, name
        assert _probs(changed) == _probs(model.forward(ids)), name
        model.store[name][...] -= 0.25
        assert _probs(model.forward(ids, recording=False)) == before, name


def test_unrecorded_forward_reads_a_replaced_store():
    model = JointModel(tiny_config(variant="bidarter"), SCHEMA, VOCAB)
    ids = VOCAB.encode(["mill", "ada", "acme"])
    before = _probs(model.forward(ids, recording=False))
    old = model.store
    model.store = old.copy()
    model.store["dam1.w_c"][...] *= 2.0          # the copy only
    replaced = model.forward(ids, recording=False)
    assert replaced.bound["dam1.w_c"].values is model.store["dam1.w_c"]
    assert _probs(replaced) != before
    assert _probs(replaced) == _probs(model.forward(ids))
    model.store = old
    assert _probs(model.forward(ids, recording=False)) == before


def test_recorded_forwards_bind_fresh_leaves():
    model = JointModel(tiny_config(), SCHEMA, VOCAB)
    ids = VOCAB.encode(["ada", "acme"])
    first, second = model.forward(ids), model.forward(ids)
    assert first.record is not second.record
    for name in model.store.names():
        a, b = first.bound[name], second.bound[name]
        assert a is not b and a.record is first.record
        assert b.record is second.record and b.node_id is not None
    plain = model.forward(ids, recording=False)
    assert all(t.node_id is None for t in plain.bound.values())


@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_a_recorded_step_is_freed_without_the_cycle_collector(variant):
    """No node keeps a Tensor of its own record: a training step's record
    is freed once its forward is dropped, not at the next collection."""
    model = JointModel(tiny_config(variant=variant), SCHEMA, VOCAB)
    ids = VOCAB.encode(["ada", "built", "acme"])
    gc.collect()
    gc.disable()
    try:
        forward = model.forward(ids)
        loss = ad.add(ops.sum_all(forward.entities.probs),
                      ops.sum_all(forward.relations.probs))
        forward.record.backward(loss)
        record = weakref.ref(forward.record)
        del forward, loss
        assert record() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the fused kernels' per-thread workspaces

def _wide_model(variant, seed):
    """d_h = 32: a 40-token sentence's pair tables stream through the
    `pair` workspace."""
    return JointModel(tiny_config(variant=variant, d_p=32, d_h=32, seed=seed),
                      SCHEMA, VOCAB)


def _gradients(forward):
    rng = np.random.default_rng(5)      # the same loss weights every call
    loss = ad.add(*(ops.sum_all(ops.mul(probs, constant(
        rng.uniform(size=probs.shape))))
        for probs in (forward.entities.probs, forward.relations.probs)))
    grads = forward.record.backward(loss)
    return [grads[leaf.node_id].tobytes() for leaf in forward.bound.values()]


@pytest.mark.parametrize("t", [5, 40])
@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_workspaces_do_not_leak_between_calls(variant, t):
    """Forwards of model B between model A's recorded forward and its
    backward leave A's gradients byte-identical: the workspaces are keyed
    by shape, the same for both, and hold no values across calls."""
    a, b = _wide_model(variant, 1), _wide_model(variant, 2)
    ids = np.random.default_rng(t).integers(0, VOCAB.size, t)
    uninterrupted = _gradients(a.forward(ids))
    forward = a.forward(ids)
    for token_ids in (ids, ids[::-1].copy()):
        b.forward(token_ids, recording=False)
    assert _gradients(forward) == uninterrupted


def test_threads_use_their_own_workspaces():
    """Threads, more than the cores this process may use (up to 8), each
    running forwards and backwards of its own model give the bits of
    sequential runs."""
    cores = min(len(os.sched_getaffinity(0)), 7)
    models = [_wide_model("bidarter", seed) for seed in range(1, cores + 2)]
    rng = np.random.default_rng(6)
    sentences = [rng.integers(0, VOCAB.size, t) for t in (3, 40, 5, 36)]

    def run(model):
        return [(_probs(model.forward(ids, recording=False)),
                 _gradients(model.forward(ids)))
                for _ in range(3) for ids in sentences]

    sequential = [run(model) for model in models]
    threaded = [None] * len(models)
    barrier = threading.Barrier(len(models))

    def worker(k):
        barrier.wait(timeout=60)
        threaded[k] = run(models[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)          # switch threads often
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(models))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == sequential


def _bound_arrays(fn, seen):
    """Every array a backward function holds: closure cells and partial
    arguments, searched through nested functions and containers."""
    if id(fn) in seen:
        return
    seen.add(id(fn))
    if isinstance(fn, np.ndarray):
        yield fn
    elif isinstance(fn, functools.partial):
        for part in (fn.func, *fn.args, *fn.keywords.values()):
            yield from _bound_arrays(part, seen)
    elif isinstance(fn, (tuple, list)):
        for part in fn:
            yield from _bound_arrays(part, seen)
    elif callable(fn) and getattr(fn, "__closure__", None):
        for cell in fn.__closure__:
            yield from _bound_arrays(cell.cell_contents, seen)


def test_a_recorded_step_keeps_no_packed_weights():
    """No node of a recorded bidarter step (d_h = 32) holds an array of
    3 * (3 * d_h)^2 elements or more, a packed layer's size, other than
    views of the parameters: the packs live in per-thread workspaces, and
    backward packs the weights again."""
    model = _wide_model("bidarter", 3)
    limit = 3 * (3 * 32) ** 2
    for t in (5, 40):
        forward = model.forward(np.arange(t) % VOCAB.size)
        seen = set()
        for node in forward.record.nodes:
            for arr in _bound_arrays(node.backward, seen):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                assert arr is model.store.flat or arr.size < limit, (
                    node.tag, arr.shape)
