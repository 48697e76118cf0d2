"""Decoder heads against the scalar pair-decoding oracle."""

import numpy as np
import numpy.testing as npt
import pytest

import darter.autodiff as ad
import darter.decoders as decoders
from darter import synthetic
from darter.autodiff import ParamStore, Record, constant
from darter.corpus import LabelSchema, MatchMode, Vocabulary, load_corpus
from darter.decoders import (DecoderParams, EntityLogits, RelationLogits,
                             decode_streams, threshold_predictions)
from darter.encoder import SUBTASKS
from darter.gradcheck import max_relative_error, numeric_gradients
from darter.model import JointModel, ModelConfig
from darter.training import TrainConfig, train

import ops
import oracles
from composed import R_ONLY, bi_decode, ner_decode, r_slot, re_decode
from ops import pair_decode


def head_store(seed, n_streams, d_h, width, prefix="head"):
    store = ParamStore(seed)
    DecoderParams.register(store, prefix, n_streams, d_h, width)
    rng = np.random.default_rng(seed + 100)
    store.set_(f"{prefix}.b_pair", rng.uniform(-0.5, 0.5, (d_h,)))
    store.set_(f"{prefix}.b_out", rng.uniform(-0.5, 0.5, (width,)))
    store.set_(f"{prefix}.ln_gain", rng.uniform(0.5, 1.5, (d_h,)))
    store.set_(f"{prefix}.ln_bias", rng.uniform(-0.3, 0.3, (d_h,)))
    return store


def bind_head(store, prefix="head", recording=True):
    rec = Record(recording=recording)
    return rec, DecoderParams.bind(store.bind(rec), prefix)


def oracle_head(store, prefix="head"):
    return dict(w_pair=store[f"{prefix}.w_pair"].tolist(),
                b_pair=store[f"{prefix}.b_pair"].tolist(),
                gain=store[f"{prefix}.ln_gain"].tolist(),
                bias=store[f"{prefix}.ln_bias"].tolist(),
                w_out=store[f"{prefix}.w_out"].tolist(),
                b_out=store[f"{prefix}.b_out"].tolist())


def oracle_decode(streams, store, prefix="head"):
    h = oracle_head(store, prefix)
    return np.array(oracles.pair_decode(
        [s.tolist() for s in streams], h["w_pair"], h["b_pair"],
        h["gain"], h["bias"], h["w_out"], h["b_out"]))


def fake_output(rec, t, d_h, rng):
    return rec.leaf(rng.standard_normal((t, 2, 3, d_h)))


# ---------------------------------------------------------------------------

def test_zero_parameters_give_exactly_half():
    store = head_store(0, 1, 4, 3)
    store.zero_all()
    rec, head = bind_head(store)
    stream = rec.leaf(np.random.default_rng(1).standard_normal((5, 4)))
    probs = pair_decode([r_slot(stream)], R_ONLY, head).values
    assert probs.shape == (5, 5, 3)
    npt.assert_array_equal(probs, np.full((5, 5, 3), 0.5))


def test_single_token_single_cell():
    store = head_store(2, 1, 4, 2)
    rec, head = bind_head(store)
    stream = rec.leaf(np.random.default_rng(3).standard_normal((1, 4)))
    probs = pair_decode([r_slot(stream)], R_ONLY, head).values
    assert probs.shape == (1, 1, 2)
    assert np.all((probs > 0) & (probs < 1))


@pytest.mark.parametrize("t,d_h,width,n_streams,seed",
                         [(3, 4, 2, 1, 5), (2, 3, 3, 2, 6), (4, 2, 1, 2, 7)])
def test_pair_decode_matches_oracle(t, d_h, width, n_streams, seed):
    store = head_store(seed, n_streams, d_h, width)
    rec, head = bind_head(store)
    rng = np.random.default_rng(seed)
    streams_np = [rng.standard_normal((t, d_h)) for _ in range(n_streams)]
    probs = pair_decode([r_slot(rec.leaf(s)) for s in streams_np], R_ONLY,
                        head).values
    want = oracle_decode(streams_np, store)
    npt.assert_allclose(probs, want, atol=1e-12)


def test_ner_decode_sums_subject_and_object():
    store = head_store(8, 1, 4, 3)
    rec, head = bind_head(store)
    rng = np.random.default_rng(9)
    h_s = rng.standard_normal((3, 4))
    h_o = rng.standard_normal((3, 4))
    logits = ner_decode(rec.leaf(h_s), rec.leaf(h_o), head)
    assert isinstance(logits, EntityLogits)
    want = oracle_decode([h_s + h_o], store)
    npt.assert_allclose(logits.probs.values, want, atol=1e-12)


def test_re_decode_mixes_entity_features():
    store = head_store(10, 1, 4, 2)
    rec, head = bind_head(store)
    rng = np.random.default_rng(11)
    h_r = rng.standard_normal((3, 4))
    h_s = rng.standard_normal((3, 4))
    h_o = rng.standard_normal((3, 4))
    for alpha, beta in [(-1.0, 1.0), (0.5, 0.5), (1.0, -1.0)]:
        got = re_decode(rec.leaf(h_r), rec.leaf(h_s), rec.leaf(h_o), head,
                        alpha, beta)
        assert isinstance(got, RelationLogits)
        feats = np.array(oracles.relation_inputs(
            h_r.tolist(), h_s.tolist(), h_o.tolist(), alpha, beta))
        want = oracle_decode([feats], store)
        npt.assert_allclose(got.probs.values, want, atol=1e-12)


def test_re_decode_alpha_beta_cancellation():
    # alpha = beta = 1 with identical subject/object features cancels the mix
    store = head_store(12, 1, 4, 2)
    rec, head = bind_head(store)
    rng = np.random.default_rng(13)
    h_r = rng.standard_normal((3, 4))
    h_same = rng.standard_normal((3, 4))
    mixed = re_decode(rec.leaf(h_r), rec.leaf(h_same), rec.leaf(h_same),
                      head, 1.0, 1.0)
    plain = re_decode(rec.leaf(h_r), rec.leaf(h_same), rec.leaf(h_same),
                      head, 1.0, 1.0, entity_features=False)
    npt.assert_array_equal(mixed.probs.values, plain.probs.values)


def test_pair_decode_shape_contracts():
    store = head_store(16, 1, 4, 2)
    rec, head = bind_head(store)
    rng = np.random.default_rng(17)
    with pytest.raises(ad.ContractError):
        pair_decode([], R_ONLY, head)
    with pytest.raises(ad.ShapeError):
        pair_decode([r_slot(rec.leaf(rng.standard_normal((3, 4)))),
                     r_slot(rec.leaf(rng.standard_normal((2, 4))))], R_ONLY,
                    head)
    # two streams of width 4 need a [16, 4] projection, head has [8, 4]
    with pytest.raises(ad.ShapeError, match="width"):
        pair_decode([r_slot(rec.leaf(rng.standard_normal((3, 4))))] * 2,
                    R_ONLY, head)


@pytest.mark.parametrize("n_streams,d_h,width", [(0, 4, 2), (1, 1, 2),
                                                 (1, 4, 0)])
def test_head_registration_rejects_bad_sizes(n_streams, d_h, width):
    with pytest.raises(ad.ContractError, match="bad decoder sizes"):
        DecoderParams.register(ParamStore(0), "head", n_streams, d_h, width)


def test_decode_streams_needs_an_encoder_output():
    store = head_store(16, 1, 4, 2)
    DecoderParams.register(store, "re", 1, 4, 3)
    bound = store.bind(Record())
    with pytest.raises(ad.ContractError, match="at least one encoder output"):
        decode_streams([], DecoderParams.bind(bound, "head"),
                       DecoderParams.bind(bound, "re"), (-1.0, 1.0, 1.0))


def test_bi_decode_requires_two_streams():
    store = head_store(18, 2, 4, 2)
    DecoderParams.register(store, "re", 2, 4, 3)
    rec = Record()
    bound = store.bind(rec)
    ner_head = DecoderParams.bind(bound, "head")
    re_head = DecoderParams.bind(bound, "re")
    rng = np.random.default_rng(19)
    outs = [fake_output(rec, 3, 4, rng) for _ in range(3)]
    with pytest.raises(ad.ContractError, match="2"):
        bi_decode(outs[:1], ner_head, re_head, 1.0, 1.0)
    with pytest.raises(ad.ContractError, match="2"):
        bi_decode(outs, ner_head, re_head, 1.0, 1.0)
    e, r = bi_decode(outs[:2], ner_head, re_head, 1.0, 1.0)
    assert e.probs.shape == (3, 3, 2)
    assert r.probs.shape == (3, 3, 3)


def test_tiled_bi_weights_double_the_preactivation():
    d_h, width, t = 4, 2, 3
    uni = head_store(20, 1, d_h, width)
    uni.set_("head.b_pair", np.zeros(d_h))
    bi = ParamStore(0)
    DecoderParams.register(bi, "head", 2, d_h, width)
    bi.set_("head.w_pair", np.vstack([uni["head.w_pair"]] * 2))
    bi.set_("head.b_pair", np.zeros(d_h))
    bi.set_("head.ln_gain", uni["head.ln_gain"])
    bi.set_("head.ln_bias", uni["head.ln_bias"])
    bi.set_("head.w_out", uni["head.w_out"])
    bi.set_("head.b_out", uni["head.b_out"])

    rng = np.random.default_rng(21)
    h = rng.standard_normal((t, d_h))
    rec, bi_head = bind_head(bi)
    got = pair_decode([r_slot(rec.leaf(h)), r_slot(rec.leaf(h))], R_ONLY,
                      bi_head).values
    # identical streams through tiled weights = doubled unidirectional input
    want = oracle_decode([2.0 * h], uni)
    npt.assert_allclose(got, want, atol=1e-12)


def test_decode_streams_matches_single_heads():
    store = head_store(22, 1, 4, 2)
    DecoderParams.register(store, "re", 1, 4, 3)
    rec = Record()
    bound = store.bind(rec)
    rng = np.random.default_rng(23)
    out = fake_output(rec, 3, 4, rng)
    e, r = decode_streams([out], DecoderParams.bind(bound, "head"),
                          DecoderParams.bind(bound, "re"), (-1.0, 1.0, 0.5))
    h = {p: ops.index(out, (slice(None), 0, k))
         for k, p in enumerate(SUBTASKS)}
    e2 = ner_decode(h["s"], h["o"], DecoderParams.bind(bound, "head"))
    r2 = re_decode(h["r"], h["s"], h["o"], DecoderParams.bind(bound, "re"),
                   0.5, 1.0)
    npt.assert_array_equal(e.probs.values, e2.probs.values)
    npt.assert_array_equal(r.probs.values, r2.probs.values)


# ---------------------------------------------------------------------------
# thresholding

def _logits(e_arr, r_arr):
    return (EntityLogits(constant(np.asarray(e_arr, dtype=float))),
            RelationLogits(constant(np.asarray(r_arr, dtype=float))))


def test_threshold_is_strict():
    e = np.full((2, 2, 1), 0.5)
    r = np.full((2, 2, 1), 0.5)
    e[0, 1, 0] = 0.5 + 1e-9
    el, rl = _logits(e, r)
    pred = threshold_predictions(el, rl)
    assert pred.entities == {(0, 1, 0)}
    assert pred.relations == frozenset()


def test_threshold_ignores_reversed_spans():
    e = np.zeros((3, 3, 2))
    e[2, 0, 1] = 0.9   # i > j: not a span
    e[0, 2, 1] = 0.9
    r = np.zeros((3, 3, 1))
    r[2, 0, 0] = 0.9   # relations keep all ordered pairs
    el, rl = _logits(e, r)
    pred = threshold_predictions(el, rl)
    assert pred.entities == {(0, 2, 1)}
    assert pred.relations == {(2, 0, 0)}


def test_threshold_diagonal_only_mode():
    e = np.zeros((3, 3, 1))
    e[0, 0, 0] = 0.9
    e[0, 2, 0] = 0.9
    el, rl = _logits(e, np.zeros((3, 3, 1)))
    pred = threshold_predictions(el, rl, diagonal_only=True)
    assert pred.entities == {(0, 0, 0)}


def test_threshold_monotone_in_tau(monkeypatch):
    rng = np.random.default_rng(24)
    e = rng.uniform(0, 1, (4, 4, 2))
    r = rng.uniform(0, 1, (4, 4, 3))
    el, rl = _logits(e, r)
    monkeypatch.setattr(decoders, "THRESHOLD", 0.3)
    low = threshold_predictions(el, rl)
    monkeypatch.setattr(decoders, "THRESHOLD", 0.7)
    high = threshold_predictions(el, rl)
    assert high.entities <= low.entities
    assert high.relations <= low.relations


# ---------------------------------------------------------------------------
# gradients

def test_decoder_gradients_finite_differences():
    t, d_h, width = 2, 3, 2
    store = head_store(25, 1, d_h, width)
    rng = np.random.default_rng(26)
    h = rng.standard_normal((t, d_h))
    w = rng.standard_normal((t, t, width))

    def loss(recording=True):
        rec = Record(recording=recording)
        head = DecoderParams.bind(store.bind(rec), "head")
        probs = pair_decode([r_slot(rec.leaf(h))], R_ONLY, head)
        return rec, ops.sum_all(ops.mul(probs, constant(w)))

    rec, val = loss()
    rec.backward(val)
    rec2, val2 = loss()
    rec2.backward(val2)
    bound = store.bind(Record(recording=False))

    rec3 = Record()
    bound3 = store.bind(rec3)
    head3 = DecoderParams.bind(bound3, "head")
    out3 = ops.sum_all(ops.mul(pair_decode([r_slot(rec3.leaf(h))], R_ONLY,
                                           head3), constant(w)))
    rec3.backward(out3)
    analytic = {k: rec3.grad(tv) for k, tv in bound3.items()}
    analytic = {k: (np.zeros_like(store[k]) if g is None else g)
                for k, g in analytic.items()}
    numeric = numeric_gradients(lambda: loss(False)[1].item(), store)
    err = max_relative_error(analytic, numeric)
    assert err <= 1e-4, f"decoder gradient mismatch: {err:.2e}"


# ---------------------------------------------------------------------------
# the fused relation stream and the vectorised thresholding

def test_relation_stream_matches_the_composed_chain():
    """The relation features pair_scores mixes from a stacked layer,
    r + (o * alpha - s * beta), give the add/sub/affine_const chain's bits,
    forward and backward."""
    rng = np.random.default_rng(27)
    store = head_store(29, 1, 3, 2)
    weights = constant(rng.standard_normal((4, 4, 2)))
    for alpha, beta in [(-1.0, 1.0), (0.5, 0.5), (1.0, -1.0), (1.0, 1.0)]:
        values = {p: rng.standard_normal((4, 3)) for p in SUBTASKS}
        values["s"] = values["o"] if alpha == beta else values["s"]
        results = []
        for fused in (True, False):
            rec, head = bind_head(store)
            if fused:
                stacked = np.zeros((4, 2, 3, 3))
                for k, p in enumerate(SUBTASKS):
                    stacked[:, 0, k] = values[p]
                leaf = rec.leaf(stacked)
                probs = pair_decode([leaf], (-beta, 1.0, alpha), head)
            else:
                h = {p: rec.leaf(v) for p, v in values.items()}
                feats = ad.add(h["r"], ops.sub(ad.affine_const(h["o"], alpha),
                                               ad.affine_const(h["s"], beta)))
                probs = pair_decode([r_slot(feats)], R_ONLY, head)
            rec.backward(ops.sum_all(ops.mul(probs, weights)))
            grads = ([rec.grad(leaf)[:, 0, k] for k in range(3)] if fused
                     else [rec.grad(h[p]) for p in SUBTASKS])
            results.append((probs.values, grads))
        (fused_v, fused_g), (chain_v, chain_g) = results
        npt.assert_array_equal(fused_v, chain_v)
        for got, want in zip(fused_g, chain_g):
            npt.assert_array_equal(got, want)


def reference_threshold(ev, rv, tau, diagonal_only):
    entities = set()
    for i, j, k in zip(*np.nonzero(ev > tau)):
        if diagonal_only and i != j:
            continue
        if i <= j:
            entities.add((int(i), int(j), int(k)))
    relations = {(int(i), int(m), int(l))
                 for i, m, l in zip(*np.nonzero(rv > tau))}
    return frozenset(entities), frozenset(relations)


@pytest.mark.parametrize("diagonal_only", [False, True])
def test_threshold_matches_a_reference_loop(monkeypatch, diagonal_only):
    rng = np.random.default_rng(28)
    for t in (1, 2, 5, 17):
        for tau in (0.3, 0.5, 0.9):
            e = rng.uniform(0, 1, (t, t, 3))
            r = rng.uniform(0, 1, (t, t, 2))
            e[rng.uniform(size=e.shape) < 0.2] = tau     # exactly at tau
            r[rng.uniform(size=r.shape) < 0.2] = tau
            e[t - 1, 0, 0] = 0.95                        # a reversed span
            monkeypatch.setattr(decoders, "THRESHOLD", tau)
            pred = threshold_predictions(*_logits(e, r),
                                         diagonal_only=diagonal_only)
            entities, relations = reference_threshold(e, r, tau,
                                                      diagonal_only)
            assert pred.entities == entities
            assert pred.relations == relations
            cells = pred.entities | pred.relations
            assert all(type(v) is int for cell in cells for v in cell)


@pytest.mark.parametrize("diagonal_only", [False, True])
def test_threshold_matches_the_reference_on_model_tables(monkeypatch,
                                                         diagonal_only):
    """A briefly trained model's tables, on the bundled corpus and on
    sentences of t = 20-150, threshold as the reference loop does."""
    corpus_path, schema_path = synthetic.synthetic_paths()
    schema = LabelSchema.load(schema_path)
    corpus = load_corpus(corpus_path, schema, MatchMode.EXACT)
    vocab = Vocabulary.from_corpus(corpus)
    model = JointModel(ModelConfig(variant="bidarter", d_p=8, d_h=8, seed=2),
                       schema, vocab)
    train(model, corpus, TrainConfig(lr=1e-2, epochs=3, seed=2))
    rng = np.random.default_rng(29)
    sentences = [vocab.encode(s.tokens) for s in corpus] + [
        rng.integers(0, vocab.size, t) for t in (20, 35, 50, 75, 100, 150)]
    for token_ids in sentences:
        forward = model.forward(token_ids, recording=False)
        ev = forward.entities.probs.values
        rv = forward.relations.probs.values
        for tau in (0.5, np.quantile(ev, 0.9), np.quantile(rv, 0.9)):
            monkeypatch.setattr(decoders, "THRESHOLD", tau)
            pred = threshold_predictions(forward.entities, forward.relations,
                                         diagonal_only)
            assert (pred.entities, pred.relations) == reference_threshold(
                ev, rv, tau, diagonal_only)
