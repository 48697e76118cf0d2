"""The fused pair-scoring head against a two-pass numpy reference, its
cancellation case and gradients, its table streamed in blocks of pair rows,
the shared pointwise helpers, and where the kernels' reused buffers start."""

import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import darter.autodiff as ad
import darter.training as training
from darter.autodiff import ParamStore, Record, constant
from darter import synthetic
from darter.corpus import LabelSchema, MatchMode, Vocabulary, load_corpus
from darter.decoders import DecoderParams
from darter.gradcheck import max_relative_error, numeric_gradients
from darter.model import JointModel, ModelConfig
from darter.training import Adam, TrainConfig

import ops
from composed import R_ONLY, r_slot
from test_model import _bound_arrays

EPS = 1e-5


def head_params(rng, n, w, d_h, width):
    bound = 1.0 / np.sqrt(2 * n * w)
    return dict(w_pair=rng.uniform(-bound, bound, (2 * n * w, d_h)),
                b_pair=rng.uniform(-0.5, 0.5, d_h),
                gain=rng.uniform(0.5, 1.5, d_h),
                bias=rng.uniform(-0.3, 0.3, d_h),
                w_out=rng.uniform(-1.0, 1.0, (d_h, width)) / np.sqrt(d_h),
                b_out=rng.uniform(-0.5, 0.5, width))


def two_pass_head(streams, p):
    """Every pair row formed in full, projected, centred, and normalized by
    the mean square of the centred row."""
    t = streams[0].shape[0]
    parts = []
    for x in streams:
        parts += [np.broadcast_to(x[:, None, :], (t, t, x.shape[1])),
                  np.broadcast_to(x[None, :, :], (t, t, x.shape[1]))]
    pre = np.concatenate(parts, axis=-1) @ p["w_pair"] + p["b_pair"]
    centred = pre - pre.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    x = centred / np.sqrt(var + EPS) * p["gain"] + p["bias"]
    hidden = np.where(x > 0, x, np.expm1(x))
    return 1.0 / (1.0 + np.exp(-(hidden @ p["w_out"] + p["b_out"])))


def kernel(streams, p):
    return ops.pair_scores([r_slot(constant(s)) for s in streams], R_ONLY,
                           *(constant(p[k]) for k in ("w_pair", "b_pair",
                                                      "gain", "bias", "w_out",
                                                      "b_out")))


@pytest.mark.parametrize("t", [1, 2, 5, 40])
@pytest.mark.parametrize("n", [1, 2])
def test_pair_scores_match_two_pass_reference(t, n):
    rng = np.random.default_rng(100 * t + n)
    for d_h in (2, 3, 5, 8):
        for scale in (1.0, 10.0, 100.0):
            p = head_params(rng, n, d_h, d_h, 3)
            streams = [scale * rng.standard_normal((t, d_h))
                       for _ in range(n)]
            got = kernel(streams, p).values
            want = two_pass_head(streams, p)
            npt.assert_allclose(got, want, rtol=0, atol=1e-12,
                                err_msg=f"d_h={d_h} scale={scale}")


def cancelling_head(rng, d_h, t):
    """One stream whose token-j projection is minus its token-i one, and
    repeated tokens: every pair of equal tokens cancels exactly."""
    p = head_params(rng, 1, d_h, d_h, 2)
    w_i = p["w_pair"][:d_h]
    p["w_pair"] = np.vstack([w_i, -w_i])
    p["b_pair"] = np.zeros(d_h)
    tokens = rng.standard_normal((3, d_h))
    return p, tokens[rng.integers(0, 3, t)]


@pytest.mark.parametrize("d_h", [2, 3, 8])
def test_cancelling_pairs_match_the_reference(d_h):
    rng = np.random.default_rng(d_h)
    for scale in (1.0, 10.0):
        p, x = cancelling_head(rng, d_h, 12)
        got = kernel([scale * x], p).values
        assert np.isfinite(got).all()
        npt.assert_allclose(got, two_pass_head([scale * x], p), rtol=0,
                            atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
def test_cancelling_pairs_never_have_negative_variance(scale):
    rng = np.random.default_rng(7)
    t, d_h = 40, 8
    side = scale * rng.standard_normal((t, d_h))
    sides = np.stack([side, -side[rng.permutation(t)]], axis=1)
    sides[:, 1] += rng.standard_normal(d_h)          # moved by a constant
    centred = sides.copy()
    inv = ad._pair_norm_stats(centred, EPS)
    assert inv.shape == (t, t, 1)
    # var >= 0 exactly when 1 / sqrt(var + eps) <= 1 / sqrt(eps); NaN fails
    assert np.all(inv <= EPS ** -0.5)
    rows = centred[:, None, 0] + centred[None, :, 1]
    want = 1.0 / np.sqrt((rows * rows).mean(axis=-1, keepdims=True) + EPS)
    npt.assert_allclose(inv, want, rtol=1e-12)
    p, x = cancelling_head(rng, d_h, t)
    assert np.isfinite(kernel([scale * x], p).values).all()


@pytest.mark.parametrize("t,n,d_h", [(1, 1, 2), (2, 2, 2), (3, 1, 3),
                                     (4, 2, 2), (6, 1, 4), (6, 2, 3)])
def test_pair_scores_gradients_finite_differences(t, n, d_h):
    rng = np.random.default_rng(10 * t + d_h)
    store = ParamStore(t)
    DecoderParams.register(store, "head", n, d_h, 2)
    p = head_params(rng, n, d_h, d_h, 2)
    names = {"w_pair": "w_pair", "b_pair": "b_pair", "gain": "ln_gain",
             "bias": "ln_bias", "w_out": "w_out", "b_out": "b_out"}
    for key, name in names.items():
        store.set_(f"head.{name}", p[key])
    for k in range(n):
        store.add_uniform(f"x{k}", (t, d_h), fan_in=1)
    weights = rng.standard_normal((t, t, 2))

    def loss(record):
        bound = store.bind(record)
        head = DecoderParams.bind(bound, "head")
        probs = ops.pair_scores([r_slot(bound[f"x{k}"]) for k in range(n)],
                                R_ONLY, head.w_pair, head.b_pair, head.ln_gain,
                                head.ln_bias, head.w_out, head.b_out)
        return ops.sum_all(ops.mul(probs, constant(weights))), bound

    rec = Record()
    value, bound = loss(rec)
    rec.backward(value)
    analytic = {name: rec.grad(leaf) for name, leaf in bound.items()}
    numeric = numeric_gradients(
        lambda: loss(Record(recording=False))[0].item(), store, step=1e-6)
    err = max_relative_error(analytic, numeric)
    assert err <= 1e-6, f"pair_scores gradient mismatch: {err:.2e}"


def test_elu_matches_the_masked_form():
    x = np.array([0.0, -0.0, 1e-300, -1e-300, -5e-324, -1e-8, -0.5, -30.0,
                  -800.0, -np.inf, 0.25, 3.0, 1e300, np.inf, np.nan])
    with np.errstate(over="ignore"):     # expm1 of the large positives
        want = np.where(x > 0, x, np.expm1(x))
    npt.assert_array_equal(ad._elu(x), want)
    in_place = x.copy()
    assert ad._elu(in_place, out=in_place) is in_place
    npt.assert_array_equal(in_place, want)


def test_sigmoid_keeps_its_bits_and_never_overflows():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-709.0, 40.0, 1000),
                        [-709.0, -40.0, 0.0, 36.0, 800.0, np.inf]])
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-x))
    npt.assert_array_equal(ad._sigmoid(x), want)
    with np.errstate(over="raise"):
        low = ad._sigmoid(np.array([-709.5, -800.0, -1e308, -np.inf]))
    assert np.all((low >= 0.0) & (low < 1e-307))
    assert np.isnan(ad._sigmoid(np.array([np.nan]))).all()


# ---------------------------------------------------------------------------
# the table streamed in blocks of pair rows

def block_rows(monkeypatch, rows, t, d_h):
    """Make pair_scores stream tables of length t in blocks of `rows` pair
    rows (rows >= t: one block)."""
    monkeypatch.setattr(ad, "_PAIR_BLOCK", rows * t * d_h)


@pytest.mark.parametrize("t", [5, 40])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_blocked_forward_matches_reference_and_one_block(monkeypatch, t,
                                                        rows, n):
    rng = np.random.default_rng(1000 + 10 * t + rows + n)
    for d_h in (2, 5, 8):
        p = head_params(rng, n, d_h, d_h, 3)
        streams = [rng.standard_normal((t, d_h)) for _ in range(n)]
        block_rows(monkeypatch, t, t, d_h)
        whole = kernel(streams, p).values
        block_rows(monkeypatch, rows, t, d_h)    # t % 3 != 0: ragged end
        got = kernel(streams, p).values
        npt.assert_allclose(got, two_pass_head(streams, p), rtol=0,
                            atol=1e-12, err_msg=f"d_h={d_h}")
        npt.assert_allclose(got, whole, rtol=0, atol=1e-14,
                            err_msg=f"d_h={d_h}")
        rec = Record()
        recorded = ops.pair_scores(
            [r_slot(rec.leaf(s)) for s in streams], R_ONLY,
            *(rec.leaf(p[k]) for k in ("w_pair", "b_pair", "gain", "bias",
                                       "w_out", "b_out")))
        assert recorded.node_id is not None
        assert recorded.values.tobytes() == got.tobytes()


def head_loss(store, n, weights):
    def loss(record):
        bound = store.bind(record)
        head = DecoderParams.bind(bound, "head")
        probs = ops.pair_scores([r_slot(bound[f"x{k}"]) for k in range(n)],
                                R_ONLY, head.w_pair, head.b_pair, head.ln_gain,
                                head.ln_bias, head.w_out, head.b_out)
        return ops.sum_all(ops.mul(probs, constant(weights))), bound
    return loss


def head_store(rng, t, n, d_h):
    store = ParamStore(t)
    DecoderParams.register(store, "head", n, d_h, 2)
    p = head_params(rng, n, d_h, d_h, 2)
    for key, name in {"w_pair": "w_pair", "b_pair": "b_pair",
                      "gain": "ln_gain", "bias": "ln_bias",
                      "w_out": "w_out", "b_out": "b_out"}.items():
        store.set_(f"head.{name}", p[key])
    for k in range(n):
        store.add_uniform(f"x{k}", (t, d_h), fan_in=1)
    return store


def analytic_gradients(loss):
    rec = Record()
    value, bound = loss(rec)
    rec.backward(value)
    return {name: rec.grad(leaf) for name, leaf in bound.items()}


@pytest.mark.parametrize("t,n,d_h,rows", [(5, 1, 3, 1), (6, 2, 2, 4),
                                          (7, 2, 3, 3)])
def test_blocked_gradients_finite_differences(monkeypatch, t, n, d_h, rows):
    rng = np.random.default_rng(20 * t + rows)
    store = head_store(rng, t, n, d_h)
    loss = head_loss(store, n, rng.standard_normal((t, t, 2)))
    block_rows(monkeypatch, t, t, d_h)
    whole = analytic_gradients(loss)
    block_rows(monkeypatch, rows, t, d_h)
    analytic = analytic_gradients(loss)
    for name, grad in whole.items():
        npt.assert_allclose(analytic[name], grad, rtol=1e-12, atol=1e-14,
                            err_msg=name)
    numeric = numeric_gradients(
        lambda: loss(Record(recording=False))[0].item(), store, step=1e-6)
    err = max_relative_error(analytic, numeric)
    assert err <= 1e-6, f"blocked pair_scores gradient mismatch: {err:.2e}"


@pytest.mark.parametrize("rows", [1, 2, 5])      # t = 5: 5 is one block
def test_backward_twice_gives_the_same_gradients(monkeypatch, rows):
    t, n, d_h = 5, 2, 3
    rng = np.random.default_rng(rows)
    store = head_store(rng, t, n, d_h)
    block_rows(monkeypatch, rows, t, d_h)
    rec = Record()
    value, bound = head_loss(store, n, rng.standard_normal((t, t, 2)))(rec)
    first = {k: g.copy() for k, g in rec.backward(value).items()}
    second = rec.backward(value)
    assert first.keys() == second.keys()
    for nid, grad in first.items():
        assert grad.tobytes() == second[nid].tobytes()


def test_long_table_memory_stays_block_sized():
    """At t = 200, d_h = 32 the whole hidden table would be 10 MB."""
    t, n, d_h, width = 200, 2, 32, 4
    rng = np.random.default_rng(5)
    p = head_params(rng, n, d_h, d_h, width)
    streams = [rng.standard_normal((t, d_h)) for _ in range(n)]
    mb = 2.0 ** 20
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kernel(streams, p)
        peak = tracemalloc.get_traced_memory()[1] - before
        rec = Record()
        leaves = [r_slot(rec.leaf(s)) for s in streams] + [
            rec.leaf(p[k]) for k in ("w_pair", "b_pair", "gain", "bias",
                                     "w_out", "b_out")]
        before = tracemalloc.get_traced_memory()[0]
        head = ops.pair_scores(leaves[:n], R_ONLY, *leaves[n:])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert head.node_id is not None
    assert peak < 5 * mb, f"unrecorded forward peak {peak / mb:.1f} MB"
    assert kept < 4 * mb, f"recorded head keeps {kept / mb:.1f} MB"


# ---------------------------------------------------------------------------
# several heads over the same layers in one pass

HEAD_KEYS = ("w_pair", "b_pair", "gain", "bias", "w_out", "b_out")


def two_heads(rng, t, n, d_h):
    """An entity-like and a relation-like head over n [t, 2, 3, d_h]
    layers, with different widths. The relation head reads only the r
    stream, whose tokens repeat, and projects token j by minus its token-i
    weights: equal tokens cancel in that head and not in the other."""
    layers = [rng.standard_normal((t, 2, 3, d_h)) for _ in range(n)]
    for layer in layers:
        layer[:, 0, 1] = rng.standard_normal((3, d_h))[rng.integers(0, 3, t)]
    ent = head_params(rng, n, d_h, d_h, 3)
    rel = head_params(rng, n, d_h, d_h, 2)
    w = rel["w_pair"].reshape(n, 2, d_h, d_h)
    w[:, 1] = -w[:, 0]
    rel["b_pair"] = np.zeros(d_h)
    return layers, [((1.0, 0.0, 1.0), ent), ((0.0, 1.0, 0.0), rel)]


def head_tables(layers, heads, together):
    """Each head's probabilities and the gradients of a weighted sum of
    them, on one record per head, from one pair_heads call or from
    separate one-head pair_scores calls."""
    got = []
    for h, (coeffs, p) in enumerate(heads):
        rec = Record()
        leaves = [rec.leaf(layer) for layer in layers]
        params = [[rec.leaf(q[k]) for k in HEAD_KEYS] for _, q in heads]
        if together:
            probs = ad.pair_heads(leaves, [(c, *ps) for (c, _), ps in
                                           zip(heads, params)])[h]
        else:
            probs = ops.pair_scores(leaves, coeffs, *params[h])
        weights = np.random.default_rng(h).standard_normal(probs.shape)
        rec.backward(ops.sum_all(ops.mul(probs, constant(weights))))
        got.append([probs.values] + [rec.grad(x) for x in leaves + params[h]])
    return got


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("t", [1, 2, 5, 20, 40])
@pytest.mark.parametrize("n", [1, 2])
def test_heads_in_one_pass_match_one_head_calls_byte_for_byte(
        monkeypatch, rows, t, n):
    rng = np.random.default_rng(300 + 10 * t + n)
    for d_h in (2, 8, 32):
        if rows is not None:             # t > rows: the tables stream
            block_rows(monkeypatch, rows, t, d_h)
        layers, heads = two_heads(rng, t, n, d_h)
        together = head_tables(layers, heads, True)
        for h, alone in enumerate(head_tables(layers, heads, False)):
            assert len(together[h]) == len(alone) == n + 7
            for k, (a, b) in enumerate(zip(together[h], alone)):
                assert a.tobytes() == b.tobytes(), f"d_h={d_h} head {h} #{k}"


def test_the_cancelling_head_takes_the_cancellation_pass():
    rng = np.random.default_rng(9)
    t, d_h = 12, 8
    layers, heads = two_heads(rng, t, 1, d_h)
    for (coeffs, p), cancels in zip(heads, (False, True)):
        feats = sum(c * layers[0][:, 0, k] for k, c in enumerate(coeffs))
        sides = (feats @ p["w_pair"].reshape(2, d_h, d_h).transpose(
            1, 0, 2).reshape(d_h, 2 * d_h)).reshape(t, 2, d_h)
        sides[:, 1] += p["b_pair"]
        sides -= sides.mean(axis=-1, keepdims=True)
        sq = (sides * sides).sum(axis=-1)
        total = sq[:, :1] + sq[:, 1]
        ssq = 2.0 * sides[:, 0] @ sides[:, 1].T + total
        assert bool(np.any(ssq * 1024.0 < total)) == cancels
    probs = ad.pair_heads([constant(layer) for layer in layers],
                          [(c, *(constant(p[k]) for k in HEAD_KEYS))
                           for c, p in heads])
    assert all(np.isfinite(pr.values).all() for pr in probs)


@pytest.mark.parametrize("t", [1, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_a_head_without_coefficients_reads_zero_features(monkeypatch, t, n):
    """A (0, 0, 0) head mixes no stream: its features are zeros, so its
    table and parameter gradients are an s-only head's over zeroed layers,
    to the bit, and the layers get a zero gradient. Every `np.empty`
    starts as NaNs here, so a buffer the kernel reads unwritten shows."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.view(np.uint8).fill(0xFF)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    rng = np.random.default_rng(500 + 10 * t + n)
    for d_h in (2, 8):
        layers = [rng.standard_normal((t, 2, 3, d_h)) for _ in range(n)]
        p = head_params(rng, n, d_h, d_h, 3)
        s_only = head_tables([np.zeros_like(x) for x in layers],
                             [((1.0, 0.0, 0.0), p)], True)[0]
        none = head_tables(layers, [((0.0, 0.0, 0.0), p)], True)[0]
        assert not any(g.any() for g in none[1:n + 1])
        for k, (a, b) in enumerate(zip(none[:1] + none[n + 1:],
                                       s_only[:1] + s_only[n + 1:])):
            assert a.tobytes() == b.tobytes(), f"d_h={d_h} #{k}"


def test_heads_must_share_d_h():
    rng = np.random.default_rng(4)
    layer = constant(rng.standard_normal((3, 2, 3, 4)))
    heads = [(coeffs, *(constant(v) for v in head_params(rng, 1, 4, d_h, 2)
                        .values()))
             for coeffs, d_h in (((1.0, 0.0, 1.0), 4), ((0.0, 1.0, 0.0), 3))]
    with pytest.raises(ad.ShapeError, match="heads' d_h"):
        ad.pair_heads([layer], heads)


def test_pair_heads_needs_a_layer():
    rng = np.random.default_rng(4)
    head = ((1.0, 0.0, 1.0),
            *(constant(v) for v in head_params(rng, 1, 4, 4, 2).values()))
    with pytest.raises(ad.ContractError, match="at least one encoder output"):
        ad.pair_heads([], [head])


def test_pair_heads_needs_a_head():
    layer = constant(np.random.default_rng(4).standard_normal((3, 2, 3, 4)))
    with pytest.raises(ad.ContractError, match="and one head"):
        ad.pair_heads([layer], [])


def test_bce_rejects_non_binary_gold():
    probs = constant(np.full((2, 2, 1), 0.5))
    for gold in (np.full((2, 2, 1), 0.5), np.full((2, 2, 1), 2.0),
                 np.full((2, 2, 1), np.nan), np.full((2, 2, 1), -1.0)):
        with pytest.raises(ad.ContractError, match="binary"):
            ad.bce(probs, gold)
    gold = np.zeros((2, 2, 1))
    gold[0, 1, 0] = 1.0
    assert np.isfinite(ad.bce(probs, gold).item())


# ---------------------------------------------------------------------------
# the kernels' reused buffers start on 64-byte boundaries

@pytest.mark.parametrize("d", [3, 32])
def test_reused_buffers_start_on_cache_lines(monkeypatch, d):
    """Every row of aligned_rows, both dam workspaces (w_ab too, after an
    odd d's step matrix) and a streamed pair block with its ELU work half
    (15 doubles at d = 3) start on 64-byte boundaries."""
    monkeypatch.setattr(ad, "_workspaces", threading.local())
    for size in (1, 13, 1000):
        rows = ad.aligned_rows(3, size)
        assert rows.shape == (3, size)
        assert [row.ctypes.data % 64 for row in rows] == [0] * 3
    rng = np.random.default_rng(d)
    weights = [rng.standard_normal((3, d, d)) for _ in range(3)]
    for transposed in (False, True):
        step, w_ab, _ = ad._dam_pack(3, d, transposed)(None, *weights)
        assert (step.ctypes.data % 64, w_ab.ctypes.data % 64) == (0, 0)
    starts = []
    elu = ad._elu

    def watched_elu(av, out=None, work=None):
        starts.append((out.ctypes.data % 64, work.ctypes.data % 64))
        return elu(av, out, work)

    monkeypatch.setattr(ad, "_elu", watched_elu)
    t = 5
    scaled = rng.standard_normal((t, 2, d))
    inv = rng.uniform(0.5, 1.5, (t, t, 1))
    for lo, hi in ((0, 1), (1, 3), (3, 5)):
        ad._pair_block(scaled, inv, rng.standard_normal(d), lo, hi,
                       streamed=True)
    assert starts == [(0, 0)] * 3


def test_adam_buffers_start_on_cache_lines(monkeypatch):
    """Both of Adam's moments, its two step rows and the gradient row
    that `train` hands it start on 64-byte boundaries when the parameter
    count is not a multiple of 8."""
    monkeypatch.setattr(ad, "_workspaces", threading.local())
    store = ParamStore(seed=0)
    store.add_uniform("w", (13,), fan_in=1)
    adam = Adam(store, lr=1e-2)
    assert (adam._m.ctypes.data % 64, adam._v.ctypes.data % 64) == (0, 0)
    adam.step(np.ones(13))
    rows = (adam._work, adam._denom)
    assert [(row.ctypes.data % 64, row.size) for row in rows] == [(0, 13)] * 2
    assert adam._denom.ctypes.data - adam._work.ctypes.data == 16 * 8

    stepped = []
    step = Adam.step

    def watched(adam, g):
        stepped.append((g.ctypes.data % 64, g.size))
        step(adam, g)

    monkeypatch.setattr(Adam, "step", watched)
    corpus_path, schema_path = synthetic.synthetic_paths()
    schema = LabelSchema.load(schema_path)
    sentences = load_corpus(corpus_path, schema, MatchMode.EXACT)[:2]
    model = JointModel(ModelConfig(d_p=3, d_h=3), schema,
                       Vocabulary.from_corpus(sentences))
    assert model.store.flat.size % 8
    training.train(model, sentences, TrainConfig(epochs=1, batch_size=2))
    assert stepped == [(0, model.store.flat.size)]


@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_no_model_sized_buffer_outlives_train(monkeypatch, variant):
    """Once `train` returns, the only arrays that this thread's workspaces
    hold, closure cells included, and that are as long as the flat
    parameter vector are the recurrent layer's two packs, each of
    3 (3 d_h)^2 doubles and at most 7 of padding: Adam's rows go with the
    optimizer."""
    monkeypatch.setattr(ad, "_workspaces", threading.local())
    corpus_path, schema_path = synthetic.synthetic_paths()
    schema = LabelSchema.load(schema_path)
    sentences = load_corpus(corpus_path, schema, MatchMode.EXACT)
    model = JointModel(ModelConfig(variant=variant), schema,
                       Vocabulary.from_corpus(sentences))
    training.train(model, sentences, TrainConfig(epochs=1))
    held = {}                            # each distinct buffer, once
    for name, (_, value) in vars(ad._workspaces).items():
        for arr in _bound_arrays(value, set()):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            held[id(arr)] = (name, arr.size)
    pack = 3 * (3 * model.config.d_h) ** 2
    assert sorted(name for name, size in held.values() if size >= pack) == [
        "dam", "dam_backward"], held
    assert all(name in ("dam", "dam_backward") and size <= pack + 7
               for name, size in held.values()
               if size >= model.store.flat.size), held


def _allocate_at(offset):
    """An allocator whose buffers start `offset` bytes past a 64-byte
    boundary."""
    def allocate(size):
        raw = np.empty(size + 8)
        skip = (offset - raw.ctypes.data) % 64 // 8
        return raw[skip:skip + size]
    return allocate


@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_buffer_placement_never_changes_bits(monkeypatch, variant):
    """With every reused buffer moved to 16 or 48 bytes past a boundary,
    probabilities at t = 5 and at t = 50 (whose pair tables stream at
    d_h = 32), a recorded backward's gradients and two Adam steps on them
    keep their bytes."""
    vocab = Vocabulary(tuple(f"w{k}" for k in range(12)))
    model = JointModel(ModelConfig(variant=variant, d_p=32, d_h=32, seed=4),
                       LabelSchema(("per", "org"), ("works",)), vocab)
    rng = np.random.default_rng(8)
    sentences = [rng.integers(0, vocab.size, t) for t in (5, 50)]

    def outputs():
        monkeypatch.setattr(ad, "_workspaces", threading.local())
        out = []
        for ids in sentences:
            forward = model.forward(ids, recording=False)
            out += [forward.entities.probs.values.tobytes(),
                    forward.relations.probs.values.tobytes()]
        forward = model.forward(sentences[1])
        weights = np.random.default_rng(9)
        loss = ad.add(*(ops.sum_all(ops.mul(probs, constant(
            weights.uniform(size=probs.shape))))
            for probs in (forward.entities.probs, forward.relations.probs)))
        grads = forward.record.backward(loss)
        named = {name: grads[leaf.node_id]
                 for name, leaf in forward.bound.items()}
        store = model.store.copy()
        adams.append(Adam(store, lr=1e-2))
        for _ in range(2):
            adams[-1].step(np.concatenate(list(named.values()), axis=None))
        return out + [g.tobytes() for g in named.values()] + [
            store.flat.tobytes(), adams[-1]._m.tobytes(),
            adams[-1]._v.tobytes()]

    adams = []
    aligned = outputs()
    for offset in (16, 48):
        monkeypatch.setattr(ad, "_aligned", _allocate_at(offset))
        assert outputs() == aligned
        assert ad._workspaces.pair[1].ctypes.data % 64 == offset
        adam = adams[-1]
        assert {row.ctypes.data % 64 for row in (
            adam._m, adam._v, adam._work, adam._denom)} == {offset}
