"""Encoder cell semantics against a straight-line scalar oracle."""

import numpy as np
import numpy.testing as npt
import pytest

import darter.autodiff as ad
from darter.autodiff import ParamStore, Record, constant
from darter.encoder import (SUBTASKS, DamParams, encode_sequence,
                            encode_stacked, trace_sequence)
from darter.gradcheck import max_relative_error, numeric_gradients

import ops
import oracles
from composed import (DamState, compute_candidates, dam_step, finalize,
                      inter_aggregate, intra_aggregate, project_inputs)


def dam_store(seed, d_in, d_h, prefix="dam0"):
    store = ParamStore(seed)
    DamParams.register(store, prefix, d_in, d_h)
    # biases are zero-initialized; give them non-trivial values
    rng = np.random.default_rng(seed + 1)
    for kind in ("b_z", "b_f", "b_c", "b_a"):
        store.set_(f"{prefix}.{kind}", rng.uniform(-0.5, 0.5, (3, 1, d_h)))
    return store


def bind(store, prefix="dam0", recording=True):
    rec = Record(recording=recording)
    return rec, DamParams.bind(store.bind(rec), prefix)


def oracle_params(store, prefix="dam0"):
    out = {}
    for k, p in enumerate(SUBTASKS):
        out[p] = {
            "w_z": store[f"{prefix}.w_z"][k].tolist(),
            "b_z": store[f"{prefix}.b_z"][k, 0].tolist(),
            "w_f": store[f"{prefix}.w_f"][k].tolist(),
            "b_f": store[f"{prefix}.b_f"][k, 0].tolist(),
            "w_c": store[f"{prefix}.w_c"][k].tolist(),
            "b_c": store[f"{prefix}.b_c"][k, 0].tolist(),
            "w_a": store[f"{prefix}.w_a"][k].tolist(),
            "b_a": store[f"{prefix}.b_a"][k, 0].tolist(),
        }
    return out


FIELDS = ("h_tilde", "hidden")


def stream_view(out, field, p):
    """One field's [t, d_h] features of subtask p, as a recorded view of a
    layer's [t, 2, 3, d_h] output."""
    return ops.index(out, (slice(None), FIELDS.index(field),
                           SUBTASKS.index(p)))


def stream(out, field, p):
    return out.values[:, FIELDS.index(field), SUBTASKS.index(p)]


def projected(x, params):
    """The cell's projections z of every token, [3, t, d_h], as the fused
    layer computes them (read from its trace)."""
    return constant(trace_sequence(x, params)["z"].transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# individual update rules

def test_project_inputs_zero_params():
    store = ParamStore(0)
    DamParams.register(store, "dam0", 3, 4)
    store.zero_all()
    _, params = bind(store)
    x = constant(np.random.default_rng(0).standard_normal((5, 3)))
    z = projected(x, params)
    assert z.shape == (3, 5, 4)
    npt.assert_array_equal(z.values, np.zeros((3, 5, 4)))


def test_project_inputs_identity_weights():
    store = ParamStore(0)
    DamParams.register(store, "dam0", 4, 4)
    store.set_("dam0.w_z", np.stack([np.eye(4)] * 3))
    _, params = bind(store)
    x = np.random.default_rng(1).standard_normal((3, 4))
    z = projected(constant(x), params)
    for k in range(3):
        npt.assert_array_equal(z.values[k], x)


def test_project_inputs_against_oracle():
    store = dam_store(5, 3, 4)
    _, params = bind(store)
    x = np.random.default_rng(2).standard_normal((6, 3))
    z = projected(constant(x), params).values
    ref = oracle_params(store)
    for k, p in enumerate(SUBTASKS):
        for t in range(6):
            want = oracles.vadd(oracles.vecmat(x[t].tolist(), ref[p]["w_z"]),
                                ref[p]["b_z"])
            npt.assert_allclose(z[k, t], want, atol=1e-12)


def test_project_inputs_shape_contract():
    store = dam_store(0, 3, 4)
    _, params = bind(store)
    with pytest.raises(ad.ShapeError):
        projected(constant(np.zeros((2, 5))), params)
    with pytest.raises(ad.ShapeError):
        projected(constant(np.zeros(3)), params)


def test_compute_candidates_zero_state():
    store = dam_store(7, 3, 4)
    _, params = bind(store)
    z_t = constant(np.random.default_rng(3).standard_normal((3, 1, 4)))
    f, ctil = compute_candidates(z_t, DamState.zeros(4), params)
    npt.assert_allclose(f.values, z_t.values + store["dam0.b_f"], atol=1e-15)
    npt.assert_allclose(ctil.values, np.tanh(z_t.values + store["dam0.b_c"]),
                        atol=1e-15)


def test_inter_aggregate_identities():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((3, 1, 6))
    rec = Record()
    inter = inter_aggregate(rec.leaf(f)).values
    f_s, f_r, f_o = f[0], f[1], f[2]
    npt.assert_allclose(inter[0], f_o - f_r, atol=1e-13)   # ro feeds s
    npt.assert_allclose(inter[1], f_o - f_s, atol=1e-13)   # so feeds r
    npt.assert_allclose(inter[2], f_s + f_r, atol=1e-13)   # sr feeds o
    # the printed identities
    npt.assert_allclose(inter[2], f_s + f_r, atol=1e-12)
    npt.assert_allclose(inter[0] + f_r, f_o, atol=1e-12)

    off = inter_aggregate(rec.leaf(f), enabled=False).values
    npt.assert_array_equal(off, np.zeros((3, 1, 6)))


def test_intra_aggregate_first_token():
    rng = np.random.default_rng(5)
    rec = Record()
    f = rec.leaf(rng.standard_normal((3, 1, 4)))
    inter = rec.leaf(rng.standard_normal((3, 1, 4)))
    ctil = rec.leaf(rng.standard_normal((3, 1, 4)))
    a = intra_aggregate(f, inter, ctil, DamState.zeros(4))
    npt.assert_allclose(a.values, (f.values + inter.values) * ctil.values,
                        atol=1e-15)


def test_finalize_zero_and_range():
    store = dam_store(9, 3, 4)
    _, params = bind(store)
    zero = constant(np.zeros((3, 1, 4)))
    h_tilde, c, h = finalize(zero, params)
    npt.assert_array_equal(h_tilde.values, np.zeros((3, 1, 4)))
    npt.assert_allclose(c.values, store["dam0.b_a"], atol=1e-15)

    # tanh only stays strictly below 1.0 in float64 for |x| < ~19
    big = constant(np.random.default_rng(6).uniform(-15, 15, (3, 1, 4)))
    h_tilde, _, h = finalize(big, params)
    assert np.all(np.abs(h_tilde.values) < 1.0)
    assert np.all(np.abs(h.values) < 1.0)


# ---------------------------------------------------------------------------
# full sequences against the oracle

@pytest.mark.parametrize("t,d_p,d_h,seed", [(2, 3, 4, 10), (4, 2, 5, 11),
                                            (1, 4, 3, 12), (6, 3, 2, 13)])
def test_encode_sequence_matches_straightline_oracle(t, d_p, d_h, seed):
    store = dam_store(seed, d_p, d_h)
    rec, params = bind(store)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t, d_p))
    out = encode_sequence(rec.leaf(x), params)
    trace = trace_sequence(rec.leaf(x), params)

    ref = oracles.dam_sequence(x.tolist(), oracle_params(store), d_h)
    for p in SUBTASKS:
        npt.assert_allclose(stream(out, "h_tilde", p), ref["h_tilde"][p],
                            atol=1e-12)
        npt.assert_allclose(stream(out, "hidden", p), ref["h"][p], atol=1e-12)
    for i in range(t):
        for field in ("z", "f", "ctil", "inter", "a", "h_tilde", "c", "h"):
            for k, p in enumerate(SUBTASKS):
                npt.assert_allclose(trace[field][i, k], ref[field][p][i],
                                    atol=1e-12,
                                    err_msg=f"{field}/{p} at token {i}")


def test_encode_sequence_zero_params_all_zero():
    store = ParamStore(0)
    DamParams.register(store, "dam0", 3, 4)
    store.zero_all()
    rec, params = bind(store)
    x = rec.leaf(np.random.default_rng(7).standard_normal((5, 3)))
    out = encode_sequence(x, params)
    for p in SUBTASKS:
        npt.assert_array_equal(stream(out, "h_tilde", p), np.zeros((5, 4)))
        npt.assert_array_equal(stream(out, "hidden", p), np.zeros((5, 4)))


def test_single_token_directions_agree():
    store = dam_store(14, 3, 4)
    rec, params = bind(store)
    x = rec.leaf(np.random.default_rng(8).standard_normal((1, 3)))
    ltr = encode_sequence(x, params, reverse=False)
    rec2, params2 = bind(store)
    x2 = rec2.leaf(x.values)
    rtl = encode_sequence(x2, params2, reverse=True)
    for p in SUBTASKS:
        npt.assert_array_equal(stream(ltr, "h_tilde", p),
                               stream(rtl, "h_tilde", p))


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_direction_symmetry(seed):
    rng = np.random.default_rng(seed)
    t, d_p, d_h = int(rng.integers(2, 7)), 3, 4
    store = dam_store(seed, d_p, d_h)
    x = rng.standard_normal((t, d_p))

    rec1, params1 = bind(store)
    rtl = encode_sequence(rec1.leaf(x), params1, reverse=True)
    rec2, params2 = bind(store)
    ltr_rev = encode_sequence(rec2.leaf(x[::-1]), params2, reverse=False)
    for p in SUBTASKS:
        npt.assert_allclose(stream(rtl, "h_tilde", p),
                            stream(ltr_rev, "h_tilde", p)[::-1],
                            rtol=0, atol=1e-12)


def test_interaction_off_decouples_streams():
    rng = np.random.default_rng(23)
    d_p, d_h, t = 3, 4, 5
    store = dam_store(24, d_p, d_h)
    x = rng.standard_normal((t, d_p))

    rec, params = bind(store)
    base = encode_sequence(rec.leaf(x), params, interaction=False)

    # scrambling the r and o cells must not move the s stream
    scrambled = store.copy()
    for kind in ("w_z", "b_z", "w_f", "b_f", "w_c", "b_c", "w_a", "b_a"):
        arr = scrambled[f"dam0.{kind}"].copy()
        arr[1:] = rng.standard_normal(arr[1:].shape)
        scrambled.set_(f"dam0.{kind}", arr)
    rec2, params2 = bind(scrambled)
    moved = encode_sequence(rec2.leaf(x), params2, interaction=False)
    npt.assert_array_equal(stream(base, "h_tilde", "s"),
                           stream(moved, "h_tilde", "s"))

    # with interaction on the same scramble must move it
    rec3, params3 = bind(store)
    on = encode_sequence(rec3.leaf(x), params3, interaction=True)
    rec4, params4 = bind(scrambled)
    on_moved = encode_sequence(rec4.leaf(x), params4, interaction=True)
    assert not np.array_equal(stream(on, "h_tilde", "s"),
                              stream(on_moved, "h_tilde", "s"))


def test_encode_sequence_rejects_empty():
    store = dam_store(0, 3, 4)
    rec, params = bind(store)
    with pytest.raises(ad.ContractError, match="empty"):
        encode_sequence(rec.leaf(np.zeros((0, 3))), params)


def test_trace_sequence_rejects_empty_and_a_1d_input():
    """The kernel's shape checks come first: an empty token matrix is a
    contract error, a 1-d input of any length a shape error."""
    _, params = bind(dam_store(0, 3, 4), recording=False)
    with pytest.raises(ad.ContractError, match="empty"):
        trace_sequence(constant(np.zeros((0, 3))), params)
    for length in (0, 3):
        with pytest.raises(ad.ShapeError):
            trace_sequence(constant(np.zeros(length)), params)


@pytest.mark.parametrize("d_in,d_h", [(0, 4), (3, 0)])
def test_cell_registration_rejects_widths_below_one(d_in, d_h):
    with pytest.raises(ad.ContractError, match="cell widths must be positive"):
        DamParams.register(ParamStore(0), "dam0", d_in, d_h)


# ---------------------------------------------------------------------------
# stacking

def test_layer_directions_alternate():
    """Three stacked layers run left-to-right, right-to-left, left-to-right,
    each reading the previous layer's output whole."""
    store = ParamStore(36)
    for k in range(3):
        DamParams.register(store, f"dam{k}", 3 if k == 0 else 4, 4)
    x = np.random.default_rng(37).standard_normal((5, 3))

    rec = Record()
    bound = store.bind(rec)
    outs = encode_stacked(rec.leaf(x), [DamParams.bind(bound, f"dam{k}")
                                        for k in range(3)])

    rec2 = Record()
    bound2 = store.bind(rec2)
    manual = [rec2.leaf(x)]
    for k, reverse in enumerate((False, True, False)):
        manual.append(encode_sequence(manual[-1],
                                      DamParams.bind(bound2, f"dam{k}"),
                                      reverse=reverse))
    assert len(outs) == 3
    for got, want in zip(outs, manual[1:]):
        npt.assert_array_equal(got.values, want.values)


def test_stacked_single_layer_equals_sequence():
    store = dam_store(30, 3, 4)
    rec, params = bind(store)
    x = rec.leaf(np.random.default_rng(9).standard_normal((4, 3)))
    solo = encode_sequence(x, params)
    rec2, params2 = bind(store)
    x2 = rec2.leaf(x.values)
    stacked = encode_stacked(x2, [params2])
    assert len(stacked) == 1
    for p in SUBTASKS:
        npt.assert_array_equal(stream(solo, "h_tilde", p),
                               stream(stacked[0], "h_tilde", p))


def test_stacked_two_layers_match_manual_composition():
    rng = np.random.default_rng(31)
    store = ParamStore(32)
    DamParams.register(store, "dam0", 3, 4)
    DamParams.register(store, "dam1", 4, 4)
    x = rng.standard_normal((5, 3))

    rec = Record()
    bound = store.bind(rec)
    outs = encode_stacked(rec.leaf(x), [DamParams.bind(bound, "dam0"),
                                        DamParams.bind(bound, "dam1")])
    assert len(outs) == 2

    rec2 = Record()
    bound2 = store.bind(rec2)
    first = encode_sequence(rec2.leaf(x), DamParams.bind(bound2, "dam0"),
                            reverse=False)
    feed = (stream(first, "hidden", "s") + stream(first, "hidden", "r")
            + stream(first, "hidden", "o"))
    second = encode_sequence(rec2.leaf(feed), DamParams.bind(bound2, "dam1"),
                             reverse=True)
    for p in SUBTASKS:
        npt.assert_allclose(stream(outs[0], "h_tilde", p),
                            stream(first, "h_tilde", p), atol=1e-15)
        npt.assert_allclose(stream(outs[1], "h_tilde", p),
                            stream(second, "h_tilde", p), atol=1e-13)


def test_stacked_contracts():
    store = ParamStore(33)
    DamParams.register(store, "dam0", 3, 4)
    DamParams.register(store, "dam1", 5, 4)   # wrong input width
    rec = Record()
    bound = store.bind(rec)
    x = rec.leaf(np.zeros((2, 3)))
    with pytest.raises(ad.ContractError):
        encode_stacked(x, [])
    with pytest.raises(ad.ShapeError, match="dam_sequence reads"):
        encode_stacked(x, [DamParams.bind(bound, "dam0"),
                           DamParams.bind(bound, "dam1")])


# ---------------------------------------------------------------------------
# gradients through the recurrence

def test_encoder_gradients_finite_differences():
    rng = np.random.default_rng(34)
    t, d_p, d_h = 3, 2, 3
    store = dam_store(35, d_p, d_h)
    x = rng.standard_normal((t, d_p))
    w = {p: rng.standard_normal((t, d_h)) for p in SUBTASKS}

    def loss_value(recording):
        rec = Record(recording=recording)
        params = DamParams.bind(store.bind(rec), "dam0")
        out = encode_sequence(rec.leaf(x), params)
        total = None
        for p in SUBTASKS:
            term = ops.sum_all(ops.mul(stream_view(out, "h_tilde", p),
                                       constant(w[p])))
            total = term if total is None else ad.add(total, term)
        return rec, total

    rec, loss = loss_value(True)
    rec.backward(loss)
    bound = store.bind(Record(recording=False))
    analytic = {}
    rec2 = Record()
    params2 = store.bind(rec2)
    out2 = encode_sequence(rec2.leaf(x), DamParams.bind(params2, "dam0"))
    total2 = None
    for p in SUBTASKS:
        term = ops.sum_all(ops.mul(stream_view(out2, "h_tilde", p),
                                   constant(w[p])))
        total2 = term if total2 is None else ad.add(total2, term)
    rec2.backward(total2)
    analytic = {name: rec2.grad(t2) for name, t2 in params2.items()}
    analytic = {k: (np.zeros_like(store[k]) if g is None else g)
                for k, g in analytic.items()}

    numeric = numeric_gradients(lambda: loss_value(False)[1].item(), store)
    err = max_relative_error(analytic, numeric)
    assert err <= 1e-4, f"encoder gradient mismatch: {err:.2e}"


# ---------------------------------------------------------------------------
# the fused recurrence against its composed reference

def composed_sequence(x, params, reverse, interaction):
    """encode_sequence's recurrence chained from dam_step, node by node;
    returns stacked h_tilde and hidden, [3, t, d_h] in token order."""
    t = x.shape[0]
    z_all = project_inputs(x, params)
    order = range(t - 1, -1, -1) if reverse else range(t)
    state = DamState.zeros(params.w_z.shape[2])
    tildes, hiddens = [None] * t, [None] * t
    for i in order:
        z_t = ops.index(z_all, (slice(None), slice(i, i + 1)))
        tildes[i], hiddens[i], state, _ = dam_step(z_t, state, params,
                                                    interaction)
    return ops.concat(tildes, axis=1), ops.concat(hiddens, axis=1)


@pytest.mark.parametrize("t", range(1, 8))
@pytest.mark.parametrize("interaction", [True, False])
@pytest.mark.parametrize("reverse", [False, True])
def test_fused_cell_gradients_match_composed_dam_step(t, interaction,
                                                      reverse):
    d_p, d_h = 3, 4
    seed = 40 + t
    store = dam_store(seed, d_p, d_h)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t, d_p))
    w_tilde = rng.standard_normal((3, t, d_h))
    w_hidden = rng.standard_normal((3, t, d_h))

    def gradients(fused):
        rec, params = bind(store)
        xt = rec.leaf(x)
        if fused:
            out = encode_sequence(xt, params, reverse, interaction)
            tilde = ops.concat([ops.reshape(stream_view(out, "h_tilde", p),
                                            (1, t, d_h)) for p in SUBTASKS])
            hidden = ops.concat([ops.reshape(stream_view(out, "hidden", p),
                                             (1, t, d_h)) for p in SUBTASKS])
        else:
            tilde, hidden = composed_sequence(xt, params, reverse,
                                              interaction)
        loss = ad.add(ops.sum_all(ops.mul(tilde, constant(w_tilde))),
                      ops.sum_all(ops.mul(hidden, constant(w_hidden))))
        rec.backward(loss)
        grads = {kind: rec.grad(getattr(params, kind))
                 for kind in ("w_z", "b_z", "w_f", "b_f", "w_c", "b_c",
                              "w_a", "b_a")}
        grads["x"] = rec.grad(xt)
        return (tilde.values, hidden.values), grads

    (tilde_f, hidden_f), fused = gradients(True)
    (tilde_c, hidden_c), composed = gradients(False)
    npt.assert_allclose(tilde_f, tilde_c, rtol=0, atol=1e-14)
    npt.assert_allclose(hidden_f, hidden_c, rtol=0, atol=1e-14)
    assert set(fused) == set(composed)
    for name in fused:
        assert fused[name].shape == composed[name].shape, name
    err = max_relative_error(fused, composed)
    assert err <= 1e-10, f"fused cell gradients differ: {err:.2e}"
