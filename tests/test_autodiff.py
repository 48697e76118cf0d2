"""Kernel ops against scalar oracles and central finite differences."""

import numpy as np
import numpy.testing as npt
import pytest

import darter.autodiff as ad
from darter.autodiff import ParamStore, Record, constant
from darter.gradcheck import max_relative_error, numeric_gradients

import ops
import oracles


def _gradcheck(build, store, tol=1e-6, step=1e-5):
    """Analytic grads of build(bound params) vs central differences."""
    rec = Record()
    bound = store.bind(rec)
    loss = build(bound)
    rec.backward(loss)
    analytic = {k: rec.grad(t) for k, t in bound.items()}
    analytic = {k: (np.zeros_like(store[k]) if g is None else g)
                for k, g in analytic.items()}

    def forward():
        silent = Record(recording=False)
        return build(store.bind(silent)).item()

    numeric = numeric_gradients(forward, store, step=step)
    err = max_relative_error(analytic, numeric)
    assert err <= tol, f"gradient mismatch: rel error {err:.3e} > {tol}"
    return err


def _store_with(seed, **arrays):
    store = ParamStore(seed)
    for name, arr in arrays.items():
        store.add_zeros(name, np.asarray(arr).shape)
        store.set_(name, np.asarray(arr, dtype=np.float64))
    return store


def _weighted_sum(t, rng):
    w = constant(rng.standard_normal(t.values.shape))
    return ops.sum_all(ops.mul(t, w))


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity_and_zero():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    eye = constant(np.eye(2))
    npt.assert_array_equal(ops.matmul(a, eye).values, a.values)
    z = constant(np.zeros((2, 3)))
    npt.assert_array_equal(ops.matmul(a, z).values, np.zeros((2, 3)))


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    for m, k, n in [(3, 4, 2), (1, 1, 1), (5, 2, 7), (2, 6, 3)]:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        got = ops.matmul(constant(a), constant(b)).values
        want = np.array(oracles.matmul(a.tolist(), b.tolist()))
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_matmul_batched_against_triple_loop():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 3, 5))
    got = ops.matmul(constant(a), constant(b)).values
    assert got.shape == (3, 4, 5)
    for q in range(3):
        want = np.array(oracles.matmul(a.tolist(), b[q].tolist()))
        npt.assert_allclose(got[q], want, atol=1e-12)


def test_matmul_shape_errors():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        ops.matmul(constant(np.zeros((2, 3))), constant(np.zeros((4, 2))))
    with pytest.raises(ad.ShapeError):
        ops.matmul(constant(np.zeros(3)), constant(np.zeros((3, 2))))


def test_matmul_gradients():
    rng = np.random.default_rng(9)
    store = _store_with(0, a=rng.standard_normal((3, 4)),
                        b=rng.standard_normal((4, 2)))
    _gradcheck(lambda p: _weighted_sum(ops.matmul(p["a"], p["b"]),
                                       np.random.default_rng(3)), store)


def test_matmul_batched_gradients():
    rng = np.random.default_rng(10)
    store = _store_with(0, a=rng.standard_normal((4, 3)),
                        b=rng.standard_normal((2, 3, 5)))
    _gradcheck(lambda p: _weighted_sum(ops.matmul(p["a"], p["b"]),
                                       np.random.default_rng(4)), store)


# ---------------------------------------------------------------------------
# elementwise

def test_elementwise_values():
    a = constant([[1.0, -2.0]])
    b = constant([[3.0, 5.0]])
    npt.assert_array_equal(ad.add(a, b).values, [[4.0, 3.0]])
    npt.assert_array_equal(ops.sub(a, b).values, [[-2.0, -7.0]])
    npt.assert_array_equal(ops.mul(a, b).values, [[3.0, -10.0]])


def test_elementwise_rejects_shape_mismatch():
    a = constant(np.zeros((2, 3)))
    b = constant(np.zeros((3, 2)))
    for op in (ad.add, ops.sub, ops.mul):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            op(a, b)


def test_elementwise_gradients():
    rng = np.random.default_rng(11)
    for op in (ad.add, ops.sub, ops.mul):
        store = _store_with(0, a=rng.standard_normal((2, 3)),
                            b=rng.standard_normal((2, 3)))
        _gradcheck(lambda p, op=op: _weighted_sum(op(p["a"], p["b"]),
                                                  np.random.default_rng(5)), store)


def test_broadcast_add_and_affine_const():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 1, 4))
    b = rng.standard_normal((1, 5, 4))
    got = ops.broadcast_add(constant(a), constant(b)).values
    npt.assert_array_equal(got, a + b)
    npt.assert_allclose(ad.affine_const(constant(a), -2.0, 1.5).values,
                        a * -2.0 + 1.5)

    store = _store_with(0, a=a, b=b)
    _gradcheck(lambda p: _weighted_sum(ops.broadcast_add(p["a"], p["b"]),
                                       np.random.default_rng(6)), store)
    store2 = _store_with(0, a=a)
    _gradcheck(lambda p: _weighted_sum(ad.affine_const(p["a"], 0.7, -0.3),
                                       np.random.default_rng(7)), store2)


# ---------------------------------------------------------------------------
# activations

def test_activation_fixed_points():
    z = constant(np.zeros((2, 2)))
    npt.assert_array_equal(ops.tanh(z).values, np.zeros((2, 2)))
    npt.assert_array_equal(ops.sigmoid(z).values, np.full((2, 2), 0.5))
    npt.assert_array_equal(ops.elu(z).values, np.zeros((2, 2)))


def test_elu_branches():
    x = constant(np.array([2.5, -1.0, 0.0]))
    out = ops.elu(x).values
    assert out[0] == 2.5
    npt.assert_allclose(out[1], -0.6321205588285577, rtol=0, atol=1e-16)
    assert out[2] == 0.0


def test_activations_against_scalar_oracle():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 5)) * 3
    for op, ref in [(ops.tanh, oracles.tanh), (ops.sigmoid, oracles.sigmoid),
                    (ops.elu, oracles.elu)]:
        got = op(constant(x)).values
        want = np.array([[ref(v) for v in row] for row in x.tolist()])
        npt.assert_allclose(got, want, atol=1e-14)


def test_activation_gradients():
    rng = np.random.default_rng(14)
    for op in (ops.tanh, ops.sigmoid, ops.elu):
        store = _store_with(0, x=rng.standard_normal((3, 4)))
        _gradcheck(lambda p, op=op: _weighted_sum(op(p["x"]),
                                                  np.random.default_rng(8)), store)


def test_log_and_clamp():
    x = constant(np.array([0.5, 1.0, 2.0]))
    npt.assert_allclose(ops.log(x).values, np.log([0.5, 1.0, 2.0]))
    with pytest.raises(ad.ContractError):
        ops.log(constant(np.array([1.0, 0.0])))
    c = ops.clamp(constant(np.array([-1.0, 0.3, 2.0])), 0.0, 1.0).values
    npt.assert_array_equal(c, [0.0, 0.3, 1.0])
    with pytest.raises(ad.ContractError):
        ops.clamp(constant(np.zeros(2)), 1.0, 1.0)

    rng = np.random.default_rng(15)
    store = _store_with(0, x=rng.uniform(0.1, 3.0, (3, 3)))
    _gradcheck(lambda p: _weighted_sum(ops.log(p["x"]),
                                       np.random.default_rng(9)), store)
    store2 = _store_with(0, x=rng.uniform(-2, 2, (3, 3)))
    _gradcheck(lambda p: _weighted_sum(ops.clamp(p["x"], -0.9, 0.9),
                                       np.random.default_rng(10)), store2)


# ---------------------------------------------------------------------------
# layer norm

def test_layer_norm_constant_row_is_zero():
    gain = constant(np.ones(4))
    bias = constant(np.zeros(4))
    out = ops.layer_norm(constant(np.full((2, 4), 3.7)), gain, bias).values
    npt.assert_array_equal(out, np.zeros((2, 4)))


def test_layer_norm_pm_one_row():
    gain = constant(np.ones(2))
    bias = constant(np.zeros(2))
    out = ops.layer_norm(constant(np.array([[1.0, -1.0]])), gain, bias).values
    expected = 1.0 / np.sqrt(1.0 + 1e-5)
    npt.assert_allclose(out, [[expected, -expected]], rtol=0, atol=1e-15)
    npt.assert_allclose(out, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_moments_closed_form():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((6, 8)) * rng.uniform(0.5, 4.0, (6, 1))
    out = ops.layer_norm(constant(x), constant(np.ones(8)),
                         constant(np.zeros(8))).values
    for row_in, row_out in zip(x, out):
        var = row_in.var()
        assert abs(row_out.mean()) < 1e-12
        npt.assert_allclose(row_out.var(), var / (var + 1e-5), rtol=0, atol=1e-12)


def test_layer_norm_against_oracle():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 5))
    gain = rng.standard_normal(5)
    bias = rng.standard_normal(5)
    got = ops.layer_norm(constant(x), constant(gain), constant(bias)).values
    for i in range(2):
        for j in range(3):
            want = oracles.norm_row(x[i, j].tolist(), gain.tolist(), bias.tolist())
            npt.assert_allclose(got[i, j], want, atol=1e-13)


def test_layer_norm_shape_contract():
    with pytest.raises(ad.ShapeError):
        ops.layer_norm(constant(np.zeros((3, 1))), constant(np.ones(1)),
                       constant(np.zeros(1)))
    with pytest.raises(ad.ShapeError):
        ops.layer_norm(constant(np.zeros((3, 4))), constant(np.ones(3)),
                       constant(np.zeros(4)))


def test_layer_norm_gradients():
    rng = np.random.default_rng(18)
    store = _store_with(0, x=rng.standard_normal((4, 6)),
                        gain=rng.standard_normal(6),
                        bias=rng.standard_normal(6))
    _gradcheck(lambda p: _weighted_sum(
        ops.layer_norm(p["x"], p["gain"], p["bias"]),
        np.random.default_rng(11)), store, tol=1e-4)


# ---------------------------------------------------------------------------
# structure ops

def test_concat_values_and_errors():
    a = constant(np.ones((2, 3)))
    b = constant(np.zeros((2, 2)))
    out = ops.concat([a, b], axis=1).values
    assert out.shape == (2, 5)
    npt.assert_array_equal(out[:, :3], 1.0)
    single = ops.concat([a], axis=0)
    npt.assert_array_equal(single.values, a.values)
    with pytest.raises(ad.ShapeError):
        ops.concat([a, b], axis=0)
    with pytest.raises(ad.ShapeError):
        ops.concat([a, constant(np.zeros(3))], axis=0)
    with pytest.raises(ad.ContractError):
        ops.concat([], axis=0)


def test_concat_gradients():
    rng = np.random.default_rng(19)
    store = _store_with(0, a=rng.standard_normal((2, 3)),
                        b=rng.standard_normal((2, 1)),
                        c=rng.standard_normal((2, 4)))
    _gradcheck(lambda p: _weighted_sum(
        ops.concat([p["a"], p["b"], p["c"]], axis=1),
        np.random.default_rng(12)), store)


def test_take_gather_and_duplicate_scatter():
    x = constant(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    out = ad.take(x, [2, 0, 2]).values
    npt.assert_array_equal(out, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])

    rec = Record()
    store = ParamStore(0)
    store.add_zeros("x", (3, 2))
    store.set_("x", np.arange(6.0).reshape(3, 2))
    bound = store.bind(rec)
    loss = ops.sum_all(ad.take(bound["x"], [0, 0, 1]))
    rec.backward(loss)
    npt.assert_array_equal(rec.grad(bound["x"]),
                           [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])

    with pytest.raises(ad.ContractError):
        ad.take(x, [3])
    with pytest.raises(ad.ShapeError):
        ad.take(constant(np.array(1.0)), [0])


def test_take_rejects_indices_that_are_not_1d():
    x = constant(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ad.ShapeError, match="1-d"):
        ad.take(x, [[0, 1], [2, 0]])


def test_index_selects_a_view_and_scatters_back():
    x = constant(np.arange(24.0).reshape(2, 3, 4))
    npt.assert_array_equal(ops.index(x, (1, 2)).values,
                           [20.0, 21.0, 22.0, 23.0])
    with pytest.raises(ad.ShapeError):
        ops.index(x, (2, 0))
    rng = np.random.default_rng(21)
    store = _store_with(0, x=rng.standard_normal((2, 3, 4)))
    _gradcheck(lambda p: ad.add(
        _weighted_sum(ops.index(p["x"], (0, 1)), np.random.default_rng(14)),
        _weighted_sum(ops.index(p["x"], (1, slice(0, 2))),
                      np.random.default_rng(15))), store)


def test_reshape_and_sum():
    x = constant(np.arange(6.0).reshape(2, 3))
    r = ops.reshape(x, (3, 2))
    npt.assert_array_equal(r.values, np.arange(6.0).reshape(3, 2))
    with pytest.raises(ad.ShapeError):
        ops.reshape(x, (4, 2))
    s = ops.sum_all(x)
    assert s.values.shape == ()
    assert s.item() == 15.0

    rng = np.random.default_rng(21)
    store = _store_with(0, x=rng.standard_normal((2, 6)))
    _gradcheck(lambda p: _weighted_sum(ops.reshape(p["x"], (3, 4)),
                                       np.random.default_rng(14)), store)


def test_item_rejects_a_tensor_of_more_than_one_value():
    with pytest.raises(ad.ContractError, match=r"item\(\) on tensor"):
        constant(np.zeros(2)).item()


# ---------------------------------------------------------------------------
# record mechanics

def test_backward_exact_linear_and_quadratic():
    store = _store_with(0, x=np.array([[1.0, -2.0], [0.5, 3.0]]))
    rec = Record()
    bound = store.bind(rec)
    rec.backward(ops.sum_all(bound["x"]))
    npt.assert_array_equal(rec.grad(bound["x"]), np.ones((2, 2)))

    rec2 = Record()
    bound2 = store.bind(rec2)
    rec2.backward(ops.sum_all(ops.mul(bound2["x"], bound2["x"])))
    npt.assert_array_equal(rec2.grad(bound2["x"]), 2.0 * store["x"])


def test_backward_rejects_non_scalar():
    rec = Record()
    x = rec.leaf(np.ones((2, 2)))
    y = ops.tanh(x)
    with pytest.raises(ad.ContractError, match="scalar"):
        rec.backward(y)


def test_backward_rejects_foreign_tensor():
    rec = Record()
    rec.leaf(np.ones(2))
    other = Record()
    loss = ops.sum_all(other.leaf(np.ones(2)))
    with pytest.raises(ad.ContractError):
        rec.backward(loss)


def test_mixed_record_operands_rejected():
    a = Record().leaf(np.ones((2, 2)))
    b = Record().leaf(np.ones((2, 2)))
    with pytest.raises(ad.ContractError, match="record"):
        ad.add(a, b)


def test_repeated_backward_is_deterministic():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 3))

    def run():
        rec = Record()
        t = rec.leaf(x)
        loss = ops.sum_all(ops.sigmoid(ops.matmul(t, ops.tanh(t))))
        rec.backward(loss)
        return rec.grad(t)

    g1, g2 = run(), run()
    npt.assert_array_equal(g1, g2)


def test_forward_is_pure_and_never_mutates():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((4, 4))
    g = rng.standard_normal(4)
    xc, gc = x.copy(), g.copy()

    def run():
        rec = Record()
        t = rec.leaf(x)
        out = ops.layer_norm(ops.elu(ops.matmul(t, t)), rec.leaf(g),
                             rec.leaf(np.zeros(4)))
        return ops.sum_all(out).item()

    v1, v2 = run(), run()
    assert v1 == v2
    npt.assert_array_equal(x, xc)
    npt.assert_array_equal(g, gc)


def test_finite_outputs_for_bounded_inputs():
    rng = np.random.default_rng(24)
    for _ in range(20):
        x = rng.uniform(-10, 10, (5, 5))
        rec = Record()
        t = rec.leaf(x)
        out = ops.sigmoid(ops.matmul(ops.elu(t), ops.tanh(t)))
        out = ops.layer_norm(out, rec.leaf(np.ones(5)), rec.leaf(np.zeros(5)))
        assert np.all(np.isfinite(out.values))


def test_recording_flag_skips_nodes():
    rec = Record(recording=False)
    t = rec.leaf(np.ones((2, 2)))
    out = ops.tanh(ops.matmul(t, t))
    assert out.node_id is None
    assert rec.nodes == []


# ---------------------------------------------------------------------------
# parameter store

def test_paramstore_contracts():
    store = ParamStore(3)
    store.add_uniform("w", (4, 3), fan_in=4)
    with pytest.raises(ad.ContractError, match="duplicate"):
        store.add_zeros("w", (1,))
    with pytest.raises(ad.ShapeError, match="w"):
        store.set_("w", np.zeros((3, 4)))
    assert np.all(np.abs(store["w"]) <= 0.5)


@pytest.mark.parametrize("fan_in", [0, -1])
def test_add_uniform_rejects_a_fan_in_below_one(fan_in):
    with pytest.raises(ad.ContractError, match="fan_in must be positive"):
        ParamStore(3).add_uniform("w", (2, 2), fan_in=fan_in)


def test_max_relative_error_reads_a_missing_analytic_gradient_as_zero():
    """A parameter that the analytic side never reached has a zero
    gradient: its error is the numeric gradient's, under the unit floor."""
    numeric = {"w": np.array([0.5, -3.0]), "b": np.array([0.25])}
    assert max_relative_error({}, numeric) == 1.0
    assert max_relative_error({"w": np.zeros(2)}, numeric) == 1.0
    assert max_relative_error({"w": numeric["w"]}, numeric) == 0.25


def test_paramstore_seed_determinism():
    def build(seed):
        s = ParamStore(seed)
        s.add_uniform("a", (3, 3), fan_in=3)
        s.add_uniform("b", (2, 5), fan_in=2)
        s.add_zeros("c", (4,))
        return s

    s1, s2 = build(11), build(11)
    for name in s1.names():
        npt.assert_array_equal(s1[name], s2[name])
    s3 = build(12)
    assert not np.array_equal(s1["a"], s3["a"])


def test_paramstore_bind_shares_storage():
    store = ParamStore(0)
    store.add_ones("x", (2, 2))
    rec = Record()
    bound = store.bind(rec)
    store["x"][0, 0] = 5.0
    assert bound["x"].values[0, 0] == 5.0
    assert store.n_components() == 4
    dup = store.copy()
    dup["x"][0, 0] = 7.0
    assert store["x"][0, 0] == 5.0


def test_paramstore_zero_all():
    store = ParamStore(1)
    store.add_uniform("w", (3, 3), fan_in=3)
    store.zero_all()
    npt.assert_array_equal(store["w"], np.zeros((3, 3)))


def _views_store():
    store = ParamStore(4)
    store.add_uniform("w", (3, 2), fan_in=3)
    store.add_ones("b", (2,))
    return store


def test_paramstore_arrays_are_views_of_the_flat_vector():
    store = _views_store()
    before = {name: arr.copy() for name, arr in store.items()}
    flat = store.flat
    assert flat.shape == (8,) and flat.flags.c_contiguous
    npt.assert_array_equal(flat, np.concatenate([before["w"].ravel(),
                                                 before["b"]]))
    for name, arr in store.items():
        assert np.shares_memory(arr, flat)
        npt.assert_array_equal(arr, before[name])
    flat[-1] = 9.0
    assert store["b"][1] == 9.0


def test_paramstore_set_copies_into_the_view():
    store = _views_store()
    flat = store.flat
    values = np.arange(6.0).reshape(3, 2)
    store.set_("w", values)
    values[0, 0] = -1.0
    assert store["w"][0, 0] == 0.0
    npt.assert_array_equal(flat[:6], np.arange(6.0))
    assert np.shares_memory(store["w"], flat)


def test_paramstore_zero_all_keeps_the_views():
    store = _views_store()
    flat = store.flat
    store.zero_all()
    assert store.flat is flat
    npt.assert_array_equal(flat, np.zeros(8))
    for name in store.names():
        assert np.shares_memory(store[name], flat)


def test_paramstore_copy_is_independent():
    store = _views_store()
    dup = store.copy()
    assert not np.shares_memory(dup.flat, store.flat)
    dup["w"][0, 0] = 7.0
    dup.flat[-1] = 8.0
    assert store["w"][0, 0] != 7.0 and store["b"][1] == 1.0
    store.set_("b", np.zeros(2))
    npt.assert_array_equal(dup["b"], [1.0, 8.0])
    assert np.shares_memory(dup["w"], dup.flat)


def test_paramstore_register_after_flat_was_read():
    store = _views_store()
    store.flat[0] = 5.0
    store.add_zeros("c", (3,))
    flat = store.flat
    assert flat.shape == (11,)
    assert flat[0] == 5.0 and store["w"][0, 0] == 5.0
    npt.assert_array_equal(flat[8:], np.zeros(3))
    for name in store.names():
        assert np.shares_memory(store[name], flat)
    store.set_("c", np.ones(3))
    npt.assert_array_equal(flat[8:], np.ones(3))


def test_untracked_binding_is_cached_and_sees_perturbations():
    store = _views_store()
    store.flat                           # the arrays become views
    bound = store.bind(Record(recording=False))
    again = store.bind(Record(recording=False))
    assert all(again[name] is tensor for name, tensor in bound.items())
    assert all(t.node_id is None for t in bound.values())

    def forward():
        b = store.bind(Record(recording=False))
        return ops.sum_all(ops.matmul(b["w"], ops.reshape(b["b"], (2, 1))))

    base = forward().item()
    flat = store["w"].reshape(-1)        # as numeric_gradients perturbs
    orig = flat[0]
    flat[0] = orig + 0.5
    assert forward().item() == pytest.approx(base + 0.5 * store["b"][0],
                                             rel=1e-14)
    flat[0] = orig
    assert forward().item() == base
    assert forward().values.tobytes() == ops.sum_all(ops.matmul(
        constant(store["w"]), constant(store["b"].reshape(2, 1)))
    ).values.tobytes()


def test_copied_store_binds_its_own_tensors():
    store = _views_store()
    store.flat                           # the arrays become views
    bound = store.bind(Record(recording=False))
    dup = store.copy()
    dup_bound = dup.bind(Record(recording=False))
    for name in store.names():
        assert dup_bound[name] is not bound[name]
        assert np.shares_memory(dup_bound[name].values, dup.flat)
        assert not np.shares_memory(dup_bound[name].values,
                                    bound[name].values)
    dup.set_("b", np.full(2, 3.0))
    npt.assert_array_equal(bound["b"].values, [1.0, 1.0])
    npt.assert_array_equal(dup_bound["b"].values, [3.0, 3.0])


def test_registering_a_parameter_drops_the_cached_binding():
    store = _views_store()
    first = store.bind(Record(recording=False))
    store.add_zeros("c", (3,))
    second = store.bind(Record(recording=False))
    assert list(second) == ["w", "b", "c"] and "c" not in first
    flat = store.flat                    # replaces the arrays with views
    third = store.bind(Record(recording=False))
    for name in store.names():
        assert third[name].values is store[name]
        assert np.shares_memory(third[name].values, flat)
    store.flat[-1] = 4.0
    assert third["c"].values[-1] == 4.0


# ---------------------------------------------------------------------------
# randomized sweep: every op family, >= 100 cases total

def test_per_op_fd_sweep():
    rng = np.random.default_rng(25)
    cases = 0
    for trial in range(12):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        specs = {
            "matmul": ((m, k), (k, n),
                       lambda p: ops.matmul(p["a"], p["b"])),
            "add": ((m, k), (m, k), lambda p: ad.add(p["a"], p["b"])),
            "sub": ((m, k), (m, k), lambda p: ops.sub(p["a"], p["b"])),
            "mul": ((m, k), (m, k), lambda p: ops.mul(p["a"], p["b"])),
            "badd": ((m, 1, k), (n, k),
                     lambda p: ops.broadcast_add(p["a"], p["b"])),
            "tanh": ((m, k), None, lambda p: ops.tanh(p["a"])),
            "sigmoid": ((m, k), None, lambda p: ops.sigmoid(p["a"])),
            "elu": ((m, k), None, lambda p: ops.elu(p["a"])),
            "norm": ((m, k), (k,), lambda p: ops.layer_norm(
                p["a"], p["b"], constant(np.zeros(p["b"].shape)))),
            "take": ((m + 1, k), None,
                     lambda p: ad.take(p["a"], [0, m, 0])),
        }
        for name, (sa, sb, build) in specs.items():
            arrays = {"a": rng.standard_normal(sa)}
            if sb is not None:
                arrays["b"] = rng.standard_normal(sb)
            store = _store_with(0, **arrays)
            seed = int(rng.integers(1 << 30))
            _gradcheck(lambda p, b=build, s=seed: _weighted_sum(
                b(p), np.random.default_rng(s)), store, tol=1e-4)
            cases += 1
    assert cases >= 100


# ---------------------------------------------------------------------------
# fused ops: shape contracts (values and gradients are checked against the
# oracles and the composed graph in test_decoders.py and test_encoder.py)

def test_pair_scores_shape_contract():
    head = [constant(np.zeros(shape)) for shape in
            ((8, 4), (4,), (4,), (4,), (4, 2), (2,))]
    r_only = (0.0, 1.0, 0.0)
    two = [constant(np.zeros((3, 2, 3, 2))), constant(np.zeros((3, 2, 3, 2)))]
    assert ops.pair_scores(two, r_only, *head).shape == (3, 3, 2)
    with pytest.raises(ad.ShapeError, match="one shape"):
        ops.pair_scores([two[0], constant(np.zeros((3, 2, 3, 3)))], r_only,
                        *head)
    with pytest.raises(ad.ShapeError, match="one shape"):
        ops.pair_scores([constant(np.zeros(3))], r_only, *head)
    with pytest.raises(ad.ShapeError, match="rows"):
        ops.pair_scores(two[:1], r_only, *head)


def test_dam_sequence_shape_contract():
    x = constant(np.zeros((2, 4)))
    w, b = constant(np.zeros((3, 4, 4))), constant(np.zeros((3, 1, 4)))
    with pytest.raises(ad.ShapeError, match="w_c"):
        ad.dam_sequence(x, w, b, w, b, constant(np.zeros((3, 4, 5))), b, w, b)
    with pytest.raises(ad.ShapeError, match="b_a"):
        ad.dam_sequence(x, w, b, w, b, w, b, w, constant(np.zeros((3, 4))))
    with pytest.raises(ad.ShapeError):
        ad.dam_sequence(constant(np.zeros((2, 3, 4))), w, b, w, b, w, b, w, b)


def test_dam_sequence_rejects_a_w_z_that_is_not_3d():
    x = constant(np.zeros((2, 4)))
    w, b = constant(np.zeros((3, 4, 4))), constant(np.zeros((3, 1, 4)))
    with pytest.raises(ad.ShapeError, match=r"w_z must be \[n, d_in, d\]"):
        ad.dam_sequence(x, constant(np.zeros((4, 4))), b, w, b, w, b, w, b)
