"""Generic Tensor operations, the references the fused kernels are built
from and checked against.

darter itself records only `take`, the three fused kernels
(`dam_sequence`, `pair_heads`, `bce`) and `add` (see `darter.autodiff`).
The operations here compose the same arithmetic one primitive at a time:
`composed.py` chains them into the per-step reference of the recurrent
cell and of a one-layer decoder head, and the op-level tests audit each of
them against scalar oracles and finite differences. `pair_scores` and
`pair_decode` run one head through the fused `pair_heads`, so a test can
score a single head, and `index` views one stream of a layer's output, so
a test can differentiate through it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from darter.autodiff import (ContractError, ShapeError, Tensor, _elu,
                             _elu_slope, _emit, _layer_norm_backward,
                             _row_mean, _sigmoid, pair_heads)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {av.shape} @ {bv.shape}")
    out = np.matmul(av, bv)
    need_a, need_b = a.node_id is not None, b.node_id is not None

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), av.shape)
        if need_b:
            gb = _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), bv.shape)
        return ga, gb

    return _emit("matmul", (a, b), out, backward)


def _elementwise(tag, a, b, fwd, bwd_a, bwd_b):
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{tag} requires identical shapes, got {a.values.shape} "
                         f"and {b.values.shape}")
    out = fwd(a.values, b.values)

    def backward(g):
        return bwd_a(g), bwd_b(g)

    return _emit(tag, (a, b), out, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise("sub", a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    return _elementwise("mul", a, b, np.multiply,
                        lambda g: g * bv, lambda g: g * av)


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """Addition with numpy broadcasting; used for bias terms."""
    out = a.values + b.values
    ash, bsh = a.values.shape, b.values.shape

    def backward(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _emit("badd", (a, b), out, backward)


# ---------------------------------------------------------------------------
# activations and pointwise functions

def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return _emit("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.values)
    return _emit("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def elu(a: Tensor) -> Tensor:
    """Exponential linear unit with negative-branch coefficient 1."""
    out = _elu(a.values)
    return _emit("elu", (a,), out, lambda g: (g * _elu_slope(out),))


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0.0):
        raise ContractError("log requires strictly positive values")
    av = a.values
    out = np.log(av)
    return _emit("log", (a,), out, lambda g: (g / av,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ContractError(f"clamp bounds must satisfy lo < hi, got {lo}, {hi}")
    av = a.values
    out = np.clip(av, lo, hi)
    inside = (av >= lo) & (av <= hi)
    return _emit("clamp", (a,), out, lambda g: (g * inside,))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    av = a.values
    h = av.shape[-1] if av.ndim else 0
    if h < 2:
        raise ShapeError(f"layer_norm needs a last dimension >= 2, got shape {av.shape}")
    if gain.values.shape != (h,) or bias.values.shape != (h,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({h},), got "
                         f"{gain.values.shape} and {bias.values.shape}")
    gv = gain.values
    centered = av - _row_mean(av)
    inv = 1.0 / np.sqrt(_row_mean(centered * centered) + eps)
    xhat = centered * inv
    out = xhat * gv + bias.values
    return _emit("layer_norm", (a, gain, bias), out,
                 lambda g: _layer_norm_backward(g, xhat, inv, gv))


# ---------------------------------------------------------------------------
# structure

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ContractError("concat of zero tensors")
    ndim = parts[0].values.ndim
    for p in parts[1:]:
        if p.values.ndim != ndim:
            raise ShapeError(f"concat rank mismatch: {parts[0].values.shape} "
                             f"vs {p.values.shape}")
    try:
        out = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    offsets = np.cumsum([p.values.shape[axis] for p in parts])[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit("concat", tuple(parts), out, backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.values.shape
    try:
        out = a.values.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {old} to {shape}") from None
    return _emit("reshape", (a,), out, lambda g: (g.reshape(old),))


def index(a: Tensor, key) -> Tensor:
    """Basic indexing by integers and slices, as `a.values[key]`; the
    result is a view. Backward writes the gradient into a zero array."""
    ash = a.values.shape
    try:
        out = a.values[key]
    except IndexError as e:
        raise ShapeError(f"index {key!r} into shape {ash}: {e}") from None

    def backward(g):
        ga = np.zeros(ash, dtype=np.float64)
        ga[key] = g
        return (ga,)

    return _emit("index", (a,), out, backward)


def sum_all(a: Tensor) -> Tensor:
    """Sum every element into a scalar (shape ())."""
    ash = a.values.shape
    out = np.asarray(a.values.sum(), dtype=np.float64)
    return _emit("sum", (a,), out, lambda g: (g * np.ones(ash),))


# ---------------------------------------------------------------------------
# one decoder head

def pair_scores(layers: Sequence[Tensor], coeffs: Sequence[float],
                w_pair: Tensor, b_pair: Tensor, gain: Tensor, bias: Tensor,
                w_out: Tensor, b_out: Tensor) -> Tensor:
    """One pair-scoring head as one node: [t, t, width] probabilities, the
    one-head case of `pair_heads`."""
    return pair_heads(layers, [(coeffs, w_pair, b_pair, gain, bias, w_out,
                                b_out)])[0]


def pair_decode(layers: list[Tensor], coeffs, head) -> Tensor:
    """Probability table [t, t, width] from stacked encoder outputs and one
    `decoders.DecoderParams` head.

    Each layer's token features mix its h_tilde streams with the (s, r, o)
    coefficients; the pair feature for (i, j) concatenates, layer by layer,
    the features of token i then token j. The head runs as one fused node
    (`pair_scores`) that projects each token once per side.
    """
    if not layers:
        raise ContractError("pair_decode needs at least one layer")
    return pair_scores(layers, coeffs, head.w_pair, head.b_pair, head.ln_gain,
                       head.ln_bias, head.w_out, head.b_out)
