"""Reverse-mode automatic differentiation on a flat computation record.

Every differentiable value is a Tensor: a float64 numpy array plus an optional
node id on a Record. Operations append nodes as they execute, so the graph is
rebuilt from scratch on every forward pass; Record.backward walks the node list
in reverse and accumulates gradients per node id. Forward functions never
mutate their inputs.

darter records only `take`, `add` and three fused kernels; the generic
operations they are checked against live in `tests/ops.py`.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable, Sequence

import numpy as np


class ContractError(ValueError):
    """A precondition of an operation was violated."""


class ShapeError(ContractError):
    """Operand shapes do not satisfy an operation's contract."""


def _as_f64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """A float64 array, optionally tracked on a Record."""

    __slots__ = ("values", "record", "node_id")

    def __init__(self, values: np.ndarray, record: "Record | None" = None,
                 node_id: int | None = None):
        self.values = values
        self.record = record
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"


class _Node:
    __slots__ = ("tag", "input_ids", "backward")

    def __init__(self, tag: str, input_ids: tuple, backward):
        self.tag = tag
        self.input_ids = input_ids
        self.backward = backward


class Record:
    """Append-only record of one forward pass.

    nodes[i] describes how node i was produced: an operation tag, the node ids
    of its inputs (None for untracked constants), and a closure mapping the
    output gradient to per-input gradients. backward() fills `gradients`,
    a map node id -> gradient array.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.nodes: list[_Node] = []
        self.gradients: dict[int, np.ndarray] = {}

    def leaf(self, values) -> Tensor:
        """Register a gradient-tracked input (parameters, usually)."""
        arr = _as_f64(values)
        if not self.recording:
            return Tensor(arr, self, None)
        nid = len(self.nodes)
        self.nodes.append(_Node("leaf", (), None))
        return Tensor(arr, self, nid)

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Accumulate d(loss)/d(node) for every node reachable from loss."""
        if loss.record is not self or loss.node_id is None:
            raise ContractError("loss tensor is not tracked on this record")
        if loss.values.shape != ():
            raise ContractError(f"loss must be scalar, got shape {loss.values.shape}")
        grads: dict[int, np.ndarray] = {loss.node_id: np.ones((), dtype=np.float64)}
        for nid in range(loss.node_id, -1, -1):
            g = grads.get(nid)
            if g is None:
                continue
            node = self.nodes[nid]
            if node.backward is None:
                continue
            for iid, ig in zip(node.input_ids, node.backward(g)):
                if iid is None or ig is None:
                    continue
                prev = grads.get(iid)
                grads[iid] = ig if prev is None else prev + ig
        self.gradients = grads
        return grads

    def grad(self, t: Tensor) -> np.ndarray | None:
        return None if t.node_id is None else self.gradients.get(t.node_id)


def constant(values) -> Tensor:
    """An untracked tensor; gradients never flow into it."""
    return Tensor(_as_f64(values))


def _emit(tag: str, inputs: tuple[Tensor, ...], values: np.ndarray,
          backward: Callable | None) -> Tensor:
    rec = None
    for t in inputs:
        r = t.record
        if r is None or r is rec:
            continue
        if rec is not None:
            raise ContractError("operands belong to different records")
        rec = r
    if rec is None or not rec.recording:
        return Tensor(values, rec, None)
    nid = len(rec.nodes)
    rec.nodes.append(_Node(tag, tuple(t.node_id for t in inputs), backward))
    return Tensor(values, rec, nid)


# ---------------------------------------------------------------------------
# pointwise: the losses' sum, and affine_const, which nothing in darter
# records (a benchmark test scales a loss through it)

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"add requires identical shapes, got {a.values.shape} "
                         f"and {b.values.shape}")
    return _emit("add", (a, b), a.values + b.values, lambda g: (g, g))


def affine_const(a: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """y = a * scale + shift with python-scalar coefficients."""
    out = a.values * scale + shift

    def backward(g):
        return (g * scale,)

    return _emit("affine_const", (a,), out, backward)


# ---------------------------------------------------------------------------
# activations and pointwise functions

def _sigmoid(av: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-av)) with the argument clamped at -709, where exp
    still fits a float64, so it never overflows; `out` may be `av`."""
    x = np.maximum(av, -709.0, out=out)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _elu(av: np.ndarray, out: np.ndarray | None = None,
         work: np.ndarray | None = None) -> np.ndarray:
    """ELU as max(x, expm1(min(x, 0))): expm1(x) > x below 0, and the
    positive side reads expm1(0) = 0. `out` may be `av` itself; `work`, an
    array of av's shape, takes the negative branch."""
    neg = np.minimum(av, 0.0, out=work)
    np.expm1(neg, out=neg)
    return np.maximum(av, neg, out=out)


def _elu_slope(out: np.ndarray) -> np.ndarray:
    """ELU's derivative from its output, positive exactly where its input
    is."""
    return np.where(out > 0, 1.0, out + 1.0)


def _row_mean(av: np.ndarray) -> np.ndarray:
    """Mean over the last axis, kept: np.mean's bits at less call cost
    (numpy parses positional arguments faster than keywords)."""
    return np.add.reduce(av, -1, None, None, True) / av.shape[-1]


def _pair_norm_stats(sides: np.ndarray, eps: float) -> np.ndarray:
    """Layer-norm statistics of every pair row sides[i, 0] + sides[j, 1]
    from per-token parts. Centres `sides` [..., t, 2, d] in place and
    returns the inverse deviations 1 / sqrt(var + eps), [..., t, t, 1]; a
    leading axis holds independent heads, one [t, t] product each.

    A pair row's mean is the sum of its sides' means, and for centred sides
    c its squared norm is |c_i|^2 + |c_j|^2 + 2 c_i . c_j. Where that
    cancels below 2^-10 of |c_i|^2 + |c_j|^2 (and may lose all its digits),
    the pair is summed again from its row.
    """
    sides -= _row_mean(sides)
    sq = np.add.reduce(sides * sides, -1)        # [..., t, 2]
    total = sq[..., :1] + sq[..., None, :, 1]
    ssq = np.empty(total.shape)
    for head, out in zip(sides.reshape(-1, *sides.shape[-3:]),
                         ssq.reshape(-1, *total.shape[-2:])):
        np.dot(head[:, 0], head[:, 1].T, out=out)
    ssq *= 2.0
    ssq += total
    *lead, i, j = (ssq * 1024.0 < total).nonzero()
    if i.size:
        rows = sides[(*lead, i, 0)] + sides[(*lead, j, 1)]
        ssq[(*lead, i, j)] = np.add.reduce(rows * rows, -1)
    d = sides.shape[-1]                  # var = ssq / d, so the inverse
    ssq += d * eps                       # deviation is
    np.sqrt(ssq, out=ssq)                # sqrt(d) / sqrt(ssq + d * eps)
    return np.divide(math.sqrt(d), ssq, out=ssq)[..., None]


def _layer_norm_backward(g, xhat, inv, gv):
    lead = tuple(range(g.ndim - 1))
    dgain = np.add.reduce(g * xhat, axis=lead)
    dbias = np.add.reduce(g, axis=lead)
    gx = g * gv
    dx = inv * (gx - _row_mean(gx) - xhat * _row_mean(gx * xhat))
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# structure

def take(a: Tensor, indices) -> Tensor:
    """Gather rows; backward scatter-adds (duplicates sum)."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take indices must be 1-d, got shape {idx.shape}")
    av = a.values
    if av.ndim == 0:
        raise ShapeError("take needs an input of at least one dimension")
    # as unsigned, negative indices wrap to huge ones: one bound covers both
    if idx.size and np.maximum.reduce(idx.view(np.uintp)) >= len(av):
        raise ContractError(f"take index out of range for shape {av.shape}")
    ash = av.shape

    def backward(g):
        ga = np.zeros(ash, dtype=np.float64)
        np.add.at(ga, idx, g)
        return (ga,)

    return _emit("take", (a,), av[idx], backward)


# ---------------------------------------------------------------------------
# fused layers: one node each, forward in plain numpy, backward by hand

# Per-thread workspaces of the fused kernels, keyed by shape only: a kernel
# rewrites what it reads from one on every call, and no node keeps one.
_workspaces = threading.local()


def _aligned(size: int) -> np.ndarray:
    """An uninitialised float64 vector of `size` that starts on a 64-byte
    boundary, at the cost of at most 7 doubles of padding: the kernels
    stream their workspaces with vector loads, and one that starts
    mid-line splits every cache line it reads."""
    raw = np.empty(size + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + size]


def _lines(size: int) -> int:
    """`size` doubles rounded up to whole 64-byte lines, so that a view
    that follows them in an aligned buffer starts on a boundary too."""
    return -(-size // 8) * 8


def _workspace(name: str, build: Callable, *shape):
    """This thread's build(*shape), made again when the shape changes."""
    ws = getattr(_workspaces, name, None)
    if ws is None or ws[0] != shape:
        ws = (shape, build(*shape))
        setattr(_workspaces, name, ws)
    return ws[1]


def aligned_rows(k: int, size: int) -> np.ndarray:
    """k uninitialised rows of `size` doubles, [k, size], each starting on
    a 64-byte boundary."""
    return _aligned(k * _lines(size)).reshape(k, -1)[:, :size]


def _dam_pack(n: int, d: int, transposed: bool) -> Callable:
    """pack(mix, w_f, w_c, w_a): write the gate-weighted w_f blocks and the
    w_c and w_a diagonal blocks into one zeroed buffer, through views made
    once, and return the step matrix [n*d, 2*n*d] (or its C-contiguous
    transpose), the w_a matrix [n*d, n*d] and the gate eye(n) + mix. Step
    matrix rows are (stream m, unit i), columns (group s, stream k, unit
    j): group 0 gives f + inter, group 1 the candidate's argument. Both
    matrices start on 64-byte boundaries."""
    width = n * d
    at_ab = _lines(2 * width * width)
    buf = _aligned(at_ab + width * width)
    buf.fill(0.0)
    step = buf[:2 * width * width].reshape(
        (2 * width, width) if transposed else (width, 2 * width))
    w_ab = buf[at_ab:].reshape(width, width)
    if transposed:
        f_blocks, c_blocks = step.reshape(2, n, d, n, d)   # [k, j, m, i]
        c_diag = np.einsum("mjmi->mij", c_blocks)
    else:
        blocks = step.reshape(n, d, 2, n, d)               # [m, i, s, k, j]
        f_blocks = blocks[:, :, 0]
        c_diag = np.einsum("mimj->mij", blocks[:, :, 1])
    a_diag = np.einsum("mimj->mij", w_ab.reshape(n, d, n, d))
    eye = np.eye(n)

    def pack(mix, w_f, w_c, w_a):
        gate = eye if mix is None else eye + mix     # f + inter = gate @ f
        # block (m, k) is gate[k, m] * w_f[m], written in memory order
        if transposed:
            np.multiply(gate[:, None, :, None], w_f.transpose(2, 0, 1),
                        out=f_blocks)
        else:
            np.multiply(gate.T[:, None, :, None], w_f[:, :, None, :],
                        out=f_blocks)
        np.copyto(c_diag, w_c)
        np.copyto(a_diag, w_a)
        return step, w_ab, gate

    return pack


def dam_sequence(x: Tensor, w_z: Tensor, b_z: Tensor, w_f: Tensor,
                 b_f: Tensor, w_c: Tensor, b_c: Tensor, w_a: Tensor,
                 b_a: Tensor, reverse: bool = False,
                 mix: np.ndarray | None = None
                 ) -> tuple[Tensor, dict[str, np.ndarray]]:
    """A whole decoupling-and-aggregation layer as one node.

    x is a token matrix [t, d_in], or a previous layer's output
    [t, 2, m, d_in], whose m hidden streams are summed in stream order
    (((h_0 + h_1) + h_2) for three) into the token matrix. n parallel
    streams project it, z = x @ w_z + b_z, with w_z: [n, d_in, d],
    w_f, w_c, w_a: [n, d, d] and b_*: [n, 1, d]. Tokens are visited in
    index order, or in reverse. Each step reads the previous step's h, c,
    f and inter (zeros at the start):

        f = (z_i + b_f) + h @ w_f        ctil = tanh((z_i + b_c) + h @ w_c)
        inter = mix @ f (zeros if mix is None)
        a = (f_prev + inter_prev) * c_prev + (f + inter) * ctil
        h_tilde = tanh(a)    c = a @ w_a + b_a    h = tanh(c)

    The streams sit side by side in one row of width n*d, so the per-stream
    weights act as block-diagonal matrices, packed on every call into a
    per-thread workspace. The mix is folded into the forget weights, so one
    product per step yields f + inter and the candidate's argument.

    Returns the output [t, 2, n, d], h_tilde then h for each token, and the
    activations: z as [n, t, d], and ctil, a, c as [t, n*d] rows in token
    order. Backward is backpropagation through time over them. It packs
    the weights again, transposed, as they are when it runs: like w_z,
    bound parameters are views of `ParamStore.flat`.
    """
    xv, w_zv = x.values, w_z.values
    if w_zv.ndim != 3:
        raise ShapeError(f"w_z must be [n, d_in, d], got {w_zv.shape}")
    n, d_in, d = w_zv.shape
    square, row = (n, d, d), (n, 1, d)
    shapes = (w_f.values.shape, w_c.values.shape, w_a.values.shape,
              b_z.values.shape, b_f.values.shape, b_c.values.shape,
              b_a.values.shape)
    wants = (square,) * 3 + (row,) * 4
    if shapes != wants:
        for name, shape, want in zip(("w_f", "w_c", "w_a", "b_z", "b_f",
                                      "b_c", "b_a"), shapes, wants):
            if shape != want:
                raise ShapeError(f"{name} must have shape {want}, got {shape}")
    xsh = xv.shape
    if xsh[1:] == (d_in,):
        xin = xv
    elif len(xsh) == 4 and xsh[1] == 2 and xsh[3] == d_in:
        xin = np.add.reduce(xv[:, 1], 1)
    else:
        raise ShapeError(f"dam_sequence reads [t, {d_in}] tokens or a "
                         f"[t, 2, m, {d_in}] layer output, got {xsh}")
    t = xsh[0]
    if t < 1:
        raise ContractError("cannot encode an empty sentence")
    z = np.matmul(xin, w_zv)             # [n, t, d]
    z += b_z.values
    width = n * d
    order = range(t - 1, -1, -1) if reverse else range(t)
    weights = (mix, w_f.values, w_c.values, w_a.values)
    w_all, w_ab, gate = _workspace("dam", _dam_pack, n, d, False)(*weights)
    b_av = b_a.values.reshape(width)
    zb = np.empty((2, n, t, d))           # the same two groups, from z
    np.matmul(gate, (z + b_f.values).reshape(n, t * d),
              out=zb[0].reshape(n, t * d))
    np.add(z, b_c.values, out=zb[1])
    zb = zb.transpose(2, 0, 1, 3).reshape(t, 2 * width)

    pre = np.empty((t, 2 * width))       # f + inter, ctil, per token
    fs_all, ctil_all = pre[:, :width], pre[:, width:]
    a_all, c_all = np.empty((2, t, width))
    out = np.empty((t, 2, width))
    h_all = out[:, 1]
    rows = (zb, pre, fs_all, ctil_all, a_all, c_all, h_all)  # visiting order
    if reverse:
        rows = tuple([r[::-1] for r in rows])
    h = c = fs = np.zeros(width)         # fs: f + inter of the previous step
    for zb_i, pre_i, fs_new, ctil, a, c_i, h_i in zip(*rows):
        np.add(zb_i, h.dot(w_all), out=pre_i)
        np.tanh(ctil, out=ctil)
        np.multiply(fs, c, out=a)
        a += fs_new * ctil
        fs = fs_new
        c = np.add(a.dot(w_ab), b_av, out=c_i)
        h = np.tanh(c, out=h_i)
    np.tanh(a_all, out=out[:, 0])

    def backward(g):
        g = g.reshape(t, 2, width)
        h_tilde = out[:, 0]
        da_out = g[:, 0] * (1.0 - h_tilde * h_tilde)
        dtanh_h = 1.0 - h_all * h_all
        dp_scale = fs_all * (1.0 - ctil_all * ctil_all)
        # the step matrix transposed and C-contiguous: as a strided view,
        # every token's product would repack it
        w_fct, w_ab, _ = _workspace("dam_backward", _dam_pack, n, d,
                                    True)(*weights)
        w_abt = w_ab.T
        dc_all = np.empty((t, width))
        dpre = np.empty((t, 2 * width))  # d(f + inter), d(ctil's argument)
        dh = dc_next = dfs_next = np.zeros(width)   # from the later step
        back = order[::-1]
        for k, i in enumerate(back):
            dc = np.add(g[i, 1], dh, out=dc_all[i])
            dc *= dtanh_h[i]
            dc += dc_next
            da = da_out[i] + dc.dot(w_abt)
            dfs = np.multiply(da, ctil_all[i], out=dpre[i, :width])
            dfs += dfs_next
            np.multiply(da, dp_scale[i], out=dpre[i, width:])
            dh = dpre[i].dot(w_fct)
            if k + 1 < t:
                j = back[k + 1]
                dfs_next = da * c_all[j]
                dc_next = da * fs_all[j]

        def streams(rows):               # [t, n*d] -> [n, t, d]
            return rows.reshape(t, n, d).transpose(1, 0, 2)

        zero = np.zeros((1, width))      # h_in: the hidden state each read
        h_in = np.concatenate((h_all[1:], zero) if reverse else (zero, h_all[:-1]))

        dfs_all = dpre[:, :width].reshape(t, n, d)
        df = dfs_all if mix is None else dfs_all + np.matmul(mix.T, dfs_all)
        df = df.transpose(1, 0, 2)
        dp, dc = streams(dpre[:, width:]), streams(dc_all)
        dz = df + dp
        dxin = np.add.reduce(np.matmul(dz, w_zv.swapaxes(-1, -2)), axis=0)
        if xin is xv:
            dx = dxin
        else:                            # every hidden stream read x
            dx = np.zeros(xsh)
            dx[:, 1] = dxin[:, None]
        h_in_t = streams(h_in).swapaxes(1, 2)
        return (dx, np.matmul(xin.swapaxes(-1, -2), dz),
                np.add.reduce(dz, axis=1, keepdims=True),
                np.matmul(h_in_t, df), np.add.reduce(df, axis=1, keepdims=True),
                np.matmul(h_in_t, dp), np.add.reduce(dp, axis=1, keepdims=True),
                np.matmul(streams(a_all).swapaxes(1, 2), dc),
                np.add.reduce(dc, axis=1, keepdims=True))

    node = _emit("dam_sequence", (x, w_z, b_z, w_f, b_f, w_c, b_c, w_a, b_a),
                 out.reshape(t, 2, n, d), backward)
    return node, {"z": z, "ctil": ctil_all, "a": a_all, "c": c_all}


# Pair-table elements pair_heads holds at once per head: 256 kB of float64
# per buffer, so a block and its ELU temporary stay in a core's L2 cache.
_PAIR_BLOCK = 2 ** 15
# the pair heads' layer-norm epsilon, added to the variance
_NORM_EPS = 1e-5
# bce clamps probabilities into [_CLAMP_EPS, 1 - _CLAMP_EPS]
_CLAMP_EPS = 1e-7


def _pair_block(scaled: np.ndarray, inv: np.ndarray, bias: np.ndarray,
                lo: int, hi: int, streamed: bool = False) -> np.ndarray:
    """Pair rows lo:hi of a head's hidden table,
    ELU((scaled[i, 0] + scaled[j, 1]) * inv[i, j] + bias), [hi - lo, t, d],
    new (any leading head axis kept) or, if streamed, in the thread's
    "pair" workspace, with its ELU work half on a 64-byte boundary too."""
    out = work = None
    if streamed:
        shape = (hi - lo, *scaled.shape[::2])
        rows = _workspace("pair", aligned_rows, 2,
                          max(_PAIR_BLOCK, math.prod(shape[1:])))
        out, work = rows[:, :math.prod(shape)].reshape(2, *shape)
    block = np.add(scaled[..., lo:hi, None, 0, :], scaled[..., None, :, 1, :],
                   out=out)
    block *= inv[..., lo:hi, :, :]
    block += bias
    return _elu(block, out=block, work=work)


# pair_heads mixes a layer's streams h_0, h_1, h_2 into
# c_1 * h_1 + (c_2 * h_2 + c_0 * h_0), terms with a zero coefficient left
# out: with streams (s, r, o) that is s + o for (1, 0, 1) and
# r + (o * alpha - s * beta) for (-beta, 1, alpha), summed in the order
# those formulas give, so the features have their bits.
_MIX_ORDER = (2, 0, 1)


def _mix_streams(h: np.ndarray, terms, out: np.ndarray) -> None:
    """out = the sum of h[:, k] * c over the (k, c) in `terms`, in their
    order, with unit coefficients not multiplied; h is [t, 3, w]."""
    parts = [h[:, k] if c == 1.0 else h[:, k] * c for k, c in terms]
    if len(parts) > 1:
        np.add(parts[0], parts[1], out=out)
        for part in parts[2:]:
            out += part
    elif parts:
        out[...] = parts[0]
    else:
        out.fill(0.0)


def pair_heads(layers: Sequence[Tensor],
               heads: Sequence[tuple]) -> list[Tensor]:
    """Pair-scoring heads over the same layers in one pass: one node and
    one [t, t, width] probability table per head.

    A head is a tuple (coeffs, w_pair, b_pair, ln_gain, ln_bias, w_out,
    b_out). It mixes the three h_tilde streams of each [t, 2, 3, w] layer
    with its coefficient triple (`_MIX_ORDER`); the pair feature of tokens
    (i, j) concatenates, layer by layer, the features of token i then token
    j, and is projected by w_pair [2 * n * w, d_h], shifted by b_pair,
    layer-normalized, passed through ELU, mapped by w_out and b_out, and
    squashed by a sigmoid. Every token is projected once as i and once as
    j, and the norm's statistics come from those two sides and one [t, t]
    product (`_pair_norm_stats`), so no [t * t, 2 * n * w] matrix exists.

    The heads share d_h. Mixing and the three products run per head into
    buffers with a leading head axis; the elementwise passes, reductions
    and the sigmoid (in place on the logits) run once over those, which
    keeps a one-head call's bits. A [t, t, d_h] hidden table larger than
    _PAIR_BLOCK elements streams, head by head, through a per-thread
    workspace of that size (one pair row, if a row is larger), a block of
    pair rows at a time, which backward recomputes; one-block tables are kept.
    """
    if not layers or not heads:
        raise ContractError("pair_heads needs at least one encoder output "
                            f"and one head, got {len(layers)}, {len(heads)}")
    values = [layer.values for layer in layers]
    n = len(values)
    shape = values[0].shape
    if ([v.shape for v in values] != [shape] * n or len(shape) != 4
            or shape[1:3] != (2, 3)):
        raise ShapeError(f"pair layers must be [t, 2, 3, w] outputs of one "
                         f"shape, got {[v.shape for v in values]}")
    t, w = shape[0], shape[3]
    n_heads = len(heads)
    d_h = heads[0][1].values.shape[1]
    # every layer's h_tilde streams side by side, [t, 3, n * w]
    streams = values[0][:, 0] if n == 1 else np.concatenate(
        [v[:, 0] for v in values], axis=-1)
    feats = np.empty((n_heads, t, n * w))
    sides = np.empty((n_heads, t, 2, d_h))   # each token as i, as j
    affine = np.empty((n_heads, 3, d_h))     # b_pair, ln_gain, ln_bias
    w_ijs, logits_at = [], [0]
    for h, (coeffs, w_pair, b_pair, ln_gain, ln_bias, w_out,
            b_out) in enumerate(heads):
        wv = w_pair.values
        if len(coeffs) != 3 or wv.shape != (2 * n * w, d_h):
            raise ShapeError(f"head {h}: {len(coeffs)} coefficients, w_pair "
                             f"{wv.shape}; {n} layers of width {w} need 3 and "
                             f"{2 * n * w} rows by the heads' d_h, {d_h}")
        _mix_streams(streams, [(k, coeffs[k]) for k in _MIX_ORDER
                               if coeffs[k] != 0.0], feats[h])
        # rows of w_pair, per layer: w reading token i, then w reading j
        w_ij = wv.reshape(n, 2, w, d_h).transpose(0, 2, 1, 3).reshape(
            n * w, 2 * d_h)
        np.dot(feats[h], w_ij, out=sides[h].reshape(t, 2 * d_h))
        w_ijs.append(w_ij)
        affine[h, 0], affine[h, 1], affine[h, 2] = (
            b_pair.values, ln_gain.values, ln_bias.values)
        logits_at.append(logits_at[-1] + t * t * w_out.values.shape[1])
    sides[:, :, 1] += affine[:, None, 0]
    inv = _pair_norm_stats(sides, _NORM_EPS)
    scaled = sides * affine[:, None, None, 1]
    bv = affine[:, None, None, 2]
    rows = max(_PAIR_BLOCK // max(1, t * d_h), 1)
    blocks = [(lo, min(lo + rows, t)) for lo in range(0, t, rows)]
    # one block is kept for backward, more stream through the workspace
    hidden = (_pair_block(scaled, inv, bv, 0, t) if rows >= t
              else (None,) * n_heads)
    logits = np.empty(logits_at[-1])     # every head's, flat, in order
    for h, head in enumerate(heads):
        head_logits = logits[logits_at[h]:logits_at[h + 1]].reshape(t * t, -1)
        for lo, hi in blocks:
            block = hidden[h] if hidden[h] is not None else _pair_block(
                scaled[h], inv[h], bv[h], lo, hi, streamed=True)
            np.dot(block.reshape(-1, d_h), head[5].values,
                   out=head_logits[lo * t:hi * t])
        head_logits += head[6].values
    probs = _sigmoid(logits, out=logits)
    nodes = []
    for h, head in enumerate(heads):
        head_probs = probs[logits_at[h]:logits_at[h + 1]].reshape(t, t, -1)
        nodes.append(_emit("pair_scores", (*layers, *head[1:]), head_probs,
                           functools.partial(
                               _pair_backward, shape, head[0],
                               head[5].values, head_probs, feats[h],
                               w_ijs[h], sides[h], inv[h], scaled[h],
                               affine[h], hidden[h], blocks)))
    return nodes


def _pair_backward(shape, coeffs, w_outv, probs, feats, w_ij, sides, inv,
                   scaled, affine, hidden, blocks, g):
    """The gradients of one `pair_heads` head from its output gradient g,
    over its own slices of the forward's buffers (`functools.partial` binds
    them, and no Tensor: a node holding one would keep its record in a
    reference cycle); `hidden` is its table, or None if it streamed."""
    t, w = shape[0], shape[3]
    n, d_h, width = feats.shape[1] // w, sides.shape[-1], w_outv.shape[1]
    gv, bv = affine[1], affine[2]
    dlogits = g * probs * (1.0 - probs)
    db_out = np.add.reduce(dlogits, axis=(0, 1))
    w_outt = w_outv.T
    dproj = np.empty((t, 2 * d_h))       # row sums as i, column sums as j
    for lo, hi in blocks:
        h = hidden if hidden is not None else _pair_block(
            scaled, inv, bv, lo, hi, streamed=True)
        dl = dlogits[lo:hi]
        dw = h.reshape(-1, d_h).T @ dl.reshape(-1, width)
        dnorm = dl.dot(w_outt) * _elu_slope(h)
        xhat = (sides[lo:hi, None, 0] + sides[None, :, 1]) * inv[lo:hi]
        dpre, dg, db = _layer_norm_backward(dnorm, xhat, inv[lo:hi], gv)
        dproj[lo:hi, :d_h] = np.add.reduce(dpre, axis=1)
        cols = np.add.reduce(dpre, axis=0)
        if lo == 0:                      # so that one block gives its bits
            dw_out, dgain, dbias = dw, dg, db
            dproj[:, d_h:] = cols
        else:
            dw_out += dw
            dgain += dg
            dbias += db
            dproj[:, d_h:] += cols
    db_pair = np.add.reduce(dproj[:, d_h:], axis=0)
    dw_pair = (feats.T @ dproj).reshape(n, w, 2, d_h).transpose(
        0, 2, 1, 3).reshape(2 * n * w, d_h)
    dfeats = (dproj @ w_ij.T).reshape(t, n, w).swapaxes(0, 1)
    dlayers = np.zeros((n, *shape))
    for j, c in enumerate(coeffs):
        if c == 1.0:
            dlayers[:, :, 0, j] = dfeats
        elif c != 0.0:
            np.multiply(dfeats, c, out=dlayers[:, :, 0, j])
    return (*dlayers, dw_pair, db_pair, dgain, dbias, dw_out, db_out)


def bce(probs: Tensor, gold: np.ndarray, mask: np.ndarray | None = None,
        *, weight: float = 1.0) -> Tensor:
    """-sum(mask * (gold * log(p) + (1 - gold) * log(1 - p))) * weight with
    p = clamp(probs, _CLAMP_EPS, 1 - _CLAMP_EPS), one node: one table's loss.

    gold and mask are read as float64 arrays of probs' shape (else a
    ShapeError), gold binary (else a ContractError). Each cell takes one
    log, of p where gold is 1 and of 1 - p where it is 0: the reference
    ops' clamp/log/mul/sum chain and affine_const(., weight, 0.0) to the
    bit, backward too; the chain's clamp and log checks cannot fail here.
    """
    av = probs.values
    gold = _as_f64(gold)
    if gold.shape != av.shape:
        raise ShapeError(f"gold shape {gold.shape} != probs shape {av.shape}")
    if mask is not None:
        mask = _as_f64(mask)
        if mask.shape != av.shape:
            raise ShapeError(
                f"mask shape {mask.shape} != probs shape {av.shape}")
    hit = gold != 0.0
    if not np.logical_and.reduce((gold == hit).ravel()):
        raise ContractError("gold tables must be binary")
    lo, hi = _CLAMP_EPS, 1.0 - _CLAMP_EPS
    p = np.minimum(np.maximum(av, lo), hi)
    q = 1.0 - p          # p and q are positive, or NaN, which log accepts too
    cells = np.log(np.where(hit, p, q))
    if mask is not None:
        cells *= mask
    out = np.asarray((np.add.reduce(cells.ravel()) * -1.0 + 0.0) * weight
                     + 0.0)

    def backward(g):
        g = g * weight
        dcells = g * -1.0 if mask is None else (g * -1.0) * mask
        dp = dcells / np.where(hit, p, -q)   # d log(1 - p) / dp = -1 / q
        dp += 0.0        # a masked cell's gradient is +0, as in the chain
        dp *= (av >= lo) & (av <= hi)
        return (dp,)

    return _emit("bce", (probs,), out, backward)


# ---------------------------------------------------------------------------
# parameters

class ParamStore:
    """Named float64 parameter arrays with deterministic seeded init.

    Names are unique and shapes immutable once added. Weight matrices draw
    from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) in insertion order, so a
    given seed reproduces values bit for bit.

    Once `flat` is read, every named array is a view into that one
    contiguous vector, in insertion order; registering a parameter drops
    the vector, and the next read of `flat` builds a new one. Binding to a
    record that does not record hands out one cached set of untracked
    Tensors over the live arrays, so in-place writes (`set_`, Adam,
    gradient checks) show through them.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._arrays: dict[str, np.ndarray] = {}
        self._flat: np.ndarray | None = None
        self._untracked: dict[str, Tensor] | None = None

    def _register(self, name: str, arr: np.ndarray) -> np.ndarray:
        if name in self._arrays:
            raise ContractError(f"duplicate parameter name: {name}")
        self._arrays[name] = arr
        self._flat = self._untracked = None
        return arr

    @property
    def flat(self) -> np.ndarray:
        """Every parameter in one contiguous float64 vector."""
        if self._flat is None:
            self._view(np.concatenate(
                [arr.ravel() for arr in self._arrays.values()] or [[]]))
        return self._flat

    def _view(self, flat: np.ndarray) -> None:
        """Make `flat` the vector, and the named arrays views into it."""
        offset = 0
        for name, arr in self._arrays.items():
            self._arrays[name] = flat[offset:offset + arr.size].reshape(
                arr.shape)
            offset += arr.size
        self._flat = flat
        self._untracked = None

    def add_uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        if fan_in < 1:
            raise ContractError(f"fan_in must be positive, got {fan_in}")
        bound = 1.0 / math.sqrt(fan_in)
        return self._register(name, self._rng.uniform(-bound, bound, size=shape))

    def add_zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self._register(name, np.zeros(shape, dtype=np.float64))

    def add_ones(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self._register(name, np.ones(shape, dtype=np.float64))

    def set_(self, name: str, values) -> None:
        arr = _as_f64(values)
        cur = self._arrays[name]
        if arr.shape != cur.shape:
            raise ShapeError(f"parameter {name} has shape {cur.shape}; "
                             f"cannot assign shape {arr.shape}")
        cur[...] = arr

    def zero_all(self) -> None:
        self.flat.fill(0.0)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def n_components(self) -> int:
        return sum(a.size for a in self._arrays.values())

    def copy(self) -> "ParamStore":
        flat = self.flat.copy()
        dup = ParamStore(self.seed)
        dup._arrays = dict(self._arrays)
        dup._view(flat)
        return dup

    def bind(self, record: Record) -> dict[str, Tensor]:
        """Register every parameter as a tracked leaf on `record`. One that
        does not record gets the cached untracked Tensors: the same dict
        until the named arrays are replaced. Callers must not modify it."""
        if not record.recording:
            if self._untracked is None:  # arrays are float64 already
                self._untracked = {name: Tensor(arr)
                                   for name, arr in self._arrays.items()}
            return self._untracked
        return {name: record.leaf(arr) for name, arr in self._arrays.items()}
