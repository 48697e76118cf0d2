"""Straight-line scalar reference implementations used as test oracles.

Everything here works on nested python lists with explicit loops and the
math module only, sharing no code with the library under test. Slow and
obvious on purpose. The one exception is the directional-derivative check
at the end, which perturbs a model's own numpy parameter arrays.
"""

import math

import numpy as np


def tolist(arr):
    return arr.tolist() if hasattr(arr, "tolist") else arr


# ---------------------------------------------------------------------------
# scalar functions

def tanh(x):
    return math.tanh(x)


def sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def elu(x):
    return x if x > 0 else math.exp(x) - 1.0


def clamp(x, lo, hi):
    return min(max(x, lo), hi)


# ---------------------------------------------------------------------------
# vectors and matrices (nested lists)

def vecmat(v, m):
    """[k] x [k][n] -> [n], inner products written out."""
    k, n = len(m), len(m[0])
    assert len(v) == k
    out = []
    for j in range(n):
        acc = 0.0
        for i in range(k):
            acc += v[i] * m[i][j]
        out.append(acc)
    return out


def matmul(a, b):
    """[m][k] x [k][n] -> [m][n] by triple loop."""
    return [vecmat(row, b) for row in a]


def vadd(a, b):
    return [x + y for x, y in zip(a, b)]


def vsub(a, b):
    return [x - y for x, y in zip(a, b)]


def vmul(a, b):
    return [x * y for x, y in zip(a, b)]


def vscale(a, s):
    return [x * s for x in a]


def vmap(f, a):
    return [f(x) for x in a]


def norm_row(row, gain, bias, eps=1e-5):
    """Zero-mean unit-variance over one row, then learned scale and shift."""
    h = len(row)
    mu = sum(row) / h
    var = sum((x - mu) ** 2 for x in row) / h
    inv = 1.0 / math.sqrt(var + eps)
    return [(x - mu) * inv * g + b for x, g, b in zip(row, gain, bias)]


# ---------------------------------------------------------------------------
# recurrent cell, one direction, token by token

SUBTASKS = ("s", "r", "o")
PARTNER = {"s": "ro", "r": "so", "o": "sr"}


def dam_sequence(x_rows, params, d_h, interaction=True):
    """Evaluate the cell over a token sequence in the order given.

    x_rows: [t][d_p]; params: {subtask: {w_z,b_z,w_f,b_f,w_c,b_c,w_a,b_a}}
    as nested lists. Returns a dict of per-token lists for every
    intermediate quantity, keyed by subtask (and pair name for inter).
    """
    zeros = [0.0] * d_h
    h_prev = {p: list(zeros) for p in SUBTASKS}
    c_prev = {p: list(zeros) for p in SUBTASKS}
    f_prev = {p: list(zeros) for p in SUBTASKS}
    inter_prev = {p: list(zeros) for p in SUBTASKS}

    out = {key: {p: [] for p in SUBTASKS}
           for key in ("z", "f", "ctil", "inter", "a", "h_tilde", "c", "h")}

    for x in x_rows:
        z = {p: vadd(vecmat(x, params[p]["w_z"]), params[p]["b_z"])
             for p in SUBTASKS}
        f = {p: vadd(z[p], vadd(vecmat(h_prev[p], params[p]["w_f"]),
                                params[p]["b_f"]))
             for p in SUBTASKS}
        ctil = {p: vmap(tanh, vadd(z[p], vadd(vecmat(h_prev[p], params[p]["w_c"]),
                                              params[p]["b_c"])))
                for p in SUBTASKS}
        if interaction:
            inter = {"s": vsub(f["o"], f["r"]),   # ro
                     "r": vsub(f["o"], f["s"]),   # so
                     "o": vadd(f["s"], f["r"])}   # sr
        else:
            inter = {p: list(zeros) for p in SUBTASKS}
        a = {}
        for p in SUBTASKS:
            left = vmul(vadd(f_prev[p], inter_prev[p]), c_prev[p])
            right = vmul(vadd(f[p], inter[p]), ctil[p])
            a[p] = vadd(left, right)
        h_tilde = {p: vmap(tanh, a[p]) for p in SUBTASKS}
        c = {p: vadd(vecmat(a[p], params[p]["w_a"]), params[p]["b_a"])
             for p in SUBTASKS}
        h = {p: vmap(tanh, c[p]) for p in SUBTASKS}

        for p in SUBTASKS:
            out["z"][p].append(z[p])
            out["f"][p].append(f[p])
            out["ctil"][p].append(ctil[p])
            out["inter"][p].append(inter[p])
            out["a"][p].append(a[p])
            out["h_tilde"][p].append(h_tilde[p])
            out["c"][p].append(c[p])
            out["h"][p].append(h[p])

        h_prev, c_prev, f_prev, inter_prev = h, c, f, inter

    return out


# ---------------------------------------------------------------------------
# span-pair decoding

def relation_inputs(h_r, h_s, h_o, alpha, beta, entity_features=True):
    """Per-token relation features: h_r + (alpha * h_o - beta * h_s)."""
    if not entity_features:
        return [list(row) for row in h_r]
    return [vadd(r, vsub(vscale(o, alpha), vscale(s, beta)))
            for r, s, o in zip(h_r, h_s, h_o)]


def pair_decode(streams, w_pair, b_pair, gain, bias, w_out, b_out, eps=1e-5):
    """Probability table [t][t][width] from per-direction token features.

    streams: list of [t][d_h] feature tables, one per direction; the pair
    feature for (i, j) is the concatenation [st1_i, st1_j, st2_i, st2_j, ...].
    """
    t = len(streams[0])
    table = []
    for i in range(t):
        row = []
        for j in range(t):
            feat = []
            for stream in streams:
                feat.extend(stream[i])
                feat.extend(stream[j])
            pre = vadd(vecmat(feat, w_pair), b_pair)
            act = vmap(elu, norm_row(pre, gain, bias, eps))
            logits = vadd(vecmat(act, w_out), b_out)
            row.append(vmap(sigmoid, logits))
        table.append(row)
    return table


# ---------------------------------------------------------------------------
# losses

def bce_sum(probs, gold, mask, eps=1e-7):
    """Masked binary cross-entropy summed over table cells.

    probs/gold/mask: [t][t][width] nested lists; gold and mask binary.
    """
    total = 0.0
    for pr, gr, mr in zip(probs, gold, mask):
        for pc, gc, mc in zip(pr, gr, mr):
            for p, y, m in zip(pc, gc, mc):
                if not m:
                    continue
                q = clamp(p, eps, 1.0 - eps)
                total -= y * math.log(q) + (1.0 - y) * math.log(1.0 - q)
    return total


# ---------------------------------------------------------------------------
# directional derivatives

def directional_errors(loss_fn, store, analytic, seed, step=1e-6):
    """Per parameter array of `store`, |a - n| / max(1, |a|, |n|) between
    the analytic directional derivative a = sum(analytic[name] * v) and the
    central difference n = (loss(p + step v) - loss(p - step v)) / (2 step)
    along one seeded random unit direction v for that array. `loss_fn`
    reads the live arrays; each is restored bit for bit afterwards."""
    rng = np.random.default_rng(seed)
    errors = {}
    for name in store.names():
        arr = store[name]
        v = rng.standard_normal(arr.shape)
        v /= np.linalg.norm(v)
        orig = arr.copy()
        arr += step * v
        up = loss_fn()
        arr[...] = orig - step * v
        down = loss_fn()
        arr[...] = orig
        n = (up - down) / (2.0 * step)
        a = float(np.sum(analytic[name] * v))
        errors[name] = abs(a - n) / max(1.0, abs(a), abs(n))
    return errors
