"""The composed reference for the fused kernels, built node by node from
the generic operations in `ops`.

`autodiff.dam_sequence` runs a whole recurrent layer as one node and
`autodiff.pair_heads` both decoder heads; the functions here chain the
same arithmetic one primitive at a time (one token step of the cell, the
entity and relation features of a single layer), so tests can compare the
fused kernels' values and gradients against them.
"""

from dataclasses import dataclass

import numpy as np

from darter.autodiff import (ContractError, ShapeError, Tensor, add,
                             affine_const, constant)
from darter.decoders import EntityLogits, RelationLogits, decode_streams
from darter.encoder import _MIX, DamParams

from ops import (broadcast_add, concat, matmul, mul, pair_decode, reshape,
                 sub, tanh)

# ---------------------------------------------------------------------------
# the recurrent cell, one token step at a time


@dataclass
class DamState:
    """Between-token carry: hidden, memory, forget, and mix features.

    All four are [3, 1, d_h]; a fresh sequence starts from zeros.
    """

    h: Tensor
    c: Tensor
    f: Tensor
    inter: Tensor

    @staticmethod
    def zeros(d_h: int) -> "DamState":
        z = np.zeros((3, 1, d_h))
        return DamState(constant(z), constant(z), constant(z), constant(z))


def project_inputs(x: Tensor, params: DamParams) -> Tensor:
    """Affine projections of the whole sentence for all three streams."""
    if x.values.ndim != 2:
        raise ShapeError(f"token matrix must be 2-d, got shape {x.shape}")
    if x.shape[1] != params.w_z.shape[1]:
        raise ShapeError(f"token width {x.shape[1]} does not match cell "
                         f"input width {params.w_z.shape[1]}")
    return broadcast_add(matmul(x, params.w_z), params.b_z)


def compute_candidates(z_t: Tensor, state: DamState,
                       params: DamParams) -> tuple[Tensor, Tensor]:
    """Forget features and tanh candidates from the projected token."""
    f = add(z_t, add(matmul(state.h, params.w_f), params.b_f))
    ctil = tanh(add(z_t, add(matmul(state.h, params.w_c), params.b_c)))
    return f, ctil


def inter_aggregate(f: Tensor, enabled: bool = True) -> Tensor:
    """Parameter-free cross-stream mixes of the forget features.

    Row p of the result is the mix handed to stream p: (o - r) for s,
    (o - s) for r, (s + r) for o. Disabled means all-zero mixes.
    """
    d_h = f.shape[2]
    if not enabled:
        return constant(np.zeros((3, 1, d_h)))
    flat = reshape(f, (3, d_h))
    return reshape(matmul(constant(_MIX), flat), (3, 1, d_h))


def intra_aggregate(f: Tensor, inter: Tensor, ctil: Tensor,
                    state: DamState) -> Tensor:
    """Gate previous memory and the current candidate with mixed forgets."""
    carried = mul(add(state.f, state.inter), state.c)
    fresh = mul(add(f, inter), ctil)
    return add(carried, fresh)


def finalize(a: Tensor, params: DamParams) -> tuple[Tensor, Tensor, Tensor]:
    """Squash the aggregate into output features, memory, and hidden state."""
    h_tilde = tanh(a)
    c = add(matmul(a, params.w_a), params.b_a)
    h = tanh(c)
    return h_tilde, c, h


def dam_step(z_t: Tensor, state: DamState, params: DamParams,
             interaction: bool = True) -> tuple[Tensor, Tensor, DamState, tuple]:
    """One token step composed from the helpers above, node by node."""
    f, ctil = compute_candidates(z_t, state, params)
    inter = inter_aggregate(f, enabled=interaction)
    a = intra_aggregate(f, inter, ctil, state)
    h_tilde, c, h = finalize(a, params)
    return h_tilde, h, DamState(h, c, f, inter), (z_t, f, ctil, inter, a, c)


# ---------------------------------------------------------------------------
# decoder heads over per-token features of a single layer


def r_slot(feats: Tensor) -> Tensor:
    """[t, w] features as the r stream of h_tilde in an otherwise zero
    [t, 2, 3, w] layer output, so that `pair_decode` with coefficients
    (0, 1, 0) reads exactly them; gradients flow back to `feats`."""
    t, w = feats.shape
    zero = constant(np.zeros((t, 1, 1, w)))
    tilde = concat([zero, reshape(feats, (t, 1, 1, w)), zero], axis=2)
    return concat([tilde, constant(np.zeros((t, 1, 3, w)))], axis=1)


R_ONLY = (0.0, 1.0, 0.0)


def ner_decode(h_s: Tensor, h_o: Tensor, head) -> EntityLogits:
    """Single-layer entity table from subject and object features."""
    return EntityLogits(pair_decode([r_slot(add(h_s, h_o))], R_ONLY, head))


def re_decode(h_r: Tensor, h_s: Tensor, h_o: Tensor, head, alpha: float,
              beta: float, entity_features: bool = True) -> RelationLogits:
    """Single-layer relation table."""
    if entity_features:
        feats = add(h_r, sub(affine_const(h_o, alpha), affine_const(h_s, beta)))
    else:
        feats = h_r
    return RelationLogits(pair_decode([r_slot(feats)], R_ONLY, head))


def bi_decode(outs, ner_head, re_head, alpha: float, beta: float,
              entity_features: bool = True):
    """Two-direction decoding; exactly two encoder outputs required."""
    if len(outs) != 2:
        raise ContractError(f"bi_decode expects 2 directional outputs, "
                            f"got {len(outs)}")
    re_coeffs = (-beta, 1.0, alpha) if entity_features else R_ONLY
    return decode_streams(outs, ner_head, re_head, re_coeffs)

