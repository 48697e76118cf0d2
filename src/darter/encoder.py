"""Recurrent encoder built from decoupling-and-aggregation cells.

One cell keeps three parallel streams, one per subtask: subject detection
("s"), relation detection ("r"), object detection ("o"). Each token step
forms per-stream forget and candidate features, mixes forget features
across streams with fixed parameter-free arithmetic, gates candidates with
the mixes from both the current and the previous step, and squashes the
result into hidden features.

The three streams share stacked weight tensors whose leading axis of 3
indexes (s, r, o), the same trick LSTM kernels use for their fused gates
(Appleyard et al., arXiv:1604.01946), and they travel stacked too: a
layer's output is one [t, 2, 3, d_h] tensor that the next layer and both
decoder heads read whole.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import (ContractError, ParamStore, ShapeError, Tensor,
                       dam_sequence)

SUBTASKS = ("s", "r", "o")

# Cross-stream mixing, rows aligned with (s, r, o):
#   s receives  o - r      ("ro")
#   r receives  o - s      ("so")
#   o receives  s + r      ("sr")
_MIX = np.array([[0.0, -1.0, 1.0],
                 [-1.0, 0.0, 1.0],
                 [1.0, 1.0, 0.0]])


class DamParams(NamedTuple):
    """One layer's cell parameters, stacked along a leading subtask axis,
    in `dam_sequence`'s argument order.

    w_z: [3, d_in, d_h]; w_f, w_c, w_a: [3, d_h, d_h]; biases keep a
    broadcast row axis, [3, 1, d_h].
    """

    w_z: Tensor
    b_z: Tensor
    w_f: Tensor
    b_f: Tensor
    w_c: Tensor
    b_c: Tensor
    w_a: Tensor
    b_a: Tensor

    @property
    def d_in(self) -> int:
        return self.w_z.shape[1]

    @property
    def d_h(self) -> int:
        return self.w_z.shape[2]

    @staticmethod
    def register(store: ParamStore, prefix: str, d_in: int, d_h: int) -> None:
        if d_in < 1 or d_h < 1:
            raise ContractError(f"cell widths must be positive, got "
                                f"d_in={d_in}, d_h={d_h}")
        store.add_uniform(f"{prefix}.w_z", (3, d_in, d_h), fan_in=d_in)
        store.add_zeros(f"{prefix}.b_z", (3, 1, d_h))
        for kind in ("w_f", "w_c", "w_a"):
            store.add_uniform(f"{prefix}.{kind}", (3, d_h, d_h), fan_in=d_h)
        for kind in ("b_f", "b_c", "b_a"):
            store.add_zeros(f"{prefix}.{kind}", (3, 1, d_h))

    @classmethod
    def bind(cls, bound: dict[str, Tensor], prefix: str) -> "DamParams":
        return cls(*(bound[f"{prefix}.{kind}"] for kind in cls._fields))


def encode_sequence(x: Tensor, params: DamParams, reverse: bool = False,
                    interaction: bool = True) -> Tensor:
    """Run the cell in one direction over a token matrix [t, d_p], or over
    a previous layer's output [t, 2, 3, d_p], read as the per-token sum
    h_s + h_r + h_o of its hidden streams.

    Returns h_tilde and the hidden state of every stream as one
    [t, 2, 3, d_h] tensor (token; field; subtask), always in original
    token order, whatever the processing direction. The projection and
    the recurrence are one fused autodiff node (`autodiff.dam_sequence`).
    """
    return dam_sequence(x, *params, reverse=reverse,
                        mix=_MIX if interaction else None)[0]


def trace_sequence(x: Tensor, params: DamParams,
                   reverse: bool = False) -> dict[str, np.ndarray]:
    """An interacting cell's run, one [t, 3, d_h] array per quantity in
    token order: z, f, ctil, inter, a, h_tilde, c and h, read from the
    activations the fused layer saves; f = (z + b_f) + h_prev @ w_f, which
    the layer never forms alone, and inter = _MIX @ f are computed here."""
    out, acts = dam_sequence(x, *params, reverse=reverse, mix=_MIX)
    t, _, _, d_h = out.shape
    h, zero = out.values[:, 1], np.zeros((1, 3, d_h))
    h_in = np.concatenate((h[1:], zero) if reverse else (zero, h[:-1]))
    f = acts["z"] + params.b_f.values + np.matmul(h_in.transpose(1, 0, 2),
                                                  params.w_f.values)
    f = f.transpose(1, 0, 2)
    ctil, a, c = (acts[key].reshape(t, 3, d_h) for key in ("ctil", "a", "c"))
    return {"z": acts["z"].transpose(1, 0, 2), "f": f, "ctil": ctil,
            "inter": _MIX @ f, "a": a, "h_tilde": out.values[:, 0], "c": c,
            "h": h}


def encode_stacked(x: Tensor, layers: list[DamParams],
                   interaction: bool = True) -> list[Tensor]:
    """Run a stack of cells, alternating direction from left-to-right at
    layer 0; layer l > 0 reads the previous layer's per-token hidden sum
    h_s + h_r + h_o. Every layer's output is returned, because the
    decoders read every layer."""
    if len(layers) < 1:
        raise ContractError("need at least one layer")
    outputs: list[Tensor] = []
    for idx, params in enumerate(layers):
        if idx > 0 and params.d_in != layers[idx - 1].d_h:
            raise ShapeError(f"layer {idx} expects input width {params.d_in}, "
                             f"previous layer produces {layers[idx - 1].d_h}")
        x = encode_sequence(x, params, idx % 2 == 1, interaction)
        outputs.append(x)
    return outputs
