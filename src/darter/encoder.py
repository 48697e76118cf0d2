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

import enum
from dataclasses import dataclass

import numpy as np

from .autodiff import (ContractError, ParamStore, ShapeError, Tensor,
                       dam_sequence, index)

SUBTASKS = ("s", "r", "o")

# Cross-stream mixing, rows aligned with (s, r, o):
#   s receives  o - r      ("ro")
#   r receives  o - s      ("so")
#   o receives  s + r      ("sr")
_MIX = np.array([[0.0, -1.0, 1.0],
                 [-1.0, 0.0, 1.0],
                 [1.0, 1.0, 0.0]])

_PARAM_KINDS = ("w_z", "b_z", "w_f", "b_f", "w_c", "b_c", "w_a", "b_a")


class Direction(enum.Enum):
    LEFT_TO_RIGHT = "ltr"
    RIGHT_TO_LEFT = "rtl"


@dataclass
class DamParams:
    """One layer's cell parameters, stacked along a leading subtask axis.

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

    @staticmethod
    def bind(bound: dict[str, Tensor], prefix: str) -> "DamParams":
        return DamParams(**{kind: bound[f"{prefix}.{kind}"]
                            for kind in _PARAM_KINDS})


@dataclass
class TraceStep:
    """Numpy snapshots of one token step, for inspection and tests."""

    token: int
    z: np.ndarray
    f: np.ndarray
    ctil: np.ndarray
    inter: np.ndarray
    a: np.ndarray
    h_tilde: np.ndarray
    c: np.ndarray
    h: np.ndarray

    def by_subtask(self, field: str, p: str) -> np.ndarray:
        return getattr(self, field)[SUBTASKS.index(p), 0]


_FIELDS = ("h_tilde", "hidden")


@dataclass
class DamOutput:
    """One layer's output: h_tilde and the hidden state of every stream,
    in token order, stacked as [t, 2, 3, d_h] (field, then subtask)."""

    stacked: Tensor
    trace: list[TraceStep] | None

    def stream(self, field: str, p: str) -> Tensor:
        """The [t, d_h] features of one field ("h_tilde" or "hidden") of
        subtask p, as an `index` view of the stacked output."""
        return index(self.stacked, (slice(None), _FIELDS.index(field),
                                    SUBTASKS.index(p)))


def _trace(out: Tensor, acts: dict[str, np.ndarray], params: DamParams,
           reverse: bool, interaction: bool) -> list[TraceStep]:
    """One TraceStep per token, in visiting order, every field [3, 1, d_h]
    as a single composed step sees it; f = (z + b_f) + h_prev @ w_f, which
    the layer never forms alone, is computed here."""
    t, _, _, d_h = out.shape
    h, zero = out.values[:, 1], np.zeros((1, 3, d_h))
    h_in = np.concatenate((h[1:], zero) if reverse else (zero, h[:-1]))
    f = acts["z"] + params.b_f.values + np.matmul(h_in.transpose(1, 0, 2),
                                                  params.w_f.values)
    rows = dict(acts, z=acts["z"].transpose(1, 0, 2), f=f.transpose(1, 0, 2),
                h_tilde=out.values[:, 0], h=h)

    def at(key: str, i: int) -> np.ndarray:
        if key == "inter":
            if not interaction:
                return np.zeros((3, 1, d_h))
            return (_MIX @ rows["f"][i].reshape(3, d_h)).reshape(3, 1, d_h)
        return rows[key][i].reshape(3, 1, d_h).copy()

    order = range(t - 1, -1, -1) if reverse else range(t)
    return [TraceStep(i, *(at(key, i) for key in (
                "z", "f", "ctil", "inter", "a", "h_tilde", "c", "h")))
            for i in order]


def encode_sequence(x: Tensor, params: DamParams,
                    direction: Direction = Direction.LEFT_TO_RIGHT,
                    interaction: bool = True,
                    collect_trace: bool = False) -> DamOutput:
    """Run the cell in one direction over a token matrix [t, d_p], or over
    a previous layer's output [t, 2, 3, d_p], read as the per-token sum
    h_s + h_r + h_o of its hidden streams.

    Outputs are always reported in original token order, whatever the
    processing direction. The projection and the recurrence are one fused
    autodiff node (`autodiff.dam_sequence`); the trace is read from the
    activations it saves.
    """
    if x.values.shape[0] < 1:
        raise ContractError("cannot encode an empty sentence")
    reverse = direction is Direction.RIGHT_TO_LEFT
    out, acts = dam_sequence(x, params.w_z, params.b_z, params.w_f,
                             params.b_f, params.w_c, params.b_c, params.w_a,
                             params.b_a, reverse=reverse,
                             mix=_MIX if interaction else None)
    trace = (_trace(out, acts, params, reverse, interaction) if collect_trace
             else None)
    return DamOutput(out, trace)


def layer_direction(layer_index: int) -> Direction:
    """Layers alternate, starting left-to-right at index 0."""
    return (Direction.LEFT_TO_RIGHT if layer_index % 2 == 0
            else Direction.RIGHT_TO_LEFT)


def encode_stacked(x: Tensor, layers: list[DamParams],
                   interaction: bool = True) -> list[DamOutput]:
    """Run a stack of cells; layer l > 0 reads the previous layer's
    per-token hidden sum h_s + h_r + h_o. All layer outputs are returned,
    because the decoders read every layer."""
    if len(layers) < 1:
        raise ContractError("need at least one layer")
    outputs: list[DamOutput] = []
    current = x
    for idx, params in enumerate(layers):
        if idx > 0 and params.d_in != layers[idx - 1].d_h:
            raise ShapeError(f"layer {idx} expects input width {params.d_in}, "
                             f"previous layer produces {layers[idx - 1].d_h}")
        out = encode_sequence(current, params, layer_direction(idx),
                              interaction=interaction)
        outputs.append(out)
        current = out.stacked
    return outputs
