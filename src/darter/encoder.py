"""Recurrent encoder built from decoupling-and-aggregation cells.

One cell keeps three parallel streams, one per subtask: subject detection
("s"), relation detection ("r"), object detection ("o"). Each token step
forms per-stream forget and candidate features, mixes forget features
across streams with fixed parameter-free arithmetic, gates candidates with
the mixes from both the current and the previous step, and squashes the
result into hidden features.

The three streams share stacked weight tensors whose leading axis of 3
indexes (s, r, o), the same trick LSTM kernels use for their fused gates.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .autodiff import (ContractError, ParamStore, ShapeError, Tensor, add,
                       broadcast_add, constant, dam_sequence, index, matmul,
                       mul, reshape, tanh)

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


@dataclass
class DamOutput:
    """Per-subtask feature streams of one layer, in token order."""

    h_tilde: dict[str, Tensor]      # p -> [t, d_h]
    hidden: Mapping[str, Tensor]    # p -> [t, d_h]
    trace: list[TraceStep] | None


def project_inputs(x: Tensor, params: DamParams) -> Tensor:
    """Affine projections of the whole sentence for all three streams."""
    if x.values.ndim != 2:
        raise ShapeError(f"token matrix must be 2-d, got shape {x.shape}")
    if x.shape[1] != params.d_in:
        raise ShapeError(f"token width {x.shape[1]} does not match cell "
                         f"input width {params.d_in}")
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
    """One token step composed from the helpers above, node by node.

    encode_sequence runs the same arithmetic as a single fused node; this
    composition is its reference.
    """
    f, ctil = compute_candidates(z_t, state, params)
    inter = inter_aggregate(f, enabled=interaction)
    a = intra_aggregate(f, inter, ctil, state)
    h_tilde, c, h = finalize(a, params)
    return h_tilde, h, DamState(h, c, f, inter), (z_t, f, ctil, inter, a, c)


def _stream_dict(stacked: Tensor, field: int) -> dict[str, Tensor]:
    """Per-subtask [t, d_h] views of one field of a [2, t, 3, d_h] output."""
    return {p: index(stacked, (field, slice(None), k))
            for k, p in enumerate(SUBTASKS)}


class _LazyStreams(Mapping):
    """`_stream_dict(stacked, field)`, made on the first read, so a field
    nobody reads (the last layer's hidden streams) records no nodes."""

    def __init__(self, stacked: Tensor, field: int):
        self._stacked = stacked
        self._field = field
        self._views: dict[str, Tensor] | None = None

    def __getitem__(self, p: str) -> Tensor:
        if self._views is None:
            self._views = _stream_dict(self._stacked, self._field)
        return self._views[p]

    def __iter__(self):
        return iter(SUBTASKS)

    def __len__(self) -> int:
        return len(SUBTASKS)


def encode_sequence(x: Tensor, params: DamParams,
                    direction: Direction = Direction.LEFT_TO_RIGHT,
                    interaction: bool = True,
                    collect_trace: bool = False) -> DamOutput:
    """Run the cell over a token matrix [t, d_p] in one direction.

    Outputs are always reported in original token order, whatever the
    processing direction. The recurrence is one fused autodiff node
    (`autodiff.dam_sequence`) with the same arithmetic as chaining
    `dam_step`; the trace is read from the activations it saves.
    """
    t = x.shape[0]
    if t < 1:
        raise ContractError("cannot encode an empty sentence")
    z_all = project_inputs(x, params)
    reverse = direction is Direction.RIGHT_TO_LEFT
    out, acts = dam_sequence(z_all, params.w_f, params.b_f, params.w_c,
                             params.b_c, params.w_a, params.b_a,
                             reverse=reverse,
                             mix=_MIX if interaction else None)
    d_h = params.d_h
    acts["z"] = z_all.values.transpose(1, 0, 2)
    acts["h_tilde"] = out.values[0]

    def at(key: str, i: int) -> np.ndarray:
        if key == "inter":               # as inter_aggregate forms it
            if not interaction:
                return np.zeros((3, 1, d_h))
            return (_MIX @ acts["f"][i].reshape(3, d_h)).reshape(3, 1, d_h)
        return acts[key][i].reshape(3, 1, d_h)   # as a step sees it

    order = range(t - 1, -1, -1) if reverse else range(t)
    trace = None
    if collect_trace:
        trace = [TraceStep(i, *(at(key, i).copy() for key in (
                     "z", "f", "ctil", "inter", "a", "h_tilde", "c", "h")))
                 for i in order]
    return DamOutput(h_tilde=_stream_dict(out, 0),
                     hidden=_LazyStreams(out, 1), trace=trace)


def layer_direction(layer_index: int) -> Direction:
    """Layers alternate, starting left-to-right at index 0."""
    return (Direction.LEFT_TO_RIGHT if layer_index % 2 == 0
            else Direction.RIGHT_TO_LEFT)


def encode_stacked(x: Tensor, layers: list[DamParams],
                   interaction: bool = True,
                   collect_trace: bool = False) -> list[DamOutput]:
    """Run a stack of cells; layer l > 0 reads the previous layer's
    per-token hidden sum h_s + h_r + h_o. All layer outputs are returned,
    because the decoders consume every stream."""
    if len(layers) < 1:
        raise ContractError("need at least one layer")
    outputs: list[DamOutput] = []
    current = x
    for idx, params in enumerate(layers):
        if idx > 0 and params.d_in != layers[idx - 1].d_h:
            raise ShapeError(f"layer {idx} expects input width {params.d_in}, "
                             f"previous layer produces {layers[idx - 1].d_h}")
        out = encode_sequence(current, params, layer_direction(idx),
                              interaction=interaction,
                              collect_trace=collect_trace)
        outputs.append(out)
        if idx + 1 < len(layers):        # the last layer's sum feeds nothing
            h = out.hidden
            current = add(add(h["s"], h["r"]), h["o"])
    return outputs
