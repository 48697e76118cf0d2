"""Span-pair entity decoding and table-filling relation decoding.

Both heads share one shape of machinery: build features for every token
pair (i, j) by concatenating per-direction token features, project them,
normalize, pass through ELU, then map to per-cell probabilities with a
sigmoid. The entity head reads cell (i, j) as "span from token i to token
j"; the relation head reads (i, m) as "subject headed at i, object headed
at m".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import ContractError, ParamStore, Tensor, pair_heads

ALPHA_BETA_GRID = (-1.0, 0.5, 1.0)
THRESHOLD = 0.5     # a cell is predicted if its probability is above this


class DecoderParams(NamedTuple):
    """One head: pair projection, norm affine, and output map, in the
    order `pair_heads` reads a head's arrays."""

    w_pair: Tensor      # [2 * n_streams * d_h, d_h]
    b_pair: Tensor      # [d_h]
    ln_gain: Tensor     # [d_h]
    ln_bias: Tensor     # [d_h]
    w_out: Tensor       # [d_h, width]
    b_out: Tensor       # [width]

    @staticmethod
    def register(store: ParamStore, prefix: str, n_streams: int, d_h: int,
                 width: int) -> None:
        if n_streams < 1 or d_h < 2 or width < 1:
            raise ContractError(f"bad decoder sizes: n_streams={n_streams}, "
                                f"d_h={d_h}, width={width}")
        pair_width = 2 * n_streams * d_h
        store.add_uniform(f"{prefix}.w_pair", (pair_width, d_h), fan_in=pair_width)
        store.add_zeros(f"{prefix}.b_pair", (d_h,))
        store.add_ones(f"{prefix}.ln_gain", (d_h,))
        store.add_zeros(f"{prefix}.ln_bias", (d_h,))
        store.add_uniform(f"{prefix}.w_out", (d_h, width), fan_in=d_h)
        store.add_zeros(f"{prefix}.b_out", (width,))

    @classmethod
    def bind(cls, bound: dict[str, Tensor], prefix: str) -> "DecoderParams":
        return cls(*(bound[f"{prefix}.{kind}"] for kind in cls._fields))


@dataclass
class EntityLogits:
    """Cell (i, j, k): probability that tokens i..j form an entity of type k."""

    probs: Tensor   # [t, t, u]


@dataclass
class RelationLogits:
    """Cell (i, m, l): probability of relation l between heads i and m."""

    probs: Tensor   # [t, t, v]


@dataclass(frozen=True)
class PredictionSet:
    """Thresholded, deduplicated predictions with integer type indices."""

    entities: frozenset    # of (start, end, type_index)
    relations: frozenset   # of (subject_head, object_head, type_index)


# Stream coefficients (s, r, o) of the entity head: subject plus object.
ENTITY_COEFFS = (1.0, 0.0, 1.0)


def relation_coefficients(alpha: float, beta: float,
                          entity_features: bool = True
                          ) -> tuple[float, float, float]:
    """Stream coefficients (s, r, o) of the relation head: the relation
    stream plus alpha * object - beta * subject, or the relation stream
    alone without entity features (then alpha and beta go unchecked)."""
    if not entity_features:
        return (0.0, 1.0, 0.0)
    for name, val in (("alpha", alpha), ("beta", beta)):
        if val not in ALPHA_BETA_GRID:
            raise ContractError(f"{name} must be one of {ALPHA_BETA_GRID}, "
                                f"got {val}")
    return (-beta, 1.0, alpha)


def decode_streams(layers: list[Tensor], ner_head: DecoderParams,
                   re_head: DecoderParams, alpha: float, beta: float,
                   entity_features: bool = True
                   ) -> tuple[EntityLogits, RelationLogits]:
    """Decode from every encoder layer's [t, 2, 3, d_h] output at once; the
    pair features concatenate all layers' mixed streams in layer order.
    Both heads run in one `autodiff.pair_heads` pass, one node each."""
    re_coeffs = relation_coefficients(alpha, beta, entity_features)
    entities, relations = pair_heads(layers, [(ENTITY_COEFFS, *ner_head),
                                              (re_coeffs, *re_head)])
    return EntityLogits(entities), RelationLogits(relations)


def threshold_predictions(e: EntityLogits, r: RelationLogits,
                          diagonal_only: bool = False) -> PredictionSet:
    """Cells strictly above THRESHOLD; entity cells below the diagonal are
    ignored, and in tail-only mode everything off it is too."""
    i, j, k = _cells_above(e.probs.values, THRESHOLD)
    keep = i == j if diagonal_only else i <= j
    entities = zip(i[keep].tolist(), j[keep].tolist(), k[keep].tolist())
    i, m, k = _cells_above(r.probs.values, THRESHOLD)
    relations = zip(i.tolist(), m.tolist(), k.tolist())
    return PredictionSet(entities=frozenset(entities),
                         relations=frozenset(relations))


def _cells_above(table: np.ndarray, tau: float):
    """Row, column and type indices of the cells of a [t, t, w] table
    above tau, from one flat scan."""
    t, _, w = table.shape
    cell, k = divmod(np.flatnonzero(table > tau), w)
    return (*divmod(cell, t), k)
