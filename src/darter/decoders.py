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

import numpy as np

from .autodiff import (ContractError, ParamStore, Tensor, add, add_mix,
                       affine_const, pair_scores, sub)
from .encoder import DamOutput

ALPHA_BETA_GRID = (-1.0, 0.5, 1.0)


@dataclass
class DecoderParams:
    """One head: pair projection, norm affine, and output map."""

    w_pair: Tensor      # [2 * n_streams * d_h, d_h]
    b_pair: Tensor      # [d_h]
    ln_gain: Tensor     # [d_h]
    ln_bias: Tensor     # [d_h]
    w_out: Tensor       # [d_h, width]
    b_out: Tensor       # [width]

    @property
    def d_h(self) -> int:
        return self.w_pair.shape[1]

    @property
    def width(self) -> int:
        return self.w_out.shape[1]

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

    @staticmethod
    def bind(bound: dict[str, Tensor], prefix: str) -> "DecoderParams":
        return DecoderParams(
            w_pair=bound[f"{prefix}.w_pair"], b_pair=bound[f"{prefix}.b_pair"],
            ln_gain=bound[f"{prefix}.ln_gain"], ln_bias=bound[f"{prefix}.ln_bias"],
            w_out=bound[f"{prefix}.w_out"], b_out=bound[f"{prefix}.b_out"])


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


def _check_alpha_beta(alpha: float, beta: float) -> None:
    for name, val in (("alpha", alpha), ("beta", beta)):
        if val not in ALPHA_BETA_GRID:
            raise ContractError(f"{name} must be one of {ALPHA_BETA_GRID}, "
                                f"got {val}")


def entity_stream(out: DamOutput) -> Tensor:
    """Per-token entity features: subject plus object stream."""
    return add(out.h_tilde["s"], out.h_tilde["o"])


def relation_stream(out: DamOutput, alpha: float, beta: float,
                    entity_features: bool = True) -> Tensor:
    """Per-token relation features, optionally mixing in entity streams
    as alpha * object - beta * subject."""
    if not entity_features:
        return out.h_tilde["r"]
    _check_alpha_beta(alpha, beta)
    h = out.h_tilde
    return add_mix(h["r"], h["o"], h["s"], alpha, beta)


def pair_decode(streams: list[Tensor], head: DecoderParams) -> Tensor:
    """Probability table [t, t, width] from per-direction token features.

    The pair feature for (i, j) concatenates, stream by stream, the
    features of token i then token j. The head runs as one fused node
    (`autodiff.pair_scores`) that projects each token once per side.
    """
    if not streams:
        raise ContractError("pair_decode needs at least one stream")
    return pair_scores(streams, head.w_pair, head.b_pair, head.ln_gain,
                       head.ln_bias, head.w_out, head.b_out)


def ner_decode(h_s: Tensor, h_o: Tensor, head: DecoderParams) -> EntityLogits:
    """Single-direction entity table from subject and object features."""
    return EntityLogits(pair_decode([add(h_s, h_o)], head))


def re_decode(h_r: Tensor, h_s: Tensor, h_o: Tensor, head: DecoderParams,
              alpha: float, beta: float,
              entity_features: bool = True) -> RelationLogits:
    """Single-direction relation table."""
    if entity_features:
        _check_alpha_beta(alpha, beta)
        feats = add(h_r, sub(affine_const(h_o, alpha), affine_const(h_s, beta)))
    else:
        feats = h_r
    return RelationLogits(pair_decode([feats], head))


def decode_streams(outs: list[DamOutput], ner_head: DecoderParams,
                   re_head: DecoderParams, alpha: float, beta: float,
                   entity_features: bool = True
                   ) -> tuple[EntityLogits, RelationLogits]:
    """Decode from every encoder layer at once; the pair features
    concatenate all directional streams in layer order."""
    if not outs:
        raise ContractError("decode_streams needs at least one encoder output")
    ent = [entity_stream(o) for o in outs]
    rel = [relation_stream(o, alpha, beta, entity_features) for o in outs]
    return (EntityLogits(pair_decode(ent, ner_head)),
            RelationLogits(pair_decode(rel, re_head)))


def bi_decode(outs: list[DamOutput], ner_head: DecoderParams,
              re_head: DecoderParams, alpha: float, beta: float,
              entity_features: bool = True
              ) -> tuple[EntityLogits, RelationLogits]:
    """Two-direction decoding; exactly two encoder outputs required."""
    if len(outs) != 2:
        raise ContractError(f"bi_decode expects 2 directional outputs, "
                            f"got {len(outs)}")
    return decode_streams(outs, ner_head, re_head, alpha, beta, entity_features)


def threshold_predictions(e: EntityLogits, r: RelationLogits,
                          tau: float = 0.5,
                          diagonal_only: bool = False) -> PredictionSet:
    """Strictly-above-tau cells; entity cells below the diagonal are
    ignored, and in tail-only mode everything off it is too."""
    hit = e.probs.values > tau
    if diagonal_only:
        i, k = (a.tolist() for a in np.nonzero(np.diagonal(hit).T))
        entities = zip(i, i, k)
    else:                                # np.triu masks the last two axes
        k, i, j = (a.tolist() for a in np.nonzero(np.triu(
            hit.transpose(2, 0, 1))))
        entities = zip(i, j, k)
    relations = zip(*(a.tolist() for a in np.nonzero(r.probs.values > tau)))
    return PredictionSet(entities=frozenset(entities),
                         relations=frozenset(relations))
