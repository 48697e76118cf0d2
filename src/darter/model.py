"""Joint extraction model: embedding, recurrent stack, and decoder heads.

A model owns a single parameter store holding the token embedding table,
one set of recurrent-cell parameters per layer, and the two table-filling
heads.  Layers alternate direction starting left-to-right, so the two-layer
bidirectional variant reads forward then backward; the decoders see the
per-layer streams side by side.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass

from .autodiff import ParamStore, Record, Tensor, take
from .corpus import LabelSchema, MatchMode, Vocabulary
from .decoders import (ALPHA_BETA_GRID, DecoderParams, EntityLogits,
                       PredictionSet, RelationLogits, decode_streams,
                       threshold_predictions)
from .encoder import DamParams, encode_stacked

__all__ = ["ConfigError", "JointModel", "MAX_PARAMETERS", "ModelConfig",
           "ModelForward", "VARIANTS", "check_size"]

VARIANTS = ("darter", "bidarter")
_LAYERS_BY_VARIANT = {"darter": 1, "bidarter": 2}
# The most parameters a model may have: 800 MB of float64, and training
# holds several vectors that size (the gradient and Adam's moments).
MAX_PARAMETERS = 10 ** 8


class ConfigError(ValueError):
    """Raised when a model configuration is inconsistent."""


def check_types(config, integers=(), reals=(), flags=()) -> None:
    """Check the types of a frozen config's fields, naming the first bad
    one in a ConfigError: `integers` hold ints (an integral float becomes
    its int), `reals` finite numbers, `flags` booleans. A boolean or a
    string is never a number, and no number lies beyond float range."""
    for name in integers + reals:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:
            got = ("an integer beyond float range"
                   if isinstance(value, int) else repr(value))
            raise ConfigError(f"{name} must be finite, got {got}")
        if name in integers:
            if value != int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(config, name, int(value))
    for name in flags:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "darter"
    n_layers: int | None = None
    d_p: int = 32
    d_h: int = 32
    interaction: bool = True
    entity_features_in_re: bool = True
    alpha: float = 1.0
    beta: float = 1.0
    match_mode: MatchMode = MatchMode.EXACT
    mask_reversed_entity_cells: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; "
                              f"expected one of {VARIANTS}")
        if self.n_layers is None:
            object.__setattr__(self, "n_layers",
                               _LAYERS_BY_VARIANT[self.variant])
        check_types(self, integers=("n_layers", "d_p", "d_h", "seed"),
                    reals=("alpha", "beta"),
                    flags=("interaction", "entity_features_in_re",
                           "mask_reversed_entity_cells"))
        if self.n_layers < 1:
            raise ConfigError("n_layers must be a positive integer")
        if self.variant == "bidarter" and self.n_layers != 2:
            raise ConfigError("the bidirectional variant uses exactly "
                              "2 layers")
        if self.d_p < 1:
            raise ConfigError("d_p must be at least 1")
        if self.d_h < 2:
            raise ConfigError("d_h must be at least 2 (pair normalization "
                              "needs two components)")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if value not in ALPHA_BETA_GRID:
                raise ConfigError(
                    f"{name} must be one of {ALPHA_BETA_GRID}, got {value}")
        if not isinstance(self.match_mode, MatchMode):
            raise ConfigError("match_mode must be a MatchMode")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def to_json(self) -> dict:
        return asdict(self) | {"match_mode": self.match_mode.value}

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        values = dict(obj)
        if isinstance(values.get("match_mode"), str):
            values["match_mode"] = MatchMode.parse(values["match_mode"])
        return cls(**values)


def check_size(config: ModelConfig, schema: LabelSchema,
               vocab: Vocabulary) -> int:
    """The exact number of parameters JointModel(config, schema, vocab)
    registers, computed before anything is allocated; a ConfigError naming
    the model fields if it is above MAX_PARAMETERS."""
    d_p, d_h, layers = config.d_p, config.d_h, config.n_layers
    # per layer: w_z [3, d_in, d_h], w_f, w_c, w_a [3, d_h, d_h] and four
    # [3, 1, d_h] biases; per head: w_pair [2 * layers * d_h, d_h], three
    # [d_h] vectors, w_out [d_h, width] and b_out [width]
    count = (vocab.size * d_p + 3 * d_h * (d_p + (layers - 1) * d_h)
             + layers * (9 * d_h * d_h + 12 * d_h)
             + sum(2 * layers * d_h * d_h + 3 * d_h + (d_h + 1) * width
                   for width in (schema.u, schema.v)))
    if count > MAX_PARAMETERS:
        raise ConfigError(f"d_p = {d_p}, d_h = {d_h} and n_layers = {layers} "
                          f"give {count} parameters over {vocab.size} "
                          f"tokens, more than the limit of {MAX_PARAMETERS}")
    return count


@dataclass
class ModelForward:
    entities: EntityLogits
    relations: RelationLogits
    record: Record
    bound: dict[str, Tensor]   # unrecorded: the store's shared dict, read-only


class JointModel:
    """Parameter store plus the forward pass from token ids to tables."""

    def __init__(self, config: ModelConfig, schema: LabelSchema,
                 vocab: Vocabulary):
        check_size(config, schema, vocab)
        self.config = config
        self.schema = schema
        self.vocab = vocab
        store = ParamStore(config.seed)
        store.add_uniform("embedding", (vocab.size, config.d_p),
                          fan_in=config.d_p)
        for layer in range(config.n_layers):
            d_in = config.d_p if layer == 0 else config.d_h
            DamParams.register(store, f"dam{layer}", d_in, config.d_h)
        DecoderParams.register(store, "ner", config.n_layers, config.d_h,
                               schema.u)
        DecoderParams.register(store, "re", config.n_layers, config.d_h,
                               schema.v)
        self.store = store
        # (the store's untracked dict, the structs bound over it)
        self._unrecorded: tuple | None = None

    def _structs(self, bound: dict[str, Tensor]) -> tuple:
        """The layer and head parameter structs over `bound`."""
        return ([DamParams.bind(bound, f"dam{layer}")
                 for layer in range(self.config.n_layers)],
                DecoderParams.bind(bound, "ner"),
                DecoderParams.bind(bound, "re"))

    def forward(self, token_ids, recording: bool = True) -> ModelForward:
        """Token ids to both probability tables. A recorded forward binds
        fresh leaves; an unrecorded one reuses one set of parameter structs
        over the store's cached untracked Tensors, rebuilt whenever the
        store rebuilds them or `self.store` is replaced."""
        config = self.config
        record = Record(recording=recording)
        bound = self.store.bind(record)
        if recording:
            structs = self._structs(bound)
        else:
            cached = self._unrecorded
            if cached is None or cached[0] is not bound:
                cached = self._unrecorded = (bound, self._structs(bound))
            structs = cached[1]
        layers, ner_head, re_head = structs
        x = take(bound["embedding"], token_ids)
        outs = encode_stacked(x, layers, interaction=config.interaction)
        re_coeffs = ((-config.beta, 1.0, config.alpha)
                     if config.entity_features_in_re else (0.0, 1.0, 0.0))
        entities, relations = decode_streams(outs, ner_head, re_head,
                                             re_coeffs)
        return ModelForward(entities=entities, relations=relations,
                            record=record, bound=bound)

    def predict_tokens(self, tokens) -> PredictionSet:
        forward = self.forward(self.vocab.encode(tokens), recording=False)
        return threshold_predictions(
            forward.entities, forward.relations,
            diagonal_only=self.config.match_mode is MatchMode.TAIL)

    def predict_corpus(self, sentences) -> list[PredictionSet]:
        return [self.predict_tokens(s.tokens) for s in sentences]
