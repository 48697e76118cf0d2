"""Joint training: summed BCE over both tables, Adam, grid search, checkpoints.

The loss for one sentence is gamma * entity-table BCE plus delta *
relation-table BCE, each summed over (unmasked) cells; batches average the
per-sentence losses and gradients.  The hyperparameter search sweeps the
mixing coefficients of the relation head and the two loss weights over their
small grids, refitting from scratch per point and selecting by dev relation
F1, then entity F1, then first in enumeration order.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import ContractError, Tensor, add, aligned_rows, bce
from .corpus import (LabelSchema, Vocabulary, entity_mask, gold_tables,
                     read_json, write_json)
from .decoders import ALPHA_BETA_GRID
from .evaluation import evaluate_corpus
from .model import ConfigError, JointModel, ModelConfig, check_types

__all__ = [
    "Adam",
    "GAMMA_DELTA_GRID",
    "GridPoint",
    "GridSearchResult",
    "LossWeights",
    "TrainConfig",
    "TrainingDiverged",
    "grid_search",
    "load_checkpoint",
    "save_checkpoint",
    "save_history",
    "sentence_loss",
    "train",
]

GAMMA_DELTA_GRID = (0.75, 0.85, 1.0)

CHECKPOINT_FORMAT = "darter-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite or Adam's moments overflow."""


@dataclass(frozen=True)
class LossWeights:
    gamma: float = 1.0  # entity-table weight
    delta: float = 1.0  # relation-table weight

    def __post_init__(self):
        check_types(self, reals=("gamma", "delta"))
        if self.gamma < 0 or self.delta < 0:
            raise ConfigError("loss weights must be non-negative")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        check_types(self, integers=("epochs", "batch_size", "seed"),
                    reals=("lr",))
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


# ---------------------------------------------------------------------------
# loss


def sentence_loss(forward, entity_gold: np.ndarray, relation_gold: np.ndarray,
                  mask: np.ndarray | None, weights: LossWeights) -> Tensor:
    """gamma * entity-table BCE + delta * relation-table BCE: three nodes,
    with the weights applied inside the BCE nodes."""
    return add(bce(forward.entities.probs, entity_gold, mask,
                   weight=weights.gamma),
               bce(forward.relations.probs, relation_gold,
                   weight=weights.delta))


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decays and denominator epsilon
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over the store's flat parameter vector.

    step(g) takes the gradient as one vector laid out as `store.flat` and
    updates the moments in place, with two more rows of the moments' block
    for its temporaries, so a step allocates nothing. The operations and
    their order are those of the per-array formula

        m = _BETA1 * m + (1 - _BETA1) * g
        v = _BETA2 * v + ((1 - _BETA2) * g) * g
        m_hat = m / (1 - _BETA1 ** t)
        v_hat = v / (1 - _BETA2 ** t)
        p = p - (lr * m_hat) / (sqrt(v_hat) + _EPS)

    so the result is the same, bit for bit. A gradient so large that the
    update overflows raises FloatingPointError.
    """

    def __init__(self, store, lr: float):
        self.store = store
        self.lr = lr
        self.step_count = 0
        rows = aligned_rows(4, store.flat.size)
        rows[:2].fill(0.0)               # the moments; step writes the rest
        self._m, self._v, self._work, self._denom = rows

    def step(self, g: np.ndarray) -> None:
        self.step_count += 1
        t = self.step_count
        m, v, work, denom = self._m, self._v, self._work, self._denom
        with np.errstate(over="raise"):
            m *= _BETA1
            np.multiply(g, 1.0 - _BETA1, out=work)
            m += work
            v *= _BETA2
            np.multiply(g, 1.0 - _BETA2, out=work)
            work *= g
            v += work
            np.divide(m, 1.0 - _BETA1 ** t, out=work)
            work *= self.lr
            np.divide(v, 1.0 - _BETA2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += _EPS
            work /= denom
            flat = self.store.flat
            flat -= work


# ---------------------------------------------------------------------------
# training loop


def _prepare(model: JointModel, sentence) -> tuple:
    """A sentence's token ids, gold tables and entity mask."""
    config = model.config
    if sentence.mode is not config.match_mode:
        raise ContractError(
            f"sentence annotated in {sentence.mode.value} mode but the model "
            f"expects {config.match_mode.value}")
    return (model.vocab.encode(sentence.tokens),
            *gold_tables(sentence, model.schema),
            entity_mask(len(sentence), model.schema.u, config.match_mode,
                        config.mask_reversed_entity_cells))


def train(model: JointModel, sentences, train_config: TrainConfig,
          weights: LossWeights = LossWeights()) -> list[float]:
    """Fit in place; returns the mean per-sentence loss of each epoch."""
    if not sentences:
        raise ContractError("training corpus is empty")
    prepared = [_prepare(model, s) for s in sentences]
    rng = np.random.default_rng(train_config.seed)
    optimizer = Adam(model.store, train_config.lr)
    grads, own = aligned_rows(2, model.store.flat.size)
    history = []
    for epoch in range(train_config.epochs):
        order = rng.permutation(len(prepared))
        epoch_loss = 0.0
        for start in range(0, len(order), train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            for k, idx in enumerate(batch):
                token_ids, entity_gold, relation_gold, mask = prepared[idx]
                forward = model.forward(token_ids)
                loss = sentence_loss(forward, entity_gold, relation_gold,
                                     mask, weights)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingDiverged(
                        f"non-finite loss {value} at epoch {epoch}, "
                        f"sentence {int(idx)}")
                epoch_loss += value
                found = forward.record.backward(loss)
                # in the store's order; a parameter the loss does not reach
                # reads zeros, so Adam still decays its moments
                np.concatenate([found[leaf.node_id] if leaf.node_id in found
                                else np.zeros_like(leaf.values)
                                for leaf in forward.bound.values()],
                               axis=None, out=own if k else grads)
                if k:
                    grads += own
            if len(batch) > 1:
                grads *= 1.0 / len(batch)
            try:
                optimizer.step(grads)
            except FloatingPointError:
                raise TrainingDiverged(
                    f"gradient overflow in the Adam step at epoch {epoch}, "
                    f"sentence {int(idx)}") from None
        history.append(epoch_loss / len(prepared))
    return history


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class GridPoint:
    alpha: float
    beta: float
    gamma: float
    delta: float
    ner_f1: float
    re_f1: float


@dataclass(frozen=True)
class GridSearchResult:
    best: GridPoint
    points: tuple[GridPoint, ...]

    def to_json(self) -> dict:
        return asdict(self)


def _default_scorer(model: JointModel, dev_sentences):
    report = evaluate_corpus(dev_sentences, model.predict_corpus(dev_sentences),
                             model.schema, model.config.match_mode)
    return report["ner"]["micro"]["f1"], report["re"]["micro"]["f1"]


def grid_search(config: ModelConfig, schema: LabelSchema, vocab: Vocabulary,
                train_sentences, dev_sentences, train_config: TrainConfig,
                alphas=ALPHA_BETA_GRID, betas=ALPHA_BETA_GRID,
                gammas=GAMMA_DELTA_GRID, deltas=GAMMA_DELTA_GRID
                ) -> GridSearchResult:
    """Refit per grid point; best dev relation F1 wins, entity F1 breaks
    ties, then the lexicographically smallest (alpha, beta, gamma, delta)."""
    grid = {"alphas": alphas, "betas": betas, "gammas": gammas,
            "deltas": deltas}
    for name, values in grid.items():
        if len(values) == 0:
            raise ContractError(f"grid_search: the {name} grid is empty")

    def rank(point):
        # maximize scores, then minimize the parameter tuple
        return (point.re_f1, point.ner_f1,
                (-point.alpha, -point.beta, -point.gamma, -point.delta))

    points = []
    for alpha, beta, gamma, delta in itertools.product(*grid.values()):
        model = JointModel(replace(config, alpha=alpha, beta=beta), schema,
                           vocab)
        train(model, train_sentences, train_config,
              LossWeights(gamma=gamma, delta=delta))
        ner_f1, re_f1 = _default_scorer(model, dev_sentences)
        points.append(GridPoint(alpha, beta, gamma, delta, ner_f1, re_f1))
    return GridSearchResult(best=max(points, key=rank), points=tuple(points))


# ---------------------------------------------------------------------------
# artifacts


def save_checkpoint(path, model: JointModel) -> None:
    write_json(path, {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_json(),
        "schema": model.schema.to_json(),
        "vocab": list(model.vocab.tokens),
        "params": {name: {"shape": list(values.shape),
                          "data": values.ravel().tolist()}
                   for name, values in model.store.items()},
    })


def _field(obj, key: str, where: str):
    """obj[key] of a JSON object that `where` names as "<file>: <field>."."""
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"{where}{key}: missing")
    return obj[key]


def checked(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a bad value reported as a ConfigError at
    `where`."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_checkpoint(path) -> JointModel:
    """Read a checkpoint. A missing, malformed or non-finite field is a
    ConfigError naming the file and the field."""
    obj = read_json(path, ConfigError)
    if not isinstance(obj, dict) or obj.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a model checkpoint")
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version "
                          f"{obj.get('version')!r}")
    config, schema, vocab, saved = (_field(obj, key, f"{path}: ") for key in
                                    ("config", "schema", "vocab", "params"))
    config = checked(f"{path}: config", ModelConfig.from_json, config)
    schema = checked(f"{path}: schema", LabelSchema.from_json, schema)
    vocab = checked(f"{path}: vocab", Vocabulary, vocab)
    model = checked(f"{path}: config", JointModel, config, schema, vocab)
    if not isinstance(saved, dict) or set(saved) != set(model.store.names()):
        raise ConfigError(f"{path}: checkpoint parameters do not match the "
                          f"configured architecture")
    for name, current in model.store.items():
        where = f"{path}: params.{name}"
        shape = _field(saved[name], "shape", f"{where}.")
        data = _field(saved[name], "data", f"{where}.")
        # null passes here, to be reported with NaN below
        if not isinstance(data, list) or not set(map(type, data)) <= {
                float, int, type(None)}:
            raise ConfigError(f"{where}: data must be a list of numbers")
        values = checked(where, np.array, data, np.float64)
        if not isinstance(shape, list) or tuple(shape) != current.shape \
                or values.size != current.size:
            raise ConfigError(f"{where}: shape {shape} with {values.size} "
                              f"values, expected {list(current.shape)}")
        if not np.isfinite(values).all():
            raise ConfigError(f"{where}: null, NaN or infinite value")
        model.store.set_(name, values.reshape(current.shape))
    return model


def save_history(path, history) -> None:
    write_json(path, {"epoch_mean_loss": list(history)})
