"""Command-line entry point: train, eval, predict, and gridsearch.

Each command reads a JSON config file naming its input and output paths plus
optional ``model``, ``train``, ``loss``, and ``grid`` sections; command-line
flags override single fields.  Relative paths in the config resolve against
the config file's directory.  Exit codes: 0 success, 1 runtime failure
(divergence, failed writes), 2 configuration or validation failure,
including an input path that cannot be read.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .autodiff import ContractError
from .corpus import (CorpusError, Entity, InputError, LabelSchema,
                     MatchMode, Relation, Sentence, Vocabulary, load_corpus,
                     read_json, relation_anchor, save_corpus, write_json)
from .decoders import ALPHA_BETA_GRID
from .evaluation import evaluate_corpus
from .model import ConfigError, JointModel, ModelConfig, VARIANTS
from .training import (GAMMA_DELTA_GRID, LossWeights, TrainConfig,
                       TrainingDiverged, grid_search, load_checkpoint,
                       save_checkpoint, save_history, train)

__all__ = ["build_parser", "main"]

_PATH_KEYS = ("schema", "train_corpus", "dev_corpus", "test_corpus",
              "input_corpus", "checkpoint", "history", "report",
              "predictions", "grid_results")
_SECTION_KEYS = ("model", "train", "loss", "grid")
# the keys of the grid section, each with the full grid it may narrow
_GRIDS = {"alphas": ALPHA_BETA_GRID, "betas": ALPHA_BETA_GRID,
          "gammas": GAMMA_DELTA_GRID, "deltas": GAMMA_DELTA_GRID}


def _load_run_config(path) -> dict:
    run = read_json(path, ConfigError)
    if not isinstance(run, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = set(run) - set(_PATH_KEYS) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    base = Path(path).parent
    for key in _PATH_KEYS:
        if key in run:
            if not isinstance(run[key], str):
                raise ConfigError(f"{path}: {key} must be a path string")
            run[key] = str(base / run[key])
    for key in _SECTION_KEYS:
        if key in run and not isinstance(run[key], dict):
            raise ConfigError(f"{path}: {key} must be an object")
    return run


def _require(run: dict, key: str) -> str:
    if key not in run:
        raise ConfigError(f"config is missing required key {key!r}")
    return run[key]


def _output_path(args, run: dict, key: str) -> str:
    if args.out:
        return args.out
    return _require(run, key)


def _model_config(run: dict, args) -> ModelConfig:
    section = dict(run.get("model", {}))
    if args.variant:
        section["variant"] = args.variant
        if args.layers is None:
            section.pop("n_layers", None)
    if args.layers is not None:
        section["n_layers"] = args.layers
    if args.no_interaction:
        section["interaction"] = False
    if args.no_entity_features_in_re:
        section["entity_features_in_re"] = False
    if args.match:
        section["match_mode"] = args.match
    if args.seed is not None:
        section["seed"] = args.seed
    return ModelConfig.from_json(section)


def _section(run: dict, key: str, known) -> dict:
    """A copy of the config's `key` section, whose keys must be in `known`
    (a dataclass's fields, or names)."""
    section = dict(run.get(key, {}))
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {key} keys {sorted(unknown)}")
    return section


def _train_config(run: dict, args) -> TrainConfig:
    section = _section(run, "train", TrainConfig.__dataclass_fields__)
    if args.seed is not None:
        section["seed"] = args.seed
    return TrainConfig(**section)


def _loss_weights(run: dict) -> LossWeights:
    return LossWeights(**_section(run, "loss",
                                  LossWeights.__dataclass_fields__))


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    run = _load_run_config(args.config)
    model_config = _model_config(run, args)
    train_config = _train_config(run, args)
    weights = _loss_weights(run)
    schema = LabelSchema.load(_require(run, "schema"))
    corpus = load_corpus(_require(run, "train_corpus"), schema,
                         model_config.match_mode)
    vocab = Vocabulary.from_corpus(corpus)
    model = JointModel(model_config, schema, vocab)
    history = train(model, corpus, train_config, weights)
    checkpoint_path = _output_path(args, run, "checkpoint")
    # the history first, so that a failed write leaves the old checkpoint
    if "history" in run:
        save_history(run["history"], history)
    save_checkpoint(checkpoint_path, model)
    final = f"{history[-1]:.6f}" if history else "n/a"
    print(f"trained {model_config.variant} on {len(corpus)} sentences for "
          f"{train_config.epochs} epochs; final mean loss {final}")
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    run = _load_run_config(args.config)
    model = load_checkpoint(_require(run, "checkpoint"))
    if "schema" in run and LabelSchema.load(run["schema"]) != model.schema:
        raise ConfigError("schema file does not match the checkpoint schema")
    scoring_mode = (MatchMode.parse(args.match) if args.match
                    else model.config.match_mode)
    corpus = load_corpus(_require(run, "test_corpus"), model.schema,
                         model.config.match_mode)
    report = evaluate_corpus(corpus, model.predict_corpus(corpus),
                             model.schema, scoring_mode)
    report_path = _output_path(args, run, "report")
    write_json(report_path, report, indent=2)
    print(f"evaluated {len(corpus)} sentences ({scoring_mode.value} match): "
          f"ner F1 {report['ner']['micro']['f1']:.4f}, "
          f"re F1 {report['re']['micro']['f1']:.4f}")
    print(f"report: {report_path}")
    return 0


def _prediction_sentence(model: JointModel, tokens) -> Sentence:
    schema = model.schema
    mode = model.config.match_mode
    pred = model.predict_tokens(tokens)
    entities = [Entity(i, j, schema.entity_types[k])
                for i, j, k in sorted(pred.entities)]
    by_anchor: dict[int, list[int]] = {}
    for idx, entity in enumerate(entities):
        by_anchor.setdefault(relation_anchor(entity, mode), []).append(idx)
    relations = set()
    for i, m, k in sorted(pred.relations):
        # a relation cell names the anchor pair; emit every entity pair it
        # can anchor to, and drop cells with no predicted entity at an end
        for subject in by_anchor.get(i, ()):
            for obj in by_anchor.get(m, ()):
                relations.add((subject, obj, schema.relation_types[k]))
    return Sentence(tuple(tokens), tuple(entities),
                    tuple(Relation(*r) for r in sorted(relations)), mode)


def cmd_predict(args) -> int:
    run = _load_run_config(args.config)
    model = load_checkpoint(_require(run, "checkpoint"))
    sentences = load_corpus(_require(run, "input_corpus"), model.schema,
                            model.config.match_mode)
    predicted = [_prediction_sentence(model, s.tokens) for s in sentences]
    out_path = _output_path(args, run, "predictions")
    save_corpus(out_path, predicted)
    print(f"predicted {len(predicted)} sentences")
    print(f"predictions: {out_path}")
    return 0


def _grids(run: dict) -> dict:
    """The grid section's value lists, each a non-empty subset of its full
    grid; a missing key sweeps the full grid."""
    section = _section(run, "grid", _GRIDS)
    grids = {}
    for key, allowed in _GRIDS.items():
        values = section.get(key, list(allowed))
        # True == 1.0, so a boolean would pass the membership test
        if (not isinstance(values, list) or not values
                or any(isinstance(v, bool) or v not in allowed
                       for v in values)):
            raise ConfigError(f"grid.{key} must be a non-empty subset of "
                              f"{list(allowed)}")
        grids[key] = tuple(values)
    return grids


def cmd_gridsearch(args) -> int:
    run = _load_run_config(args.config)
    model_config = _model_config(run, args)
    train_config = _train_config(run, args)
    grids = _grids(run)
    schema = LabelSchema.load(_require(run, "schema"))
    train_corpus = load_corpus(_require(run, "train_corpus"), schema,
                               model_config.match_mode)
    dev_corpus = load_corpus(_require(run, "dev_corpus"), schema,
                             model_config.match_mode)
    if not dev_corpus:
        raise ConfigError("gridsearch needs a non-empty dev corpus")
    vocab = Vocabulary.from_corpus(train_corpus)
    result = grid_search(model_config, schema, vocab, train_corpus,
                         dev_corpus, train_config, **grids)
    out_path = _output_path(args, run, "grid_results")
    write_json(out_path, result.to_json(), indent=2)
    best = result.best
    print(f"swept {len(result.points)} grid points; best alpha={best.alpha} "
          f"beta={best.beta} gamma={best.gamma} delta={best.delta} "
          f"(dev re F1 {best.re_f1:.4f}, ner F1 {best.ner_f1:.4f})")
    print(f"results: {out_path}")
    return 0


# ---------------------------------------------------------------------------
# wiring


_COMMANDS = {
    "train": (cmd_train, "fit a model and write a checkpoint"),
    "eval": (cmd_eval, "score a checkpoint on a labeled corpus"),
    "predict": (cmd_predict, "decode a corpus and write predictions"),
    "gridsearch": (cmd_gridsearch,
                   "sweep mixing and loss weights on a dev corpus"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darter",
        description="joint entity and relation extraction at desk scale")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True,
                         help="JSON run configuration")
        sub.add_argument("--seed", type=int,
                         help="override model and shuffle seeds")
        sub.add_argument("--variant", choices=VARIANTS,
                         help="override the model variant (train commands)")
        sub.add_argument("--layers", type=int, dest="layers",
                         help="override the number of recurrent layers")
        sub.add_argument("--no-interaction", action="store_true",
                         help="disable cross-subtask mixing in the recurrence")
        sub.add_argument("--no-entity-features-in-re", action="store_true",
                         help="decode relations without entity streams")
        sub.add_argument("--match", choices=[m.value for m in MatchMode],
                         help="span matching: annotation mode when training, "
                              "scoring mode when evaluating")
        sub.add_argument("--out", help="override the command's output path")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusError, ContractError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
