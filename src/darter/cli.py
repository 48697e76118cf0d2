"""Command-line entry point: train, eval, predict, and gridsearch.

Each command reads a JSON config file naming its input and output paths plus
optional ``model``, ``train``, ``loss``, and ``grid`` sections; a command
takes only the flags it reads, each overriding one field, and an error names
the config file and the section.  Relative paths in the config resolve against
the config file's directory.  Exit codes: 0 success, 1 runtime failure
(divergence, failed writes), 2 configuration or validation failure,
including an input path that cannot be read.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .autodiff import ContractError
from .corpus import (CorpusError, Entity, InputError, LabelSchema,
                     MatchMode, Relation, Sentence, Vocabulary, load_corpus,
                     read_json, relation_anchor, save_corpus, write_json)
from .decoders import ALPHA_BETA_GRID
from .evaluation import evaluate_corpus
from .model import (ConfigError, JointModel, ModelConfig, VARIANTS,
                    check_size)
from .training import (GAMMA_DELTA_GRID, LossWeights, TrainConfig,
                       TrainingDiverged, checked, grid_search,
                       load_checkpoint, save_checkpoint, save_history, train)

__all__ = ["build_parser", "main"]

_PATH_KEYS = ("schema", "train_corpus", "dev_corpus", "test_corpus",
              "input_corpus", "checkpoint", "history", "report",
              "predictions", "grid_results")
# the keys of the grid section, each with the full grid it may narrow
_GRIDS = {"alphas": ALPHA_BETA_GRID, "betas": ALPHA_BETA_GRID,
          "gammas": GAMMA_DELTA_GRID, "deltas": GAMMA_DELTA_GRID}
# each section with the keys it may hold, checked by every command
_SECTIONS = {"model": ModelConfig.__dataclass_fields__,
             "train": TrainConfig.__dataclass_fields__,
             "loss": LossWeights.__dataclass_fields__, "grid": _GRIDS}


def _load_run_config(path) -> dict:
    run = read_json(path, ConfigError)
    if not isinstance(run, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = set(run) - set(_PATH_KEYS) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    base = Path(path).parent
    for key in _PATH_KEYS:
        if key in run:
            if not isinstance(run[key], str):
                raise ConfigError(f"{path}: {key} must be a path string")
            run[key] = str(base / run[key])
    for key, known in _SECTIONS.items():
        section = run.get(key, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: {key} must be an object")
        unknown = set(section) - set(known)
        if unknown:
            raise ConfigError(f"{path}: unknown {key} keys {sorted(unknown)}")
    return run


def _require(args, run: dict, key: str) -> str:
    if key not in run:
        raise ConfigError(f"{args.config}: missing required key {key!r}")
    return run[key]


def _output_path(args, run: dict, key: str) -> str:
    return args.out or _require(args, run, key)


def _section(args, run: dict, key: str, make, **flags):
    """make(**section) for the run config's `key` section, with the flags
    that were given set over it. Every error names the config file and the
    section."""
    section = dict(run.get(key, {}))
    section.update((k, v) for k, v in flags.items() if v is not None)
    return checked(f"{args.config}: {key}", make, **section)


def _model_config(args, run: dict) -> ModelConfig:
    def make(**section):
        if args.variant and args.layers is None:
            section["n_layers"] = None  # the variant's own depth
        return ModelConfig.from_json(section)
    return _section(args, run, "model", make, variant=args.variant,
                    n_layers=args.layers, interaction=args.interaction,
                    entity_features_in_re=args.entity_features_in_re,
                    match_mode=args.match, seed=args.seed)


def _train_config(args, run: dict) -> TrainConfig:
    return _section(args, run, "train", TrainConfig, seed=args.seed)


def _corpus(args, run: dict, key: str, schema, config: ModelConfig) -> list:
    """The corpus at the run config's `key`, which must not be empty."""
    corpus = load_corpus(_require(args, run, key), schema, config.match_mode)
    if not corpus:
        kind = "training" if key == "train_corpus" else "dev"
        raise ConfigError(f"{run[key]}: {args.command} needs a non-empty "
                          f"{kind} corpus")
    return corpus


# ---------------------------------------------------------------------------
# commands


def cmd_train(args, run: dict) -> int:
    model_config = _model_config(args, run)
    train_config = _train_config(args, run)
    weights = _section(args, run, "loss", LossWeights)
    schema = LabelSchema.load(_require(args, run, "schema"))
    corpus = _corpus(args, run, "train_corpus", schema, model_config)
    vocab = Vocabulary.from_corpus(corpus)
    model = checked(f"{args.config}: model", JointModel, model_config, schema,
                    vocab)
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


def cmd_eval(args, run: dict) -> int:
    model = load_checkpoint(_require(args, run, "checkpoint"))
    if "schema" in run and LabelSchema.load(run["schema"]) != model.schema:
        raise ConfigError(f"{run['schema']}: schema file does not match the "
                          f"schema of {run['checkpoint']}")
    scoring_mode = (MatchMode.parse(args.match) if args.match
                    else model.config.match_mode)
    corpus = load_corpus(_require(args, run, "test_corpus"), model.schema,
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


def cmd_predict(args, run: dict) -> int:
    model = load_checkpoint(_require(args, run, "checkpoint"))
    sentences = load_corpus(_require(args, run, "input_corpus"),
                            model.schema, model.config.match_mode)
    predicted = [_prediction_sentence(model, s.tokens) for s in sentences]
    out_path = _output_path(args, run, "predictions")
    save_corpus(out_path, predicted)
    print(f"predicted {len(predicted)} sentences")
    print(f"predictions: {out_path}")
    return 0


def _grids(**section) -> dict:
    """The grid section's value lists, each a non-empty subset of its full
    grid with no value repeated; a missing key sweeps the full grid."""
    grids = {}
    for key, allowed in _GRIDS.items():
        values = section.get(key, list(allowed))
        # True == 1.0, so a boolean would pass the membership test
        if (not isinstance(values, list) or not values
                or any(isinstance(v, bool) or v not in allowed
                       for v in values)
                or len(set(values)) != len(values)):
            raise ConfigError(f"grid.{key} must be a non-empty subset of "
                              f"{list(allowed)}")
        grids[key] = tuple(values)
    return grids


def cmd_gridsearch(args, run: dict) -> int:
    model_config = _model_config(args, run)
    train_config = _train_config(args, run)
    grids = _section(args, run, "grid", _grids)
    schema = LabelSchema.load(_require(args, run, "schema"))
    train_corpus, dev_corpus = (_corpus(args, run, key, schema, model_config)
                                for key in ("train_corpus", "dev_corpus"))
    vocab = Vocabulary.from_corpus(train_corpus)
    checked(f"{args.config}: model", check_size, model_config, schema, vocab)
    result = grid_search(model_config, schema, vocab, train_corpus,
                         dev_corpus, train_config, **grids)
    out_path = _output_path(args, run, "grid_results")
    write_json(out_path, asdict(result), indent=2)
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
        if name in ("train", "gridsearch"):
            sub.add_argument("--seed", type=int,
                             help="override model and shuffle seeds")
            sub.add_argument("--variant", choices=VARIANTS,
                             help="override the model variant")
            sub.add_argument("--layers", type=int,
                             help="override the number of recurrent layers")
            # store_false over None: a flag left out overrides nothing
            sub.add_argument("--no-interaction", dest="interaction",
                             action="store_false", default=None,
                             help="disable cross-subtask mixing in the "
                                  "recurrence")
            sub.add_argument("--no-entity-features-in-re",
                             dest="entity_features_in_re",
                             action="store_false", default=None,
                             help="decode relations without entity streams")
        if name != "predict":
            sub.add_argument("--match", choices=[m.value for m in MatchMode],
                             help="span matching: annotation mode when "
                                  "training, scoring mode when evaluating")
        sub.add_argument("--out", help="override the command's output path")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_run_config(args.config))
    except (ConfigError, CorpusError, ContractError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
