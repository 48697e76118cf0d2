"""Command-line workflows: exit codes, file outputs, determinism."""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from darter.cli import main
from darter.corpus import (Entity, LabelSchema, MatchMode, Relation,
                           Sentence, Vocabulary, load_corpus, save_corpus)
from darter.model import JointModel, ModelConfig
from darter.training import TrainingDiverged, load_checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = LabelSchema(("per", "org"), ("works",))


def sent(tokens, entities=(), relations=()):
    return Sentence(tuple(tokens), tuple(Entity(*e) for e in entities),
                    tuple(Relation(*r) for r in relations), MatchMode.EXACT)


CORPUS = [
    sent(["ada", "runs", "acme"], [(0, 0, "per"), (2, 2, "org")],
         [(0, 1, "works")]),
    sent(["bo", "joined", "rex", "corp"], [(0, 0, "per"), (2, 3, "org")],
         [(0, 1, "works")]),
    sent(["acme", "hired", "bo"], [(0, 0, "org"), (2, 2, "per")],
         [(1, 0, "works")]),
    sent(["ada", "and", "bo", "rested"], [(0, 0, "per"), (2, 2, "per")]),
]


def setup_tree(tmp_path, corpus=CORPUS):
    SCHEMA.save(tmp_path / "schema.json")
    save_corpus(tmp_path / "train.jsonl", corpus)
    save_corpus(tmp_path / "dev.jsonl", corpus[:2])


def config_file(tmp_path, name="run.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


def train_entries(**over):
    entries = {
        "schema": "schema.json",
        "train_corpus": "train.jsonl",
        "checkpoint": "model.json",
        "history": "history.json",
        "model": {"d_p": 8, "d_h": 8, "seed": 3},
        "train": {"lr": 0.01, "epochs": 10, "seed": 3},
    }
    entries.update(over)
    return entries


# ---------------------------------------------------------------------------
# failure modes

def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "absent.json" in capsys.readouterr().err


def test_missing_corpus_path_names_it(tmp_path, capsys):
    setup_tree(tmp_path)
    config = config_file(tmp_path,
                         **train_entries(train_corpus="nowhere.jsonl"))
    assert main(["train", "--config", config]) == 2
    assert "nowhere.jsonl" in capsys.readouterr().err


def test_missing_required_key_is_exit_2(tmp_path, capsys):
    setup_tree(tmp_path)
    entries = train_entries()
    del entries["train_corpus"]
    config = config_file(tmp_path, **entries)
    assert main(["train", "--config", config]) == 2
    assert "train_corpus" in capsys.readouterr().err


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(learning_rate=0.1))
    assert main(["train", "--config", config]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_invalid_variant_layer_combination(tmp_path, capsys):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries())
    code = main(["train", "--config", config, "--variant", "bidarter",
                 "--layers", "3"])
    assert code == 2
    assert "2 layers" in capsys.readouterr().err


def _zero_checkpoint(tmp_path):
    setup_tree(tmp_path)
    model = JointModel(ModelConfig(d_p=8, d_h=8), SCHEMA,
                       Vocabulary.from_corpus(CORPUS))
    save_checkpoint(tmp_path / "zero.json", model)


def test_train_config_that_is_a_directory_is_exit_2(tmp_path, capsys):
    (tmp_path / "conf.d").mkdir()
    assert main(["train", "--config", str(tmp_path / "conf.d")]) == 2
    err = capsys.readouterr().err
    assert "conf.d: cannot read" in err and "Traceback" not in err


def test_eval_checkpoint_that_is_a_directory_is_exit_2(tmp_path, capsys):
    setup_tree(tmp_path)
    (tmp_path / "model.d").mkdir()
    config = config_file(tmp_path, name="eval.json", checkpoint="model.d",
                         test_corpus="train.jsonl", report="report.json")
    assert main(["eval", "--config", config]) == 2
    assert "model.d: cannot read" in capsys.readouterr().err


def test_predict_input_that_is_a_directory_is_exit_2(tmp_path, capsys):
    _zero_checkpoint(tmp_path)
    (tmp_path / "inputs.d").mkdir()
    config = config_file(tmp_path, name="predict.json",
                         checkpoint="zero.json", input_corpus="inputs.d",
                         predictions="pred.jsonl")
    assert main(["predict", "--config", config]) == 2
    assert "inputs.d: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "pred.jsonl").exists()


def test_gridsearch_schema_that_is_a_directory_is_exit_2(tmp_path, capsys):
    setup_tree(tmp_path)
    (tmp_path / "schema.d").mkdir()
    config = config_file(tmp_path, **train_entries(
        schema="schema.d", dev_corpus="dev.jsonl", grid_results="grid.json"))
    assert main(["gridsearch", "--config", config]) == 2
    assert "schema.d: cannot read" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["explode"])
    assert info.value.code == 2


def test_divergence_is_exit_1(tmp_path, capsys, monkeypatch):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries())

    def explode(*args, **kwargs):
        raise TrainingDiverged("non-finite loss at epoch 0, sentence 1")

    monkeypatch.setattr("darter.cli.train", explode)
    assert main(["train", "--config", config]) == 1
    assert "epoch 0" in capsys.readouterr().err


def test_gradient_overflow_is_exit_1(tmp_path, capsys):
    """A loss weight so large that Adam's squared gradient overflows stops
    training with exit 1 naming the epoch and sentence: no numpy warning,
    no checkpoint and no history."""
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        loss={"gamma": 1e300, "delta": 1.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", config]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: gradient overflow in the Adam step at "
                        r"epoch 0, sentence \d+\n", err), err
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "history.json").exists()


def test_history_into_a_missing_directory_is_exit_1(tmp_path, capsys):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        history=os.path.join("nodir", "history.json"),
        train={"lr": 0.01, "epochs": 1, "seed": 3}))
    assert main(["train", "--config", config]) == 1
    err = capsys.readouterr().err
    assert os.path.join("nodir", "history.json: cannot write") in err
    assert ".tmp" not in err and "Traceback" not in err
    assert not (tmp_path / "nodir").exists()


def test_failed_history_write_keeps_the_old_checkpoint(tmp_path, capsys):
    setup_tree(tmp_path)
    old = main(["train", "--config", config_file(tmp_path, **train_entries(
        train={"lr": 0.01, "epochs": 1, "seed": 3}))])
    assert old == 0
    before = (tmp_path / "model.json").read_bytes()
    config = config_file(tmp_path, name="again.json", **train_entries(
        history=os.path.join("nodir", "history.json"),
        train={"lr": 0.01, "epochs": 2, "seed": 4}))
    assert main(["train", "--config", config]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert (tmp_path / "model.json").read_bytes() == before


def test_report_into_a_missing_directory_is_exit_1(tmp_path, capsys):
    _zero_checkpoint(tmp_path)
    config = config_file(tmp_path, name="eval.json", checkpoint="zero.json",
                         test_corpus="train.jsonl",
                         report=os.path.join("nodir", "report.json"))
    assert main(["eval", "--config", config]) == 1
    err = capsys.readouterr().err
    assert os.path.join("nodir", "report.json: cannot write") in err
    assert ".tmp" not in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# train

def test_train_writes_outputs(tmp_path, capsys):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries())
    assert main(["train", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "final mean loss" in out
    model = load_checkpoint(tmp_path / "model.json")
    assert model.config.d_h == 8
    history = json.loads((tmp_path / "history.json").read_text())
    assert len(history["epoch_mean_loss"]) == 10


def test_train_is_deterministic(tmp_path):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries())
    for run in ("a", "b"):
        assert main(["train", "--config", config, "--out",
                     str(tmp_path / f"model_{run}.json")]) == 0
    assert (tmp_path / "model_a.json").read_bytes() == \
        (tmp_path / "model_b.json").read_bytes()
    # history is rewritten each run with the same content
    history = json.loads((tmp_path / "history.json").read_text())
    assert len(history["epoch_mean_loss"]) == 10


def test_seed_override_changes_the_fit(tmp_path):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries())
    main(["train", "--config", config, "--seed", "1",
          "--out", str(tmp_path / "s1.json")])
    main(["train", "--config", config, "--seed", "2",
          "--out", str(tmp_path / "s2.json")])
    assert (tmp_path / "s1.json").read_bytes() != \
        (tmp_path / "s2.json").read_bytes()


def test_ablation_flags_reach_the_checkpoint(tmp_path):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries())
    assert main(["train", "--config", config, "--variant", "bidarter",
                 "--no-interaction", "--no-entity-features-in-re"]) == 0
    model = load_checkpoint(tmp_path / "model.json")
    assert model.config.variant == "bidarter"
    assert model.config.n_layers == 2
    assert model.config.interaction is False
    assert model.config.entity_features_in_re is False


def test_tail_mode_training_rejects_wide_spans(tmp_path, capsys):
    setup_tree(tmp_path)  # corpus has a two-token span
    config = config_file(tmp_path, **train_entries())
    assert main(["train", "--config", config, "--match", "tail"]) == 2
    assert "single-token" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval

def trained_model_path(tmp_path, epochs=10):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        train={"lr": 0.01, "epochs": epochs, "seed": 3}))
    assert main(["train", "--config", config]) == 0
    return config


def test_eval_writes_report(tmp_path, capsys):
    trained_model_path(tmp_path)
    config = config_file(tmp_path, name="eval.json",
                         checkpoint="model.json", test_corpus="train.jsonl",
                         report="report.json")
    assert main(["eval", "--config", config]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_sentences"] == len(CORPUS)
    assert report["match_mode"] == "exact"
    assert {"micro", "macro_f1", "per_type"} <= set(report["ner"])
    assert {"oot", "it", "error_taxonomy"} <= set(report)


def test_eval_match_flag_flips_report_metadata(tmp_path):
    trained_model_path(tmp_path)
    config = config_file(tmp_path, name="eval.json",
                         checkpoint="model.json", test_corpus="train.jsonl",
                         report="report.json")
    assert main(["eval", "--config", config, "--match", "tail"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["match_mode"] == "tail"


def test_eval_empty_corpus_gives_zero_report(tmp_path):
    trained_model_path(tmp_path)
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    config = config_file(tmp_path, name="eval.json",
                         checkpoint="model.json", test_corpus="empty.jsonl",
                         report="report.json")
    assert main(["eval", "--config", config]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_sentences"] == 0
    assert report["ner"]["micro"]["f1"] == 0.0


def test_eval_schema_mismatch_is_exit_2(tmp_path, capsys):
    trained_model_path(tmp_path)
    LabelSchema(("thing",), ("links",)).save(tmp_path / "other_schema.json")
    config = config_file(tmp_path, name="eval.json",
                         checkpoint="model.json", schema="other_schema.json",
                         test_corpus="train.jsonl", report="report.json")
    assert main(["eval", "--config", config]) == 2
    assert "schema" in capsys.readouterr().err


def test_eval_foreign_labels_are_exit_2(tmp_path, capsys):
    trained_model_path(tmp_path)
    # corpus with a label outside the checkpoint schema
    raw = {"tokens": ["x"],
           "entities": [{"start": 0, "end": 0, "type": "galaxy"}],
           "relations": []}
    (tmp_path / "foreign.jsonl").write_text(json.dumps(raw) + "\n",
                                            encoding="utf-8")
    config = config_file(tmp_path, name="eval.json",
                         checkpoint="model.json", test_corpus="foreign.jsonl",
                         report="report.json")
    assert main(["eval", "--config", config]) == 2
    assert "galaxy" in capsys.readouterr().err


def test_eval_checkpoint_with_null_parameter_is_exit_2(tmp_path, capsys):
    setup_tree(tmp_path)
    model = JointModel(ModelConfig(d_p=8, d_h=8), SCHEMA,
                       Vocabulary.from_corpus(CORPUS))
    save_checkpoint(tmp_path / "model.json", model)
    obj = json.loads((tmp_path / "model.json").read_text())
    obj["params"]["re.b_out"]["data"][0] = None
    (tmp_path / "model.json").write_text(json.dumps(obj))
    config = config_file(tmp_path, name="eval.json",
                         checkpoint="model.json", test_corpus="train.jsonl",
                         report="report.json")
    assert main(["eval", "--config", config]) == 2
    assert "model.json: params.re.b_out" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# predict

def test_predict_zero_model_is_all_empty(tmp_path):
    setup_tree(tmp_path)
    vocab = Vocabulary.from_corpus(CORPUS)
    model = JointModel(ModelConfig(d_p=8, d_h=8), SCHEMA, vocab)
    model.store.zero_all()
    save_checkpoint(tmp_path / "zero.json", model)
    config = config_file(tmp_path, name="predict.json",
                         checkpoint="zero.json", input_corpus="train.jsonl",
                         predictions="pred.jsonl")
    assert main(["predict", "--config", config]) == 0
    lines = [json.loads(line) for line
             in (tmp_path / "pred.jsonl").read_text().splitlines()]
    assert len(lines) == len(CORPUS)
    assert all(line["entities"] == [] and line["relations"] == []
               for line in lines)
    # output is valid corpus input
    loaded = load_corpus(tmp_path / "pred.jsonl", SCHEMA)
    assert [s.tokens for s in loaded] == [s.tokens for s in CORPUS]


def test_predict_recovers_overfit_sentence(tmp_path):
    target = CORPUS[0]
    setup_tree(tmp_path, corpus=[target])
    config = config_file(tmp_path, **train_entries(
        train={"lr": 0.01, "epochs": 150, "seed": 3},
        model={"d_p": 8, "d_h": 8, "seed": 7}))
    assert main(["train", "--config", config]) == 0
    predict_config = config_file(tmp_path, name="predict.json",
                                 checkpoint="model.json",
                                 input_corpus="train.jsonl",
                                 predictions="pred.jsonl")
    assert main(["predict", "--config", predict_config]) == 0
    line = json.loads((tmp_path / "pred.jsonl").read_text().splitlines()[0])
    assert line["tokens"] == list(target.tokens)
    assert line["entities"] == [
        {"start": 0, "end": 0, "type": "per"},
        {"start": 2, "end": 2, "type": "org"},
    ]
    assert line["relations"] == [
        {"subject": 0, "object": 1, "type": "works"},
    ]


def test_predict_accepts_unlabeled_input(tmp_path):
    setup_tree(tmp_path)
    vocab = Vocabulary.from_corpus(CORPUS)
    model = JointModel(ModelConfig(d_p=8, d_h=8), SCHEMA, vocab)
    model.store.zero_all()
    save_checkpoint(tmp_path / "zero.json", model)
    (tmp_path / "plain.jsonl").write_text(
        '{"tokens": ["hello", "there"]}\n', encoding="utf-8")
    config = config_file(tmp_path, name="predict.json",
                         checkpoint="zero.json", input_corpus="plain.jsonl",
                         predictions="pred.jsonl")
    assert main(["predict", "--config", config]) == 0


def test_predict_rejects_raw_text_input(tmp_path, capsys):
    setup_tree(tmp_path)
    vocab = Vocabulary.from_corpus(CORPUS)
    model = JointModel(ModelConfig(d_p=8, d_h=8), SCHEMA, vocab)
    save_checkpoint(tmp_path / "zero.json", model)
    (tmp_path / "raw.jsonl").write_text('"just a string of text"\n',
                                        encoding="utf-8")
    config = config_file(tmp_path, name="predict.json",
                         checkpoint="zero.json", input_corpus="raw.jsonl",
                         predictions="pred.jsonl")
    assert main(["predict", "--config", config]) == 2
    assert "object" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gridsearch

def test_gridsearch_single_point(tmp_path, capsys):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        dev_corpus="dev.jsonl", grid_results="grid.json",
        grid={"alphas": [0.5], "betas": [1.0], "gammas": [0.85],
              "deltas": [1.0]},
        train={"lr": 0.01, "epochs": 2, "seed": 3}))
    assert main(["gridsearch", "--config", config]) == 0
    result = json.loads((tmp_path / "grid.json").read_text())
    assert len(result["points"]) == 1
    best = result["best"]
    assert (best["alpha"], best["beta"], best["gamma"], best["delta"]) == \
        (0.5, 1.0, 0.85, 1.0)
    assert "swept 1 grid points" in capsys.readouterr().out


def test_gridsearch_best_matches_rescoring(tmp_path):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        dev_corpus="dev.jsonl", grid_results="grid.json",
        grid={"alphas": [1.0, -1.0], "betas": [1.0], "gammas": [1.0],
              "deltas": [1.0]},
        train={"lr": 0.01, "epochs": 3, "seed": 3}))
    assert main(["gridsearch", "--config", config]) == 0
    result = json.loads((tmp_path / "grid.json").read_text())
    best = result["best"]

    from darter.evaluation import evaluate_corpus
    from darter.training import LossWeights, TrainConfig, train as fit
    schema = LabelSchema.load(tmp_path / "schema.json")
    train_corpus = load_corpus(tmp_path / "train.jsonl", schema)
    dev_corpus = load_corpus(tmp_path / "dev.jsonl", schema)
    vocab = Vocabulary.from_corpus(train_corpus)
    model = JointModel(ModelConfig(d_p=8, d_h=8, seed=3,
                                   alpha=best["alpha"], beta=best["beta"]),
                       schema, vocab)
    fit(model, train_corpus, TrainConfig(lr=0.01, epochs=3, seed=3),
        LossWeights(gamma=best["gamma"], delta=best["delta"]))
    report = evaluate_corpus(dev_corpus, model.predict_corpus(dev_corpus),
                             schema, MatchMode.EXACT)
    assert report["re"]["micro"]["f1"] == best["re_f1"]
    assert report["ner"]["micro"]["f1"] == best["ner_f1"]


def test_gridsearch_rejects_off_grid_values(tmp_path, capsys):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        dev_corpus="dev.jsonl", grid_results="grid.json",
        grid={"alphas": [0.25]}))
    assert main(["gridsearch", "--config", config]) == 2
    assert "alphas" in capsys.readouterr().err


def test_gridsearch_rejects_unknown_grid_keys(tmp_path, capsys):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        dev_corpus="dev.jsonl", grid_results="grid.json",
        grid={"alpha": [1.0]}, train={"lr": 0.01, "epochs": 1, "seed": 3}))
    assert main(["gridsearch", "--config", config]) == 2
    assert "unknown grid keys ['alpha']" in capsys.readouterr().err
    assert not (tmp_path / "grid.json").exists()


@pytest.mark.parametrize("key", ["alphas", "betas", "gammas", "deltas"])
def test_gridsearch_boolean_grid_value_names_the_grid_key(tmp_path, capsys,
                                                         key):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        dev_corpus="dev.jsonl", grid_results="grid.json",
        grid={key: [True]}, train={"lr": 0.01, "epochs": 1, "seed": 3}))
    assert main(["gridsearch", "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"grid.{key} must be a non-empty subset" in err
    assert "must be a number" not in err


@pytest.mark.parametrize("values", [[1.0, 1.0], [1, 1.0], [[1.0], [1.0]]])
@pytest.mark.parametrize("key", ["alphas", "betas", "gammas", "deltas"])
def test_gridsearch_rejects_a_repeated_grid_value(tmp_path, capsys, key,
                                                  values):
    """A repeated value would train the same point twice; an unhashable
    one still gets the membership message, not a traceback."""
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        dev_corpus="dev.jsonl", grid_results="grid.json",
        grid={key: values}, train={"lr": 0.01, "epochs": 1, "seed": 3}))
    assert main(["gridsearch", "--config", config]) == 2
    assert f"grid.{key} must be a non-empty subset" in capsys.readouterr().err
    assert not (tmp_path / "grid.json").exists()


# ---------------------------------------------------------------------------
# atomic outputs

def _fail_json_dump_partway(monkeypatch):
    def failing_dump(obj, handle, **kwargs):
        handle.write('{"ner": {"micro": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)


def test_eval_report_write_failure_keeps_the_previous_file(tmp_path,
                                                           monkeypatch):
    trained_model_path(tmp_path, epochs=2)
    config = config_file(tmp_path, name="eval.json",
                         checkpoint="model.json", test_corpus="train.jsonl",
                         report="report.json")
    assert main(["eval", "--config", config]) == 0
    before = (tmp_path / "report.json").read_bytes()
    names = sorted(os.listdir(tmp_path))
    _fail_json_dump_partway(monkeypatch)
    assert main(["eval", "--config", config]) == 1
    assert (tmp_path / "report.json").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == names


def test_grid_results_write_failure_keeps_the_previous_file(tmp_path,
                                                            monkeypatch):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        dev_corpus="dev.jsonl", grid_results="grid.json",
        grid={"alphas": [1.0], "betas": [1.0], "gammas": [1.0],
              "deltas": [1.0]},
        train={"lr": 0.01, "epochs": 1, "seed": 3}))
    assert main(["gridsearch", "--config", config]) == 0
    before = (tmp_path / "grid.json").read_bytes()
    names = sorted(os.listdir(tmp_path))
    _fail_json_dump_partway(monkeypatch)
    assert main(["gridsearch", "--config", config]) == 1
    assert (tmp_path / "grid.json").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == names


# ---------------------------------------------------------------------------
# config field types and file encodings

@pytest.mark.parametrize("section,key,value,message", [
    ("model", "d_p", "4", "d_p must be a number, got '4'"),
    ("model", "d_p", 4.5, "d_p must be an integer, got 4.5"),
    ("model", "alpha", True, "alpha must be a number, got True"),
    ("model", "seed", "x", "seed must be a number, got 'x'"),
    ("model", "interaction", "no", "interaction must be true or false"),
    ("train", "epochs", 1.5, "epochs must be an integer, got 1.5"),
    ("train", "lr", "x", "lr must be a number, got 'x'"),
    ("train", "batch_size", True, "batch_size must be a number, got True"),
    ("train", "seed", "x", "seed must be a number, got 'x'"),
    ("loss", "gamma", float("nan"), "gamma must be finite, got nan"),
    ("loss", "delta", float("inf"), "delta must be finite, got inf"),
])
def test_bad_config_field_type_is_exit_2(tmp_path, capsys, section, key,
                                         value, message):
    setup_tree(tmp_path)
    entries = train_entries()
    entries.setdefault(section, {})[key] = value
    config = config_file(tmp_path, **entries)
    assert main(["train", "--config", config]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "unknown" not in err
    assert not (tmp_path / "model.json").exists()


def test_integral_float_sizes_are_accepted_as_integers(tmp_path):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        model={"d_p": 8.0, "d_h": 8, "seed": 3},
        train={"lr": 0.01, "epochs": 2.0, "seed": 3}))
    assert main(["train", "--config", config]) == 0
    saved = json.loads((tmp_path / "model.json").read_text())["config"]
    assert saved["d_p"] == 8 and isinstance(saved["d_p"], int)


NOT_UTF8 = b'{"tokens": ["caf\xe9"]}\n'


@pytest.mark.parametrize("name", ["run.json", "schema.json", "train.jsonl"])
def test_non_utf8_train_input_is_exit_2(tmp_path, capsys, name):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries())
    (tmp_path / name).write_bytes(NOT_UTF8)
    assert main(["train", "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"{name}: not UTF-8 text" in err


def test_non_utf8_checkpoint_is_exit_2(tmp_path, capsys):
    setup_tree(tmp_path)
    (tmp_path / "model.json").write_bytes(NOT_UTF8)
    config = config_file(tmp_path, checkpoint="model.json",
                         test_corpus="dev.jsonl", report="report.json")
    assert main(["eval", "--config", config]) == 2
    assert "model.json: not UTF-8 text" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run-config errors name the file; each command takes only its own flags

@pytest.mark.parametrize("entries,message", [
    ([1, 2], "expected a JSON object"),
    ({"schema": 5}, "schema must be a path string"),
    ({"train": [1]}, "train must be an object"),
])
def test_malformed_run_config_names_the_file(tmp_path, capsys, entries,
                                             message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command,over,message", [
    ("train", {"train": {"lr": "x"}},
     "train: lr must be a number, got 'x'"),
    ("train", {"model": {"d_pp": 3}}, "unknown model keys ['d_pp']"),
    ("train", {"loss": {"gama": 1.0}}, "unknown loss keys ['gama']"),
    ("train", {"model": {"match_mode": "head"}}, "model: unknown match mode"),
    ("gridsearch", {"dev_corpus": "dev.jsonl", "grid_results": "grid.json",
                    "grid": {"alpha": [1.0]}}, "unknown grid keys ['alpha']"),
    ("gridsearch", {"dev_corpus": "dev.jsonl", "grid_results": "grid.json",
                    "grid": {"gammas": [2.0]}},
     "grid: grid.gammas must be a non-empty subset"),
    ("train", {"train": {"clamp_eps": 1e-7}},
     "unknown train keys ['clamp_eps']"),
])
def test_section_errors_name_the_config_and_the_section(tmp_path, capsys,
                                                        command, over,
                                                        message):
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(**over))
    assert main([command, "--config", config]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: {message}")


@pytest.mark.parametrize("section,message", [
    ({"train": {"lrr": 1}}, "unknown train keys ['lrr']"),
    ({"model": {"d_pp": 1}}, "unknown model keys ['d_pp']"),
])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_every_command_checks_every_present_section(tmp_path, capsys,
                                                    command, section,
                                                    message):
    """A misspelt key in a config that all four commands share stops eval
    and predict too, though neither reads the section."""
    _zero_checkpoint(tmp_path)
    config = config_file(tmp_path, checkpoint="zero.json",
                         test_corpus="dev.jsonl", input_corpus="dev.jsonl",
                         report="report.json", predictions="pred.jsonl",
                         **section)
    assert main([command, "--config", config]) == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("command", ["train", "gridsearch"])
@pytest.mark.parametrize("field,value", [("d_p", 10 ** 30),
                                         ("n_layers", 10 ** 20)])
def test_a_model_too_large_to_build_is_exit_2(tmp_path, capsys, command,
                                              field, value):
    """The parameter count is checked before anything is allocated: d_p =
    10^30 used to escape as numpy's ValueError, and n_layers = 10^20 to
    register layers until killed."""
    setup_tree(tmp_path)
    config = config_file(tmp_path, **train_entries(
        model={"d_p": 8, "d_h": 8, "seed": 3, field: value},
        dev_corpus="dev.jsonl", grid_results="grid.json"))
    assert main([command, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: model: d_p = ")
    assert f"{field} = {value}" in err and "more than the limit" in err
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "grid.json").exists()


BEYOND_FLOAT = 10 ** 400   # a JSON integer no float64 holds


@pytest.mark.parametrize("section,key", [
    *(("model", key) for key in ("n_layers", "d_p", "d_h", "seed", "alpha",
                                 "beta")),
    *(("train", key) for key in ("lr", "epochs", "batch_size", "seed")),
    *(("loss", key) for key in ("gamma", "delta")),
])
def test_a_run_config_integer_beyond_float_range_is_exit_2(tmp_path, capsys,
                                                           section, key):
    """Used to escape as OverflowError from math.isfinite."""
    setup_tree(tmp_path)
    entries = train_entries()
    entries.setdefault(section, {})[key] = BEYOND_FLOAT
    config = config_file(tmp_path, **entries)
    assert main(["train", "--config", config]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: {section}: {key} must be finite, got an integer "
        f"beyond float range\n")
    assert not (tmp_path / "model.json").exists()


def _edited_checkpoint(tmp_path, edit) -> str:
    """A zero model's checkpoint after edit(obj), and an eval config that
    reads it."""
    _zero_checkpoint(tmp_path)
    obj = json.loads((tmp_path / "zero.json").read_text())
    edit(obj)
    (tmp_path / "zero.json").write_text(json.dumps(obj))
    return config_file(tmp_path, checkpoint="zero.json",
                       test_corpus="dev.jsonl", input_corpus="dev.jsonl",
                       report="report.json", predictions="pred.jsonl")


@pytest.mark.parametrize("field,edit,message", [
    ("config", lambda obj: obj["config"].update(d_p=BEYOND_FLOAT),
     "config: d_p must be finite, got an integer beyond float range"),
    ("config", lambda obj: obj["config"].update(alpha=-BEYOND_FLOAT),
     "config: alpha must be finite, got an integer beyond float range"),
    ("data", lambda obj: obj["params"]["re.w_out"]["data"].__setitem__(
        0, BEYOND_FLOAT),
     "params.re.w_out: int too large to convert to float"),
], ids=["config.d_p", "config.alpha", "params.data"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_checkpoint_integer_beyond_float_range_is_exit_2(tmp_path, capsys,
                                                           command, field,
                                                           edit, message):
    """Used to escape as OverflowError from math.isfinite or np.array."""
    config = _edited_checkpoint(tmp_path, edit)
    assert main([command, "--config", config]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'zero.json'}: {message}\n")
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("values", [["0.5"], [True], [0.5, False], [[]],
                                    [{}], [[1]], [{"k": 1}]])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_numbers_written_as_strings_or_booleans_are_exit_2(
        tmp_path, capsys, command, values):
    """np.array(data, np.float64) read "0.5" as 0.5 and true as 1.0; a
    list or object in place of a number is refused the same way."""

    def edit(obj):
        data = obj["params"]["re.w_out"]["data"]
        data[:len(values)] = values

    config = _edited_checkpoint(tmp_path, edit)
    assert main([command, "--config", config]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'zero.json'}: params.re.w_out: data must be a "
        f"list of numbers\n")
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "pred.jsonl").exists()


def test_missing_required_key_names_the_config(tmp_path, capsys):
    setup_tree(tmp_path)
    entries = train_entries()
    del entries["train_corpus"]
    config = config_file(tmp_path, **entries)
    assert main(["train", "--config", config]) == 2
    assert capsys.readouterr().err == \
        f"error: {config}: missing required key 'train_corpus'\n"


def test_eval_schema_mismatch_names_both_files(tmp_path, capsys):
    trained_model_path(tmp_path, epochs=1)
    LabelSchema(("thing",), ("links",)).save(tmp_path / "other_schema.json")
    config = config_file(tmp_path, name="eval.json",
                         checkpoint="model.json", schema="other_schema.json",
                         test_corpus="train.jsonl", report="report.json")
    assert main(["eval", "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'other_schema.json'}: schema file" in err
    assert str(tmp_path / "model.json") in err


@pytest.mark.parametrize("command", ["train", "gridsearch"])
def test_empty_training_corpus_names_the_file(tmp_path, capsys, command):
    setup_tree(tmp_path)
    save_corpus(tmp_path / "empty.jsonl", [])
    config = config_file(tmp_path, **train_entries(
        train_corpus="empty.jsonl", dev_corpus="dev.jsonl",
        grid_results="grid.json"))
    assert main([command, "--config", config]) == 2
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'empty.jsonl'}: {command} needs a non-empty "
            "training corpus") in err
    assert not (tmp_path / "model.json").exists()


def test_gridsearch_empty_dev_corpus_names_the_file(tmp_path, capsys):
    setup_tree(tmp_path)
    save_corpus(tmp_path / "empty.jsonl", [])
    config = config_file(tmp_path, **train_entries(
        dev_corpus="empty.jsonl", grid_results="grid.json"))
    assert main(["gridsearch", "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'empty.jsonl'}: gridsearch needs a non-empty" in err


@pytest.mark.parametrize("command,flags", [
    ("eval", ["--seed", "3"]),
    ("eval", ["--layers", "7"]),
    ("eval", ["--variant", "bidarter"]),
    ("eval", ["--no-interaction"]),
    ("eval", ["--no-entity-features-in-re"]),
    ("predict", ["--match", "tail"]),
    ("predict", ["--seed", "9"]),
])
def test_a_flag_the_command_would_ignore_is_exit_2(tmp_path, capsys,
                                                     command, flags):
    _zero_checkpoint(tmp_path)
    config = config_file(tmp_path, checkpoint="zero.json",
                         test_corpus="dev.jsonl", input_corpus="dev.jsonl",
                         report="report.json", predictions="pred.jsonl")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", config, *flags])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("command,flags", [
    ("train", ["--config", "--seed", "--variant", "--layers",
               "--no-interaction", "--no-entity-features-in-re", "--match",
               "--out"]),
    ("gridsearch", ["--config", "--seed", "--variant", "--layers",
                    "--no-interaction", "--no-entity-features-in-re",
                    "--match", "--out"]),
    ("eval", ["--config", "--match", "--out"]),
    ("predict", ["--config", "--out"]),
])
def test_module_help_lists_exactly_the_command_flags(command, flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "darter", command, "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    options = done.stdout.split("options:")[1]
    listed = re.findall(r"--[\w-]+", options)
    assert listed == ["--help", *flags]


# ---------------------------------------------------------------------------
# mutation fuzzing: every bad input exits 2 with a message naming the file

# replacement values of every JSON type, and an integer beyond float range;
# no size here allocates much before model.check_size could refuse it
_MUTANT_VALUES = (None, True, False, "x", 2.5, -1, 0, 3, [], {}, [1],
                  {"k": 1}, BEYOND_FLOAT)


def _float_number(value) -> bool:
    """Whether a JSON value reads as a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# the run config the fuzzer mutates; training it for 0 epochs writes the
# untrained d_p = d_h = 2 darter checkpoint it mutates too
_FUZZ_RUN = {
    "schema": "schema.json", "train_corpus": "train.jsonl",
    "dev_corpus": "dev.jsonl", "test_corpus": "dev.jsonl",
    "input_corpus": "dev.jsonl", "checkpoint": "model.json",
    "history": "history.json", "report": "report.json",
    "predictions": "predictions.jsonl", "grid_results": "grid.json",
    "model": {"variant": "darter", "d_p": 2, "d_h": 2, "seed": 3},
    "train": {"lr": 0.01, "epochs": 0, "batch_size": 1, "seed": 3},
    "loss": {"gamma": 1.0, "delta": 0.5},
    "grid": {"alphas": [1.0], "betas": [1.0], "gammas": [1.0],
             "deltas": [1.0]},
}


def _mutate(rng, doc):
    """doc with one type, deletion or extra-key mutation at a node chosen
    by a random walk from the root (children of larger containers are not
    favoured over shallow nodes); returns the new document, the kind of
    mutation and the path to the node."""
    doc = json.loads(json.dumps(doc))
    parent, key, node, path = None, None, doc, []
    while isinstance(node, (dict, list)) and node and rng.random() < 0.7:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = rng.choice(list(keys))
        parent, node = node, node[key]
        path.append(key)
    kind = rng.choice(["type", "delete", "extra"])
    if kind == "extra" and isinstance(node, dict):
        node["zz_extra"] = rng.choice(_MUTANT_VALUES)
    elif kind == "delete" and parent is not None:
        del parent[key]
    else:
        kind = "type"
        value = rng.choice(_MUTANT_VALUES)
        if parent is None:
            doc = value
        else:
            parent[key] = value
    return doc, kind, path


def test_mutated_configs_and_checkpoints_exit_2_naming_a_file(tmp_path,
                                                              capsys):
    """A seeded generator of type, deletion and extra-key mutations of a
    run config (through train, eval, predict and gridsearch) and of a
    checkpoint (through eval and predict): no exception escapes main,
    every exit 2 prints a message that starts with a file path, and a
    checkpoint parameter value that is not a float-range number is exit 2."""
    rng = random.Random(20261019)
    base = tmp_path / "base"
    base.mkdir()
    setup_tree(base, CORPUS[:2])
    assert main(["train", "--config", config_file(base, **_FUZZ_RUN)]) == 0
    checkpoint = json.loads((base / "model.json").read_text("utf-8"))
    cases = ([("config", command) for command in
              ("train", "eval", "predict", "gridsearch") for _ in range(60)]
             + [("checkpoint", command) for command in ("eval", "predict")
                for _ in range(60)])
    codes = []
    for n, (target, command) in enumerate(cases):
        case = tmp_path / f"case{n}"
        shutil.copytree(base, case)
        config = case / "run.json"
        if target == "config":
            doc, kind, path = _mutate(rng, _FUZZ_RUN)
            config.write_text(json.dumps(doc), encoding="utf-8")
        else:
            doc, kind, path = _mutate(rng, checkpoint)
            (case / "model.json").write_text(json.dumps(doc),
                                             encoding="utf-8")
        label = f"{kind} at {path}"
        capsys.readouterr()
        try:
            code = main([command, "--config", str(config)])
        except Exception as exc:
            pytest.fail(f"{command}, {target} {label}: {exc!r} escaped main")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (command, target, label, code)
        if code == 2:
            assert err.startswith(f"error: {case}{os.sep}"), (
                command, target, label, err)
        if target == "checkpoint" and kind == "type" and len(path) == 4 \
                and path[0] == "params" and path[2] == "data":
            name, _, index = path[1:]
            if not _float_number(doc["params"][name]["data"][index]):
                assert code == 2, (command, target, label, code)
        codes.append(code)
    assert codes.count(2) >= len(cases) // 2


def test_each_non_float_mutant_in_checkpoint_data_is_exit_2(tmp_path,
                                                            capsys):
    """The fuzzer's random walk seldom reaches `params.<name>.data`, so
    this walks it: each mutant value that is not a float-range number, in
    place of the first data element of each parameter array of the
    fuzzer's checkpoint, exits 2 from eval and predict with a message
    naming the checkpoint and the array."""
    setup_tree(tmp_path, CORPUS[:2])
    config = config_file(tmp_path, **_FUZZ_RUN)
    assert main(["train", "--config", config]) == 0
    path = tmp_path / _FUZZ_RUN["checkpoint"]
    checkpoint = json.loads(path.read_text("utf-8"))
    rejected = [value for value in _MUTANT_VALUES
                if not _float_number(value)]
    assert len(rejected) == 9 and len(checkpoint["params"]) == 21
    for name, param in checkpoint["params"].items():
        first = param["data"][0]
        for value in rejected:
            param["data"][0] = value
            path.write_text(json.dumps(checkpoint), encoding="utf-8")
            for command in ("eval", "predict"):
                capsys.readouterr()
                code = main([command, "--config", config])
                err = capsys.readouterr().err
                assert code == 2, (command, name, value, code, err)
                assert err.startswith(f"error: {path}: params.{name}: "), (
                    command, name, value, err)
        param["data"][0] = first
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "predictions.jsonl").exists()
