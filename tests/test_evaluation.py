"""Metric arithmetic and the hand-tallied corpus report."""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from darter.autodiff import ContractError
from darter.corpus import (Entity, LabelSchema, MatchMode, Relation,
                           Sentence, gold_entities, gold_relations)
from darter.decoders import PredictionSet
from darter.evaluation import PRF1, evaluate_corpus
from darter.synthetic import synthetic_corpus, synthetic_schema

from fixtures import adversarial_fixture

SCHEMA = LabelSchema(("per", "org", "loc"), ("works", "near"))


def sent(tokens, entities=(), relations=(), mode=MatchMode.EXACT):
    return Sentence(tuple(tokens), tuple(Entity(*e) for e in entities),
                    tuple(Relation(*r) for r in relations), mode)


def scored(sentence, entities=(), relations=(), mode=MatchMode.EXACT,
           schema=SCHEMA):
    """The report of a one-sentence corpus and its predicted triples."""
    return evaluate_corpus(
        [sentence], [PredictionSet(frozenset(entities), frozenset(relations))],
        schema, mode)


def counts(cell):
    return (cell["tp"], cell["fp"], cell["fn"])


def micro(report, task):
    return counts(report[task]["micro"])


# ---------------------------------------------------------------------------
# counts

def test_prf1_zero_denominators():
    cell = PRF1()
    assert cell.precision == 0.0
    assert cell.recall == 0.0
    assert cell.f1 == 0.0


def test_prf1_direct_arithmetic():
    cell = PRF1(tp=2, fp=1, fn=1)
    assert cell.precision == float(Fraction(2, 3))
    assert cell.recall == float(Fraction(2, 3))
    assert cell.f1 == float(Fraction(2, 3))


def test_score_sets_self_is_perfect():
    s = sent(["a", "b", "c"], entities=[(0, 1, "per"), (2, 2, "org")],
             relations=[(0, 1, "works")])
    report = scored(s, {(0, 1, 0), (2, 2, 1)}, {(0, 2, 0)})
    for task in ("ner", "re"):
        cell = report[task]["micro"]
        assert cell["f1"] == 1.0 and cell["fp"] == 0 and cell["fn"] == 0


def test_tail_mode_gives_tail_credit():
    # prediction knows only the tail; gold carries the full span
    s = sent(["a", "b", "c", "d"], entities=[(1, 3, "per")])
    tail = scored(s, {(3, 3, 0)}, mode=MatchMode.TAIL)
    assert micro(tail, "ner") == (1, 0, 0)
    exact = scored(s, {(3, 3, 0)}, mode=MatchMode.EXACT)
    assert micro(exact, "ner") == (0, 1, 1)


def test_project_entity_triples():
    # exact scoring keeps predicted spans; tail scoring reads each by its
    # tail, so two spans sharing a tail and a type count once
    s = sent(["a", "b", "c", "d"], entities=[(1, 3, "per"), (2, 3, "org")])
    predicted = {(1, 3, 0), (0, 3, 0), (2, 3, 1)}
    assert micro(scored(s, predicted, mode=MatchMode.EXACT), "ner") == \
        (2, 1, 0)
    assert micro(scored(s, predicted, mode=MatchMode.TAIL), "ner") == \
        (2, 0, 0)


def test_swapped_relation_direction_counts_twice():
    s = sent(["a", "b"], entities=[(0, 0, "per"), (1, 1, "org")],
             relations=[(0, 1, "works")])
    assert micro(scored(s, relations={(1, 0, 0)}), "re") == (0, 1, 1)


def test_per_type_attribution():
    # false positive lands on the predicted type, miss on the gold type
    cells = scored(sent(["a"], entities=[(0, 0, "org")]),
                   {(0, 0, 0)})["ner"]["per_type"]
    assert counts(cells["per"]) == (0, 1, 0)
    assert counts(cells["org"]) == (0, 0, 1)


def test_macro_f1():
    # one type: its F1; two types: their mean
    alone = LabelSchema(("per",), ("works",))
    s = sent(["a", "b", "c"], entities=[(0, 0, "per"), (1, 1, "per"),
                                        (2, 2, "per")])
    report = scored(s, {(0, 0, 0), (1, 1, 0), (0, 1, 0)}, schema=alone)
    assert micro(report, "ner") == (2, 1, 1)
    assert report["ner"]["macro_f1"] == PRF1(2, 1, 1).f1
    # works: one hit; near: one spurious pair and one miss
    s = sent(["a", "b", "c"],
             entities=[(0, 0, "per"), (1, 1, "org"), (2, 2, "loc")],
             relations=[(0, 1, "works"), (1, 2, "near")])
    report = scored(s, relations={(0, 1, 0), (0, 2, 1)})
    assert counts(report["re"]["per_type"]["works"]) == (1, 0, 0)
    assert counts(report["re"]["per_type"]["near"]) == (0, 1, 1)
    assert report["re"]["macro_f1"] == 0.5


# ---------------------------------------------------------------------------
# taxonomy

PERFECT = sent(["a", "b"], entities=[(0, 0, "per"), (1, 1, "org")],
               relations=[(0, 1, "works")])


def test_taxonomy_perfect_prediction():
    tallies = scored(PERFECT, {(0, 0, 0), (1, 1, 1)},
                     {(0, 1, 0)})["error_taxonomy"]
    assert tallies == {"ET": 2, "EN": 0, "ET_NP": 0, "SOR": 1,
                                 "SON": 0, "SOR_NP": 0, "ETSOR": 1,
                                 "ETSON": 0}


def test_taxonomy_span_right_type_wrong():
    tallies = scored(PERFECT, {(0, 0, 2)})["error_taxonomy"]
    assert tallies["EN"] == 1 and tallies["ET"] == 0
    assert tallies["ET_NP"] == 1  # only the (1, 1) span went unpredicted
    assert tallies["SOR_NP"] == 1


def test_taxonomy_wrong_relation_type_needs_entities_for_joint_credit():
    # correct pair, wrong type, both endpoint entities predicted
    with_entities = scored(PERFECT, {(0, 0, 0), (1, 1, 1)},
                           {(0, 1, 1)})["error_taxonomy"]
    assert with_entities["SON"] == 1 and with_entities["ETSON"] == 1
    # same relation error with a mistyped endpoint: no joint credit
    without = scored(PERFECT, {(0, 0, 0), (1, 1, 2)},
                     {(0, 1, 1)})["error_taxonomy"]
    assert without["SON"] == 1 and without["ETSON"] == 0


def test_taxonomy_addition():
    """A two-sentence corpus's taxonomy is the key-wise sum of its
    sentences' one-sentence reports."""
    cases = [(PERFECT, {(0, 0, 2)}, set()),
             (PERFECT, {(0, 0, 0), (1, 1, 1)}, {(0, 1, 1)})]
    first, second = (scored(*case)["error_taxonomy"] for case in cases)
    total = evaluate_corpus(
        [sentence for sentence, _, _ in cases],
        [PredictionSet(frozenset(e), frozenset(r)) for _, e, r in cases],
        SCHEMA, MatchMode.EXACT)["error_taxonomy"]
    assert list(total) == list(first) == list(second)
    assert total == {key: first[key] + second[key] for key in first}
    assert (first["EN"], second["ET"], second["SON"]) == (1, 2, 1)


# ---------------------------------------------------------------------------
# rescoring across modes

SPANS = sent(["a", "b", "c", "d"], entities=[(0, 1, "per"), (2, 3, "org")],
             relations=[(0, 1, "works")])


def test_exact_predictions_rescored_tail_anchor_relations_at_tails():
    # predictions equal to the exact gold: the relation cell sits at the
    # span starts and moves to the predicted entities' tails
    entities, relations = {(0, 1, 0), (2, 3, 1)}, {(0, 2, 0)}
    tail = scored(SPANS, entities, relations, MatchMode.TAIL)
    assert micro(tail, "re") == (1, 0, 0)
    assert tail["error_taxonomy"]["SOR"] == 1
    assert tail["error_taxonomy"]["ETSOR"] == 1
    assert tail["error_taxonomy"]["SOR_NP"] == 0
    exact = scored(SPANS, entities, relations, MatchMode.EXACT)
    assert micro(exact, "re") == (1, 0, 0)


def test_tail_rescoring_pairs_every_entity_at_an_anchor():
    # two entities start at 0 and none at 2, read as the span (2, 2): the
    # cell (0, 2) stands for the tail pairs (0, 2) and (1, 2)
    s = sent(["a", "b", "c"], entities=[(0, 1, "per"), (2, 2, "org")],
             relations=[(0, 1, "works")])
    tail = scored(s, {(0, 0, 2), (0, 1, 0)}, {(0, 2, 0)}, MatchMode.TAIL)
    assert micro(tail, "re") == (1, 1, 0)


def test_same_mode_and_tail_annotations_keep_relation_cells():
    # a sentence's mode is the layout its predictions come in; tail cells
    # scored exact stay put, here (0, 2), though entities start at both
    # its anchors
    tail_spans = replace(SPANS, mode=MatchMode.TAIL)
    exact = scored(tail_spans, {(0, 1, 0), (2, 3, 1)}, {(0, 2, 0)},
                   MatchMode.EXACT)
    assert micro(exact, "re") == (1, 0, 0)
    # the hand-tallied fixture, its sentences in either mode, scored so
    schema, sentences, predictions, expected = adversarial_fixture()
    taxonomy = {
        MatchMode.EXACT: expected["taxonomy"],
        MatchMode.TAIL: {"ET": 8, "EN": 2, "ET_NP": 3, "SOR": 2, "SON": 1,
                         "SOR_NP": 3, "ETSOR": 2, "ETSON": 1}}
    for mode in MatchMode:
        corpus = [replace(s, mode=mode) for s in sentences]
        report = evaluate_corpus(corpus, predictions, schema, mode)
        assert micro(report, "ner") == expected["ner_micro"]
        assert micro(report, "re") == expected["re_micro"]
        assert report["error_taxonomy"] == taxonomy[mode]


# ---------------------------------------------------------------------------
# corpus report

def test_report_matches_hand_tally():
    schema, sentences, predictions, expected = adversarial_fixture()
    report = evaluate_corpus(sentences, predictions, schema, MatchMode.EXACT)

    ner = report["ner"]["micro"]
    assert (ner["tp"], ner["fp"], ner["fn"]) == expected["ner_micro"]
    assert ner["f1"] == float(expected["ner_f1"])
    re = report["re"]["micro"]
    assert (re["tp"], re["fp"], re["fn"]) == expected["re_micro"]
    assert re["f1"] == float(expected["re_f1"])

    for name, want in expected["ner_per_type_f1"].items():
        assert report["ner"]["per_type"][name]["f1"] == float(want)
    for name, want in expected["re_per_type_f1"].items():
        assert report["re"]["per_type"][name]["f1"] == float(want)

    ner_types = expected["ner_per_type_f1"]
    assert report["ner"]["macro_f1"] == \
        sum(float(ner_types[n]) for n in schema.entity_types) / 3
    re_types = expected["re_per_type_f1"]
    assert report["re"]["macro_f1"] == \
        sum(float(re_types[n]) for n in schema.relation_types) / 2

    assert report["oot"]["n_sentences"] == expected["oot_sentences"]
    assert report["it"]["n_sentences"] == expected["it_sentences"]
    oot_ner = report["oot"]["ner"]["micro"]
    assert (oot_ner["tp"], oot_ner["fp"], oot_ner["fn"]) == expected["oot_ner"]
    oot_re = report["oot"]["re"]["micro"]
    assert (oot_re["tp"], oot_re["fp"], oot_re["fn"]) == expected["oot_re"]
    it_ner = report["it"]["ner"]["micro"]
    assert (it_ner["tp"], it_ner["fp"], it_ner["fn"]) == expected["it_ner"]
    it_re = report["it"]["re"]["micro"]
    assert (it_re["tp"], it_re["fp"], it_re["fn"]) == expected["it_re"]

    assert report["error_taxonomy"] == expected["taxonomy"]
    assert report["match_mode"] == "exact"
    assert report["n_sentences"] == 5


def test_micro_counts_add_over_subsets():
    schema, sentences, predictions, _ = adversarial_fixture()
    report = evaluate_corpus(sentences, predictions, schema, MatchMode.EXACT)
    for task in ("ner", "re"):
        total = report[task]["micro"]
        oot = report["oot"][task]["micro"]
        it = report["it"][task]["micro"]
        for key in ("tp", "fp", "fn"):
            assert total[key] == oot[key] + it[key]


def test_report_invariant_under_reordering():
    schema, sentences, predictions, _ = adversarial_fixture()
    forward = evaluate_corpus(sentences, predictions, schema, MatchMode.EXACT)
    backward = evaluate_corpus(sentences[::-1], predictions[::-1], schema,
                               MatchMode.EXACT)
    assert forward == backward


def test_empty_corpus_report():
    report = evaluate_corpus([], [], SCHEMA, MatchMode.EXACT)
    assert report["n_sentences"] == 0
    assert report["ner"]["micro"]["f1"] == 0.0
    assert report["ner"]["macro_f1"] == 0.0
    assert report["error_taxonomy"]["ET"] == 0


def test_only_oot_corpus_marks_it_empty():
    corpus = [sent(["a"], entities=[(0, 0, "per")])]
    preds = [PredictionSet(frozenset({(0, 0, 0)}), frozenset())]
    report = evaluate_corpus(corpus, preds, SCHEMA, MatchMode.EXACT)
    assert report["it"]["n_sentences"] == 0
    assert report["it"]["ner"]["micro"]["tp"] == 0
    assert report["oot"]["n_sentences"] == 1


def test_report_rejects_misaligned_inputs():
    corpus = [sent(["a"])]
    with pytest.raises(ContractError, match="predictions"):
        evaluate_corpus(corpus, [], SCHEMA, MatchMode.EXACT)


# ---------------------------------------------------------------------------
# golden reports

GOLDEN = Path(__file__).with_name("golden_reports.jsonl")


def _golden_cases():
    """The adversarial fixture annotated and scored in each mode, and the
    bundled corpus scored in each mode against its own gold."""
    schema, sentences, predictions, _ = adversarial_fixture()
    for annotation in MatchMode:
        corpus = [replace(s, mode=annotation) for s in sentences]
        for scoring in MatchMode:
            yield (f"fixture/{annotation.value}/{scoring.value}",
                   evaluate_corpus(corpus, predictions, schema, scoring))
    schema, corpus = synthetic_schema(), synthetic_corpus()
    gold = [PredictionSet(gold_entities(s, schema, s.mode),
                          gold_relations(s, schema, s.mode)) for s in corpus]
    for scoring in MatchMode:
        yield (f"bundled/{scoring.value}",
               evaluate_corpus(corpus, gold, schema, scoring))


def golden_text() -> str:
    """One `json.dumps([case, report])` line per case."""
    return "".join(json.dumps([name, report]) + "\n"
                   for name, report in _golden_cases())


def test_reports_match_the_golden_file():
    """The report's key order, counts and float bits, byte for byte."""
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")
