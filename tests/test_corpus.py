"""Corpus loading, validation, gold tables, and the OOT/IT split."""

import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from darter.corpus import (CorpusError, Entity, LabelSchema, MatchMode,
                           Relation, Sentence, Vocabulary, entity_mask,
                           entity_triple, gold_entities, gold_relations,
                           gold_tables, load_corpus, save_corpus,
                           sentence_from_json)
from darter.decoders import PredictionSet
from darter.evaluation import evaluate_corpus

SCHEMA = LabelSchema(("per", "org", "loc"), ("works", "near"))


def write_lines(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")


def sent(tokens, entities=(), relations=(), mode=MatchMode.EXACT):
    return Sentence(tuple(tokens),
                    tuple(Entity(*e) for e in entities),
                    tuple(Relation(*r) for r in relations),
                    mode)


def unpredicted_report(corpus):
    """The report of a corpus scored against empty predictions: every gold
    triple is a miss of the subset its sentence falls in."""
    empty = PredictionSet(frozenset(), frozenset())
    return evaluate_corpus(corpus, [empty] * len(corpus), SCHEMA,
                           MatchMode.EXACT)


# ---------------------------------------------------------------------------
# schema

def test_schema_counts_and_lookup():
    assert SCHEMA.u == 3 and SCHEMA.v == 2
    assert SCHEMA.entity_id("org") == 1
    assert SCHEMA.relation_id("near") == 1
    with pytest.raises(CorpusError, match="nurse"):
        SCHEMA.entity_id("nurse")
    with pytest.raises(CorpusError, match="likes"):
        SCHEMA.relation_id("likes")


def test_schema_rejects_bad_type_lists():
    with pytest.raises(CorpusError, match="entity_types"):
        LabelSchema((), ("works",))
    with pytest.raises(CorpusError, match="duplicate"):
        LabelSchema(("per", "per"), ("works",))
    with pytest.raises(CorpusError, match="non-empty"):
        LabelSchema(("per", ""), ("works",))


def test_schema_file_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    SCHEMA.save(path)
    assert LabelSchema.load(path) == SCHEMA


def test_schema_file_rejects_wrong_shape(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"entity_types": ["per"]}', encoding="utf-8")
    with pytest.raises(CorpusError, match="relation_types"):
        LabelSchema.load(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(CorpusError, match="malformed"):
        LabelSchema.load(path)


@pytest.mark.parametrize("obj, message", [
    ({"entity_types": [], "relation_types": ["works"]},
     "entity_types: at least one type required"),
    ({"entity_types": ["per"], "relation_types": ["works", "works"]},
     "relation_types: duplicate type names"),
])
def test_schema_file_rejections_name_the_file(tmp_path, obj, message):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(CorpusError, match=f"schema.json: {message}"):
        LabelSchema.load(path)


def test_match_mode_parse():
    assert MatchMode.parse("exact") is MatchMode.EXACT
    assert MatchMode.parse("tail") is MatchMode.TAIL
    with pytest.raises(CorpusError, match="head"):
        MatchMode.parse("head")


# ---------------------------------------------------------------------------
# sentence validation

def test_sentence_minimal_and_defaults():
    s = sentence_from_json({"tokens": ["hi"]}, SCHEMA, MatchMode.EXACT)
    assert s.tokens == ("hi",)
    assert s.entities == () and s.relations == ()
    assert len(s) == 1


@pytest.mark.parametrize("obj,field", [
    ({"tokens": []}, "tokens"),
    ({"tokens": ["a", 3]}, r"tokens\[1\]"),
    ({"tokens": ["a"], "extra": 1}, "extra"),
    ({"tokens": ["a", "b"],
      "entities": [{"start": 1, "end": 0, "type": "per"}]},
     r"entities\[0\].end"),
    ({"tokens": ["a", "b"],
      "entities": [{"start": 0, "end": 2, "type": "per"}]},
     r"entities\[0\].end"),
    ({"tokens": ["a"], "entities": [{"start": 0, "end": 0, "type": "cat"}]},
     r"entities\[0\].type"),
    ({"tokens": ["a"], "entities": [{"start": 0, "type": "per"}]},
     r"entities\[0\]"),
    ({"tokens": ["a"],
      "entities": [{"start": 0, "end": 0, "type": "per"}] * 2},
     "duplicate entity"),
    ({"tokens": ["a"], "entities": [{"start": 0, "end": 0, "type": "per"}],
      "relations": [{"subject": 0, "object": 1, "type": "works"}]},
     r"relations\[0\].object"),
    ({"tokens": ["a"], "entities": [{"start": 0, "end": 0, "type": "per"}],
      "relations": [{"subject": 0, "object": 0, "type": "likes"}]},
     r"relations\[0\].type"),
    ({"tokens": ["a"], "entities": [{"start": 0, "end": 0, "type": "per"}],
      "relations": [{"subject": 0, "object": 0, "type": "works"}] * 2},
     "duplicate relation"),
])
def test_sentence_rejections_name_the_field(obj, field):
    with pytest.raises(CorpusError, match=field):
        sentence_from_json(obj, SCHEMA, MatchMode.EXACT)


def test_tail_mode_requires_single_token_spans():
    obj = {"tokens": ["a", "b"],
           "entities": [{"start": 0, "end": 1, "type": "per"}]}
    with pytest.raises(CorpusError, match="single-token"):
        sentence_from_json(obj, SCHEMA, MatchMode.TAIL)
    obj["entities"][0]["end"] = 0
    s = sentence_from_json(obj, SCHEMA, MatchMode.TAIL)
    assert s.mode is MatchMode.TAIL


# ---------------------------------------------------------------------------
# files

def test_load_attaches_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [{"tokens": ["ok"]},
                       {"tokens": ["a", "b"],
                        "entities": [{"start": 1, "end": 0, "type": "per"}]}])
    with pytest.raises(CorpusError, match=r"bad.jsonl:2: entities\[0\].end"):
        load_corpus(path, SCHEMA)


def test_load_names_malformed_json_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"tokens": ["a"]}\n{oops\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="bad.jsonl:2: malformed"):
        load_corpus(path, SCHEMA)


def test_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path, SCHEMA) == []
    path.write_text("\n\n", encoding="utf-8")
    assert load_corpus(path, SCHEMA) == []


def test_save_load_round_trip(tmp_path):
    corpus = [
        sent(["ada", "runs", "acme"],
             entities=[(0, 0, "per"), (2, 2, "org")],
             relations=[(0, 1, "works")]),
        sent(["the", "old", "mill"], entities=[(1, 2, "loc")]),
        sent(["nothing", "here"]),
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, corpus)
    assert load_corpus(path, SCHEMA) == corpus


def test_round_trip_keeps_unicode_line_separators_in_tokens(tmp_path):
    # written raw, not escaped, and only "\n" ends a corpus line
    corpus = [sent(["a\u2028b", "c\u2029d", "e\x85f", "g\rh"]),
              sent(["next"])]
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, corpus)
    assert "\u2028" in path.read_text(encoding="utf-8")
    assert load_corpus(path, SCHEMA) == corpus


def test_tail_round_trip_keeps_mode(tmp_path):
    corpus = [sent(["a", "b"], entities=[(1, 1, "per")],
                   mode=MatchMode.TAIL)]
    path = tmp_path / "tail.jsonl"
    save_corpus(path, corpus)
    assert load_corpus(path, SCHEMA, MatchMode.TAIL) == corpus


# ---------------------------------------------------------------------------
# vocabulary

def test_vocabulary_ids_and_unknowns():
    vocab = Vocabulary.from_corpus([sent(["b", "a"]), sent(["c", "a"])])
    assert vocab.tokens == ("a", "b", "c")
    assert vocab.size == 4
    npt.assert_array_equal(vocab.encode(["a", "zzz", "c"]), [1, 0, 3])


def test_vocabulary_rejects_duplicates():
    with pytest.raises(CorpusError, match="unique"):
        Vocabulary(("a", "a"))


def test_vocabulary_is_order_independent():
    corpus = [sent(["x", "m"]), sent(["b"])]
    assert Vocabulary.from_corpus(corpus) == \
        Vocabulary.from_corpus(list(reversed(corpus)))


# ---------------------------------------------------------------------------
# splits

def test_split_oot_it_examples():
    no_rel = sent(["a"], entities=[(0, 0, "per")])
    one_rel = sent(["a", "b"], entities=[(0, 0, "per"), (1, 1, "org")],
                   relations=[(0, 1, "works")])
    report = unpredicted_report([no_rel, one_rel])
    oot, it = report["oot"], report["it"]
    assert oot["n_sentences"] == 1 and it["n_sentences"] == 1
    assert oot["ner"]["micro"]["fn"] == 1 and it["ner"]["micro"]["fn"] == 2
    assert oot["re"]["micro"]["fn"] == 0 and it["re"]["micro"]["fn"] == 1


def test_split_oot_it_partitions_hand_count():
    corpus = []
    for i in range(10):
        if i % 3 == 0:  # sentences 0, 3, 6, 9 carry a relation
            corpus.append(sent(["a", "b"],
                               entities=[(0, 0, "per"), (1, 1, "org")],
                               relations=[(0, 1, "works")]))
        else:
            corpus.append(sent(["a"], entities=[(0, 0, "per")]))
    report = unpredicted_report(corpus)
    oot, it = report["oot"], report["it"]
    assert oot["n_sentences"] == 6 and it["n_sentences"] == 4
    assert oot["n_sentences"] + it["n_sentences"] == report["n_sentences"]
    # every gold relation is in IT, none in OOT
    assert it["re"]["micro"]["fn"] == 4
    assert oot["re"]["micro"]["fn"] == 0


# ---------------------------------------------------------------------------
# projections and gold tables

def test_entity_triple_projection():
    e = Entity(1, 3, "org")
    assert entity_triple(e, SCHEMA, MatchMode.EXACT) == (1, 3, 1)
    assert entity_triple(e, SCHEMA, MatchMode.TAIL) == (3, 3, 1)


def test_gold_sets_follow_the_given_mode():
    s = sent(["a", "b", "c", "d"],
             entities=[(0, 1, "per"), (2, 3, "org")],
             relations=[(0, 1, "works")])
    assert gold_entities(s, SCHEMA, MatchMode.EXACT) == {(0, 1, 0), (2, 3, 1)}
    assert gold_relations(s, SCHEMA, MatchMode.EXACT) == {(0, 2, 0)}
    # the same sentence scored at tail positions
    assert gold_entities(s, SCHEMA, MatchMode.TAIL) == {(1, 1, 0), (3, 3, 1)}
    assert gold_relations(s, SCHEMA, MatchMode.TAIL) == {(1, 3, 0)}


def test_gold_tables_empty_sentence():
    e, r = gold_tables(sent(["a", "b"]), SCHEMA)
    npt.assert_array_equal(e, np.zeros((2, 2, 3)))
    npt.assert_array_equal(r, np.zeros((2, 2, 2)))


def test_gold_tables_single_entity():
    e, r = gold_tables(sent(["a", "b"], entities=[(0, 1, "org")]), SCHEMA)
    assert e.sum() == 1.0
    assert e[0, 1, 1] == 1.0
    assert r.sum() == 0.0


def test_gold_tables_hand_built():
    s = sent(["ada", "of", "acme", "visits", "york"],
             entities=[(0, 0, "per"), (2, 2, "org"), (4, 4, "loc")],
             relations=[(0, 1, "works"), (1, 2, "near")])
    e, r = gold_tables(s, SCHEMA)
    want_e = np.zeros((5, 5, 3))
    want_e[0, 0, 0] = want_e[2, 2, 1] = want_e[4, 4, 2] = 1.0
    want_r = np.zeros((5, 5, 2))
    want_r[0, 2, 0] = want_r[2, 4, 1] = 1.0
    npt.assert_array_equal(e, want_e)
    npt.assert_array_equal(r, want_r)
    assert e.sum() == len(s.entities)
    assert r.sum() == len(s.relations)


def test_gold_tables_tail_mode_anchor():
    s = sent(["a", "b", "c"],
             entities=[(0, 0, "per"), (2, 2, "org")],
             relations=[(0, 1, "works")], mode=MatchMode.TAIL)
    e, r = gold_tables(s, SCHEMA)
    assert e[0, 0, 0] == 1.0 and e[2, 2, 1] == 1.0
    assert r[0, 2, 0] == 1.0


def test_entity_mask_shapes_and_counts():
    mask = entity_mask(4, 3, MatchMode.EXACT)
    assert mask.shape == (4, 4, 3)
    assert mask.sum() == 10 * 3  # ordered spans of 4 tokens
    assert mask[2, 1, 0] == 0.0 and mask[1, 2, 0] == 1.0

    full = entity_mask(4, 3, MatchMode.EXACT, mask_reversed=False)
    assert full.sum() == 4 * 4 * 3

    tail = entity_mask(4, 3, MatchMode.TAIL)
    assert tail.sum() == 4 * 3
    assert tail[1, 1, 2] == 1.0 and tail[0, 1, 2] == 0.0


# ---------------------------------------------------------------------------
# atomic writes

def test_schema_write_failure_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "schema.json"
    SCHEMA.save(path)
    before = path.read_bytes()

    def failing_dump(obj, handle, **kwargs):
        handle.write('{"entity_types": ["per", ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        LabelSchema(("loc",), ("near",)).save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["schema.json"]


def test_corpus_write_failure_keeps_the_previous_file(tmp_path, monkeypatch):
    corpus = [sent(["ada", "runs"], entities=[(0, 0, "per")]),
              sent(["the", "mill"], entities=[(1, 1, "loc")])]
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, corpus[1:])
    before = path.read_bytes()
    real_dumps = json.dumps
    written = []

    def failing_dumps(obj, **kwargs):    # fails on the second sentence
        if written:
            raise OSError("disk full")
        written.append(obj)
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(OSError, match="disk full"):
        save_corpus(path, corpus)
    assert written
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["corpus.jsonl"]
