"""Bundled corpus consistency and the random corpus helper."""

import numpy as np

from darter.corpus import (MatchMode, Vocabulary, gold_tables, load_corpus,
                           save_corpus)
from darter.decoders import PredictionSet
from darter.evaluation import evaluate_corpus
from darter.synthetic import (random_corpus, synthetic_corpus,
                              synthetic_paths, synthetic_schema)


def test_bundled_corpus_shape():
    schema = synthetic_schema()
    corpus = synthetic_corpus()
    assert schema.u == 3 and schema.v == 2
    assert len(corpus) == 16
    assert all(1 <= len(s) <= 12 for s in corpus)
    assert all(s.entities for s in corpus)
    assert sum(len(s.relations) for s in corpus) >= 10


def test_bundled_corpus_has_both_subsets_and_span_kinds():
    corpus = synthetic_corpus()
    empty = [PredictionSet(frozenset(), frozenset())] * len(corpus)
    report = evaluate_corpus(corpus, empty, synthetic_schema(),
                             MatchMode.EXACT)
    assert report["oot"]["n_sentences"] == 2
    assert report["it"]["n_sentences"] == 14
    assert any(e.end > e.start for s in corpus for e in s.entities)
    assert any(e.end == e.start for s in corpus for e in s.entities)
    # at least one relation whose object precedes its subject in the text
    backwards = [
        rel for s in corpus for rel in s.relations
        if s.entities[rel.object].start < s.entities[rel.subject].start]
    assert backwards
    # nested spans: two entities in one sentence share a start token
    assert any(a is not b and a.start == b.start and a.end != b.end
               for s in corpus for a in s.entities for b in s.entities)


def test_bundled_corpus_round_trips(tmp_path):
    corpus = synthetic_corpus()
    path = tmp_path / "copy.jsonl"
    save_corpus(path, corpus)
    assert load_corpus(path, synthetic_schema()) == corpus


def test_bundled_corpus_tables_are_consistent():
    schema = synthetic_schema()
    for sentence in synthetic_corpus():
        entity_table, relation_table = gold_tables(sentence, schema)
        assert entity_table.sum() == len(sentence.entities)
        assert relation_table.sum() == len(sentence.relations)


def test_bundled_vocabulary_is_small_and_reused():
    corpus = synthetic_corpus()
    vocab = Vocabulary.from_corpus(corpus)
    n_tokens = sum(len(s) for s in corpus)
    assert vocab.size < n_tokens  # tokens repeat across sentences


def test_random_corpus_is_valid_and_deterministic():
    schema = synthetic_schema()
    a = random_corpus(np.random.default_rng(5), schema, 20)
    b = random_corpus(np.random.default_rng(5), schema, 20)
    assert a == b
    for sentence in a:
        assert 1 <= len(sentence) <= 5
        for e in sentence.entities:
            assert 0 <= e.start <= e.end < len(sentence)
        for r in sentence.relations:
            assert 0 <= r.subject < len(sentence.entities)
            assert 0 <= r.object < len(sentence.entities)


def test_random_corpus_tail_mode_spans():
    schema = synthetic_schema()
    corpus = random_corpus(np.random.default_rng(7), schema, 30,
                           mode=MatchMode.TAIL)
    ents = [e for s in corpus for e in s.entities]
    assert ents
    assert all(e.start == e.end for e in ents)


def test_paths_point_at_real_files():
    corpus_path, schema_path = synthetic_paths()
    assert corpus_path.endswith("synthetic.jsonl")
    assert schema_path.endswith("synthetic_schema.json")
