"""Bundled synthetic corpus and random corpus generation for tests/demos.

The bundled corpus is 16 short sentences over a small closed vocabulary
with full-span annotations: single- and multi-token entities, one pair of
nested spans, relations in both token directions, and two sentences without
relations.  It is sized so the default model memorizes it quickly.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .corpus import (Entity, LabelSchema, MatchMode, Relation, Sentence,
                     load_corpus)

__all__ = ["random_corpus", "synthetic_corpus", "synthetic_paths",
           "synthetic_schema"]

_DATA = resources.files("darter") / "data"

# random_corpus draws its tokens from the words w0 .. w11
_ALPHABET = 12


def synthetic_paths() -> tuple[str, str]:
    """Filesystem paths of the bundled corpus and its schema."""
    return (str(_DATA / "synthetic.jsonl"),
            str(_DATA / "synthetic_schema.json"))


def synthetic_schema() -> LabelSchema:
    _, schema_path = synthetic_paths()
    return LabelSchema.load(schema_path)


def synthetic_corpus() -> list[Sentence]:
    corpus_path, _ = synthetic_paths()
    return load_corpus(corpus_path, synthetic_schema(), MatchMode.EXACT)


def random_corpus(rng: np.random.Generator, schema: LabelSchema,
                  n_sentences: int, max_tokens: int = 5,
                  mode: MatchMode = MatchMode.EXACT) -> list[Sentence]:
    """Small random sentences with consistent annotations for fuzz tests."""
    sentences = []
    for _ in range(n_sentences):
        t = int(rng.integers(1, max_tokens + 1))
        tokens = tuple(f"w{int(rng.integers(_ALPHABET))}" for _ in range(t))
        spans = set()
        for _ in range(int(rng.integers(0, 3))):
            i = int(rng.integers(t))
            j = i if mode is MatchMode.TAIL else int(rng.integers(i, t))
            k = int(rng.integers(schema.u))
            spans.add((i, j, schema.entity_types[k]))
        entities = tuple(Entity(i, j, name) for i, j, name in sorted(spans))
        triples = set()
        if entities:
            for _ in range(int(rng.integers(0, 3))):
                triples.add((int(rng.integers(len(entities))),
                             int(rng.integers(len(entities))),
                             schema.relation_types[int(rng.integers(schema.v))]))
        relations = tuple(Relation(s, o, name)
                          for s, o, name in sorted(triples))
        sentences.append(Sentence(tokens, entities, relations, mode))
    return sentences
