"""Scoring predictions against gold: F1 metrics, subsets, error taxonomy.

All scoring works on triples: entities as (start, end, type_id) table cells
and relations as (subject_anchor, object_anchor, type_id).  Micro counts are
additive over sentences; macro F1 averages per-type F1 over the schema's
types.  The taxonomy tallies, per mention after set-deduplication, how each
prediction or miss relates to gold spans, types, and anchor pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .autodiff import ContractError
from .corpus import (LabelSchema, MatchMode, Sentence, entity_triple,
                     gold_entities, gold_relations, relation_anchor)

__all__ = [
    "PRF1",
    "evaluate_corpus",
    "macro_f1",
    "per_type_scores",
    "project_entity_triples",
    "score_sets",
]


@dataclass(frozen=True)
class PRF1:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "PRF1") -> "PRF1":
        return PRF1(self.tp + other.tp, self.fp + other.fp,
                    self.fn + other.fn)

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        # count form of the harmonic mean; exact for rational expectations
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    def to_json(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": self.precision, "recall": self.recall,
                "f1": self.f1}


def score_sets(pred: frozenset, gold: frozenset) -> PRF1:
    return PRF1(tp=len(pred & gold), fp=len(pred - gold),
                fn=len(gold - pred))


def project_entity_triples(triples, mode: MatchMode) -> frozenset:
    """Reduce predicted entity cells to tail positions in tail mode."""
    if mode is MatchMode.TAIL:
        return frozenset((j, j, k) for _, j, k in triples)
    return frozenset(triples)


def per_type_scores(pred: frozenset, gold: frozenset,
                    n_types: int) -> list[PRF1]:
    """Split triple sets by their trailing type id and score each slice.

    False positives land on the predicted type, false negatives on the
    gold type.
    """
    out = []
    for type_id in range(n_types):
        out.append(score_sets(
            frozenset(tr for tr in pred if tr[2] == type_id),
            frozenset(tr for tr in gold if tr[2] == type_id)))
    return out


def macro_f1(per_type: list[PRF1]) -> float:
    if not per_type:
        raise ContractError("macro F1 needs at least one type")
    return sum(cell.f1 for cell in per_type) / len(per_type)


# ---------------------------------------------------------------------------
# error taxonomy


# The report's taxonomy keys, per mention. Entities: ET span and type both
# correct; EN span correct, type wrong; ET_NP gold span never predicted.
# Relations: SOR triple correct; SON anchor pair correct, type wrong; SOR_NP
# gold anchor pair never predicted. Joint: ETSOR correct triple whose two
# gold entities were also predicted correctly; ETSON wrong-type pair whose
# gold entities were predicted correctly.
_TAXONOMY_KEYS = ("ET", "EN", "ET_NP", "SOR", "SON", "SOR_NP", "ETSOR",
                  "ETSON")


def _taxonomy(pred_e, gold_e, pred_r, gold_r, sentence: Sentence,
              schema: LabelSchema, mode: MatchMode) -> Counter:
    gold_spans = {(i, j) for i, j, _ in gold_e}
    pred_spans = {(i, j) for i, j, _ in pred_e}
    et = len(pred_e & gold_e)
    en = sum(1 for i, j, k in pred_e
             if (i, j) in gold_spans and (i, j, k) not in gold_e)
    et_np = sum(1 for i, j, _ in gold_e if (i, j) not in pred_spans)

    # each gold relation keeps the entity triples it references, so the
    # joint counters can ask whether those entities were predicted
    by_triple: dict[tuple, list] = {}
    by_pair: dict[tuple, list] = {}
    for rel in sentence.relations:
        subject = sentence.entities[rel.subject]
        obj = sentence.entities[rel.object]
        triple = (relation_anchor(subject, mode), relation_anchor(obj, mode),
                  schema.relation_id(rel.type))
        ends = (entity_triple(subject, schema, mode),
                entity_triple(obj, schema, mode))
        by_triple.setdefault(triple, []).append(ends)
        by_pair.setdefault(triple[:2], []).append(ends)

    gold_pairs = {(i, m) for i, m, _ in gold_r}
    pred_pairs = {(i, m) for i, m, _ in pred_r}
    sor = len(pred_r & gold_r)
    sor_np = sum(1 for i, m, _ in gold_r if (i, m) not in pred_pairs)

    def entities_predicted(ends) -> bool:
        return any(s in pred_e and o in pred_e for s, o in ends)

    etsor = sum(1 for triple in pred_r & gold_r
                if entities_predicted(by_triple[triple]))
    son = 0
    etson = 0
    for i, m, k in pred_r:
        if (i, m) in gold_pairs and (i, m, k) not in gold_r:
            son += 1
            if entities_predicted(by_pair[(i, m)]):
                etson += 1

    return Counter(ET=et, EN=en, ET_NP=et_np, SOR=sor, SON=son,
                   SOR_NP=sor_np, ETSOR=etsor, ETSON=etson)


# ---------------------------------------------------------------------------
# corpus-level report


def _tail_anchored(relations, entities) -> frozenset:
    """Move start-anchored relation cells to the tails of the predicted
    entities that start at each anchor, every combination; an anchor where
    no entity starts is read as a one-token span."""
    tails: dict[int, list] = {}
    for i, j, _ in entities:
        tails.setdefault(i, []).append(j)
    return frozenset((j_s, j_o, k) for i, m, k in relations
                     for j_s in tails.get(i, (i,))
                     for j_o in tails.get(m, (m,)))


def evaluate_corpus(sentences, predictions, schema: LabelSchema,
                    mode: MatchMode) -> dict:
    """Score a corpus and return the full report as a JSON-ready dict."""
    if len(sentences) != len(predictions):
        raise ContractError(
            f"{len(sentences)} sentences but {len(predictions)} predictions")
    ner_types = [PRF1() for _ in schema.entity_types]
    re_types = [PRF1() for _ in schema.relation_types]
    taxonomy = Counter()
    # sentences, entity and relation micro counts of the OOT (no gold
    # relation) and IT subsets; the corpus's micro counts are their sums
    subsets = {"oot": [0, PRF1(), PRF1()], "it": [0, PRF1(), PRF1()]}
    for sentence, pred in zip(sentences, predictions):
        pred_e = project_entity_triples(pred.entities, mode)
        gold_e = gold_entities(sentence, schema, mode)
        pred_r = frozenset(pred.relations)
        if mode is MatchMode.TAIL and sentence.mode is MatchMode.EXACT:
            pred_r = _tail_anchored(pred_r, pred.entities)
        gold_r = gold_relations(sentence, schema, mode)
        counts = subsets["it" if sentence.relations else "oot"]
        counts[0] += 1
        counts[1] += score_sets(pred_e, gold_e)
        counts[2] += score_sets(pred_r, gold_r)
        for k, cell in enumerate(per_type_scores(pred_e, gold_e, schema.u)):
            ner_types[k] += cell
        for k, cell in enumerate(per_type_scores(pred_r, gold_r, schema.v)):
            re_types[k] += cell
        taxonomy += _taxonomy(pred_e, gold_e, pred_r, gold_r, sentence,
                              schema, mode)

    oot, it = subsets["oot"], subsets["it"]
    return {
        "match_mode": mode.value,
        "n_sentences": len(sentences),
        "ner": {
            "micro": (oot[1] + it[1]).to_json(),
            "macro_f1": macro_f1(ner_types),
            "per_type": {name: cell.to_json() for name, cell
                         in zip(schema.entity_types, ner_types)},
        },
        "re": {
            "micro": (oot[2] + it[2]).to_json(),
            "macro_f1": macro_f1(re_types),
            "per_type": {name: cell.to_json() for name, cell
                         in zip(schema.relation_types, re_types)},
        },
        **{key: {"n_sentences": n, "ner": {"micro": ner.to_json()},
                 "re": {"micro": re.to_json()}}
           for key, (n, ner, re) in subsets.items()},
        "error_taxonomy": {key: taxonomy[key] for key in _TAXONOMY_KEYS},
    }
