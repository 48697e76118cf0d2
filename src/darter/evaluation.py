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

__all__ = ["PRF1", "evaluate_corpus"]


@dataclass(frozen=True)
class PRF1:
    tp: int = 0
    fp: int = 0
    fn: int = 0

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
    # each triple once, keyed (subset, task, tp/fp/fn, its own type id): a
    # false positive counts for the predicted type, a miss for the gold one
    counts, n_sentences, taxonomy = Counter(), Counter(), Counter()
    for sentence, pred in zip(sentences, predictions):
        pred_e = frozenset((j, j, k) for _, j, k in pred.entities) \
            if mode is MatchMode.TAIL else frozenset(pred.entities)
        gold_e = gold_entities(sentence, schema, mode)
        pred_r = frozenset(pred.relations)
        if mode is MatchMode.TAIL and sentence.mode is MatchMode.EXACT:
            pred_r = _tail_anchored(pred_r, pred.entities)
        gold_r = gold_relations(sentence, schema, mode)
        subset = "it" if sentence.relations else "oot"
        n_sentences[subset] += 1
        for task, pred_t, gold_t in (("ner", pred_e, gold_e),
                                     ("re", pred_r, gold_r)):
            for outcome, triples in (("tp", pred_t & gold_t),
                                     ("fp", pred_t - gold_t),
                                     ("fn", gold_t - pred_t)):
                counts.update((subset, task, outcome, k)
                              for _, _, k in triples)
        taxonomy += _taxonomy(pred_e, gold_e, pred_r, gold_r, sentence,
                              schema, mode)

    def cell(task, subsets=("oot", "it"), type_id=None) -> PRF1:
        return PRF1(*(sum(n for (s, t, o, k), n in counts.items()
                          if t == task and o == outcome and s in subsets
                          and (type_id is None or k == type_id))
                      for outcome in ("tp", "fp", "fn")))

    def task_report(task, names) -> dict:
        per_type = [cell(task, type_id=k) for k in range(len(names))]
        return {"micro": cell(task).to_json(),
                "macro_f1": sum(c.f1 for c in per_type) / len(per_type),
                "per_type": {name: c.to_json()
                             for name, c in zip(names, per_type)}}

    return {
        "match_mode": mode.value,
        "n_sentences": len(sentences),
        "ner": task_report("ner", schema.entity_types),
        "re": task_report("re", schema.relation_types),
        **{subset: {"n_sentences": n_sentences[subset],
                    "ner": {"micro": cell("ner", (subset,)).to_json()},
                    "re": {"micro": cell("re", (subset,)).to_json()}}
           for subset in ("oot", "it")},
        "error_taxonomy": {key: taxonomy[key] for key in _TAXONOMY_KEYS},
    }
