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
from .corpus import LabelSchema, MatchMode, gold_entities, relation_ends

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


def _joint_taxonomy(pred_e, right, wrong, ends: dict) -> Counter:
    """ETSOR over the correct relation predictions `right`, ETSON over the
    wrong-type ones `wrong`. `ends` maps each gold relation triple to the
    gold entity triples, subject and object, of every relation behind it."""

    def entities_predicted(triples) -> bool:
        return any(s in pred_e and o in pred_e
                   for triple in triples for s, o in ends[triple])

    return Counter(
        ETSOR=sum(entities_predicted([triple]) for triple in right),
        ETSON=sum(entities_predicted([g for g in ends if g[:2] == p[:2]])
                  for p in wrong))


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
        ends = relation_ends(sentence, schema, mode)
        gold_r = frozenset(ends)
        subset = "it" if sentence.relations else "oot"
        n_sentences[subset] += 1
        for task, keys, pred_t, gold_t in (
                ("ner", ("ET", "EN", "ET_NP"), pred_e, gold_e),
                ("re", ("SOR", "SON", "SOR_NP"), pred_r, gold_r)):
            right, false = pred_t & gold_t, pred_t - gold_t
            for outcome, triples in (("tp", right), ("fp", false),
                                     ("fn", gold_t - pred_t)):
                counts.update((subset, task, outcome, k)
                              for _, _, k in triples)
            gold_pairs = {triple[:2] for triple in gold_t}
            pred_pairs = {triple[:2] for triple in pred_t}
            wrong = [p for p in false if p[:2] in gold_pairs]
            taxonomy.update(dict(zip(keys, (
                len(right), len(wrong),
                sum(g[:2] not in pred_pairs for g in gold_t)))))
        # `right` and `wrong` hold the relations, from the loop's last pass
        taxonomy += _joint_taxonomy(pred_e, right, wrong, ends)

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
