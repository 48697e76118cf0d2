"""Sweep the mixing and loss weights on a held-out slice of the corpus.

Two knobs scale the entity streams feeding relation decoding (alpha for
objects, beta for subjects) and two more weigh the entity and relation
losses (gamma, delta). Each grid point refits from the same seed; the best
dev relation F1 wins, entity F1 breaks ties, then the smallest tuple.
"""

from dataclasses import asdict

from darter.corpus import Vocabulary
from darter.model import ModelConfig
from darter.synthetic import synthetic_corpus, synthetic_schema
from darter.training import TrainConfig, grid_search

schema = synthetic_schema()
corpus = synthetic_corpus()

# Sixteen sentences are too few for a genuinely held-out slice (its tokens
# would all be out of vocabulary), so this demo selects on the fit data
# just to exercise the loop; real use passes a disjoint dev corpus.
train_split = dev_split = corpus[:12]
print(f"training on {len(train_split)} sentences, "
      f"selecting on the same {len(dev_split)}")

# The full grid is 3 x 3 x 3 x 3 = 81 refits; a demo-sized slice of it
# still shows the moving parts.
result = grid_search(
    ModelConfig(), schema, Vocabulary.from_corpus(train_split),
    train_split, dev_split, TrainConfig(lr=5e-3, epochs=35),
    alphas=(1.0, -1.0), betas=(1.0,), gammas=(0.75, 1.0), deltas=(1.0,))

print("\nalpha  beta  gamma  delta |  dev ner F1  dev re F1")
for point in result.points:
    print(f"{point.alpha:5.2f} {point.beta:5.2f} {point.gamma:6.2f} "
          f"{point.delta:6.2f} | {point.ner_f1:11.3f} {point.re_f1:10.3f}")

best = result.best
print(f"\nselected alpha={best.alpha} beta={best.beta} "
      f"gamma={best.gamma} delta={best.delta} "
      f"(re F1 {best.re_f1:.3f}, ner F1 {best.ner_f1:.3f})")
print("\nserialized:", sorted(asdict(result)))
