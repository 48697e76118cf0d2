"""One SHA-256 digest over seeded training and forwards, to check that a
change keeps darter's arithmetic bit for bit: run it in both checkouts
and compare the digests.

    PYTHONPATH=src python tests/bits.py

For darter and bidarter at d_p = d_h = 3, 8 and 32 (bundled corpus, model
seed 5), each of three (alpha, beta, entity_features_in_re, interaction)
settings and batch sizes 1 and 3 (2 epochs, lr 1e-2, train seed 2), it
hashes the float64 loss history, `store.flat`, both probability tables
of an unrecorded and a recorded forward at t = 1, 5, 20, 40 and 100 on
token ids drawn with numpy seed 11, and the sorted thresholded
predictions at each length. The t = 100 tables at d = 8
and 32, and the t = 40 ones at d = 32, stream through the pair workspace.
The name keeps pytest from collecting it; it takes a few seconds.
"""

import hashlib
from dataclasses import replace

import numpy as np

from darter.corpus import Vocabulary
from darter.decoders import threshold_predictions
from darter.model import JointModel, ModelConfig
from darter.synthetic import synthetic_corpus, synthetic_schema
from darter.training import TrainConfig, train

SETTINGS = ((1.0, 1.0, True, True), (0.5, -1.0, True, False),
            (-1.0, 0.5, False, True))
LENGTHS = (1, 5, 20, 40, 100)


def digest() -> str:
    sentences, schema = synthetic_corpus(), synthetic_schema()
    vocab = Vocabulary.from_corpus(sentences)
    sha = hashlib.sha256()
    for variant in ("darter", "bidarter"):
        for d in (3, 8, 32):
            base = ModelConfig(variant=variant, d_p=d, d_h=d, seed=5)
            for alpha, beta, features, interaction in SETTINGS:
                config = replace(base, alpha=alpha, beta=beta,
                                 entity_features_in_re=features,
                                 interaction=interaction)
                for batch_size in (1, 3):
                    model = JointModel(config, schema, vocab)
                    history = train(model, sentences, TrainConfig(
                        lr=1e-2, epochs=2, batch_size=batch_size, seed=2))
                    sha.update(np.asarray(history, np.float64).tobytes())
                    sha.update(model.store.flat.tobytes())
                    rng = np.random.default_rng(11)
                    for t in LENGTHS:
                        ids = rng.integers(vocab.size, size=t)
                        for recording in (False, True):
                            forward = model.forward(ids, recording)
                            sha.update(forward.entities.probs.values.tobytes())
                            sha.update(
                                forward.relations.probs.values.tobytes())
                        found = threshold_predictions(forward.entities,
                                                      forward.relations)
                        sha.update(repr((sorted(found.entities),
                                         sorted(found.relations))).encode())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
