"""The whole gradient path at full size: d = 32, the real `_PAIR_BLOCK`,
sentences of 7, 35 and 100 tokens. At d_h = 32 a pair-table block holds 29
rows at t = 35 (an uneven 29 + 6 split) and 10 at t = 100 (ten blocks), so
the streamed pair backward runs as it does on long inputs. Each parameter
array is checked along one seeded random direction (`directional_errors`);
a gradient 0.1% off in one array fails the same check."""

import numpy as np
import pytest

import darter.autodiff as ad
from darter.corpus import MatchMode, Vocabulary, entity_mask
from darter.model import VARIANTS, JointModel, ModelConfig
from darter.synthetic import synthetic_corpus, synthetic_schema
from darter.training import LossWeights, sentence_loss

from oracles import directional_errors

BOUND = 1e-5
WEIGHTS = LossWeights(gamma=0.85, delta=1.0)


def analytic_and_loss(t, seed, **config):
    """A d = 32 model, the loss of a random t-token sentence, and the
    analytic gradient of every parameter array."""
    schema = synthetic_schema()
    model = JointModel(ModelConfig(d_p=32, d_h=32, seed=seed, **config),
                       schema, Vocabulary.from_corpus(synthetic_corpus()))
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, model.vocab.size, size=t)
    gold_e = (rng.random((t, t, schema.u)) < 0.1).astype(np.float64)
    gold_r = (rng.random((t, t, schema.v)) < 0.1).astype(np.float64)
    mask = entity_mask(t, schema.u, model.config.match_mode,
                       model.config.mask_reversed_entity_cells)

    def loss(recording):
        forward = model.forward(ids, recording=recording)
        return forward, sentence_loss(forward, gold_e, gold_r, mask, WEIGHTS)

    forward, value = loss(recording=True)
    found = forward.record.backward(value)
    analytic = {name: found.get(leaf.node_id, np.zeros_like(leaf.values))
                for name, leaf in forward.bound.items()}
    return model, analytic, lambda: loss(recording=False)[1].item()


ABLATIONS = {"tail": {"match_mode": MatchMode.TAIL},
             "no-interaction": {"interaction": False},
             "no-entity-features": {"entity_features_in_re": False}}
CASES = ([pytest.param(variant, t, {}, id=f"{variant}-t{t}")
          for variant in VARIANTS for t in (7, 35, 100)]
         + [pytest.param(variant, 35, config, id=f"{variant}-t35-{name}")
            for variant in VARIANTS for name, config in ABLATIONS.items()])


def test_the_lengths_stream_the_pair_table_in_uneven_and_many_blocks():
    rows = [ad._PAIR_BLOCK // (t * 32) for t in (7, 35, 100)]
    assert rows == [146, 29, 10]


@pytest.mark.parametrize("variant,t,config", CASES)
def test_full_size_gradients_match_directional_differences(variant, t,
                                                           config):
    model, analytic, loss_fn = analytic_and_loss(t, seed=t, variant=variant,
                                                 **config)
    before = model.store.flat.copy()
    errors = directional_errors(loss_fn, model.store, analytic, seed=t)
    assert model.store.flat.tobytes() == before.tobytes()
    assert set(errors) == set(model.store.names())
    worst = max(errors, key=errors.get)
    assert errors[worst] < BOUND, (worst, errors[worst])


@pytest.mark.parametrize("name", ["embedding", "dam1.b_a", "ner.ln_gain",
                                  "re.b_out"])
def test_a_gradient_one_part_in_a_thousand_off_fails_the_check(name):
    model, analytic, loss_fn = analytic_and_loss(7, seed=7,
                                                 variant="bidarter")
    analytic[name] = analytic[name] * 1.001
    errors = directional_errors(loss_fn, model.store, analytic, seed=7)
    assert max(errors.values()) > BOUND
    assert max(errors, key=errors.get) == name
