"""A tour of the reverse-mode kernel over the operations darter records.

Every differentiable value is a float64 array tracked on a Record. Running
an operation appends a node; Record.backward walks the node list in reverse
and accumulates gradients. A training step records only a handful of
operations: `take` gathers the token embeddings, `dam_sequence` runs a
whole recurrent layer, `pair_heads` scores the entity and relation tables
(one node each), `bce` scores each table against its gold, and `add` sums
the two losses. Each fused node's backward is written by hand; this script
builds one step from them and audits its gradients against central finite
differences. (The generic operations the kernels are checked against live
with the composed reference in tests/ops.py.)
"""

import numpy as np

import darter.autodiff as ad
from darter.autodiff import ParamStore, Record
from darter.decoders import DecoderParams
from darter.encoder import DamParams
from darter.gradcheck import max_relative_error, numeric_gradients

# A ParamStore owns named parameter arrays with seeded initialization:
# an embedding table, one recurrent layer of three streams, and two heads.
d = 4
store = ParamStore(seed=0)
store.add_uniform("embed", (6, d), fan_in=d)
DamParams.register(store, "dam", d_in=d, d_h=d)
DecoderParams.register(store, "ner", n_streams=1, d_h=d, width=2)
DecoderParams.register(store, "re", n_streams=1, d_h=d, width=1)

tokens = [1, 3, 1]                   # token 1 appears twice
t = len(tokens)
rng = np.random.default_rng(0)
entity_gold = (rng.uniform(size=(t, t, 2)) < 0.3).astype(float)
relation_gold = (rng.uniform(size=(t, t, 1)) < 0.3).astype(float)
# the cross-stream mix of the forget features, rows (s, r, o):
# s receives o - r, r receives o - s, o receives s + r
mix = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
head_keys = ("w_pair", "b_pair", "ln_gain", "ln_bias", "w_out", "b_out")


def step_loss(p):
    """One training step's loss from the bound parameters `p`."""
    x = ad.take(p["embed"], tokens)               # [t, d] rows
    layer, _ = ad.dam_sequence(
        x, *(p[f"dam.{k}"] for k in ("w_z", "b_z", "w_f", "b_f", "w_c",
                                     "b_c", "w_a", "b_a")), mix=mix)
    # stream coefficients (s, r, o): subject plus object for entities,
    # r + (alpha * o - beta * s) with alpha = beta = 1 for relations
    entities, relations = ad.pair_heads([layer], [
        (coeffs, *(p[f"{name}.{k}"] for k in head_keys))
        for name, coeffs in (("ner", (1.0, 0.0, 1.0)),
                             ("re", (-1.0, 1.0, 1.0)))])
    return ad.add(ad.bce(entities, entity_gold),
                  ad.bce(relations, relation_gold))


# Binding the store to a Record makes every parameter a tracked leaf.
record = Record()
bound = store.bind(record)
loss = step_loss(bound)
print("forward value:", loss.item())
tags = [node.tag for node in record.nodes]
print(f"the step recorded {len(tags)} nodes: {tags.count('leaf')} leaves,",
      [tag for tag in tags if tag != "leaf"])

# backward() fills per-node gradients; grad() reads them back by tensor.
# take() scatter-adds on the way back, so the two uses of token 1 sum
# into its embedding row; rows of unused tokens stay zero.
record.backward(loss)
analytic = {name: record.grad(leaf) for name, leaf in bound.items()}
print("embedding rows with a gradient:",
      np.flatnonzero(np.abs(analytic["embed"]).sum(axis=1)))

# The analytic gradients agree with central finite differences. The checker
# perturbs the store in place and re-runs a forward-only closure, so it never
# touches the backward rules it is auditing.


def loss_value():
    return step_loss(store.bind(Record(recording=False))).item()


numeric = numeric_gradients(loss_value, store)
print("max relative error vs finite differences:",
      f"{max_relative_error(analytic, numeric):.2e}")
