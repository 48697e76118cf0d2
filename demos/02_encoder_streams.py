"""Inside the recurrent encoder: three streams and how they mix.

The cell keeps separate subject, relation, and object streams per token.
Each step projects the token into all three, mixes the streams' forget
features without extra parameters, and gates memory with the mixed result.
This script runs one cell over a toy sentence and inspects the mechanics.
"""

import numpy as np

from darter.autodiff import ParamStore, Record, constant
from darter.encoder import (SUBTASKS, DamParams, encode_sequence,
                            encode_stacked, trace_sequence)

rng = np.random.default_rng(7)
d_p, d_h, t = 4, 5, 3

store = ParamStore(seed=7)
DamParams.register(store, "cell", d_p, d_h)
DamParams.register(store, "cell1", d_h, d_h)
bound = store.bind(Record())
params, second = (DamParams.bind(bound, name) for name in ("cell", "cell1"))
x = constant(rng.standard_normal((t, d_p)))

out = encode_sequence(x, params)
print("stacked output (token, field, stream, unit):", out.shape)
for k, p in enumerate(SUBTASKS):
    print(f"  h_tilde[{p}] shape {out.values[:, 0, k].shape}")

# The cross-stream mix is parameter-free: the subject stream receives
# object-minus-relation, the relation stream object-minus-subject, and the
# object stream subject-plus-relation. The trace holds every quantity as
# one [token, stream, unit] array, which lets us verify that at every token.
trace = trace_sequence(x, params)
f_s, f_r, f_o = trace["f"].swapaxes(0, 1)  # streams in SUBTASKS order
inter_s, inter_r, inter_o = trace["inter"].swapaxes(0, 1)
print("\nmix handed to each stream, over all", t, "tokens:")
print("  s gets o - r, error:", np.abs(inter_s - (f_o - f_r)).max())
print("  r gets o - s, error:", np.abs(inter_r - (f_o - f_s)).max())
print("  o gets s + r, error:", np.abs(inter_o - (f_s + f_r)).max())

# Running right-to-left is exactly running left-to-right on the reversed
# sentence and flipping the outputs back, so one parameter set serves both
# directions.
rtl = encode_sequence(x, params, reverse=True)
flipped = encode_sequence(constant(x.values[::-1].copy()), params)
gap = np.abs(rtl.values - flipped.values[::-1]).max()
print("\nright-to-left vs mirrored left-to-right, max gap:", gap)

# Stacked layers alternate direction, which is what the two-layer variant
# uses to give every token context from both sides: layer 1 runs
# right-to-left over layer 0's output.
layers = encode_stacked(x, [params, second])
by_hand = encode_sequence(layers[0], second, reverse=True)
print("\nlayer 1 of the stack vs a right-to-left cell over layer 0, max gap:",
      np.abs(layers[1].values - by_hand.values).max())
