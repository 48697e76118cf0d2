"""Inside the recurrent encoder: three streams and how they mix.

The cell keeps separate subject, relation, and object streams per token.
Each step projects the token into all three, mixes the streams' forget
features without extra parameters, and gates memory with the mixed result.
This script runs one cell over a toy sentence and inspects the mechanics.
"""

import numpy as np

from darter.autodiff import ParamStore, Record, constant
from darter.encoder import (SUBTASKS, DamParams, Direction, encode_sequence,
                            layer_direction)

rng = np.random.default_rng(7)
d_p, d_h, t = 4, 5, 3

store = ParamStore(seed=7)
DamParams.register(store, "cell", d_p, d_h)
params = DamParams.bind(store.bind(Record()), "cell")
x = constant(rng.standard_normal((t, d_p)))

out = encode_sequence(x, params, collect_trace=True)
print("stacked output (token, field, stream, unit):", out.stacked.shape)
for p in SUBTASKS:
    print(f"  h_tilde[{p}] shape {out.stream('h_tilde', p).shape}")

# The cross-stream mix is parameter-free: the subject stream receives
# object-minus-relation, the relation stream object-minus-subject, and the
# object stream subject-plus-relation. The trace lets us verify that at
# every token.
step = out.trace[1]
f_s, f_r, f_o = (step.by_subtask("f", p) for p in SUBTASKS)
print("\nmix handed to each stream at token 1:")
print("  s gets o - r, error:",
      np.abs(step.by_subtask("inter", "s") - (f_o - f_r)).max())
print("  r gets o - s, error:",
      np.abs(step.by_subtask("inter", "r") - (f_o - f_s)).max())
print("  o gets s + r, error:",
      np.abs(step.by_subtask("inter", "o") - (f_s + f_r)).max())

# With mixing disabled the three streams evolve independently; the handed
# mix is identically zero.
plain = encode_sequence(x, params, interaction=False, collect_trace=True)
print("\nmix with interaction off:",
      np.abs(plain.trace[1].inter).max())

# Running right-to-left is exactly running left-to-right on the reversed
# sentence and flipping the outputs back, so one parameter set serves both
# directions.
rtl = encode_sequence(x, params, Direction.RIGHT_TO_LEFT)
flipped = encode_sequence(constant(x.values[::-1].copy()), params,
                          Direction.LEFT_TO_RIGHT)
gap = np.abs(rtl.stacked.values - flipped.stacked.values[::-1]).max()
print("\nright-to-left vs mirrored left-to-right, max gap:", gap)

# Stacked layers alternate direction, which is what the two-layer variant
# uses to give every token context from both sides.
print("\nlayer directions:",
      [layer_direction(i).value for i in range(4)])
