"""Replace the shared uniform index by a short sampled list.

The protocol needs common randomness shared by encoder and decoder. Sampling
Q candidate index values and fixing the list turns it into a deterministic
code whose per-letter statistics stay within a verified corridor; the list
index costs ceil(log2 Q) extra bits, a vanishing per-letter overhead.
"""

import math

from chansim.core_prob import Channel, Distribution
from chansim.fidelity import (derandomize, derandomized_family,
                              measure_fidelity, min_nonzero_entry, required_Q)
from chansim.simulate import build_sim_code

source = Distribution.uniform(2)
channel = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])

code = build_sim_code(source, channel, n=4, delta=2.0, epsilon=0.1, seed=7)
dcode = derandomize(code, epsilon=0.1, seed=11)

print(f"sampled index count Q = {dcode.Q}")
print(f"index bits            = {dcode.index_bits()}")
print(f"exactly verified      = {dcode.verified} (retries: {dcode.retries})")

family, weights = derandomized_family(dcode)
report = measure_fidelity(source, channel, family, weights)
print(f"\nletterwise error   = {report.letterwise_source_err:.6f}"
      f"  (budget 3*eps = {3 * 0.1:.1f})")
print(f"average block tv   = {report.global_err:.6f}")

u = min_nonzero_entry(channel)
print("\nindex overhead shrinks with the block length:")
for n in range(4, 11):
    q = required_Q(n, 2, 2, 0.1, u)
    print(f"  n={n:2d}  Q={q:6d}  bits/letter={math.ceil(math.log2(q)) / n:.4f}")
