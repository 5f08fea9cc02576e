"""Turn one uniform random draw into an arbitrary target distribution.

Probabilities are grouped into geometric buckets; a helper distribution
over buckets gets integer weights, and one uniform index then selects a
bucket and a member. The realized law lands within a total-variation
budget of the target that the caller controls through epsilon.
"""

import math

from chansim.applications import build_dilution, realize_indices, uniform_indices
from chansim.core_prob import Distribution

target = Distribution.from_probs([0.7, 0.2, 0.1])
epsilon = 0.1

plan = build_dilution(target, epsilon)
print(f"bucket count k        = {plan.k}")
print(f"helper size k^2       = {plan.helper_size}")
print(f"uniform source bits   = {math.log2(plan.total_uniform_size):.2f}")
print(f"tail mass dropped     = {plan.infinite_mass:.3g}")

print("\nbuckets (interval index, members, weight / k^2):")
for b in plan.buckets:
    if b.weight_count:
        print(f"  {b.interval_index:3d}  {b.members.tolist()}  {b.weight_count}")

tv = plan.tv_error()
print(f"\nrealized tv from target = {tv:.6f}"
      f"  (budget 2*eps + 1/k = {2 * epsilon + 1 / plan.k:.6f})")

stream = uniform_indices(plan.total_uniform_size, seed=5, count=20)
draws = realize_indices(plan, stream).tolist()
print(f"twenty draws: {draws}")
