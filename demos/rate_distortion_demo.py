"""Rate-distortion: the curve, an exhaustive certificate, and a block code.

For a fair binary source under bit-flip distortion the minimum rate has the
closed form 1 - h(d). The alternating minimizer reproduces it, the grid
oracle certifies it, and the channel-simulation machinery turns the optimal
test channel into a working fixed-rate block code with a reported slack.
"""

import numpy as np

from chansim.applications import (DistortionSpec, rd_code_via_simulation,
                                  rd_function, rd_grid_oracle)
from chansim.core_prob import Distribution, binary_entropy

source = Distribution.uniform(2)
hamming = 1.0 - np.eye(2)

specs = [DistortionSpec(hamming, d) for d in (0.05, 0.1, 0.25, 0.4)]
curve = rd_grid_oracle(source, specs, 2, resolution=400)   # one grid pass
print(" d      R(d)        1-h(d)      grid oracle")
for spec, (grid, _) in zip(specs, curve):
    d = spec.target_d
    rate, _ = rd_function(source, spec, 2)
    print(f"{d:.2f}  {rate:.8f}  {1 - binary_entropy(d):.8f}  {grid:.8f}")

res = rd_code_via_simulation(source, DistortionSpec(hamming, 0.25), 2,
                             n=6, delta=2.0, epsilon=0.1, seed=7)
print(f"\nblock code at n=6, target distortion 0.25:")
print(f"  selected index        = {res.nu}")
print(f"  per-letter distortion = {res.distortion:.6f}")
print(f"  reported slack        = {res.slack:.6f}")
print(f"  message rate          = {res.rate:.6f} bits/letter"
      f"  (single-letter optimum {res.rd_value:.6f})")
print("  the finite-n rate sits far above the curve; the guarantee is the")
print("  distortion budget, and the gap closes only as n grows")
