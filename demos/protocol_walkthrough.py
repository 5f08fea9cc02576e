"""Walk through one run of the channel-simulation protocol.

Builds the covering code for a binary symmetric channel at block length 4,
encodes a single input word under a pinned shared-randomness index, decodes
it back, and then checks how close the protocol's exact output law is to
the true channel on every typical word.
"""

from chansim.core_prob import (Channel, Distribution, entropy, mutual_information,
                               output_marginal)
from chansim.simulate import (accounting, build_sim_code, run_protocol,
                              strong_fidelity_report)

SEED = 7

source = Distribution.uniform(2)
channel = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])

code = build_sim_code(source, channel, n=4, delta=2.0, epsilon=0.1, seed=SEED)
print(f"jointly typical types: {len(code.typical_joint_types)}")
print(f"shared-randomness lists per type: N = {code.N}")
print(f"messages per block: {code.message_count} (every type's slots, then terminate)")

rate, cr_rate = accounting(code)
print(f"\nmessage rate        = {rate:.6f} bits/letter")
print(f"common randomness   = {cr_rate:.6f} bits/letter")
floors = [("message rate >= mutual information", rate,
           mutual_information(source, channel)),
          ("message plus randomness rate >= output entropy", rate + cr_rate,
           entropy(output_marginal(source, channel)))]
for name, lhs, rhs in floors:
    flag = "ok" if lhs >= rhs - 1e-9 else "VIOLATED"
    print(f"  {name}: slack {lhs - rhs:+.6f} [{flag}]")

x_word = (0, 1, 1, 0)
transcript = run_protocol(code, x_word, nu=2, seed=SEED)
print(f"\ninput word      {x_word}")
print(f"announced type  {transcript.announced_type}")
print(f"slot in type    {transcript.mu}")
print(f"message         {code.offsets[transcript.announced_type] + transcript.mu}"
      f" of {code.message_count}")
print(f"decoded word    {transcript.y_word}")
print(f"bits sent       {transcript.bits_sent:.2f}")

report = strong_fidelity_report(code)
print(f"\nworst typical-word tv      = {report['lambda_measured']:.6f}")
print(f"claimed per-word ceiling   = {report['lambda_bound']:.6f}")
print(f"average tv over all words  = {report['global_err']:.6f}")
