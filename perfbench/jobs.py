"""The four workloads: their set-up, their operations and the checks on
each operation's output.

Every workload is a closed loop: one caller, the next operation issued
when the previous one returns, no threads or processes of its own. Each
operation is a call into a public entry point (chansim.cli.run on a
parsed argv with --out in a scratch directory, or a library function)
plus a check that runs after the operation's clock has stopped. A check
returns the text the operation's digest is taken over, the number of FAIL
bound rows, and the invariants it found broken.

The benchmark seed is mapped onto chansim master seeds as
base + 1000003 * seed, so seed 0 runs the documented base seeds (7 for
covering builds, 11 for derandomization, 3 for zero-error restarts, 5 for
dilution sampling); the program sees only the resulting integers.
"""

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chansim import applications, cli, fidelity, simulate, typeclasses

INSTANCES = ("bsc25", "skewed_pair")
DELTA, EPSILON = 2.0, 0.1
SIM_FLAGS = ["--delta", "2", "--epsilon", "0.1"]
STREAM_BLOCKS = 1500          # per stream kind and pass
WARMUP_BLOCKS = 200           # per stream kind, untimed
LAW_ROW_TOL = 1e-12
ORACLE_SLACK = 1e-4


def master_seed(seed: int, base: int) -> int:
    return (base + 1000003 * seed) % 2 ** 64


@dataclass
class Op:
    name: str
    group: str                # digests are taken per group
    call: Callable
    check: Callable           # result -> (digest text, FAIL rows, problems)


def numbers(*values) -> str:
    return ",".join("%.12g" % float(v) for v in values)


def dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def law_problems(rows, what):
    dev = float(np.abs(np.asarray(rows).sum(axis=-1) - 1.0).max())
    return [] if dev <= LAW_ROW_TOL else [f"{what}: law row sums off by {dev:.3g}"]


def cli_invariants(record):
    out, problems = record.outputs, []
    if "lambda_measured" in out and not out["lambda_measured"] <= out["lambda_bound"]:
        problems.append(f"lambda_measured {out['lambda_measured']} > "
                        f"lambda_bound {out['lambda_bound']}")
    if "oracle_gap" in out and \
            not out["oracle_gap"] <= out["oracle_accuracy"] + ORACLE_SLACK:
        problems.append(f"oracle gap {out['oracle_gap']} beyond accuracy "
                        f"{out['oracle_accuracy']} + {ORACLE_SLACK}")
    return problems


class Workload:
    """Set-up happens in the constructor; ops() lists one pass."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.paths = {name: os.path.join(ctx.root, "demos", "instances", f"{name}.json")
                      for name in INSTANCES + ("three_letter_target",)}
        self.inst = {}
        for name, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                self.inst[name] = cli.InstanceBundle(json.load(fh))

    def seed(self, base):
        return str(master_seed(self.ctx.seed, base))

    def cli_op(self, name, argv):
        ctx = self.ctx

        def call():
            out = ctx.fresh_dir()
            return out, cli.run(cli.build_config(argv + ["--out", out]))

        def check(result):
            out, record = result
            digest = dir_digest(out)
            shutil.rmtree(out)
            fails = sum(not c.passed for c in record.comparisons)
            return digest, fails, cli_invariants(record)
        return Op(name, name, call, check)

    def ops(self):
        return self._ops


class CoverBuild(Workload):
    def __init__(self, ctx):
        super().__init__(ctx)
        self._ops = [self.cli_op(f"simulate-rates-only-n10-{name}",
                                 ["simulate", self.paths[name], "--rates-only", "--n", "10",
                                  "--seed", self.seed(7)] + SIM_FLAGS)
                     for name in INSTANCES]


class ExactLaw(Workload):
    def __init__(self, ctx):
        super().__init__(ctx)
        ops = []
        for name in INSTANCES:
            for n in (6, 7, 8):
                ops.append(self.cli_op(f"simulate-n{n}-{name}",
                                       ["simulate", self.paths[name], "--n", str(n),
                                        "--seed", self.seed(7)] + SIM_FLAGS))
            ops.append(self.cli_op(f"derandomize-n6-{name}",
                                   ["derandomize", self.paths[name], "--n", "6",
                                    "--seed", self.seed(11)] + SIM_FLAGS))
        bsc = self.inst["bsc25"]
        seed = int(self.seed(7))

        def fidelity_call():
            code = simulate.build_sim_code(bsc.source, bsc.channel, 6, DELTA, EPSILON, seed)
            family, weights = fidelity.sim_code_family(code)
            return family, fidelity.measure_fidelity(bsc.source, bsc.channel, family, weights)

        def fidelity_check(result):
            family, rep = result
            return (numbers(rep.global_err, rep.local_err, rep.letterwise_source_err,
                            rep.empirical_joint_err),
                    0, law_problems([ch.rows for ch in family], "sim_code_family"))

        def pair_call():
            return applications.pair_simulation_pipeline(bsc.source, bsc.channel, 5,
                                                         DELTA, EPSILON, seed)

        def pair_check(res):
            return (numbers(res.message_count, res.code_joint_tv, res.dilution_tv,
                            res.joint_tv, res.cr_bits_exact),
                    0, law_problems(res.message_law.probs, "pair message law"))

        def rd_call():
            spec = applications.DistortionSpec.hamming(2, 0.1)
            return applications.rd_code_via_simulation(bsc.source, spec, 2, 6, DELTA,
                                                       EPSILON, seed)

        def rd_check(res):
            problems = []
            if not res.distortion <= res.average_distortion + LAW_ROW_TOL:
                problems.append("selected slice worse than the index average")
            if not res.distortion <= res.target_d + res.slack:
                problems.append("selected slice beyond target plus slack")
            return (numbers(res.rd_value, res.nu, res.distortion, res.average_distortion,
                            res.rate, res.slack), 0, problems)

        ops += [Op("sim_code_family-measure_fidelity-n6-bsc25", "fidelity-n6",
                   fidelity_call, fidelity_check),
                Op("pair_simulation_pipeline-n5-bsc25", "pair-n5", pair_call, pair_check),
                Op("rd_code_via_simulation-n6-bsc25", "rd-code-n6", rd_call, rd_check)]
        self._ops = ops


class Solvers(Workload):
    def __init__(self, ctx):
        super().__init__(ctx)
        ops = []
        for name in INSTANCES:
            ops.append(self.cli_op(f"zero-error-{name}",
                                   ["zero-error", self.paths[name], "--restarts", "20",
                                    "--oracle-resolution", "32", "--seed", self.seed(3)]))
            ops.append(self.cli_op(f"rd-{name}",
                                   ["rd", self.paths[name], "--hamming", "2",
                                    "--targets", "0.02:0.4:12",
                                    "--certify-resolution", "400"]))
        ops.append(self.cli_op("dilute-three_letter_target",
                               ["dilute", self.paths["three_letter_target"],
                                "--epsilon", "0.1", "--samples", "20000",
                                "--seed", self.seed(5)]))
        self._ops = ops


class ProtocolStream(Workload):
    """Online encode/decode blocks on two prebuilt codes. Set-up builds the
    codes, fills their per-type tables through output_distribution on one
    word of every typical type, and runs untimed warm-up blocks."""

    def __init__(self, ctx):
        super().__init__(ctx)
        bsc, skew = self.inst["bsc25"], self.inst["skewed_pair"]
        self.code = simulate.build_sim_code(bsc.source, bsc.channel, 8, DELTA, EPSILON,
                                            int(self.seed(7)))
        base = simulate.build_sim_code(skew.source, skew.channel, 6, DELTA, EPSILON,
                                       int(self.seed(11)))
        self.dcode = fidelity.derandomize(base, EPSILON, int(self.seed(11)))
        for code in (self.code, base):
            spec = typeclasses.TypicalSpec(code.source, code.n, code.delta)
            for t in typeclasses.typical_types(spec):
                simulate.output_distribution(
                    code, np.repeat(np.arange(t.alphabet_size), t.counts))
        rng = np.random.default_rng([ctx.seed % 2 ** 64, 1])
        self.x8 = [tuple(int(v) for v in row) for row in
                   rng.choice(2, size=(STREAM_BLOCKS, 8), p=bsc.source.probs)]
        self.nu8 = [int(v) for v in rng.integers(0, self.code.N, size=STREAM_BLOCKS)]
        self.x6 = [tuple(int(v) for v in row) for row in
                   rng.choice(2, size=(STREAM_BLOCKS, 6), p=skew.source.probs)]
        for op in self._stream(WARMUP_BLOCKS, 3):
            op.check(op.call())

    def _stream(self, blocks, stream_id):
        code, dcode = self.code, self.dcode
        enc = np.random.default_rng([self.ctx.seed % 2 ** 64, stream_id])
        ops = []
        for i in range(blocks):
            x, nu = self.x8[i], self.nu8[i]
            ops.append(Op(f"run_protocol-{i}", "run_protocol",
                          lambda x=x, nu=nu: simulate.run_protocol(code, x, nu, enc),
                          lambda tr, x=x: block_check(code, x, tr)))
        for i in range(blocks):
            x = self.x6[i]
            ops.append(Op(f"run_fixed_code-{i}", "run_fixed_code",
                          lambda x=x: fidelity.run_fixed_code(dcode, x, enc),
                          lambda tr, x=x: block_check(dcode.base, x, tr, dcode)))
        return ops

    def ops(self):
        return self._stream(STREAM_BLOCKS, 2)


def block_check(code, x, tr, dcode=None):
    """The decoded word must form the announced joint type with the input
    (or be the fallback word on termination)."""
    problems = []
    if tr.announced_type == simulate.TERMINATE:
        mu = -1
        if tr.y_word != code.fallback_word():
            problems.append("terminated block did not emit the fallback word")
    else:
        mu = tr.mu
        t = tr.announced_type
        got = typeclasses.count_joint_occurrences(x, tr.y_word, t.x_size, t.y_size)
        if got != t or not 0 <= mu < code.records[t].M:
            problems.append(f"block output breaks announced type {t.counts}")
    if dcode is not None and (tr.nu not in dcode.selected_indices
                              or tr.randomness_used != 0.0):
        problems.append("fixed code used an index outside its sampled list")
    text = f"{tr.nu},{mu},{''.join(map(str, tr.y_word))},{tr.bits_sent:.12g}"
    return text, 0, problems


WORKLOADS = {
    "cover-build": CoverBuild,
    "exact-law": ExactLaw,
    "solvers": Solvers,
    "protocol-stream": ProtocolStream,
}
