"""Command-line front end for the toolkit.

Every number the CLI prints or writes is produced by a module operation;
this file only parses configuration, dispatches, and formats. Runs are
deterministic: the master seed fixes all randomness, CSV files carry no
timestamps, and rerunning with the same resolved configuration yields
byte-identical output files. Timings go to stderr only.

Exit codes: 0 success, 2 invalid input, 3 cap exceeded, 4 infeasible,
5 retries exhausted. Bound rows that fail (FAIL in the table) are
findings, not errors; they do not change the exit code.
"""

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ._seeds import child_seed
from .applications import (DistortionSpec, build_dilution, expected_distortion,
                           rd_function, rd_grid_oracle, realize_indices,
                           uniform_index_stream)
from .core_prob import (Channel, Distribution, conditional_entropy, entropy,
                        mutual_information, output_marginal, tv_distance)
from .errors import (CAPS, CapExceededError, ChansimError, InfeasibleError,
                     InvalidInputError, RetriesExhaustedError)
from .fidelity import derandomize_with_family, measure_fidelity
from .simulate import (FamilyRecord, build_sim_code, draw_families, sized_rates,
                       sized_types, strong_fidelity_report)
from .typeclasses import TypicalSpec, typical_probability_bounds, typical_types
from .zero_error import ZeroErrorInstance, alternate, brute_force_oracle, gamma_bracket

CSV_VERSION = "v12"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CAP_EXCEEDED = 3
EXIT_INFEASIBLE = 4
EXIT_RETRIES_EXHAUSTED = 5

_CONFIG_KEYS = {"instance", "seed", "out", "caps", "params"}


@dataclass(frozen=True)
class BoundRow:
    """One inequality the run was checked against. slack >= 0 means it
    holds; reference says in plain words where the bound comes from."""
    name: str
    reference: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass
class ExperimentConfig:
    command: str
    instance: dict
    params: dict
    seed: int = 0
    out: str = None
    caps: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        """Canonical document the hash is taken over: instance content
        inlined and the caps this run overrides. Default caps are left out,
        so adding or deleting a CAPS entry rewrites no hash; a default
        change that moves an output bumps CSV_VERSION, which every header
        carries. The output directory is excluded because it changes no
        computed number."""
        return {"command": self.command, "instance": self.instance,
                "params": self.params, "seed": self.seed,
                "caps": {name: int(value) for name, value in self.caps.items()}}

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunRecord:
    config_hash: str
    command: str
    timings: dict                 # phase -> seconds; stderr only, never in files
    outputs: dict                 # scalar results in print order
    comparisons: list             # BoundRow entries
    table_columns: list = field(default_factory=list)
    table_rows: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)   # filename -> json document


def compare_bounds(record: RunRecord):
    """The run's bound checks as (name, reference, lhs, rhs, slack, passed)
    rows. A run that produced no comparisons is a reporting bug, not an
    empty table."""
    if not record.comparisons:
        raise InvalidInputError("run produced no bound comparisons")
    return [(c.name, c.reference, c.lhs, c.rhs, c.slack, c.passed)
            for c in record.comparisons]


def _row(name, reference, lhs, rhs, tol=1e-9):
    """Inequality lhs >= rhs - tol recorded with slack = lhs - rhs."""
    lhs, rhs = float(lhs), float(rhs)
    return BoundRow(name, reference, lhs, rhs, lhs - rhs, lhs >= rhs - tol)


def _row_le(name, reference, lhs, rhs, tol=1e-9):
    """Inequality lhs <= rhs + tol recorded with slack = rhs - lhs."""
    lhs, rhs = float(lhs), float(rhs)
    return BoundRow(name, reference, lhs, rhs, rhs - lhs, lhs <= rhs + tol)


# ---------------------------------------------------------------------------
# instance documents


def _load_json_file(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} {path} must hold a JSON object")
    return doc


def _is_int(value) -> bool:
    """Whether a JSON value is an integer: an int or an integral float."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer())


def _law(kind, field, shape, key, value):
    """A distribution or channel entry: an object holding its field."""
    if not isinstance(value, dict) or field not in value:
        raise InvalidInputError(f'instance "{key}" must be {{"{field}": {shape}}}')
    return kind.from_json_dict(value)


def _matrix(key, value):
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f'instance "{key}" must be numeric')
    if m.ndim != 2:
        raise InvalidInputError(f'instance "{key}" must be a matrix')
    return m


def _integer(key, value):
    if not _is_int(value):
        raise InvalidInputError(f'instance "{key}" must be an integer')
    return int(value)


# instance key -> parser of its value, in the order entries are checked
_INSTANCE_KEYS = {
    "channel": functools.partial(_law, Channel, "rows", "[[...]]"),
    "source": functools.partial(_law, Distribution, "probs", "[...]"),
    "target": functools.partial(_law, Distribution, "probs", "[...]"),
    "distortion": _matrix,
    "c_max": _integer,
}


class InstanceBundle:
    """Parsed instance document: the pieces a command may need, None where
    it has no entry; with a channel and no source, the source is uniform."""

    def __init__(self, doc: dict):
        unknown = set(doc) - set(_INSTANCE_KEYS)
        if unknown:
            raise InvalidInputError(
                f"unknown instance keys {sorted(unknown)}; "
                f"allowed: {sorted(_INSTANCE_KEYS)}")
        for key, parse in _INSTANCE_KEYS.items():
            setattr(self, key, parse(key, doc[key]) if key in doc else None)
        if self.source is None and self.channel is not None:
            self.source = Distribution.uniform(self.channel.input_size)

    def need(self, key: str):
        """The entry under key, which the running command requires."""
        value = getattr(self, key)
        if value is None:
            raise InvalidInputError(f"this command needs a {key} in the instance")
        return value


def _flag(key: str) -> str:
    """The command-line flag of a params key."""
    return "--" + key.replace("_", "-")


def _need_param(cfg: ExperimentConfig, key: str):
    value = cfg.params.get(key)
    if value is None:
        raise InvalidInputError(f"missing required parameter {_flag(key)}")
    return value


def _parse_targets(text: str):
    """Comma list "0.05,0.1" or linspace "lo:hi:count", not empty."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            targets = np.linspace(float(lo), float(hi), int(count)).tolist()
        else:
            targets = [float(t) for t in text.split(",") if t.strip()]
        if not targets:
            raise ValueError("no targets")
        return targets
    except ValueError as exc:
        raise InvalidInputError(f"bad --targets {text!r}: {exc}")


# ---------------------------------------------------------------------------
# cap overrides


def _checked_cap(name, value) -> int:
    """One cap override, from --cap-override or a config file's "caps": a
    name in errors.CAPS and an integer value."""
    if name not in CAPS:
        raise InvalidInputError(f"unknown cap {name!r}; known: {sorted(CAPS)}")
    if not _is_int(value):
        raise InvalidInputError(f"cap {name} needs an integer, got {value!r}")
    return int(value)


def parse_cap_overrides(pairs):
    caps = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise InvalidInputError(f"--cap-override needs KEY=VALUE, got {pair!r}")
        with contextlib.suppress(ValueError):
            value = int(value, 0)
        caps[key] = _checked_cap(key, value)
    return caps


@contextlib.contextmanager
def _cap_overrides(caps: dict):
    """Replace entries of errors.CAPS for one run, restoring them after."""
    saved = {name: CAPS[name] for name in caps}
    try:
        CAPS.update(caps)
        yield
    finally:
        CAPS.update(saved)


# ---------------------------------------------------------------------------
# deterministic output files


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def _write_csv(path, tag, columns, rows, config_hash):
    lines = [f"# chansim {tag} csv {CSV_VERSION}",
             f"# columns: {','.join(columns)}",
             f"# config: {config_hash}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_artifacts(cfg: ExperimentConfig, record: RunRecord):
    os.makedirs(cfg.out, exist_ok=True)
    stem = cfg.command.replace("-", "_")
    if record.table_columns:
        _write_csv(os.path.join(cfg.out, f"{stem}.csv"), cfg.command,
                   record.table_columns, record.table_rows, record.config_hash)
    _write_csv(os.path.join(cfg.out, "bounds.csv"), f"{cfg.command}-bounds",
               ("name", "reference", "lhs", "rhs", "slack", "passed"),
               compare_bounds(record), record.config_hash)
    for filename, doc in record.artifacts.items():
        with open(os.path.join(cfg.out, filename), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command handlers


def _run_info(cfg, bundle):
    source = bundle.need("source")
    outputs = {"H(P)": entropy(source)}
    comparisons = [_row("source entropy >= 0", "entropy range", outputs["H(P)"], 0.0)]
    table = [("H(P)", outputs["H(P)"])]
    if bundle.channel is not None:
        ch = bundle.channel
        if source.alphabet_size != ch.input_size:
            raise InvalidInputError("source alphabet does not match channel input")
        mi = mutual_information(source, ch)
        h_cond = conditional_entropy(source, ch)
        h_out = entropy(output_marginal(source, ch))
        outputs.update({"I(P;W)": mi, "H(W|P)": h_cond, "H(PW)": h_out})
        table += [("I(P;W)", mi), ("H(W|P)", h_cond), ("H(PW)", h_out)]
        comparisons += [
            _row("mutual information >= 0", "information nonnegativity", mi, 0.0),
            BoundRow("output entropy = mutual + conditional", "entropy chain rule",
                     mi + h_cond, h_out, abs(mi + h_cond - h_out),
                     abs(mi + h_cond - h_out) <= 1e-9),
        ]
    return outputs, comparisons, ("quantity", "value"), table, {}


def _tolerances(cfg):
    """The typicality width delta and covering accuracy epsilon, defaulting
    to 1.0 and 0.1."""
    return float(cfg.params.get("delta", 1.0)), float(cfg.params.get("epsilon", 0.1))


def _code_inputs(cfg, bundle):
    """(source, channel, n, delta, epsilon) of a one-block-length command."""
    source, channel = bundle.need("source"), bundle.need("channel")
    return (source, channel, int(_need_param(cfg, "n"))) + _tolerances(cfg)


def _run_typical(cfg, bundle):
    source = bundle.need("source")
    n = int(_need_param(cfg, "n"))
    delta, _ = _tolerances(cfg)
    spec = TypicalSpec(source, n, delta)
    bounds = typical_probability_bounds(spec)
    count = len(typical_types(spec))
    outputs = {"n": n, "delta": delta, "typical_type_count": count,
               "chebyshev": bounds.chebyshev, "chernoff": bounds.chernoff,
               "exact": bounds.exact}
    comparisons = [
        _row("exact typical mass >= chebyshev bound",
             "variance floor on the typical mass", bounds.exact, bounds.chebyshev),
        _row("exact typical mass >= chernoff union bound",
             "binomial chernoff tails per letter with a union bound over letters",
             bounds.exact, bounds.chernoff),
    ]
    columns = ("n", "delta", "typical_type_count", "chebyshev", "chernoff", "exact")
    rows = [(n, delta, count, bounds.chebyshev, bounds.chernoff, bounds.exact)]
    return outputs, comparisons, columns, rows, {}


def _run_cover(cfg, bundle):
    """One row per family draw_families yields, each family dropped once
    its record is read, so no two are held at once."""
    inputs = _code_inputs(cfg, bundle)
    records = list(map(FamilyRecord.of, draw_families(*inputs, cfg.seed)))
    *_, N = sized_rates([(rec.M, rec.N) for rec in records], inputs[2])
    rows = []
    for idx, rec in enumerate(records):
        counts = ";".join("-".join(str(c) for c in row) for row in rec.joint_type.counts)
        rows.append((idx, counts, rec.M, rec.N, rec.retries,
                     rec.condition_I_min_margin, rec.condition_II_margin))
    outputs = {"type_count": len(rows), "max_M": max(r[2] for r in rows),
               "max_N": N, "total_retries": sum(r[4] for r in rows)}
    comparisons = [
        _row("min per-word hit margin >= 0",
             "every compatible word is covered with room", min(r[5] for r in rows), 0.0),
        _row("min list-budget margin >= 0",
             "list sizes clear the counting threshold", min(r[6] for r in rows), 0.0),
    ]
    columns = ("type_index", "counts", "M", "N", "retries",
               "margin_condition_I", "margin_condition_II")
    return outputs, comparisons, columns, rows, {}


def _fidelity_report(code):
    """strong_fidelity_report, or None when its law is over a cap; the cap's
    message then goes to stderr, and the run keeps its other rows."""
    try:
        return strong_fidelity_report(code)
    except CapExceededError as exc:
        print(f"# strong fidelity skipped at n = {code.n}: {exc}", file=sys.stderr)
        return None


def _sized(inputs, seed, draw):
    """(code, sized_rates, type count): the code drawn, or without draw no
    code and the rates of the sizing alone (sized_types, unsorted), no draw."""
    code = build_sim_code(*inputs, seed) if draw else None
    sizes = ([sizing for _, sizing in sized_types(*inputs)] if code is None
             else [(f.M, f.N) for f in code.families.values()])
    return code, sized_rates(sizes, inputs[2]), len(sizes)


def _run_simulate(cfg, bundle):
    source, channel, n, delta, epsilon = inputs = _code_inputs(cfg, bundle)
    code, (rate, cr_rate, N), type_count = _sized(
        inputs, cfg.seed, draw=not cfg.params.get("rates_only", False))
    outputs = {"n": n, "rate": rate, "cr_rate": cr_rate, "N": N, "type_count": type_count}
    floors = "single-letter information floors"
    comparisons = [_row("message rate >= mutual information", floors, rate,
                        mutual_information(source, channel)),
                   _row("message plus randomness rate >= output entropy", floors,
                        rate + cr_rate, entropy(output_marginal(source, channel)))]
    lam = lam_bound = global_err = None
    report = None if code is None else _fidelity_report(code)
    if report is not None:
        lam = report["lambda_measured"]
        lam_bound = report["lambda_bound"]
        global_err = report["global_err"]
        outputs.update({"lambda_measured": lam, "lambda_bound": lam_bound,
                        "global_err": global_err})
        comparisons.append(_row_le(
            "per-word output tv <= claimed ceiling",
            "covering corridor plus non-covered type mass", lam, lam_bound))
    columns = ("n", "delta", "epsilon", "seed", "rate", "cr_rate", "N",
               "lambda_measured", "lambda_bound", "global_err")
    rows = [(n, delta, epsilon, cfg.seed, rate, cr_rate, N, lam, lam_bound, global_err)]
    return outputs, comparisons, columns, rows, {}


def _run_derandomize(cfg, bundle):
    code = build_sim_code(*_code_inputs(cfg, bundle), cfg.seed)
    dcode, family, weights = derandomize_with_family(code, code.epsilon, seed=cfg.seed)
    report = measure_fidelity(code.source, code.channel, family, weights)
    outputs = {"n": code.n, "Q": dcode.Q, "index_bits": dcode.index_bits(),
               "index_bits_per_letter": dcode.index_bits() / code.n,
               "u": dcode.u, "verified": dcode.verified, "retries": dcode.retries,
               "letterwise_source_err": report.letterwise_source_err,
               "global_err": report.global_err, "local_err": report.local_err,
               "empirical_joint_err": report.empirical_joint_err}
    comparisons = [_row_le(
        "letterwise error <= 3*epsilon",
        "per-letter miss ceiling after freezing the shared index",
        report.letterwise_source_err, 3.0 * code.epsilon)]
    columns = ("n", "delta", "epsilon", "seed", "Q", "index_bits", "u",
               "verified", "retries", "global_err", "local_err",
               "letterwise_source_err", "empirical_joint_err")
    rows = [(code.n, code.delta, code.epsilon, cfg.seed, dcode.Q, dcode.index_bits(),
             dcode.u, dcode.verified, dcode.retries, report.global_err,
             report.local_err, report.letterwise_source_err,
             report.empirical_joint_err)]
    return outputs, comparisons, columns, rows, {}


def _run_zero_error(cfg, bundle):
    source, channel = bundle.need("source"), bundle.need("channel")
    instance = ZeroErrorInstance.build(source, channel, bundle.c_max)
    restarts = int(cfg.params.get("restarts", 20))
    fact = alternate(instance, seed=cfg.seed, restarts=restarts)
    lower, upper = gamma_bracket(instance, fact.objective)
    h_source = entropy(source)
    outputs = {"c_max": instance.c_max, "restarts": restarts,
               "objective": fact.objective, "mutual_information": lower,
               "source_entropy": h_source}
    comparisons = [
        _row("factorized label entropy >= mutual information",
             "decoding the label reproduces the output law", fact.objective, lower),
        _row_le("factorized label entropy <= source entropy",
                "copying the source is always feasible", fact.objective, h_source),
    ]
    oracle_obj = oracle_acc = oracle_gap = None
    resolution = cfg.params.get("oracle_resolution")
    if resolution is not None:
        oracle = brute_force_oracle(instance, int(resolution))
        oracle_obj, oracle_acc = oracle.objective, float(oracle.accuracy)
        oracle_gap = fact.objective - oracle_obj
        outputs.update({"oracle_objective": oracle_obj,
                        "oracle_accuracy": oracle_acc, "oracle_gap": oracle_gap})
        comparisons.append(_row_le(
            "alternating optimum within oracle accuracy",
            "grid minimum at the given resolution; its accuracy is an "
            "empirical local modulus and not a proven bound",
            oracle_gap, oracle_acc + 1e-4))
    columns = ("c_max", "restarts", "objective", "mutual_information",
               "source_entropy", "oracle_objective", "oracle_accuracy",
               "oracle_gap")
    rows = [(instance.c_max, restarts, fact.objective, lower, h_source,
             oracle_obj, oracle_acc, oracle_gap)]
    artifacts = {"factorization.json": fact.to_json_dict()}
    return outputs, comparisons, columns, rows, artifacts


def _run_rd(cfg, bundle):
    source = bundle.need("source")
    if bundle.distortion is not None:
        d_matrix = bundle.distortion
    elif cfg.params.get("hamming") is not None:
        size = int(cfg.params["hamming"])
        d_matrix = 1.0 - np.eye(size)
    else:
        raise InvalidInputError(
            'rd needs a "distortion" matrix in the instance or --hamming SIZE')
    y_size = d_matrix.shape[1]
    targets = _parse_targets(str(_need_param(cfg, "targets")))
    resolution = cfg.params.get("certify_resolution")
    specs = [DistortionSpec(d_matrix, float(target)) for target in targets]
    rates, slacks = [], []
    for spec in specs:
        rate, w_opt = rd_function(source, spec, y_size)
        rates.append(rate)
        slacks.append(spec.target_d - expected_distortion(source, w_opt, spec))
    gaps, certified = [], [None] * len(specs)
    if resolution is not None:
        grid = rd_grid_oracle(source, specs, y_size, int(resolution))
        gaps = [abs(grid_rate - rate) for (grid_rate, _), rate in zip(grid, rates)]
        certified = [gap <= 1e-4 for gap in gaps]
    rows = [(spec.target_d, rate, slack, ok)
            for spec, rate, slack, ok in zip(specs, rates, slacks, certified)]
    order = sorted(range(len(targets)), key=lambda i: targets[i])
    increase = max((rows[order[j + 1]][1] - rows[order[j]][1]
                    for j in range(len(order) - 1)), default=0.0)
    outputs = {"points": len(targets), "min_rate": min(r[1] for r in rows),
               "max_rate": max(r[1] for r in rows)}
    comparisons = [
        _row_le("every channel meets its distortion budget",
                "constraint satisfied by the returned minimizer",
                0.0 - min(slacks), 0.0),   # not -min(): a zero slack writes +0
        _row_le("curve nonincreasing in allowed distortion",
                "larger budgets only relax the problem", increase, 0.0),
    ]
    if gaps:
        outputs["max_oracle_gap"] = max(gaps)
        comparisons.append(_row_le(
            "curve matches the grid oracle", "exhaustive grid certificate",
            max(gaps), 1e-4))
    return outputs, comparisons, ("d", "R", "slack", "certified"), rows, {}


def _run_dilute(cfg, bundle):
    target = bundle.target if bundle.target is not None else bundle.source
    if target is None:
        raise InvalidInputError('dilute needs a "target" distribution in the instance')
    epsilon = float(_need_param(cfg, "epsilon"))
    plan = build_dilution(target, epsilon)
    tv = plan.tv_error()
    bound = 2.0 * epsilon + 1.0 / plan.k
    total_bits = math.log2(plan.total_uniform_size)
    outputs = {"alphabet": target.alphabet_size, "epsilon": epsilon,
               "k": plan.k, "helper_size": plan.helper_size,
               "total_uniform_bits": total_bits, "tv_error": tv,
               "tv_bound": bound}
    comparisons = [_row_le("realized tv <= 2*epsilon + 1/k",
                           "geometric bucketing plus tail and rounding budget",
                           tv, bound)]
    samples = int(cfg.params.get("samples", 0))
    if samples < 0:
        raise InvalidInputError("samples must be nonnegative")
    empirical_tv = None
    if samples > 0:
        stream = uniform_index_stream(plan.total_uniform_size,
                                      child_seed(cfg.seed, "dilute:stream"))
        draws = realize_indices(plan, itertools.islice(stream, samples))
        counts = np.bincount(draws, minlength=target.alphabet_size)
        empirical = Distribution.from_probs(counts / samples)
        empirical_tv = tv_distance(empirical, target)
        outputs.update({"samples": samples, "empirical_tv": empirical_tv})
        comparisons.append(_row_le(
            "empirical tv within the sampling window",
            "realized error plus a three-sigma multinomial allowance",
            empirical_tv, tv + 1.5 / math.sqrt(samples)))
    columns = ("alphabet", "epsilon", "k", "helper_size", "total_uniform_bits",
               "tv_error", "tv_bound", "samples", "empirical_tv")
    rows = [(target.alphabet_size, epsilon, plan.k, plan.helper_size,
             total_bits, tv, bound, samples or None, empirical_tv)]
    return outputs, comparisons, columns, rows, {"plan.json": plan.to_json_dict()}


def _run_sweep(cfg, bundle):
    source, channel = bundle.need("source"), bundle.need("channel")
    n_min = int(_need_param(cfg, "n_min"))
    n_max = int(_need_param(cfg, "n_max"))
    if n_min < 1 or n_max < n_min:
        raise InvalidInputError("need 1 <= n_min <= n_max")
    delta, epsilon = _tolerances(cfg)
    keep_limit = int(cfg.params.get("keep_words_up_to", 6))
    rows, rates = [], []
    for n in range(n_min, n_max + 1):
        code, (rate, cr_rate, _), _ = _sized((source, channel, n, delta, epsilon),
                                             cfg.seed, draw=n <= keep_limit)
        report = None if code is None else _fidelity_report(code)
        lam = None if report is None else report["lambda_measured"]
        rows.append((n, rate, cr_rate, lam))
        rates.append(rate)
    mi = mutual_information(source, channel)
    increase = max((rates[i + 1] - rates[i] for i in range(len(rates) - 1)),
                   default=0.0)
    outputs = {"n_min": n_min, "n_max": n_max, "first_rate": rates[0],
               "last_rate": rates[-1], "max_rate_increase": increase}
    comparisons = [_row("minimum sweep rate >= mutual information",
                        "single-letter rate floor", min(rates), mi)]
    return (outputs, comparisons, ("n", "rate", "cr_rate", "strong_fidelity"),
            rows, {})


# params key -> (value type, --help text). The flag is the key spelled with
# dashes (_flag); bool is --rates-only, which stores True or nothing. A config
# file's "params" take the same keys and are checked against the same types.
_FLAGS = {
    "n": (int, None),
    "delta": (float, None),
    "epsilon": (float, None),
    "rates_only": (bool, None),
    "restarts": (int, None),
    "oracle_resolution": (int, None),
    "targets": (str, '"0.05,0.1,0.25" or "lo:hi:count"'),
    "hamming": (int, "use 0/1 distortion on an alphabet of this size"),
    "certify_resolution": (int, None),
    "samples": (int, None),
    "n_min": (int, None),
    "n_max": (int, None),
    "keep_words_up_to": (int, None),
}

# command -> (handler, help, its _FLAGS in --help order)
_COMMANDS = {
    "info": (_run_info, "single-letter information quantities", ()),
    "typical": (_run_typical, "typical-set mass and its lower bounds", ("n", "delta")),
    "cover": (_run_cover, "covering families for all jointly typical types",
              ("n", "delta", "epsilon")),
    "simulate": (_run_simulate, "build the protocol code and account its rates",
                 ("n", "delta", "epsilon", "rates_only")),
    "derandomize": (_run_derandomize, "freeze the shared index to a sampled list",
                    ("n", "delta", "epsilon")),
    "zero-error": (_run_zero_error, "minimal-entropy exact factorization",
                   ("restarts", "oracle_resolution")),
    "rd": (_run_rd, "rate-distortion curve with optional certification",
           ("targets", "hamming", "certify_resolution")),
    "dilute": (_run_dilute, "replace a target law by a near-uniform stand-in",
               ("epsilon", "samples")),
    "sweep": (_run_sweep, "rates across a range of block lengths",
              ("n_min", "n_max", "delta", "epsilon", "keep_words_up_to")),
}


def run(cfg: ExperimentConfig) -> RunRecord:
    """Execute one configured command and collect its record. Cap overrides
    apply only for the duration of the run."""
    bundle = InstanceBundle(cfg.instance)
    t0 = time.perf_counter()
    with _cap_overrides(cfg.caps):
        outputs, comparisons, columns, rows, artifacts = \
            _COMMANDS[cfg.command][0](cfg, bundle)
    record = RunRecord(config_hash=cfg.config_hash(), command=cfg.command,
                       timings={"run": time.perf_counter() - t0},
                       outputs=outputs, comparisons=comparisons,
                       table_columns=list(columns), table_rows=list(rows),
                       artifacts=artifacts)
    if cfg.out:
        t1 = time.perf_counter()
        _write_artifacts(cfg, record)
        record.timings["write"] = time.perf_counter() - t1
    return record


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing fills a fresh
    namespace on each call and reads no module state."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("instance", nargs="?", help="instance JSON file")
    common.add_argument("--config", help="configuration JSON file")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--cap-override", action="append", metavar="KEY=VALUE",
                        help="raise or lower an enumeration cap for this run")

    parser = argparse.ArgumentParser(
        prog="chansim",
        description="channel-simulation toolkit: every emitted number is "
                    "computed by a library operation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for key in flags:
            kind, flag_help = _FLAGS[key]
            how = dict(action="store_const", const=True) if kind is bool else dict(type=kind)
            p.add_argument(_flag(key), **how, help=flag_help)
    return parser


def build_config(argv=None) -> ExperimentConfig:
    """Parse flags, merge the optional config document (flags win), inline
    the instance content, and resolve cap overrides."""
    ns = _build_parser().parse_args(argv)
    doc = {}
    if ns.config:
        doc = _load_json_file(ns.config, "config file")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise InvalidInputError(
                f"unknown config keys {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}")
        for key in ("caps", "params"):
            if not isinstance(doc.get(key, {}), dict):
                raise InvalidInputError(f'config "{key}" must be an object')
    params = dict(doc.get("params", {}))
    flags = _COMMANDS[ns.command][2]
    unknown = set(params) - set(flags)
    if unknown:
        raise InvalidInputError(f"unknown {ns.command} params {sorted(unknown)}; "
                                f"allowed: {sorted(flags)}")
    for key, value in params.items():   # checked, not converted: the hash keeps them
        kind = _FLAGS[key][0]
        number = _is_int(value) or kind is float and isinstance(value, float)
        if not (number if kind in (int, float) else isinstance(value, kind)):
            raise InvalidInputError(f"param {key!r} must be of type {kind.__name__}")
    params.update((key, getattr(ns, key)) for key in flags
                  if getattr(ns, key) is not None)

    instance_ref = ns.instance if ns.instance is not None else doc.get("instance")
    if instance_ref is None:
        raise InvalidInputError("no instance given (positional file or config key)")
    if isinstance(instance_ref, str):
        instance_doc = _load_json_file(instance_ref, "instance file")
    elif isinstance(instance_ref, dict):
        instance_doc = instance_ref
    else:
        raise InvalidInputError('config "instance" must be a path or an object')
    InstanceBundle(instance_doc)   # validate early so bad files exit 2 fast

    caps = {key: _checked_cap(key, value) for key, value in doc.get("caps", {}).items()}
    caps.update(parse_cap_overrides(ns.cap_override))

    seed = ns.seed if ns.seed is not None else doc.get("seed", 0)
    out = ns.out if ns.out is not None else doc.get("out")
    if out is not None and not isinstance(out, str):
        raise InvalidInputError('config "out" must be a directory path')
    if not _is_int(seed) or not 0 <= seed < 2 ** 64:
        raise InvalidInputError("seed must be an unsigned 64-bit integer")
    return ExperimentConfig(command=ns.command, instance=instance_doc,
                            params=params, seed=int(seed), out=out, caps=caps)


def _print_record(record: RunRecord):
    print(f"chansim {record.command} config={record.config_hash}")
    for key, value in record.outputs.items():
        print(f"{key} = {_fmt(value)}")
    for name, reference, lhs, rhs, slack, passed in compare_bounds(record):
        verdict = "PASS" if passed else "FAIL"
        print(f"{verdict} {name}: lhs={_fmt(lhs)} rhs={_fmt(rhs)} "
              f"slack={_fmt(slack)} [{reference}]")


_ERROR_LABELS = (
    (InvalidInputError, "invalid-input", EXIT_INVALID_INPUT),
    (CapExceededError, "cap-exceeded", EXIT_CAP_EXCEEDED),
    (InfeasibleError, "infeasible", EXIT_INFEASIBLE),
    (RetriesExhaustedError, "retries-exhausted", EXIT_RETRIES_EXHAUSTED),
)


def _report_error(exc: Exception, command: str) -> int:
    """Report a package error on stderr and return its exit code; other
    exceptions propagate."""
    for klass, label, code in _ERROR_LABELS:
        if isinstance(exc, klass):
            reason = " ".join(str(exc).split())
            print(f"chansim: error={label} command={command} reason={reason}",
                  file=sys.stderr)
            return code
    raise exc


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID_INPUT
    except ChansimError as exc:
        return _report_error(exc, "(parse)")
    try:
        record = run(cfg)
    except ChansimError as exc:
        return _report_error(exc, cfg.command)
    _print_record(record)
    for phase, seconds in record.timings.items():
        print(f"# timing {phase}={seconds:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
