"""Spans and counters recorded from outside the program.

The program is not edited: each traced public function is replaced, in
every chansim module namespace that binds it, by a wrapper that records a
span (name, start, end, parent span, job id). Modules import one another's
functions by name (simulate binds build_covering, fidelity binds
run_protocol, cli binds most of simulate), so patching only the defining
module would miss those calls.

core_prob is deliberately not wrapped: its sub-microsecond helpers run
everywhere, so wrapping them would distort the timings; their time lands
in the callers' self time.
"""

import importlib
import json
import math
import sys
import time

# Traced functions per layer, bottom up.
TRACED = {
    "typeclasses": ("enumerate_type_class", "enumerate_joint_types",
                    "typical_probability_bounds"),
    "covering": ("build_covering", "verify_covering", "compatibility_matrix"),
    "simulate": ("jointly_typical_types", "build_sim_code", "output_distribution",
                 "strong_fidelity_report", "fixed_nu_block_channel",
                 "encoder_message_law", "run_protocol", "encode", "decode"),
    "fidelity": ("derandomize", "measure_fidelity", "sim_code_family",
                 "derandomized_family", "run_fixed_code"),
    "zero_error": ("alternate", "brute_force_oracle", "e_step", "row_vertices",
                   "d_step"),
    "applications": ("rd_function", "rd_grid_oracle", "build_dilution",
                     "realize_from_uniform", "rd_code_via_simulation",
                     "pair_simulation_pipeline"),
    "cli": ("run",),
}
LAYERS = tuple(TRACED)

# (metric, unit); the metric name is "<layer>.<function>.<calls|self_s>".
SPAN_METRICS = (
    ("typeclasses.enumerate_type_class.calls", "count"),
    ("typeclasses.enumerate_type_class.self_s", "s"),
    ("typeclasses.enumerate_joint_types.calls", "count"),
    ("typeclasses.enumerate_joint_types.self_s", "s"),
    ("typeclasses.typical_probability_bounds.self_s", "s"),
    ("covering.build_covering.calls", "count"),
    ("covering.build_covering.self_s", "s"),
    ("covering.verify_covering.calls", "count"),
    ("covering.verify_covering.self_s", "s"),
    ("covering.compatibility_matrix.calls", "count"),
    ("covering.compatibility_matrix.self_s", "s"),
    ("simulate.jointly_typical_types.self_s", "s"),
    ("simulate.build_sim_code.calls", "count"),
    ("simulate.build_sim_code.self_s", "s"),
    ("simulate.output_distribution.calls", "count"),
    ("simulate.output_distribution.self_s", "s"),
    ("simulate.strong_fidelity_report.self_s", "s"),
    ("simulate.fixed_nu_block_channel.calls", "count"),
    ("simulate.fixed_nu_block_channel.self_s", "s"),
    ("simulate.encoder_message_law.self_s", "s"),
    ("simulate.run_protocol.calls", "count"),
    ("simulate.encode.self_s", "s"),
    ("simulate.decode.self_s", "s"),
    ("fidelity.derandomize.self_s", "s"),
    ("fidelity.measure_fidelity.self_s", "s"),
    ("fidelity.sim_code_family.self_s", "s"),
    ("fidelity.derandomized_family.self_s", "s"),
    ("fidelity.run_fixed_code.calls", "count"),
    ("zero_error.alternate.self_s", "s"),
    ("zero_error.brute_force_oracle.self_s", "s"),
    ("zero_error.e_step.calls", "count"),
    ("zero_error.e_step.self_s", "s"),
    ("zero_error.row_vertices.calls", "count"),
    ("zero_error.row_vertices.self_s", "s"),
    ("zero_error.d_step.calls", "count"),
    ("zero_error.d_step.self_s", "s"),
    ("applications.rd_function.calls", "count"),
    ("applications.rd_function.self_s", "s"),
    ("applications.rd_grid_oracle.self_s", "s"),
    ("applications.build_dilution.self_s", "s"),
    ("applications.realize_from_uniform.calls", "count"),
    ("applications.rd_code_via_simulation.self_s", "s"),
    ("applications.pair_simulation_pipeline.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
)

# Ratios and counters; layer_metrics() gives each its base.
COUNTER_METRICS = (
    ("covering.attempts_per_family", "attempt/family"),
    ("covering.verifies_per_family", "verify/family"),
    ("covering.family_bytes", "B"),
    ("covering.verify_flops_computed", "flop"),
    ("fidelity.derandomize.attempts", "count"),
    ("zero_error.e_step.infeasible_share", "share"),
    ("applications.grid_channels_evaluated", "count"),
)


def chansim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "chansim" or name.startswith("chansim.")]


def patch_everywhere(layer, fname, make_wrapper):
    """Rebind layer.fname to make_wrapper(original) in every chansim module
    that binds the original; returns an undo list for restore()."""
    original = getattr(importlib.import_module(f"chansim.{layer}"), fname)
    wrapper = make_wrapper(original)
    undo = []
    for module in chansim_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))
    return undo


def restore(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.counters = {}
        self._undo = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrapper(self, name, original):
        observe = _OBSERVERS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            error = result = None
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    observe(self, args, kwargs, result, error)
        return traced

    def install(self):
        for layer, names in TRACED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                self._undo += patch_everywhere(
                    layer, fname, lambda orig, name=name: self._wrapper(name, orig))

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def summary(self):
        """Per-function calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return stats

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


# --- counters observed at span boundaries ----------------------------------

def _array_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


def _on_build_covering(tracer, args, kwargs, family, error):
    if family is not None:
        tracer.count("families")
        tracer.count("family_attempts", family.retries + 1)
        tracer.count("family_bytes", _array_bytes(family))


def _on_verify_covering(tracer, args, kwargs, result, error):
    from chansim.typeclasses import type_class_size
    family = args[0] if args else kwargs["family"]
    t = family.joint_type
    tracer.count("verify_flops", 2 * family.N * type_class_size(t.col_marginal())
                 * type_class_size(t.row_marginal()))


def _on_derandomize(tracer, args, kwargs, dcode, error):
    if dcode is not None:
        tracer.count("derandomize_attempts", dcode.retries + 1)


def _on_e_step(tracer, args, kwargs, result, error):
    from chansim.errors import InfeasibleError
    if isinstance(error, InfeasibleError):
        tracer.count("e_step_infeasible")


def _on_rd_grid_oracle(tracer, args, kwargs, result, error):
    source, _, y_size, resolution = args[:4]
    grid_rows = math.comb(resolution + y_size - 1, y_size - 1)
    tracer.count("grid_channels", grid_rows ** source.alphabet_size)


_OBSERVERS = {
    "covering.build_covering": _on_build_covering,
    "covering.verify_covering": _on_verify_covering,
    "fidelity.derandomize": _on_derandomize,
    "zero_error.e_step": _on_e_step,
    "applications.rd_grid_oracle": _on_rd_grid_oracle,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall_s):
    """Every per-layer metric of the traced pass, plus the bases of the
    ratios, as ({name: value}, {name: base text})."""
    stats = tracer.summary()
    c = tracer.counters
    values, bases = {}, {}
    for metric, _ in SPAN_METRICS:
        fn, field = metric.rsplit(".", 1)
        values[metric] = stats.get(fn, {}).get(field, 0)
    families = c.get("families", 0)
    verifies = stats.get("covering.verify_covering", {}).get("calls", 0)
    e_calls = stats.get("zero_error.e_step", {}).get("calls", 0)
    values["covering.attempts_per_family"] = _ratio(c.get("family_attempts", 0), families)
    bases["covering.attempts_per_family"] = \
        f"{c.get('family_attempts', 0)} attempts / {families} families"
    values["covering.verifies_per_family"] = _ratio(verifies, families)
    bases["covering.verifies_per_family"] = f"{verifies} verify calls / {families} families"
    values["covering.family_bytes"] = c.get("family_bytes", 0)
    bases["covering.family_bytes"] = f"array bytes held by {families} returned families"
    values["covering.verify_flops_computed"] = c.get("verify_flops", 0)
    bases["covering.verify_flops_computed"] = \
        f"sum of 2*N*|T_S|*|T_R| over {verifies} verify calls (computed, not measured)"
    values["fidelity.derandomize.attempts"] = c.get("derandomize_attempts", 0)
    values["zero_error.e_step.infeasible_share"] = _ratio(c.get("e_step_infeasible", 0), e_calls)
    bases["zero_error.e_step.infeasible_share"] = \
        f"{c.get('e_step_infeasible', 0)} InfeasibleError / {e_calls} calls"
    values["applications.grid_channels_evaluated"] = c.get("grid_channels", 0)
    bases["applications.grid_channels_evaluated"] = "sum of g^|X| over rd_grid_oracle calls"

    layer_self = {layer: 0.0 for layer in LAYERS}
    for fn, entry in stats.items():
        layer_self[fn.split(".", 1)[0]] += entry["self_s"]
    for layer in LAYERS:
        values[f"share.{layer}"] = _ratio(layer_self[layer], traced_wall_s)
        bases[f"share.{layer}"] = f"{layer_self[layer]:.4f} s self / {traced_wall_s:.4f} s pass"
    values["share.untraced"] = max(0.0, 1.0 - sum(values[f"share.{l}"] for l in LAYERS))
    bases["share.untraced"] = "core_prob below uninstrumented callers, benchmark loop"
    values["bench.spans"] = len(tracer.spans)
    return values, bases


SHARE_METRICS = tuple((f"share.{layer}", "share") for layer in LAYERS) + \
    (("share.untraced", "share"),)
