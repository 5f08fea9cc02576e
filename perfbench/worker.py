"""One workload in one process: set-up, timed passes, checks.

Started by run.py, never by hand. It imports chansim from the checkout's
src/ directory, builds the workload, reports its set-up time against the
parent's spawn timestamp (both read CLOCK_MONOTONIC), then runs passes
over the workload's operations and writes a JSON result file.

Set-up and the first pass also re-verify every covering family the program
builds and check that every exact law it returns (output_distribution,
fixed_nu_block_channel) has rows summing to 1, with those checks' time
excluded from the clocks. An untraced run also probes the host's speed
(speed.py) and reports it for the set-up and for each operation; its
passes repeat until the time budget, counted at the reference speed, is
spent. A traced run makes two untraced passes and then one traced pass;
the tracing overhead is the traced pass minus the second untraced one,
both warm and in the same process.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager

from speed import SpeedProbe, blocked
from tracing import Tracer, layer_metrics, patch_everywhere, restore

MAX_PROBLEMS = 20


class Context:
    def __init__(self, root, seed, scratch):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.excluded = 0.0        # check time to subtract from the clocks
        self.problems = []         # invariant failures found inside an operation
        self._dirs = 0

    @contextmanager
    def untimed(self):
        """A section whose time is excluded from the clocks; no speed probe
        runs inside it."""
        with blocked():
            start = time.perf_counter()
            try:
                yield
            finally:
                self.excluded += time.perf_counter() - start

    def fresh_dir(self):
        self._dirs += 1
        return os.path.join(self.scratch, f"op{self._dirs}")


def covering_check(ctx, verify_covering):
    """Wrapper factory for build_covering: every family it returns must pass
    the unwrapped verify_covering. The check's time is excluded."""
    def make(build_covering):
        def checked(*args, **kwargs):
            family = build_covering(*args, **kwargs)
            with ctx.untimed():
                if not verify_covering(family).passed:
                    ctx.problems.append(f"covering family for {family.joint_type.counts} "
                                        "fails verify_covering")
            return family
        return checked
    return make


def law_check(ctx, what, rows_of):
    """Wrapper factory for an exact-law function: every row of the law it
    returns must sum to 1 within the tolerance. The check's time is excluded."""
    from jobs import law_problems

    def make(law_fn):
        def checked(*args, **kwargs):
            law = law_fn(*args, **kwargs)
            with ctx.untimed():
                ctx.problems += law_problems(rows_of(law), what)
            return law
        return checked
    return make


def install_checks(ctx):
    """Check every covering family and exact law the program builds, in
    every chansim namespace that binds the builder; returns the undo list."""
    import chansim.covering as covering
    return (patch_everywhere("covering", "build_covering",
                             covering_check(ctx, covering.verify_covering))
            + patch_everywhere("simulate", "output_distribution",
                               law_check(ctx, "output_distribution", lambda d: d.probs))
            + patch_everywhere("simulate", "fixed_nu_block_channel",
                               law_check(ctx, "fixed_nu_block_channel", lambda ch: ch.rows)))


def run_pass(workload, ctx, tracer=None, checked=False):
    """One pass over the workload's operations; returns the pass record.
    With checked, every covering family and exact law built is checked."""
    undo = install_checks(ctx) if checked else []
    if tracer:
        tracer.install()
    latencies, windows, problems, texts = [], [], [], {}
    failed = fail_rows = 0
    ctx.excluded = 0.0
    begin = time.perf_counter()
    ops = workload.ops()
    try:
        for op in ops:
            if tracer:
                tracer.job = op.name
            found = len(ctx.problems)
            excluded = ctx.excluded
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:   # an operation that raises counts as failed
                result, error = None, exc
            else:
                error = None
            end = time.perf_counter()
            latencies.append(end - start - (ctx.excluded - excluded))
            windows.append((start, end))
            if error is not None:
                failed += 1
                problems.append(f"{op.name}: {type(error).__name__}: {error}")
                continue
            with ctx.untimed():
                text, rows, op_problems = op.check(result)
            op_problems = ctx.problems[found:] + op_problems
            fail_rows += rows
            texts.setdefault(op.group, []).append(text)
            if op_problems:
                failed += 1
                problems += [f"{op.name}: {p}" for p in op_problems]
    finally:
        real = time.perf_counter() - begin
        if tracer:
            tracer.uninstall()
        restore(undo)
    digests = {group: hashlib.sha256("\n".join(t).encode()).hexdigest()
               for group, t in texts.items()}
    return {"wall_s": real - ctx.excluded, "latencies_s": latencies, "windows": windows,
            "attempted": len(ops), "failed": failed, "fail_rows": fail_rows,
            "problems": problems[:MAX_PROBLEMS], "digests": digests}


def elapsed_at_reference(p, probe):
    start, end = p["windows"][0][0], p["windows"][-1][1]
    return p["wall_s"] * probe.speed(start, end)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    from jobs import WORKLOADS
    import chansim
    if os.path.dirname(os.path.dirname(os.path.abspath(chansim.__file__))) != src:
        sys.exit(f"chansim imported from {chansim.__file__}, not from {src}")

    scratch = os.path.join(os.path.dirname(args.result), f"scratch-{os.getpid()}")
    ctx = Context(args.root, args.seed, scratch)
    # The traced run reports no end-to-end metric, so it runs no probe: probes
    # inside spans would add to the layers' self time.
    probe = None if args.trace else SpeedProbe(ctx)
    if probe:
        probe.start()
    try:
        # Whatever set-up builds (the protocol-stream codes) is checked like a
        # pass's output, with the check's time taken out of setup_s. A
        # set-up-only spawn repeats the same seeded build, so it skips this.
        undo = [] if args.setup_only else install_checks(ctx)
        try:
            workload = WORKLOADS[args.workload](ctx)
        finally:
            restore(undo)
        setup_end = time.perf_counter()
        result = {"setup_s": time.monotonic() - args.spawned_at - ctx.excluded,
                  "setup_problems": ctx.problems[:MAX_PROBLEMS], "env": environment()}
        ctx.problems = []
        passes = []
        if not args.setup_only:
            passes.append(run_pass(workload, ctx, checked=True))
            if args.trace:
                passes.append(run_pass(workload, ctx))
                tracer = Tracer()
                traced = run_pass(workload, ctx, tracer)
                del traced["windows"]
                values, bases = layer_metrics(tracer, traced["wall_s"])
                result.update(layer_values=values, layer_bases=bases,
                              traced_pass=traced)
                tracer.write_jsonl(os.path.splitext(args.result)[0] + ".spans.jsonl")
            else:
                # Passes repeat until the budget is spent, counted at the
                # reference speed, so that a workload makes the same number
                # of passes whatever the host's speed that run.
                while sum(elapsed_at_reference(p, probe) for p in passes) < args.seconds:
                    passes.append(run_pass(workload, ctx))
    finally:
        if probe:
            probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    # Relative host speed (see speed.py) for the set-up and for each
    # operation, taken once the probes after the last operation exist.
    if probe:
        result["setup_speed"] = probe.speed(0.0, setup_end)
        result["probes"] = len(probe.speeds)
    for p in passes:
        windows = p.pop("windows")
        if probe:
            p["speeds"] = [probe.speed(start, end) for start, end in windows]
    if not args.setup_only:
        result["passes"] = passes
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)

if __name__ == "__main__":
    main()
