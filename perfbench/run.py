"""chansim benchmark: four seeded, closed-loop workloads, each run in its own
subprocess, with output checks, end-to-end metrics and a traced per-layer
run.

    python3 perfbench/run.py --workload cover-build --seed 0 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 14 --trace 1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (wall_s, setup_s, peak_rss_mb, op_ms.p50, op_ms.p99; times
at the reference host speed, see speed.py), with --trace 1 the per-layer
ones. Everything else, including the environment
stamp, goes to the lines before it and to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cover-build", "exact-law", "solvers", "protocol-stream")
REQUIRED = ("src/chansim/__init__.py", "demos/instances/bsc25.json",
            "demos/instances/skewed_pair.json", "demos/instances/three_letter_target.json")
SETUP_RUNS = 3           # set-ups measured per run, at least
SETUP_MIN_S = 2.0        # time the set-up-only spawns take, at least
RUN_DEADLINE_S = 170     # a run never exceeds this, children included
REFERENCE_SEED = 0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

sys.path.insert(0, HERE)
from tracing import COUNTER_METRICS, SHARE_METRICS, SPAN_METRICS  # noqa: E402

BENCH_METRICS = (("bench.cpu_s", "s"), ("bench.wall_s_untraced", "s"),
                 ("bench.wall_s_traced", "s"), ("bench.trace_overhead_s", "s"),
                 ("bench.spans", "count"), ("bench.predictions_failed", "count"))
LAYER_UNITS = dict(SPAN_METRICS + COUNTER_METRICS + SHARE_METRICS + BENCH_METRICS)


class BenchError(Exception):
    pass


def load_json(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def stamp():
    """Commit (when the checkout is a git repository), a digest of the
    program's sources, and the machine."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = os.path.join(ROOT, "src", "chansim")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"commit": commit, "source_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "mem_total_mb": round(mem / 2 ** 20)}


def spawn(workload, args, deadline, setup_only=False):
    """Run worker.py once; returns (result document, rusage)."""
    tag = f"{workload}-seed{args.seed}-trace{args.trace}-{time.monotonic_ns()}"
    result_path = os.path.join(OUT, tag + ".json")
    env = dict(os.environ, **CHILD_ENV)
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at), "--result", result_path]
    proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []),
                            cwd=ROOT, env=env, stdout=sys.stderr.fileno())
    # A blocking wait4 keeps the child's own rusage; the interval timer only
    # fires when the deadline passes, and then kills the child.
    signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise BenchError(f"{workload}: worker exceeded the {RUN_DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(result_path)
    spans = os.path.splitext(result_path)[0] + ".spans.jsonl"
    if os.path.exists(spans):
        os.replace(spans, os.path.join(
            OUT, f"spans-{workload}-seed{args.seed}.jsonl"))
    return doc, rusage


def correctness(workload, seed, doc, passes, reference):
    """Failures, FAIL-row findings and digest comparison for a run's passes.
    The set-up counts as one operation: it fails when a covering family or
    exact law it builds breaks an invariant."""
    first = passes[0]
    attempted = 1 + sum(p["attempted"] for p in passes)
    failed = bool(doc["setup_problems"]) + sum(p["failed"] for p in passes)
    problems = [f"set-up: {m}" for m in doc["setup_problems"]]
    problems += [m for p in passes for m in p["problems"]]
    for i, p in enumerate(passes[1:], 2):
        if p["digests"] != first["digests"] or p["fail_rows"] != first["fail_rows"]:
            failed += 1
            problems.append(f"pass {i} output differs from pass 1 at the same seed")
    ref_rows = reference["seeds"].get(str(REFERENCE_SEED), {}).get(workload, {}).get(
        "fail_rows")
    seed_ref = reference["seeds"].get(str(seed), {}).get(workload)
    if seed_ref is None:
        digest_note = f"no reference digests for seed {seed}"
    else:
        same = sum(seed_ref["digests"].get(g) == d for g, d in first["digests"].items())
        digest_note = (f"{same}/{len(first['digests'])} digests match the "
                       f"reference for seed {seed}")
    correct = failed == 0 and first["fail_rows"] == ref_rows
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "fail_rows": first["fail_rows"], "fail_rows_reference": ref_rows,
            "digest_note": digest_note, "digests": first["digests"],
            "problems": problems}


def at_reference_speed(p):
    """A pass's wall time and latencies scaled to the reference host speed
    (speed.py): each latency by its operation's speed, the wall time by the
    latency-weighted mean speed."""
    latencies = [t * v for t, v in zip(p["latencies_s"], p["speeds"])]
    return p["wall_s"] * sum(latencies) / sum(p["latencies_s"]), latencies


def end_to_end(workload, args, deadline):
    # Set-up is measured at least SETUP_RUNS times, the full run included,
    # and until the set-up-only spawns have taken SETUP_MIN_S, so that short
    # set-ups get more samples.
    docs = []
    while len(docs) < SETUP_RUNS - 1 or sum(d["setup_s"] for d in docs) < SETUP_MIN_S:
        doc, _ = spawn(workload, args, deadline, setup_only=True)
        docs.append(doc)
    doc, rusage = spawn(workload, args, deadline)
    docs.append(doc)
    setups = [d["setup_s"] * d["setup_speed"] for d in docs]
    passes = doc["passes"]
    walls, latencies = [], []
    for p in passes:
        wall, lat = at_reference_speed(p)
        walls.append(wall)
        latencies += lat
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rusage.ru_maxrss / 1024.0, "MB"),
        "op_ms.p50": (q[49] * 1e3, "ms"),
        "op_ms.p99": (q[98] * 1e3, "ms"),
    }
    op = "block" if workload == "protocol-stream" else "job"
    raw = [s for p in passes for s in p["latencies_s"]]
    raw_q = statistics.quantiles(raw, n=100, method="inclusive")
    speeds = [v for p in passes for v in p["speeds"]]
    notes = {
        "wall_s": f"median of {len(passes)} passes at reference speed: "
                  + " ".join(f"{w:.3f}" for w in walls) + "; as measured: "
                  + " ".join(f"{p['wall_s']:.3f}" for p in passes),
        "setup_s": f"median of {len(setups)} set-ups at reference speed; as measured: "
                   + " ".join(f"{d['setup_s']:.3f}" for d in docs),
        "peak_rss_mb": "ru_maxrss of the workload subprocess",
        "op_ms.p50": f"{len(latencies)} samples, one per {op}, at reference speed; "
                     f"as measured {raw_q[49] * 1e3:.6g}",
        "op_ms.p99": f"{len(latencies)} samples, one per {op}, "
                     f"{sum(s > q[98] for s in latencies)} beyond p99, at reference "
                     f"speed; as measured {raw_q[98] * 1e3:.6g}",
    }
    lines = [f"  host speed = {statistics.median(speeds):.4g} of reference (median over "
             f"{len(speeds)} operations, {doc['probes']} probes; "
             f"range {min(speeds):.3g}-{max(speeds):.3g})"]
    return metrics, notes, passes, doc, lines


def check_predictions(workload, values, expectations):
    lines, failed = [], 0
    layers = [m.split(".", 1)[1] for m, _ in SHARE_METRICS if m != "share.untraced"]
    for pred in expectations["layer_share_predictions"]:
        if pred["workload"] != workload:
            continue
        share = sum(values[f"share.{layer}"] for layer in pred["layers"])
        ok = share >= pred.get("min", 0.0) and share <= pred.get("max", 1.0)
        if pred.get("largest"):
            ok = ok and all(share >= values[f"share.{layer}"] for layer in layers)
        failed += not ok
        lines.append(f"  prediction {'ok' if ok else 'FAILED'}: {pred['text']} "
                     f"(measured {'+'.join(pred['layers'])} = {share:.3f})")
    return failed, lines


def per_layer(workload, args, deadline, expectations):
    doc, rusage = spawn(workload, args, deadline)
    values, bases = dict(doc["layer_values"]), doc["layer_bases"]
    untraced, traced = doc["passes"][-1]["wall_s"], doc["traced_pass"]["wall_s"]
    values.update({"bench.cpu_s": rusage.ru_utime + rusage.ru_stime,
                   "bench.wall_s_untraced": untraced, "bench.wall_s_traced": traced,
                   "bench.trace_overhead_s": traced - untraced})
    bases["bench.cpu_s"] = "user + sys of the workload subprocess, set-up included"
    bases["bench.trace_overhead_s"] = "traced pass minus untraced pass, same process"
    failed, lines = check_predictions(workload, values, expectations)
    values["bench.predictions_failed"] = failed
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    return metrics, bases, doc["passes"] + [doc["traced_pass"]], doc, lines


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(workload, args, deadline, reference, expectations, machine):
    if args.trace:
        metrics, notes, passes, doc, lines = per_layer(
            workload, args, deadline, expectations)
    else:
        metrics, notes, passes, doc, lines = end_to_end(workload, args, deadline)
    check = correctness(workload, args.seed, doc, passes, reference)
    share = check["failed"] / check["attempted"]
    print(f"== {workload} seed={args.seed} trace={args.trace} correct={check['correct']}")
    print(f"  ops_failed_share = {share:.6g}  [{check['failed']} of "
          f"{check['attempted']} operations failed]")
    print(f"  fail_rows = {check['fail_rows']} per pass  "
          f"[reference {check['fail_rows_reference']}; {check['digest_note']}]")
    for problem in check["problems"][:10]:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name} = {fmt(value)} {unit}" + (f"  [{note}]" if note else ""))
    for line in lines:
        print(line)
    stamp_doc = dict(machine, **doc["env"])
    print("  env: " + " ".join(f"{k}={v}" for k, v in stamp_doc.items()))
    with open(os.path.join(OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": args.seed, "trace": args.trace,
                   "env": stamp_doc, "metrics": metrics, "notes": notes,
                   "check": check}, fh, indent=1)
    return metrics, check


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of the timed passes in one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a chansim checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    reference = load_json("reference.json")
    expectations = load_json("expectations.json")
    machine = stamp()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            metrics, check = run_workload(workload, args, deadline, reference,
                                          expectations, machine)
            prefix = f"{workload}." if args.workload == "all" else ""
            summary["correct"] = summary["correct"] and check["correct"]
            summary["attempted"] += check["attempted"]
            summary["failed"] += check["failed"]
            summary["metrics"].update({prefix + name: {"value": value, "unit": unit}
                                       for name, (value, unit) in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
