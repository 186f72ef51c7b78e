#!/usr/bin/env python3
"""prodschur benchmark: one closed-loop caller, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` repeats the workload's op list until ``--seconds`` have
passed (at least twice) and reports the end-to-end metrics: set-up time,
median wall and CPU seconds per pass, and peak RSS.  ``--trace 1`` runs
the op list once untraced and once traced, plus the traced-only phases
(the mc-sweep seed replay, the in-process cli probes), and reports the
per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; spans go to
``.perfbench_run/``.  ``--workload all`` runs each workload in its own
process and prints every end-to-end metric, plus ``fail_frac``, by name.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("exact-search", "mc-sweep", "cli-artifacts")
MIN_PASSES = 2
SETUP_SAMPLES = 5
LAYERS = ("solver", "randomlab", "constructions", "counting", "core", "cli")
NODE_QUERIES = ("sum3", "double-sum3", "double-sum4")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Import prodschur from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "prodschur", "__init__.py")):
        raise SystemExit(f"perfbench: no prodschur sources under {SRC}")
    sys.path.insert(0, SRC)
    import prodschur
    if not os.path.abspath(prodschur.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported prodschur from {prodschur.__file__}")
    import workloads
    return prodschur, workloads


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _setup_sample(args) -> float:
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def _environment(prodschur, ctx) -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            return int(out) if out.isdigit() else None
        except OSError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.dirname(prodschur.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "prodschur": prodschur.__version__, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "workers": ctx.workers,
            "workload": ctx.workload, "seed": ctx.seed, "git_commit": commit,
            "src_sha256": src.hexdigest(),
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": getconf("LEVEL3_CACHE_SIZE")}


def _counts(results) -> dict:
    """Exactly repeating counts from one pass; bytes are computed, not measured."""
    out = {}
    for r in results:
        for key, value in r.counts.items():
            out[key] = out.get(key, 0) + value
    return out


def _timed_run(workloads, ctx, seconds: float):
    from spans import NullTracer
    walls, cpus, results = [], [], []
    start = time.perf_counter()
    # Start another pass only if it should end within `seconds`, so that a
    # run's length stays near `seconds` whatever one pass costs.
    while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + statistics.mean(walls) <= seconds):
        c0, w0 = workloads.cpu_seconds(), time.perf_counter()
        res = workloads.run_pass(ctx, NullTracer())
        walls.append(time.perf_counter() - w0)
        cpus.append(workloads.cpu_seconds() - c0)
        results.append(res)
    return walls, cpus, results


def _layer_metrics(tr, overhead_s: float, pool_s: float, counts: dict) -> dict:
    def dur(s):
        return s["end"] - s["start"]

    def in_layer(layer, role=None):
        return [s for s in tr.spans if s["layer"] == layer
                and (role is None or s.get("role") == role)]

    solver = in_layer("solver")
    timed = [s for s in solver if "nodes" in s]
    nodes = sum(s["nodes"] for s in timed)
    samples = tr.named("randomlab.sample_random_subset")
    detects = tr.named("randomlab.contains_product_triple")
    procs = tr.named("cli.proc")
    to_text = [s for s in tr.spans if s["name"].startswith("cli.") and "bytes" in s]
    startup = [dur(s) for s in procs if s.get("op") == "bad-usage"]
    m = {
        "solver.calls": len(solver),
        "solver.busy_s": sum(map(dur, solver)),
        "solver.nodes": nodes,
        "solver.ns_per_node": sum(map(dur, timed)) / nodes * 1e9 if nodes else 0.0,
        "solver.failed": sum(1 for s in solver if "error" in s),
        "randomlab.sample.calls": len(samples),
        "randomlab.sample.busy_s": sum(map(dur, samples)),
        "randomlab.sample.bytes_computed": counts.get("randomlab.sample.bytes_computed", 0),
        "randomlab.detect.calls": len(detects),
        "randomlab.detect.busy_s": sum(map(dur, detects)),
        "randomlab.detect.hit_ratio":
            sum(1 for s in detects if s["hit"]) / len(detects) if detects else 0.0,
        "core.union.busy_s": tr.busy("core.IntegerSubset.union"),
        "randomlab.sweep.busy_s":
            tr.busy("randomlab.threshold_sweep") + tr.busy("randomlab.perturbed_sweep"),
        "randomlab.pool_s": pool_s,
        "constructions.build_s": sum(map(dur, in_layer("constructions", "build"))),
        "constructions.verify_s": sum(map(dur, in_layer("constructions", "verify"))),
        "constructions.violations":
            sum(s.get("violations", 0) for s in in_layer("constructions", "verify")),
        "counting.mono_scan_s": sum(map(dur, in_layer("counting", "mono_scan"))),
        "counting.sieve_s": sum(map(dur, in_layer("counting", "sieve"))),
        "counting.census_s": sum(map(dur, in_layer("counting", "census"))),
        "counting.supersat_s": sum(map(dur, in_layer("counting", "supersat"))),
        "cli.startup_s": statistics.median(startup) if startup else 0.0,
        "cli.proc_s": sum(map(dur, procs)),
        "cli.to_text_s": sum(map(dur, to_text)),
        "cli.to_text_bytes": sum(s["bytes"] for s in to_text),
        "cli.from_text_s": tr.busy("cli.colouring_from_text"),
        "cli.exit_mismatch": sum(1 for s in procs if s["exit"] != s["expected_exit"]),
        "trace.overhead_s": overhead_s,
    }
    for q in NODE_QUERIES:
        m[f"solver.nodes.{q}"] = sum(s["nodes"] for s in timed if s.get("query") == q)
    self_s = tr.self_times()
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def _traced_run(workloads, ctx):
    from spans import NullTracer, Tracer
    tr = Tracer(uuid.uuid4().hex[:12])
    w0 = time.perf_counter()
    plain = workloads.run_pass(ctx, NullTracer())
    t_plain = time.perf_counter() - w0
    w0 = time.perf_counter()
    traced = workloads.run_pass(ctx, tr)
    t_traced = time.perf_counter() - w0
    extra, pool_s = [], 0.0
    if ctx.workload == "mc-sweep":
        extra, pool_s = workloads.replay_sweeps(ctx, tr)
    elif ctx.workload == "cli-artifacts":
        extra = workloads.probe_cli(ctx, tr)
    counts = _counts(traced)
    metrics = _layer_metrics(tr, t_traced - t_plain, pool_s, counts)
    return tr, metrics, [plain, traced, extra]


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("ns_per_node"):
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _run_one(args) -> int:
    prodschur, workloads = _import_program()
    if args.setup_only:
        ctx = workloads.setup(args.workload, args.seed, ROOT)
        ready = time.monotonic()
        ctx.close()
        print(ready)
        return 0
    setup = [_setup_sample(args) for _ in range(SETUP_SAMPLES)]
    ctx = workloads.setup(args.workload, args.seed, ROOT)
    try:
        env = _environment(prodschur, ctx)
        if args.trace:
            tr, layer, groups = _traced_run(workloads, ctx)
            metrics = {k: {"value": v, "unit": _units(k)} for k, v in layer.items()}
            out_dir = os.path.join(ROOT, ".perfbench_run")
            path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}-{tr.run_id}.json")
            tr.write(path, {"environment": env, "metrics": layer})
            print(f"# spans: {os.path.relpath(path, ROOT)} ({len(tr.spans)} spans)")
        else:
            walls, cpus, groups = _timed_run(workloads, ctx, args.seconds)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            }
            per_op = {}
            for res in groups:
                for r in res:
                    per_op.setdefault(r.op, []).append(r.wall)
            print("# median wall_s per op: " + json.dumps(
                {op: round(statistics.median(w), 4) for op, w in per_op.items()}))
            print(f"# passes: {len(walls)}  wall_s per pass: "
                  f"{[round(w, 3) for w in walls]}  set-up samples: "
                  f"{[round(s, 3) for s in setup]}")
    finally:
        ctx.close()
    results = [r for group in groups for r in group]
    print("# environment: " + json.dumps(env))
    print("# counts (exact; bytes computed): " + json.dumps(_counts(groups[0])))
    bad = collections.Counter((r.status, r.op, r.detail) for r in results
                              if r.status != "ok")
    for (status, op, detail), times in bad.items():
        print(f"# {status} x{times}: {op}: {detail}")
    failed = sum(1 for r in results if r.status != "ok")
    print(json.dumps({"correct": not any(r.status == "wrong" for r in results),
                      "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process; print the end-to-end table."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["metrics"]["fail_frac"] = {"value": res["failed"] / res["attempted"],
                                       "unit": "ratio"}
        rows[name] = res
        for key, m in res["metrics"].items():
            print(f"{name:14s} {key:12s} {m['value']:12.4f} {m['unit']}")
        print(f"{name:14s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
