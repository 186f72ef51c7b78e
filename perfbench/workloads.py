"""The three workloads: op lists built from a seed, their execution and checks.

* ``exact-search`` drives only the exact solver (frontier mode, goal mode,
  exhaustion, the product class walk and subset exhaustion).
* ``mc-sweep`` drives only ``randomlab``: the README threshold sweep, the
  perturbed sweep and a 1e7 sweep whose 80 MB uniform draw outgrows L2.
* ``cli-artifacts`` runs the README commands as fresh CLI processes,
  one at a time, and reads every artifact back through
  ``colouring_from_text``.

Every op is checked by ``checks`` (no library code decides correctness).
An op ends ``ok``, ``raised`` (an exception escaped the library) or
``wrong`` (a value, exit code or artifact byte differs from the
expected one).  Spans are opened around each call into a ``prodschur``
module; untimed passes use ``NullTracer``.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import checks
from prodschur.cli import colouring_from_text, colouring_to_text, subset_to_text
from prodschur.constructions import (
    alpha_for_rate,
    eleven_interval_colouring,
    max_non_schur_size_bounds,
    mod5_colouring,
    perturbed_blocker_set,
    product_free_colouring,
    verify_colouring_free,
)
from prodschur.core import IntegerSubset, Interval, ResourceGuardError, TripleSystem
from prodschur.counting import (
    count_monochromatic,
    count_product_triples,
    max_divisor_count,
    multiplication_table_count,
    supersaturation_count,
)
from prodschur.randomlab import (
    SweepPlan,
    contains_product_triple,
    derive_seed,
    perturbed_sweep,
    sample_random_subset,
    threshold_sweep,
)
from prodschur.solver import (
    SearchConfig,
    exists_good_colouring,
    is_k_schur,
    max_non_schur_subset,
    schur_number,
)

WORKLOADS = ("exact-search", "mc-sweep", "cli-artifacts")

# The rate-1/4 blocker density used by the README perturbed sweep; the CLI
# blocker command takes it as a literal, as a user would type it.
BLOCKER_ALPHA = "0.5226495409595402"


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    params: dict


@dataclass
class Result:
    op: str
    status: str                      # "ok", "raised" or "wrong"
    detail: str = ""
    counts: dict = field(default_factory=dict)
    wall: float = 0.0                # seconds, check included


def cpu_seconds() -> float:
    """CPU seconds of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Context:
    """Everything a workload needs at run time, built once at set-up."""

    workload: str
    seed: int
    root: str
    ops: list
    workers: int
    scratch: str
    env: dict
    sweeps: list = field(default_factory=list)   # (op, alpha, records) for replay

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def sample_bytes(n: int) -> int:
    """Bytes the dense sampler materialises per call (computed, not measured):
    n-1 float64 uniforms plus the (n+1)-byte indicator."""
    return 8 * (n - 1) + (n + 1)


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------

def _exact_ops(rng: random.Random) -> list[Op]:
    return [
        Op("S(3)", "schur", {"k": 3, "system": "sum"}),
        Op("S'(3)", "schur", {"k": 3, "system": "double-sum"}),
        Op("S'(4)", "schur", {"k": 4, "system": "double-sum"}),
        Op("goal [1,44] k=4 sum", "goal",
           {"lo": 1, "hi": 44, "k": 4, "system": "sum"}),
        Op("is_k_schur [1,41] k=4 double-sum", "is_k_schur",
           {"lo": 1, "hi": 41, "k": 4, "system": "double-sum", "expected": True}),
        Op("is_k_schur [2,32] k=2 product", "is_k_schur",
           {"lo": 2, "hi": 32, "k": 2, "system": "product", "expected": True}),
        # Grounds of >= 997 members: one Python frame per member.
        Op("goal (3,1000] k=2 product", "goal",
           {"lo": 4, "hi": 1000, "k": 2, "system": "product"}),
        Op("goal [2,1000] k=3 product", "goal",
           {"lo": 2, "hi": 1000, "k": 3, "system": "product"}),
        Op("max_non_schur_subset 12 k=2 sum", "max_non_schur",
           {"n": 12, "k": 2, "system": "sum"}),
    ]


def _mc_ops(rng: random.Random) -> list[Op]:
    return [
        Op("threshold n=1e6", "sweep",
           {"n": 10 ** 6, "multipliers": (0.05, 0.2, 1.0, 5.0, 20.0), "trials": 200,
            "master_seed": rng.getrandbits(32), "rate": None, "full_band": True}),
        Op("perturbed n=1e6", "sweep",
           {"n": 10 ** 6, "multipliers": (0.01, "100/alpha"), "trials": 100,
            "master_seed": rng.getrandbits(32), "rate": 0.25, "full_band": True}),
        Op("threshold n=1e7", "sweep",
           {"n": 10 ** 7, "multipliers": (1.0, 5.0), "trials": 20,
            "master_seed": rng.getrandbits(32), "rate": None, "full_band": False}),
    ]


def _cli_ops(rng: random.Random) -> list[Op]:
    supersat_seed = rng.randrange(1 << 31)

    def cmd(name, argv, exit_code=0, expect=None, artifact=False):
        return Op(name, "cli", {"argv": tuple(argv), "exit": exit_code,
                                "expect": expect or {}, "artifact": artifact})

    return [
        cmd("schur-k4-double-sum", ["schur", "--k", "4", "--system", "double-sum"],
            expect={"value": "41"}, artifact=True),
        cmd("schur-k3-node-limit", ["schur", "--k", "3", "--node-limit", "50"],
            exit_code=2, expect={"value": "inconclusive"}),
        cmd("schur-k5-guard", ["schur", "--k", "5"], exit_code=3),
        cmd("bad-usage", ["schur", "--k"], exit_code=1),
        cmd("gstar", ["gstar", "--k", "2", "--n", "1000000", "--eps", "0.5"],
            expect=checks.gstar_bounds(10 ** 6, 0.5)),
        cmd("construct-log-product-k3",
            ["construct", "--name", "log-product", "--k", "3", "--n", "1000000"],
            expect={"violations": "0"}, artifact=True),
        cmd("construct-log-product-k4",
            ["construct", "--name", "log-product", "--k", "4", "--n", "1000"],
            expect={"violations": "0"}, artifact=True),
        # mod5 at 1e5: its O(n^2) sum verify already dominates here, and at
        # 1e6 the verify alone takes over a minute.
        cmd("construct-mod5", ["construct", "--name", "mod5", "--n", "100000"],
            expect={"violations": "0"}, artifact=True),
        cmd("construct-eleven", ["construct", "--name", "eleven", "--n", "100000"],
            expect={"monochromatic_sum_triples": str(checks.ELEVEN_MONO_1E5)},
            artifact=True),
        cmd("construct-blocker", ["construct", "--name", "blocker", "--n", "1000000",
                                  "--alpha", BLOCKER_ALPHA],
            expect={"product_triple_free": "True"}, artifact=True),
        cmd("count-triples", ["count", "--what", "triples", "--n", "1000000"],
            expect=checks.census(10 ** 6)),
        cmd("count-divisors", ["count", "--what", "divisors", "--n", "10000000"],
            expect={"max": str(checks.MAX_DIVISORS_1E7[0]),
                    "argmax": str(checks.MAX_DIVISORS_1E7[1])}),
        cmd("count-table", ["count", "--what", "table", "--n", "10000000",
                            "--y", "1000", "--z", "10000"],
            expect={"exact": str(checks.TABLE_1E7_1E3_1E4)}),
        cmd("count-supersat", ["count", "--what", "supersat", "--n", "1000000",
                               "--drop", "49", "--seed", str(supersat_seed)],
            expect=checks.supersat_expected(10 ** 6, 49, supersat_seed)),
        cmd("count-mono-eleven", ["count", "--what", "mono", "--n", "100000",
                                  "--name", "eleven", "--system", "sum"],
            expect={"monochromatic": str(checks.ELEVEN_MONO_1E5)}),
        cmd("count-mono-log-product", ["count", "--what", "mono", "--n", "100000",
                                       "--name", "log-product", "--k", "3",
                                       "--system", "product"],
            expect={"monochromatic": "0"}),
    ]


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's op list; the seed fixes every random input and the order."""
    rng = random.Random(seed)
    ops = {"exact-search": _exact_ops, "mc-sweep": _mc_ops,
           "cli-artifacts": _cli_ops}[workload](rng)
    rng.shuffle(ops)
    return ops


def setup(workload: str, seed: int, root: str) -> Context:
    scratch_root = os.path.join(root, ".perfbench_run")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), TMPDIR=scratch)
    return Context(workload=workload, seed=seed, root=root,
                   ops=build_ops(workload, seed),
                   workers=len(os.sched_getaffinity(0)), scratch=scratch, env=env)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _system(name: str) -> TripleSystem:
    return TripleSystem.parse(name)


def _exact(op: Op, ctx: Context, tr) -> tuple[list[str], dict]:
    p = op.params
    if op.kind == "schur":
        k, system = p["k"], p["system"]
        with tr.span("solver.schur_number", "solver", query=f"{system}{k}") as sp:
            out = schur_number(k, _system(system))
        sp["nodes"] = out.nodes_explored
        counts = {f"solver.nodes.{system}{k}": out.nodes_explored}
        want = checks.KNOWN_VALUES[(system, k)]
        if not out.conclusive or out.value != want or out.witness is None:
            return [f"value {out.value} (conclusive={out.conclusive}), expected {want}"], counts
        return checks.colouring_errors(out.witness.dense(), 1, want - 1, k, system), counts
    if op.kind == "goal":
        ground = IntegerSubset.full(p["lo"], p["hi"])
        with tr.span("solver.exists_good_colouring", "solver", query=op.name):
            col = exists_good_colouring(ground, p["k"], _system(p["system"]))
        if col is None:
            return ["no colouring found, one exists"], {}
        return checks.colouring_errors(col.dense(), p["lo"], p["hi"], p["k"],
                                       p["system"]), {}
    if op.kind == "is_k_schur":
        ground = IntegerSubset.full(p["lo"], p["hi"])
        with tr.span("solver.is_k_schur", "solver", query=op.name):
            got = is_k_schur(ground, p["k"], _system(p["system"]))
        return ([] if got == p["expected"] else [f"got {got}"]), {}
    if op.kind == "max_non_schur":
        with tr.span("solver.max_non_schur_subset", "solver", query=op.name):
            size, _, col = max_non_schur_subset(p["n"], p["k"], _system(p["system"]))
        want = checks.MAX_NON_SCHUR_12_2_SUM
        errs = [] if size == want else [f"size {size}, expected {want}"]
        return errs + checks.subset_colouring_errors(col.dense(p["n"]), want, p["k"],
                                                     p["system"]), {}
    raise ValueError(op.kind)


def _sweep(op: Op, ctx: Context, tr) -> tuple[list[str], dict]:
    p = op.params
    n, trials, master = p["n"], p["trials"], p["master_seed"]
    if p["rate"] is None:
        alpha = None
        multipliers = p["multipliers"]
        plan = SweepPlan(n=n, multipliers=multipliers, trials=trials, master_seed=master)
        with tr.span("randomlab.threshold_sweep", "randomlab", op=op.name):
            records = threshold_sweep(plan, workers=ctx.workers)
    else:
        alpha = alpha_for_rate(p["rate"])
        multipliers = tuple(100.0 / alpha if c == "100/alpha" else c
                            for c in p["multipliers"])
        with tr.span("randomlab.perturbed_sweep", "randomlab", op=op.name):
            records = perturbed_sweep(n, alpha, multipliers, trials, master,
                                      workers=ctx.workers)
    ctx.sweeps.append((op, alpha, records))
    counts = {"randomlab.sample.bytes_computed":
              len(multipliers) * trials * sample_bytes(n)}
    if len(records) != len(multipliers):
        return [f"{len(records)} records for {len(multipliers)} multipliers"], counts
    errs = []
    for c, rec in zip(multipliers, records):
        want_p = checks.sweep_probability(n, c, alpha)
        if rec.n != n or rec.trials != trials or abs(rec.p - want_p) > 1e-12 * want_p:
            errs.append(f"record c={c}: n={rec.n} trials={rec.trials} p={rec.p}")
    freqs = [rec.successes / trials for rec in records]
    errs += checks.band_errors(freqs, trials,
                               first_max=0.1 if p["full_band"] else None)
    return errs, counts


def _cli(op: Op, ctx: Context, tr) -> tuple[list[str], dict]:
    p = op.params
    argv = list(p["argv"])
    out_path = os.path.join(ctx.scratch, op.name + ".txt")
    if p["artifact"]:
        argv += ["--out", out_path]
    with tr.span("cli.proc", "cli", op=op.name, expected_exit=p["exit"]) as sp:
        proc = subprocess.run([sys.executable, "-m", "prodschur.cli", *argv],
                              cwd=ctx.root, env=ctx.env, capture_output=True,
                              text=True, timeout=150)
    sp["exit"] = proc.returncode
    errs = checks.exit_code_errors(proc.returncode, p["exit"])
    report = checks.parse_report(proc.stdout + "\n" + proc.stderr)
    errs += checks.report_errors(report, p["expect"])
    if p["artifact"] and not errs:
        with open(out_path, "rb") as fh:
            data = fh.read()
        errs += checks.artifact_errors(op.name, data)
        with tr.span("cli.colouring_from_text", "cli", op=op.name):
            col = colouring_from_text(data.decode())
        iv = col.ground.interval
        digest = checks.colouring_digest(iv.lo, iv.hi, col.k, col.dense())
        if digest != checks.PARSED_SHA256[op.name]:
            errs.append(f"read-back of {op.name} parses to digest {digest[:12]}")
    for path in (out_path, out_path + ".manifest.json"):
        if os.path.exists(path):
            os.remove(path)
    return errs, {}


_RUNNERS = {"exact-search": _exact, "mc-sweep": _sweep, "cli-artifacts": _cli}


def run_op(op: Op, ctx: Context, tr) -> Result:
    w0 = time.perf_counter()
    try:
        errs, counts = _RUNNERS[ctx.workload](op, ctx, tr)
    except Exception as exc:       # the op failed; the pass goes on
        res = Result(op.name, "raised", f"{type(exc).__name__}: {exc}"[:200])
    else:
        res = Result(op.name, "wrong" if errs else "ok", "; ".join(errs)[:400], counts)
    res.wall = time.perf_counter() - w0
    return res


def run_pass(ctx: Context, tr) -> list[Result]:
    """One closed-loop pass: each op starts only after the previous returned."""
    ctx.sweeps.clear()
    with tr.span("pass", "bench"):
        return [run_op(op, ctx, tr) for op in ctx.ops]


# ---------------------------------------------------------------------------
# traced-only phases, kept out of trace.overhead_s
# ---------------------------------------------------------------------------

def replay_sweeps(ctx: Context, tr) -> tuple[list[Result], float]:
    """Re-run every sweep's trials in-process with one worker.

    Each record's success count must come out exactly: trial t of
    multiplier i draws from derive_seed(master, i, t) whatever the worker
    count.  Returns the results and the pool time: sweep wall time minus
    its serial blocker build and minus in-process trial time / workers.
    """
    results, pool_s = [], 0.0
    sweep_spans = {s["op"]: s for s in tr.spans
                   if s["name"] in ("randomlab.threshold_sweep",
                                    "randomlab.perturbed_sweep")}
    for op, alpha, records in ctx.sweeps:
        p = op.params
        n, master = p["n"], p["master_seed"]
        errs, serial_s, trial_s = [], 0.0, 0.0
        with tr.span("replay", "bench", op=op.name):
            blocker = None
            if alpha is not None:
                with tr.span("constructions.perturbed_blocker_set", "constructions",
                             role="build") as sp:
                    blocker = perturbed_blocker_set(n, alpha)
                serial_s += sp["end"] - sp["start"]
            for ci, rec in enumerate(records):
                hits = 0
                for t in range(rec.trials):
                    seed = derive_seed(master, ci, t)
                    t0 = time.perf_counter()
                    with tr.span("randomlab.sample_random_subset", "randomlab", n=n):
                        sample = sample_random_subset(n, rec.p, seed)
                    if blocker is not None:
                        with tr.span("core.IntegerSubset.union", "core"):
                            sample = blocker.union(sample)
                    with tr.span("randomlab.contains_product_triple",
                                 "randomlab") as sp:
                        hit = contains_product_triple(sample)
                    sp["hit"] = hit
                    trial_s += time.perf_counter() - t0
                    hits += hit
                if hits != rec.successes:
                    errs.append(f"c index {ci}: replay {hits} successes, "
                                f"sweep {rec.successes}")
        sweep = sweep_spans[op.name]
        pool_s += (sweep["end"] - sweep["start"]) - serial_s - trial_s / ctx.workers
        status = "wrong" if errs else "ok"
        results.append(Result("replay " + op.name, status, "; ".join(errs)))
    return results, pool_s


def _probe(name: str, fn) -> Result:
    try:
        errs = fn()
    except Exception as exc:
        return Result(name, "raised", f"{type(exc).__name__}: {exc}"[:200])
    return Result(name, "wrong" if errs else "ok", "; ".join(errs))


def probe_cli(ctx: Context, tr) -> list[Result]:
    """Call in-process the public functions each CLI command calls.

    This is where the per-layer split of a command comes from: solver,
    build, verify, serialise and count spans.  It runs once per process,
    so the k=4 log-product build pays the same cold S'(4) solve as the
    command does.
    """
    def to_text(obj, fn):
        with tr.span("cli." + fn.__name__, "cli") as sp:
            text = fn(obj)
        sp["bytes"] = len(text.encode())
        return text

    def schur_k4():
        with tr.span("solver.schur_number", "solver", query="double-sum4") as sp:
            out = schur_number(4, TripleSystem.DOUBLE_SUM)
        sp["nodes"] = out.nodes_explored
        text = to_text(out.witness, colouring_to_text)
        return checks.artifact_errors("schur-k4-double-sum", text.encode())

    def schur_limit():
        with tr.span("solver.schur_number", "solver", query="sum3-limit50") as sp:
            out = schur_number(3, TripleSystem.SUM,
                               SearchConfig(k=3, node_limit=50))
        sp["nodes"] = out.nodes_explored
        return [] if not out.conclusive else ["node-limited search was conclusive"]

    def schur_guard():
        with tr.span("solver.schur_number", "solver"):
            try:
                schur_number(5)
            except ResourceGuardError:
                return []
        return ["k=5 passed the resource guard"]

    def gstar():
        with tr.span("constructions.max_non_schur_size_bounds", "constructions",
                  role="build"):
            b = max_non_schur_size_bounds(2, 10 ** 6, 0.5)
        got = {"lower": str(b.lower), "upper": str(b.upper),
               "upper_condition_met": str(b.upper_condition_met)}
        return checks.report_errors(got, checks.gstar_bounds(10 ** 6, 0.5))

    def construct(key, build, system):
        def run():
            with tr.span("constructions." + build.__name__, "constructions",
                         role="build"):
                col = build()
            with tr.span("constructions.verify_colouring_free", "constructions",
                      role="verify") as sp:
                violations = verify_colouring_free(col, system)
            sp["violations"] = len(violations)
            text = to_text(col, colouring_to_text)
            errs = [f"{len(violations)} violations"] if violations else []
            return errs + checks.artifact_errors(key, text.encode())
        return run

    def eleven():
        with tr.span("constructions.eleven_interval_colouring", "constructions",
                  role="build"):
            col = eleven_interval_colouring(10 ** 5)
        with tr.span("counting.count_monochromatic", "counting", role="mono_scan"):
            mono = count_monochromatic(col, TripleSystem.SUM)
        text = to_text(col, colouring_to_text)
        errs = [] if mono == checks.ELEVEN_MONO_1E5 else [f"mono {mono}"]
        return errs + checks.artifact_errors("construct-eleven", text.encode())

    def blocker():
        with tr.span("constructions.perturbed_blocker_set", "constructions",
                  role="build"):
            subset = perturbed_blocker_set(10 ** 6, float(BLOCKER_ALPHA))
        with tr.span("randomlab.contains_product_triple", "randomlab") as sp:
            hit = contains_product_triple(subset)
        sp["hit"] = hit
        text = to_text(subset, subset_to_text)
        errs = ["blocker contains a product triple"] if hit else []
        return errs + checks.artifact_errors("construct-blocker", text.encode())

    def counts():
        errs = []
        with tr.span("counting.count_product_triples", "counting", role="census"):
            tc = count_product_triples(10 ** 6)
        errs += checks.report_errors(
            {"total": str(tc.total), "off_diagonal": str(tc.off_diagonal),
             "diagonal": str(tc.diagonal)}, checks.census(10 ** 6))
        with tr.span("counting.max_divisor_count", "counting", role="sieve"):
            if max_divisor_count(10 ** 7) != checks.MAX_DIVISORS_1E7:
                errs.append("max divisor count")
        with tr.span("counting.multiplication_table_count", "counting", role="sieve"):
            if multiplication_table_count(10 ** 7, 1000, 10000).exact != \
                    checks.TABLE_1E7_1E3_1E4:
                errs.append("table count")
        op = next(o for o in ctx.ops if o.name == "count-supersat")
        seed = int(op.params["argv"][-1])
        dense = checks.dropped_indicator(10 ** 6, 49, seed)
        A = IntegerSubset.from_dense(Interval(2, 10 ** 6), dense)
        with tr.span("counting.supersaturation_count", "counting", role="supersat"):
            got = supersaturation_count(A)
        if str(got) != op.params["expect"]["count"]:
            errs.append(f"supersat {got}")
        with tr.span("constructions.product_free_colouring", "constructions",
                  role="build"):
            lp = product_free_colouring(3, 10 ** 5)
        with tr.span("counting.count_monochromatic", "counting", role="mono_scan"):
            if count_monochromatic(lp, TripleSystem.PRODUCT) != 0:
                errs.append("log-product colouring has product triples")
        return errs

    steps = [
        ("probe schur-k4-double-sum", schur_k4),
        ("probe schur-k3-node-limit", schur_limit),
        ("probe schur-k5-guard", schur_guard),
        ("probe gstar", gstar),
        ("probe construct-log-product-k3",
         construct("construct-log-product-k3", lambda: product_free_colouring(3, 10 ** 6),
                   TripleSystem.PRODUCT)),
        ("probe construct-log-product-k4",
         construct("construct-log-product-k4", lambda: product_free_colouring(4, 1000),
                   TripleSystem.PRODUCT)),
        ("probe construct-mod5",
         construct("construct-mod5", lambda: mod5_colouring(10 ** 5)[1], TripleSystem.SUM)),
        ("probe construct-eleven", eleven),
        ("probe construct-blocker", blocker),
        ("probe counts", counts),
    ]
    with tr.span("probe", "bench"):
        return [_probe(name, fn) for name, fn in steps]
