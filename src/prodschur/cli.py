"""Command-line front end: every operation as a reproducible experiment.

Outputs are machine readable: CSV for sweeps, a line-oriented text format
for sets and colourings (header ``# interval lo hi k`` then sorted
``element colour`` pairs).  Every artifact is accompanied by a run
manifest (JSON: command line, config digest, seed, version, wall time);
identical manifests modulo wall time produce byte-identical output.

Exit codes: 0 success, 1 refused input (`UsageError`), 2 inconclusive
search, 3 resource guard tripped, 4 any other exception, such as a result
that failed its own re-check, reported on one line naming its type.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # This process is the command line, and the library calls no BLAS: keep
    # numpy's OpenBLAS from starting a worker thread per extra core, which
    # only spins (0.12-0.17 s of CPU per command on a 2-core VM).  A user's
    # own setting wins.  This runs before the first import that loads numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import hashlib
import io
import json
import math
import platform
import re
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .core import (
    Colouring,
    IntegerSubset,
    Interval,
    ResourceGuardError,
    TripleSystem,
    UsageError,
    _check_colour_count,
)
from .constructions import (
    alpha_for_rate,
    eleven_interval_colouring,
    max_non_schur_size_bounds,
    mod5_colouring,
    perturbed_blocker_set,
    product_free_colouring,
)
from .counting import (
    count_monochromatic,
    count_product_triples,
    max_divisor_count,
    multiplication_table_count,
    supersaturation_count,
)
from .randomlab import (
    ProbabilityRule,
    SweepPlan,
    _generator,
    _resolve_workers,
    contains_product_triple,
    derive_seed,
    threshold_sweep,
)
from .solver import SearchConfig, schur_number

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here wants 1."""

    def error(self, message: str):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# set/colouring text format
# ---------------------------------------------------------------------------

_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MAX_DIGITS = 18  # every 18-digit decimal fits in int64
# the text layer works a block at a time, so its temporaries stay a few MB
# however long the artifact: the writer formats this many entries per block,
# the parser reads newline-aligned blocks of about this many characters
_BLOCK_ENTRIES = 1 << 14
_BLOCK_CHARS = 1 << 17


def _put_decimal(buf: np.ndarray, last: np.ndarray, x: np.ndarray) -> None:
    """Write each x >= 0 in decimal into buf, its last digit at index `last`."""
    while len(x):
        x, digit = np.divmod(x, 10)
        buf[last] = digit.astype(np.uint8) + np.uint8(ord("0"))
        more = x > 0
        first = int(np.argmax(more))
        if more[first:].all():  # a suffix, as for sorted x: slice, don't copy
            x, last = x[first:], last[first:]
        else:
            x, last = x[more], last[more]
        last = last - 1


def _pairs_to_text(header: str, first: np.ndarray, second: np.ndarray) -> str:
    """header, then one ``first second`` line per entry, every line ending in newline."""
    pieces = [header + "\n"]
    for i in range(0, len(first), _BLOCK_ENTRIES):
        a = np.asarray(first[i:i + _BLOCK_ENTRIES], dtype=np.int64)
        b = np.asarray(second[i:i + _BLOCK_ENTRIES], dtype=np.int64)
        w1 = np.searchsorted(_POW10[1:], a, side="right") + 1
        w2 = np.searchsorted(_POW10[1:], b, side="right") + 1
        ends = np.cumsum(w1 + w2 + 2)  # one past each line's newline
        buf = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
        buf[ends - 1] = ord("\n")
        _put_decimal(buf, ends - w2 - 3, a)
        _put_decimal(buf, ends - 2, b)
        pieces.append(buf.tobytes().decode("ascii"))
    return "".join(pieces)


def colouring_to_text(colouring: Colouring) -> str:
    ground = colouring.ground
    iv = ground.interval
    return _pairs_to_text(f"# interval {iv.lo} {iv.hi} {colouring.k}",
                          ground.members(), colouring._col[ground._ind])


def subset_to_text(subset: IntegerSubset) -> str:
    """A bare set is written as its 1-colouring, a view of its indicator."""
    return colouring_to_text(Colouring._adopt(subset.interval, 1, subset._ind.view(np.int8)))


# kinds of fault in a body, most urgent first, raised in a block as
# UsageError(kind, message); a non-ASCII character outranks them all, and
# the header is checked before the body is read
_JUNK, _TOKENS, _WIDTH, _OUTSIDE, _COLOUR = range(5)


def _parse_pairs(body: bytes, first_line: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``element colour`` lines of `body`; blank lines are skipped.

    `first_line` is the 1-based line number of the body's first line,
    used in error messages.  Raises UsageError(kind, message) for the
    first fault of the most urgent kind in `body`.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    digit = (buf - np.uint8(ord("0"))) < 10
    is_nl = buf == ord("\n")

    def bad_line(kind: int, line: int, why: str) -> UsageError:
        text = body.split(b"\n", line + 1)[line].decode("ascii", "replace").strip()
        return UsageError(kind, f"line {first_line + line}: {why}, got {text!r}")

    junk = ~(digit | is_nl | (buf == ord(" ")) | (buf == ord("\r")) | (buf == ord("\t")))
    if junk.any():
        line = int(np.count_nonzero(is_nl[:np.argmax(junk)]))
        raise bad_line(_JUNK, line, "expected 'element colour' as two non-negative integers")
    edge = np.diff(digit.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    start = edge[:-1] == 1
    # tokens per line: walk the token starts and newlines in text order
    events = np.flatnonzero(start | is_nl)
    ev_nl = is_nl[events]
    line_of = np.cumsum(ev_nl)[~ev_nl]
    per_line = np.bincount(line_of)
    odd = (per_line != 0) & (per_line != 2)
    if odd.any():
        raise bad_line(_TOKENS, int(np.argmax(odd)), "expected one 'element colour' pair")
    width = np.flatnonzero(edge == -1) - events[~ev_nl]
    too_long = width > _MAX_DIGITS
    if too_long.any():
        raise bad_line(_WIDTH, int(line_of[np.argmax(too_long)]),
                       f"integer longer than {_MAX_DIGITS} digits")
    if not len(width):  # blank lines only, which fromstring would read as one 0
        return width, width
    # only digits and whitespace are left, so the C parser reads every token
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    if len(values) != len(width):
        raise RuntimeError(f"parsed {len(values)} integers from {len(width)} tokens")
    return values[0::2], values[1::2]


def colouring_from_text(text: str) -> Colouring:
    """Parse the format `colouring_to_text` writes, rejecting anything else.

    Raises UsageError, in this order of precedence, for a header other
    than ``# interval lo hi k``, a non-ASCII character, a line other than
    two non-negative integers, an element outside [lo, hi], a colour
    outside 1..k or a duplicate element.  It names the first fault of its
    kind in the text, and the least duplicated element.  Elements may come
    in any order; blank lines are skipped.
    """
    start = re.match(r"\s*", text).end()  # what str.lstrip strips, found without a copy
    end = text.find("\n", start)
    if end < 0:
        end = len(text)
    head = text[start:end]
    tokens = head.split()
    try:
        if len(tokens) != 5 or tokens[:2] != ["#", "interval"]:
            raise UsageError
        lo, hi, k = (int(t) for t in tokens[2:])
    except ValueError:
        raise UsageError(f"bad header {head.strip()!r}: expected "
                         f"'# interval lo hi k'") from None
    iv = Interval(lo, hi)
    _check_colour_count(k)
    fault, dup, no_room = None, None, None
    try:
        col = np.zeros(len(iv), dtype=np.int8)
    except MemoryError as e:  # raised once the body is known to have no fault
        no_room = e
    line = text.count("\n", 0, start) + 2  # 1-based number of the block's first line
    body = pos = end + 1
    while pos < len(text):
        # end the block after its last newline, or after its first for a long line
        stop = (text.rfind("\n", pos, pos + _BLOCK_CHARS) + 1
                or text.find("\n", pos + _BLOCK_CHARS) + 1 or len(text))
        try:
            block = text[pos:stop].encode("ascii")
        except UnicodeEncodeError as e:  # as the encoder reports it for the whole body
            raise UsageError(UnicodeEncodeError(e.encoding, text[body:], e.start + pos - body,
                                                e.end + pos - body, e.reason)) from None
        try:
            elems, colours = _parse_pairs(block, line)
            outside = (elems < lo) | (elems > hi)
            if outside.any():
                raise UsageError(_OUTSIDE, f"element {elems[outside][0]} outside [{lo}, {hi}]")
            bad = (colours < 1) | (colours > k)
            if bad.any():
                i = int(np.argmax(bad))
                raise UsageError(_COLOUR,
                                 f"element {elems[i]} has colour {colours[i]} outside 1..{k}")
        except UsageError as f:
            if fault is None or f.args[0] < fault.args[0]:
                fault = f
        else:
            if fault is None and no_room is None:  # what can still end in a duplicate
                slot = elems - lo
                twice = elems[col[slot] != 0]  # set by an earlier block
                if not (slot[1:] > slot[:-1]).all():
                    srt = np.sort(elems)
                    twice = np.concatenate((twice, srt[1:][srt[1:] == srt[:-1]]))
                if len(twice):
                    least = int(twice.min())
                    dup = least if dup is None else min(dup, least)
                col[slot] = colours
        line += block.count(b"\n")
        pos = stop
    if fault is not None:
        raise UsageError(fault.args[1])
    if no_room is not None:
        raise no_room
    if dup is not None:
        raise UsageError(f"duplicate element {dup}")
    return Colouring._adopt(iv, k, col)


# ---------------------------------------------------------------------------
# manifest plumbing
# ---------------------------------------------------------------------------

def _manifest(args: argparse.Namespace, argv: list[str], workers: int,
              seed: Optional[int], wall: float, timings: Optional[dict] = None) -> dict:
    import shlex  # here, not at the top: only a run that writes a manifest needs it

    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True, default=str)
                            .encode()).hexdigest()
    manifest = {
        "command": shlex.join(argv),
        "config_digest": digest,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(wall, 3),
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "workers": workers},
    }
    if timings is not None:
        manifest["timings"] = timings
    return manifest


def _emit(args: argparse.Namespace, argv: list[str], workers: int, payload: str,
          seed: Optional[int], wall: float, timings: Optional[dict] = None) -> None:
    """Write the payload and its manifest; `argv` is the command line `args`
    were parsed from, `workers` the resolved worker count, `timings` are
    per-phase seconds."""
    manifest = _manifest(args, argv, workers, seed, wall, timings)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
        with open(out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out} (+ manifest)", file=sys.stderr)
    else:
        sys.stdout.write(payload)
        print(json.dumps(manifest), file=sys.stderr)


def _records_to_csv(records, extra_cols: tuple[str, ...] = ()) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "c", "p", "trials", "successes", "frequency") + extra_cols)
    for rec in records:
        row = [rec.n, rec.extra["c"], rec.p, rec.trials, rec.successes,
               rec.frequency]
        row.extend(rec.extra[col] for col in extra_cols)
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_schur(args, argv: list[str], workers: Optional[int]) -> int:
    system = TripleSystem.parse(args.system)
    config = SearchConfig(k=args.k, max_n=args.max_n, node_limit=args.node_limit)
    t0 = time.perf_counter()
    outcome = schur_number(args.k, system, config)
    wall = time.perf_counter() - t0
    print(f"k: {args.k}")
    print(f"system: {system.value}")
    print(f"value: {outcome.value if outcome.conclusive else 'inconclusive'}")
    print(f"lower_bound: {outcome.lower_bound}")
    print(f"nodes_explored: {outcome.nodes_explored}")
    print(f"prunes: {outcome.prunes}")
    print(f"forced: {outcome.forced}")
    print(f"ns_per_node: {outcome.ns_per_node:.0f}")
    print(f"elapsed_s: {outcome.elapsed:.3f}")
    if outcome.witness is not None and args.out:
        _emit(args, argv, workers, colouring_to_text(outcome.witness), None, wall)
    return EXIT_OK if outcome.conclusive else EXIT_INCONCLUSIVE


def _cmd_gstar(args, argv: list[str], workers: Optional[int]) -> int:
    bounds = max_non_schur_size_bounds(args.k, args.n, args.eps,
                                       s=args.s, s_prime=args.s_prime)
    print(f"lower: {bounds.lower}")
    print(f"upper: {bounds.upper}")
    print(f"upper_condition_met: {bounds.upper_condition_met}")
    return EXIT_OK


def _construction(args):
    """(build, report, to_text) for the named construction.

    build() returns the object, report(obj) verifies it and returns the
    report text, to_text(obj) the payload.
    """
    name, n = args.name, args.n
    if name == "log-product":
        if args.k is None:
            raise UsageError("--k is required for log-product")

        def report(colouring):
            violations = count_monochromatic(colouring, TripleSystem.PRODUCT)
            return (f"construction: log-product k={args.k} n={n}\n"
                    f"ground: ({colouring.ground.interval.lo - 1}, {n}]\n"
                    f"violations: {violations}\n")
        return lambda: product_free_colouring(args.k, n), report, colouring_to_text
    if name == "mod5":
        def report(colouring):
            violations = count_monochromatic(colouring, TripleSystem.SUM)
            return (f"construction: mod5 n={n}\n"
                    f"size: {colouring.ground.cardinality()} (ceil(4n/5) = {-(-4 * n // 5)})\n"
                    f"violations: {violations}\n")
        return lambda: mod5_colouring(n)[1], report, colouring_to_text
    if name == "eleven":
        def report(colouring):
            mono = count_monochromatic(colouring, TripleSystem.SUM)
            return (f"construction: eleven n={n}\n"
                    f"monochromatic_sum_triples: {mono}\n"
                    f"reference_n2_over_22: {n * n / 22:.1f}\n")
        return lambda: eleven_interval_colouring(n), report, colouring_to_text
    # "blocker", the last of --name's choices, which argparse enforces
    if args.alpha is None:
        raise UsageError("--alpha is required for blocker")

    def report(subset):
        triple_free = not contains_product_triple(subset)
        return (f"construction: blocker n={n} alpha={args.alpha}\n"
                f"size: {subset.cardinality()} "
                f"(fraction {subset.cardinality() / n:.6f})\n"
                f"product_triple_free: {triple_free}\n")
    return lambda: perturbed_blocker_set(n, args.alpha), report, subset_to_text


def _cmd_construct(args, argv: list[str], workers: Optional[int]) -> int:
    build, report, to_text = _construction(args)
    t0 = time.perf_counter()
    obj = build()
    t1 = time.perf_counter()
    text = report(obj)
    t2 = time.perf_counter()
    payload = to_text(obj)
    t3 = time.perf_counter()
    timings = {"build_s": round(t1 - t0, 6), "verify_s": round(t2 - t1, 6),
               "serialise_s": round(t3 - t2, 6)}
    print(text, end="", file=sys.stderr)
    _emit(args, argv, workers, payload, None, t3 - t0, timings)
    return EXIT_OK


def _cmd_count(args, argv: list[str], workers: Optional[int]) -> int:
    what = args.what
    if what == "triples":
        if args.n < 2:  # the reference 0.5 n log n is 0 at n = 1
            raise UsageError(f"--n must be >= 2 for triples, got {args.n}")
        tc = count_product_triples(args.n)
        print(f"total: {tc.total}")
        print(f"off_diagonal: {tc.off_diagonal}")
        print(f"diagonal: {tc.diagonal}")
        ref = 0.5 * args.n * math.log(args.n)
        print(f"reference_half_n_log_n: {ref:.1f}")
        print(f"ratio: {tc.total / ref:.4f}")
    elif what == "mono":
        system = TripleSystem.parse(args.system)
        if args.name not in ("mod5", "eleven", "log-product"):
            raise UsageError("--name must be one of mod5, eleven, log-product")
        build, _, _ = _construction(args)
        print(f"monochromatic: {count_monochromatic(build(), system)}")
    elif what == "divisors":
        if args.n < 3:  # the reference log n / log log n needs log log n > 0
            raise UsageError(f"--n must be >= 3 for divisors, got {args.n}")
        mx, arg = max_divisor_count(args.n)
        print(f"max: {mx}")
        print(f"argmax: {arg}")
        ref = math.log(args.n) / math.log(math.log(args.n))
        print(f"reference_log_n_over_loglog_n: {ref:.3f}")
    elif what == "table":
        if args.y is None or args.z is None:
            raise UsageError("--y and --z are required for table counts")
        est = multiplication_table_count(args.n, args.y, args.z)
        print(f"exact: {est.exact}")
        if est.ratio is not None:
            print(f"u: {est.u:.6f}")
            print(f"theta_form: {est.theta_form:.1f}")
            print(f"ratio: {est.ratio:.4f}")
        else:
            print("theta preconditions not met; exact count only")
    else:  # "supersat", the last of --what's choices, which argparse enforces
        if not 0 <= args.drop <= args.n - 1:
            raise UsageError(f"--drop must lie in [0, n - 1] = [0, {args.n - 1}], "
                              f"got {args.drop}")
        keep = np.ones(args.n - 1, dtype=bool)  # the carrier of [2, n]
        if args.drop:
            rng = _generator(derive_seed(args.seed, args.drop), salt=0)
            keep[rng.choice(args.n - 1, size=args.drop, replace=False)] = False
        A = IntegerSubset._adopt(Interval(2, args.n), keep)
        count = supersaturation_count(A)
        print(f"count: {count}")
        print(f"size: {A.cardinality()}")
        print(f"reference_n_over_8: {args.n / 8:.1f}")
    return EXIT_OK


def _parse_multipliers(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad multiplier list {text!r}: {exc}")


def _sweep_timings(records) -> dict:
    """Per-phase trial seconds of a sweep, summed over its records."""
    return {k: round(sum(rec.timings[k] for rec in records), 6)
            for k in records[0].timings}


def _cmd_sweep(args, argv: list[str], workers: Optional[int]) -> int:
    """`threshold` and `perturbed`: the command names the plan's rule."""
    rule, alpha, extra_cols = ProbabilityRule.RANDOM_THRESHOLD, None, ()
    if args.command == "perturbed":
        rule, extra_cols = ProbabilityRule.PERTURBED, ("alpha", "beta_alpha", "blocker_size")
        alpha = args.alpha if args.alpha is not None else alpha_for_rate(0.25)
    plan = SweepPlan(n=args.n, multipliers=_parse_multipliers(args.c), trials=args.trials,
                     master_seed=args.seed, rule=rule, alpha=alpha)
    t0 = time.perf_counter()
    records = threshold_sweep(plan, workers)
    wall = time.perf_counter() - t0
    _emit(args, argv, workers, _records_to_csv(records, extra_cols), args.seed, wall,
          _sweep_timings(records))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="prodschur",
                     description="Schur-triple search, constructions, counts "
                                 "and Monte Carlo experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="exact Schur-type number")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--system", default="sum", choices=["sum", "double-sum"])
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--out", default=None, help="write the witness colouring here")
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("gstar", help="extremal-size bounds for product k-Schurness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--s-prime", type=int, default=None)
    p.set_defaults(func=_cmd_gstar)

    p = sub.add_parser("construct", help="build and verify a named construction")
    p.add_argument("--name", required=True,
                   choices=["log-product", "mod5", "eleven", "blocker"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count", help="exact counts with asymptotic references")
    p.add_argument("--what", required=True,
                   choices=["triples", "mono", "divisors", "table", "supersat"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--system", default="sum",
                   choices=["sum", "double-sum", "product"])
    p.add_argument("--drop", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_count)

    for name, text in (("threshold", "random-set threshold sweep (CSV)"),
                       ("perturbed", "randomly perturbed sweep (CSV)")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--n", type=int, required=True)
        if name == "perturbed":  # only here, so threshold's config digest keeps its keys
            p.add_argument("--alpha", type=float, default=None,
                           help="default: the density with rate 1/4")
        p.add_argument("--c", required=True, help="comma-separated multipliers")
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command line `argv` (default: this process's arguments)."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a run that writes a manifest reads PRODSCHUR_WORKERS before any work
        emits = args.command in ("construct", "threshold", "perturbed") or (
            args.command == "schur" and args.out)
        return args.func(args, argv, _resolve_workers(None) if emits else None)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except Exception as exc:  # neither refused input nor a guard: a bug to report
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
