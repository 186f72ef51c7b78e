"""Seeded Monte Carlo experiments on random and randomly perturbed sets.

Randomness discipline: every trial draws from a counter-based Philox
stream keyed by a seed derived deterministically from
(master_seed, multiplier index, trial index).  Trials are therefore
independent, order-insensitive, and reproducible regardless of how many
workers execute them; aggregation is plain success counting.

A sweep trial draws its set prefix by prefix and stops at the first
product triple whose largest member has been drawn.  It reads its Philox
stream in the same order as `sample_random_subset`, so the sets, and the
success counts, are those of drawing [2, n] whole and scanning it.

A `SweepPlan` describes a sweep and `threshold_sweep` runs any plan: the
plan's rule alone decides the probability scale, the blocker every
sample is united with and the records' annotations.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .constructions import perturbed_blocker_set, threshold_exponent_offset
from .core import (ExperimentRecord, IntegerSubset, Interval, TripleSystem, UsageError,
                   _mono_rows)

_MASK64 = (1 << 64) - 1
_KEY_SALT = 0x9E3779B97F4A7C15  # second Philox key word, fixed

WORKERS_ENV = "PRODSCHUR_WORKERS"


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """64-bit per-trial seed from a master seed and stream indices."""
    h = master_seed & _MASK64
    for i in indices:
        h = _splitmix64(h ^ (i & _MASK64))
    return h


def _generator(seed: int, salt: int = _KEY_SALT,
               rng: Optional[np.random.Generator] = None) -> np.random.Generator:
    """The Philox stream keyed by (seed, salt); every seeded draw starts here.

    Re-keys `rng`, a generator made here before, in place: counter zero
    and buffers empty, as `Philox(key=[seed, salt])` starts.  Setting the
    state costs ~3 µs, building a Philox ~18 µs, so a caller that draws
    many streams passes back the generator it got.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))  # no OS entropy read
    zero = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": zero,
                  "key": np.array([seed & _MASK64, salt & _MASK64], dtype=np.uint64)},
        "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


class ProbabilityRule(Enum):
    """How a sweep maps a multiplier c to an inclusion probability."""

    RANDOM_THRESHOLD = "random-threshold"  # p = c * (n ln n)^(-1/3)
    PERTURBED = "perturbed"                # p = c * n^(-1/2 + offset(alpha))


@dataclass(frozen=True)
class SweepPlan:
    """Parameters of one Monte Carlo sweep over multipliers."""

    n: int
    multipliers: tuple[float, ...]
    trials: int
    master_seed: int
    rule: ProbabilityRule = ProbabilityRule.RANDOM_THRESHOLD
    alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise UsageError("n must be >= 2")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if not self.multipliers or not all(math.isfinite(c) and c > 0
                                           for c in self.multipliers):
            raise UsageError(f"multipliers must be positive and finite, "
                             f"got {self.multipliers}")
        if self.rule is ProbabilityRule.PERTURBED and self.alpha is None:
            raise UsageError("the perturbed rule needs alpha")
        if self.rule is ProbabilityRule.RANDOM_THRESHOLD and self.alpha is not None:
            raise UsageError(f"the random-threshold rule takes no alpha, got {self.alpha}")

    def probability(self, c: float) -> tuple[float, bool]:
        """(clamped p, whether clamping occurred) for multiplier c."""
        if self.rule is ProbabilityRule.RANDOM_THRESHOLD:
            raw = c * (self.n * math.log(self.n)) ** (-1.0 / 3.0)
        else:
            offset = threshold_exponent_offset(self.alpha)
            raw = c * self.n ** (-0.5 + offset)
        clamped = raw > 1.0
        return (1.0 if clamped else raw), clamped


def _gap_chunk(size: int, q: float) -> int:
    """Uniforms drawn per refill: the expected success count plus 6 sigma."""
    return int(size * q + 6.0 * math.sqrt(size * q * (1.0 - q))) + 16


class _GapWalk:
    """Sets each entry of the bool array `out` independently with
    probability q, a prefix at a time.

    Walks from success to success by geometric gaps
    G = floor(log1p(-U) / log1p(-q)) + 1, for which P(G >= k) = (1-q)^(k-1)
    up to the 53-bit resolution of U, so it draws about len(out) * q
    uniforms instead of len(out).  U is read from `rng` in order, so the
    set depends neither on the refill size nor on where the walk paused.
    """

    __slots__ = ("out", "q", "rng", "log_keep", "huge", "last")

    def __init__(self, out: np.ndarray, q: float, rng: np.random.Generator):
        self.out, self.q, self.rng = out, q, rng
        self.log_keep = math.log1p(-q)
        self.huge = self.log_keep > -1e-300  # subnormal q: gaps may overflow to inf
        self.last = -1.0  # position of the previous success

    def advance(self, target: int) -> int:
        """Draw one refill sized to pass position `target`; return how long
        a prefix of `out` is now final: every position below the last
        success drawn, or all of `out` once a gap has passed its end.
        With q = 0 nothing is drawn and any prefix is final."""
        size = len(self.out)
        if self.q == 0.0:
            return min(target, size)
        ahead = max(min(target, size) - 1 - int(self.last), 0)
        pos = self.rng.random(_gap_chunk(ahead, self.q))
        np.negative(pos, out=pos)
        np.log1p(pos, out=pos)
        with np.errstate(over="ignore") if self.huge else nullcontext():
            pos /= self.log_keep
            np.floor(pos, out=pos)
            pos += 1.0
            pos[0] += self.last
            np.cumsum(pos, out=pos)  # float64 holds every position below 2^53 exactly
        inside = int(np.searchsorted(pos, size))
        self.last = pos[-1]
        # cast in place: a second chunk-sized array per refill costs fresh
        # pages, ~1 ms a trial at n = 1e6, p = 0.08
        hits = pos[:inside].view(np.int64)
        np.copyto(hits, pos[:inside], casting="unsafe")
        self.out[hits] = True
        return size if self.last >= size else int(self.last)  # last may be inf


def sample_random_subset(n: int, p: float, seed: int) -> IntegerSubset:
    """Each element of [2, n] independently with probability p; Philox-keyed.

    Draws the members by geometric gaps, or the non-members when p > 1/2,
    so a trial costs O(n min(p, 1-p)) uniforms; p = 0 and p = 1 draw none.
    """
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"p must lie in [0, 1], got {p}")
    if n < 2:
        raise UsageError("n must be >= 2")
    ind = np.zeros(n - 1, dtype=bool)
    q = min(p, 1.0 - p)
    if q > 0.0:
        walk = _GapWalk(ind, q, _generator(seed))
        while walk.advance(n - 1) < n - 1:
            pass
    if p > 0.5:
        np.logical_not(ind, out=ind)
    return IntegerSubset._adopt(Interval(2, n), ind)


def contains_product_triple(A: IntegerSubset) -> bool:
    """True iff some a, b in A (possibly equal) have ab in A.

    Reads the product rows b in [a, n/a] of A's own indicator in place,
    n = the carrier's upper end, and stops at the first row with a hit.
    """
    rows = _mono_rows(A._ind.view(np.int8), TripleSystem.PRODUCT, A.interval.lo)
    return any(mask.any() for *_, mask in rows)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_PHASES = ("sample_s", "union_s", "detect_s")
_FIRST_PREFIX = 1024  # least prefix a trial draws before its first check
_GROWTH = 8           # factor by which each later check's prefix grows


def _trial(n: int, p: float, blocker: Optional[IntegerSubset],
           rng: np.random.Generator, spent: list[float], ind: np.ndarray) -> bool:
    """Does blocker ∪ [2, n]_p contain a product triple?

    The sample is the one sample_random_subset draws from the stream
    `rng` is keyed to.  It is drawn prefix by prefix, a growing one
    each step; after each step the prefix that became final is made
    exact (inverted when p > 1/2, the blocker ORed in) and only the
    product triples whose largest member has just become final are
    checked.  The first hit ends the trial; a triple inside a prefix is
    one of the whole set and the last step reaches n, so the answer is
    contains_product_triple(blocker ∪ sample).  Adds the seconds of each
    of `_PHASES` to `spent`.

    Draws into `ind`, n - 1 bools all False, which are all False again
    on return.
    """
    if blocker is not None and blocker.interval != Interval(2, n):
        raise UsageError(f"the blocker must be carried on [2, {n}], got {blocker!r}")
    clock = time.perf_counter
    size = n - 1
    col = ind.view(np.int8)
    walk = _GapWalk(ind, min(p, 1.0 - p), rng)
    done, target = 0, _FIRST_PREFIX
    # ~p^3 m ln m / 2 triples have their largest member <= m: skip the
    # checks at which not even one is expected
    while target < size and p ** 3 * target * math.log(target) < 2.0:
        target *= _GROWTH
    while True:
        t0 = clock()
        final = walk.advance(target)
        fresh = ind[done:final]
        if p > 0.5:
            np.logical_not(fresh, out=fresh)
        t1 = t2 = clock()
        if blocker is not None:
            fresh |= blocker._ind[done:final]
            t2 = clock()
        rows = _mono_rows(col[:final], TripleSystem.PRODUCT, 2, since=done + 1)
        hit = any(mask.any() for *_, mask in rows)
        t3 = clock()
        spent[0] += t1 - t0
        spent[1] += t2 - t1
        spent[2] += t3 - t2
        if hit or final == size:
            break
        done, target = final, min(max(target, final) * _GROWTH, size)
    # the walk set members up to its last success (past the end once a gap
    # has left it), the steps rewrote [0, final)
    ind[:size if walk.last >= size else max(final, int(walk.last) + 1)] = False
    return hit


def _chunk(args: tuple[Optional[IntegerSubset], int, float, Sequence[int]]
           ) -> tuple[int, float, float, float, float]:
    """Successes among the trials keyed by `seeds`, then the seconds spent
    in each of `_PHASES`: sampling, uniting with the blocker (none if
    None) and detecting, then the CPU seconds of the whole chunk.  One
    indicator serves every trial."""
    blocker, n, p, seeds = args
    cpu0 = time.process_time()
    hits, spent, rng = 0, [0.0, 0.0, 0.0], None
    ind = np.zeros(n - 1, dtype=bool)
    for s in seeds:
        rng = _generator(s, rng=rng)
        hits += _trial(n, p, blocker, rng, spent, ind)
    return hits, *spent, time.process_time() - cpu0


_POOL = None  # (worker count, ProcessPoolExecutor): the one live pool, if any


def _pooled(workers: int, jobs: list) -> list:
    """`_chunk` of each job on the process's pool of `workers` workers.

    The pool is made at the first call and reused while the count stays;
    another count replaces it, and a pool that broke is dropped, so the
    next call gets a fresh one."""
    global _POOL
    # deferred: the import costs every CLI process ~20 ms otherwise
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    if _POOL is None or _POOL[0] != workers:
        _close_pool()
        _POOL = (workers, ProcessPoolExecutor(max_workers=workers))
    try:
        return list(_POOL[1].map(_chunk, jobs))
    except BrokenProcessPool:
        _close_pool()
        raise


@atexit.register
def _close_pool() -> None:
    """Shut the live pool down, its workers joined, and forget it; runs
    at interpreter exit too, before module teardown."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL[1], None
        pool.shutdown(cancel_futures=True)


def threshold_sweep(plan: SweepPlan, workers: Optional[int] = None
                    ) -> list[ExperimentRecord]:
    """Success frequency of containing a product triple across multipliers.

    For each multiplier c, counts how many of plan.trials samples of
    [2, n]_p, p = plan.probability(c), contain a product Schur triple.
    The perturbed rule unites every sample with perturbed_blocker_set(n,
    alpha), built once, and annotates alpha, the exponent offset and the
    blocker's size.  Trial t of multiplier ci uses derive_seed(master,
    ci, t); each multiplier's trials are split round-robin into
    `workers` chunks, all queued on the live pool at once.
    """
    blocker, extra = None, {}
    if plan.rule is ProbabilityRule.PERTURBED:
        blocker = perturbed_blocker_set(plan.n, plan.alpha)
        size = blocker.cardinality()
        extra = {"alpha": plan.alpha, "beta_alpha": threshold_exponent_offset(plan.alpha),
                 "blocker_size": size, "blocker_fraction": size / plan.n}
    workers = _resolve_workers(workers)
    serial = workers <= 1 or plan.trials < 2 * workers
    step = 1 if serial else workers
    probs = [plan.probability(c) for c in plan.multipliers]
    jobs = [(blocker, plan.n, p,
             [derive_seed(plan.master_seed, ci, t) for t in range(i, plan.trials, step)])
            for ci, (p, _) in enumerate(probs) for i in range(step)]
    sums = list(map(_chunk, jobs)) if serial else _pooled(workers, jobs)
    records = []
    for ci, (c, (p, clamped)) in enumerate(zip(plan.multipliers, probs)):
        hits, *seconds = map(sum, zip(*sums[ci * step:(ci + 1) * step]))
        records.append(ExperimentRecord(
            n=plan.n, p=p, seed=plan.master_seed, trials=plan.trials,
            successes=hits, extra={"c": c, "clamped": clamped, **extra},
            timings=dict(zip(_PHASES + ("cpu_s",), seconds))))
    return records


def perturbed_sweep(n: int, alpha: float, multipliers: Sequence[float],
                    trials: int, master_seed: int,
                    workers: Optional[int] = None) -> list[ExperimentRecord]:
    """threshold_sweep of the perturbed plan: p = c * n^(-1/2 + offset(alpha)),
    every sample united with the blocker construction."""
    return threshold_sweep(SweepPlan(n=n, multipliers=tuple(multipliers), trials=trials,
                                     master_seed=master_seed,
                                     rule=ProbabilityRule.PERTURBED, alpha=alpha),
                           workers)


def degree_structure(Cprime: IntegerSubset, n: int, beta: float
                     ) -> tuple[float, IntegerSubset, int]:
    """Average degree and high-degree set of the implicit product graph.

    Vertices are [2, floor(n^(1/2+beta))]; a and b (distinct) are
    adjacent iff ab is in Cprime.  Degrees come from divisor row scans,
    the graph itself is never materialised.  Returns (average degree d,
    X = vertices of degree > d/2, |X|); |X| >= d/2 always holds and is
    re-checked on every call.
    """
    if n < 4:
        raise UsageError("n must be >= 4")
    vmax = math.floor(n ** (0.5 + beta))
    vmax = min(vmax, n)
    if vmax < 2:
        raise UsageError("vertex set [2, n^(1/2+beta)] is empty")
    dense = Cprime.dense(n)
    degrees = np.zeros(vmax + 1, dtype=np.int64)
    for a in range(2, vmax + 1):
        b_hi = min(vmax, n // a)
        if b_hi < 2:
            continue
        row = dense[2 * a:a * b_hi + 1:a]  # products a*b, b in [2, b_hi]
        deg = int(np.count_nonzero(row))
        if 2 <= a <= b_hi and dense[a * a]:
            deg -= 1  # no loops
        degrees[a] = deg
    v_count = vmax - 1
    avg = float(degrees.sum()) / v_count
    X = IntegerSubset._adopt(Interval(2, vmax), degrees[2:] > avg / 2.0)
    x_size = X.cardinality()
    if x_size < avg / 2.0:
        raise RuntimeError(
            f"internal invariant violated: |X| = {x_size} < d/2 = {avg / 2.0}")
    return avg, X, x_size
