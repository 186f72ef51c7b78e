"""Exact counting for triples, divisors and table problems, and one
branch-and-bound for the least number of monochromatic triples and for
the largest subset with a good colouring.  `_branch_and_bound` is the
only place that knows that extremal query: its ground, its argument
checks, its guards and the `Colouring` it returns.

Monochromatic triples under a colouring have one listing, `_mono_scan`,
read from the rows of `core._mono_rows` on the colouring's own carrier
array: `count_monochromatic` counts them,
`constructions.verify_colouring_free` lists them, and `has_mono_triple`
returns the first.  A ground is always a carrier interval [lo, hi], so
each costs O(hi - lo) memory, not O(hi).  `_rechecked`, the one re-check
of every colouring the library returns, counts them.

Counting conventions matter here: the census of product triples counts
unordered pairs a <= b (split into off-diagonal a < b and diagonal
a = b), while the supersaturation count follows the ordered-pair
convention of its source argument.  Both are exposed under explicit
names to keep factor-of-2 drift out of downstream checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Colouring, IntegerSubset, Interval, ResourceGuardError, TripleSystem,
                   UsageError, _check_colour_count, _mono_rows)


@dataclass(frozen=True)
class TripleCount:
    """Census of product triples ab = c <= n with 2 <= a <= b."""

    total: int
    off_diagonal: int  # a < b
    diagonal: int      # a = b

    def __post_init__(self) -> None:
        if self.total != self.off_diagonal + self.diagonal:
            raise UsageError("total must equal off_diagonal + diagonal")


@dataclass(frozen=True)
class TableCountEstimate:
    """Exact |H(n,(y,z))| next to its theta-shape reference value.

    The reference fields are populated only when the shape theorem's
    preconditions hold (n >= 1e5, 100 <= y <= z-1, y <= sqrt(n),
    2y <= z <= y^2); otherwise they are None.
    """

    exact: int
    u: Optional[float] = None
    theta_form: Optional[float] = None
    ratio: Optional[float] = None


def count_product_triples(n: int) -> TripleCount:
    """Exact census of {(a,b): 2 <= a <= b, ab <= n} by the divisor sum.

    off_diagonal = sum_{a=2..floor(sqrt n)} (floor(n/a) - a) and the
    diagonal is the number of squares a^2 <= n with a >= 2; both purely
    integer arithmetic.  The sum is a Python loop of sqrt(n) steps, so n
    is capped at 1e16, 1e8 steps.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if n > 10 ** 16:
        raise ResourceGuardError("product-triple census beyond n = 1e16 exceeds the time guard")
    r = math.isqrt(n)
    off = sum(n // a - a for a in range(2, r + 1))
    diag = max(r - 1, 0)
    return TripleCount(total=off + diag, off_diagonal=off, diagonal=diag)


# ---------------------------------------------------------------------------
# monochromatic triples under a colouring
# ---------------------------------------------------------------------------

def _sum_count_fft(col: np.ndarray, lo: int, double: bool) -> int:
    """Monochromatic a+b=c (and, if `double`, a+b=c-1) triples, a <= b.

    `col` is a carrier colour array over [lo, hi].  Per colour class F,
    the self-convolution g of F restricted to [lo, hi-lo] counts ordered
    pairs (a, b) by a + b = t + 2lo, so the ordered triples are
    sum_c F[c] g[c - 2lo] (c - 2lo - 1 for the shifted equation).  The
    a <= b count is (ordered + diagonal) / 2.  O(n log n) per colour; the
    float convolution is rounded only after checking that it lies within
    1/4 of an integer everywhere.
    """
    m = len(col) - lo  # number of sums a + b in [2lo, hi]
    if m < 1:
        return 0
    size = 1 << (2 * m - 1).bit_length()  # no wrap-around below index m
    doubled = 0  # ordered + diagonal, over all classes and equations
    for colour in np.flatnonzero(np.bincount(col)[1:]) + 1:
        F = col == colour
        g = np.fft.irfft(np.fft.rfft(F[:m], size) ** 2, size)[:m]
        rounded = np.rint(g)
        err = np.abs(g - rounded).max()
        if err >= 0.25:
            raise RuntimeError(f"sum convolution off an integer by {err:.3g}; "
                               f"count not exact")
        pairs = rounded.astype(np.int64)
        doubled += int(pairs[F[lo:]].sum())
        doubled += int(np.count_nonzero(F[:(m + 1) // 2] & F[lo::2]))
        if double:
            doubled += int(pairs[:m - 1][F[lo + 1:]].sum())
            doubled += int(np.count_nonzero(F[:m // 2] & F[lo + 1::2]))
    if doubled % 2:
        raise RuntimeError("ordered plus diagonal sum count is odd; count not exact")
    return doubled // 2


def _mono_scan(colouring: Colouring, system: TripleSystem, collect: bool
               ) -> tuple[int, list[tuple[int, int, int]]]:
    """Count (and optionally list) monochromatic triples with a <= b.

    Reads the colouring's carrier array in place.  Sum systems are
    counted by convolution and read from the rows of `_mono_rows` only
    to list a non-zero count; products are counted and listed from the
    rows.  Listings are ordered by (a, b, c).
    """
    col, iv = colouring._col, colouring.ground.interval
    rows = _mono_rows(col, system, iv.lo)
    product = system is TripleSystem.PRODUCT
    if not product:
        expected = _sum_count_fft(col, iv.lo, system is TripleSystem.DOUBLE_SUM)
        if not collect or expected == 0:
            return expected, []
    elif not collect:
        return sum(int(np.count_nonzero(mask)) for *_, mask in rows), []
    parts = [np.empty((3, 0), dtype=np.int64)]
    for a, b0, shift, mask in rows:
        b = np.flatnonzero(mask) + b0
        if len(b):
            parts.append(np.stack([np.full_like(b, a), b,
                                   a * b if product else a + b + shift]))
    triples = np.concatenate(parts, axis=1)
    triples = triples[:, np.lexsort(triples[::-1])]  # double sum: c before c + 1
    violations = list(map(tuple, triples.T.tolist()))
    if not product and len(violations) != expected:
        raise RuntimeError(f"scan found {len(violations)} triples, "
                           f"convolution {expected}")
    return len(violations), violations


def has_mono_triple(colouring: Colouring, system: TripleSystem
                    ) -> Optional[tuple[int, int, int, int]]:
    """First monochromatic triple of the system inside the ground set.

    Returns (a, b, c, colour) with a <= b, least by (a, b, c) (so c
    before c + 1 in the double-sum system), or None.  It is the first
    entry of the full listing.  A colouring with no triple lists nothing:
    the sum systems stop at a zero convolution count, and products read
    each row once.  Only a colouring with triples pays for listing them
    all.
    """
    triples = _mono_scan(colouring, system, collect=True)[1]
    return (*triples[0], colouring.colour_of(triples[0][0])) if triples else None


def count_monochromatic(colouring: Colouring, system: TripleSystem) -> int:
    """Exact number of monochromatic triples (a <= b) inside the ground set."""
    return _mono_scan(colouring, system, collect=False)[0]


def _rechecked(colouring: Colouring, system: TripleSystem, triples: int = 0) -> Colouring:
    """`colouring`, if it has `triples` monochromatic triples; else the code
    that built it is at fault, an internal error (RuntimeError), not a result."""
    count = count_monochromatic(colouring, system)
    if count != triples:
        raise RuntimeError(f"internal error: colouring fails re-check with {count} "
                           f"monochromatic triples, expected {triples}")
    return colouring


# The branch-and-bound recurses once per member, so the cap keeps its depth far
# below the interpreter's limit.  A node costs ~1.5 us for the minimum and ~2 us
# with leave_out, so the budget is ~15 s and ~20 s of search respectively.  The
# one-class count's FFT doubles past 2^23 members, where it peaks at 566 MB RSS.
_MONO_MAX_MEMBERS = 200
_MONO_NODE_BUDGET = 10 ** 7
_ONE_CLASS_MAX_MEMBERS = 1 << 23


def _branch_and_bound(n: int, k: int, system: TripleSystem, leave_out: bool
                      ) -> tuple[int, Colouring]:
    """Least-cost k-colouring of the ground, by depth-first branch-and-bound.

    Ground is [1,n] for the sum systems and [2,n] for products; a smaller
    n, or a k outside 1..127, raises UsageError.  Members are coloured in
    increasing order with canonical colours (colour c + 1 only after
    colour c); colour c on x closes the listed pairs (a, b), a <= b < x,
    already coloured c.  The cost is the number of closed triples, or with
    `leave_out`, the number of members left out: a colour that closes a
    triple is barred, and leaving x out is tried after every colour.  A
    left-out member takes the sentinel k, which equals no colour, so no
    pair through it closes.  A child is pruned once its cost reaches the
    best so far, so the first sequence in DFS order to reach each new
    best is the least optimal one; it is returned with its cost as a
    Colouring whose ground omits the members left out.  One colour class
    and no leave-out is one count.  Grounds past the member cap (for that
    count _ONE_CLASS_MAX_MEMBERS, else _MONO_MAX_MEMBERS) are refused
    before any array is built, and searches past _MONO_NODE_BUDGET nodes
    mid-way, both with ResourceGuardError.
    """
    lo = 2 if system is TripleSystem.PRODUCT else 1
    if n < lo:
        raise UsageError(f"n must be >= {lo} for {system.value}")
    _check_colour_count(k)
    m = n - lo + 1
    one_class = k == 1 and not leave_out
    cap = _ONE_CLASS_MAX_MEMBERS if one_class else _MONO_MAX_MEMBERS
    if m > cap:
        raise ResourceGuardError(f"{m} members is beyond the exact search's cap ({cap})")
    # one colour class: every triple of the system in [lo, n]
    ones = Colouring._adopt(Interval(lo, n), 1, np.ones(m, dtype=np.int8))
    if one_class:
        return count_monochromatic(ones, system), ones
    _, triples = _mono_scan(ones, system, collect=True)
    closing = [[] for _ in range(m)]  # member index -> pairs (a, b) it closes
    for a, b, c in triples:
        closing[c - lo].append((a - lo, b - lo))
    colour = [0] * m  # 0-based colours of the members placed so far, k: left out
    # best starts above any cost, so the first descent sets best_colour
    best, best_colour, nodes = (m if leave_out else len(triples)) + 1, [], 0

    def extend(i: int, used: int, count: int) -> None:
        nonlocal best, best_colour, nodes
        nodes += 1
        if nodes > _MONO_NODE_BUDGET:
            raise ResourceGuardError(f"exact search beyond its node budget "
                                     f"({_MONO_NODE_BUDGET})")
        if i == m:
            best, best_colour = count, colour.copy()
            return
        cost = [0] * (k + 1)  # cost[k]: pairs of two left-out members
        for ia, ib in closing[i]:
            if colour[ia] == colour[ib]:
                cost[colour[ia]] += 1
        for c in range(min(used + 1, k)):
            if leave_out and cost[c]:
                continue
            if count + cost[c] < best:
                colour[i] = c
                extend(i + 1, max(used, c + 1), count + cost[c])
        if leave_out and count + 1 < best:
            colour[i] = k
            extend(i + 1, used, count + 1)

    extend(0, 0, 0)
    col = np.array([c + 1 if c < k else 0 for c in best_colour], dtype=np.int8)  # 0: left out
    return best, Colouring._adopt(ones.ground.interval, k, col)


def min_monochromatic_bruteforce(n: int, k: int, system: TripleSystem
                                 ) -> tuple[int, Colouring]:
    """Exact minimum of monochromatic triples over all k-colourings.

    Ground is [1,n] for the sum systems and [2,n] for products.  The
    minimiser returned is the lexicographically least colour sequence
    (colours of the ground elements in increasing order) attaining the
    minimum, the tie-break `max_non_schur_subset` shares.  It is
    `_branch_and_bound`'s answer: k = 1 is one count up to its cap, and
    its checks and guards raise UsageError and ResourceGuardError.  For
    k >= 2 the minimiser's triples are re-counted before it is returned.
    """
    cost, colouring = _branch_and_bound(n, k, system, leave_out=False)
    return cost, (colouring if k == 1 else _rechecked(colouring, system, cost))


# ---------------------------------------------------------------------------
# divisor statistics and the multiplication-table quantity
# ---------------------------------------------------------------------------

def erdos_ford_delta() -> float:
    """The Erdos-Ford constant 1 - (1 + ln ln 2)/ln 2 = 0.086071...

    Governs the density of integers with a divisor in a dyadic-type
    interval; natural logarithms (the defining identity
    (1 - delta) ln 2 = 1 + ln ln 2 pins the convention).
    """
    return 1.0 - (1.0 + math.log(math.log(2.0))) / math.log(2.0)


# the largest n either sieve over [1, n] takes: its table is n + 1 entries
_SIEVE_MAX_N = 10 ** 9


def divisor_count_table(n: int) -> np.ndarray:
    """tau(m) for every m in [1, n], via the paired-divisor sieve.

    Each a <= sqrt(n) contributes 1 to a^2 and 2 to every larger multiple
    of a (pairing divisor a with m/a > a), so the table costs
    sum_{a<=sqrt n} n/a ~ (n/2) log n slice updates.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if n > _SIEVE_MAX_N:
        raise ResourceGuardError("divisor table beyond n = 1e9 exceeds the memory guard")
    counts = np.zeros(n + 1, dtype=np.int16)
    for a in range(1, math.isqrt(n) + 1):
        counts[a * a] += 1
        counts[a * a + a::a] += 2
    return counts


def max_divisor_count(n: int) -> tuple[int, int]:
    """(max tau(m), smallest argmax) over m in [1, n]."""
    counts = divisor_count_table(n)
    arg = int(np.argmax(counts))
    return int(counts[arg]), arg


def divisors_in_interval_indicator(n: int, y: float, z: float) -> np.ndarray:
    """Absolute indicator of H(n,(y,z)): x <= n with a divisor strictly in (y, z).

    Sieve: every integer d with y < d < z marks its multiples d, 2d, ...
    (x = d itself counts, via x = d * 1).  Strict inequalities on both
    ends for determinism.  A d already marked has a divisor d' in (y, d)
    whose multiples include all of d's, so it is skipped.
    """
    if not z > y:
        raise UsageError(f"need z > y, got y={y}, z={z}")
    if not (math.isfinite(y) and math.isfinite(z)):  # the sieve's bounds are integers
        raise UsageError(f"need finite y and z, got y={y}, z={z}")
    if n < 1:
        raise UsageError("n must be >= 1")
    if n > _SIEVE_MAX_N:
        raise ResourceGuardError("divisor-interval sieve beyond n = 1e9 exceeds the memory guard")
    marked = np.zeros(n + 1, dtype=bool)
    d_lo = max(math.floor(y) + 1, 1)
    d_hi = min(math.ceil(z) - 1, n)
    for d in range(d_lo, d_hi + 1):
        if not marked[d]:
            marked[d::d] = True
    marked[0] = False
    return marked


def multiplication_table_count(n: int, y: float, z: float) -> TableCountEstimate:
    """Exact |H(n,(y,z))| with the theta-shape reference when applicable.

    u = log z / log y - 1 and the reference value is
    n * u^delta * (log(2/u))^(-3/2); the ratio exact/reference is the
    quantity whose stability across n echoes the shape theorem.
    """
    marked = divisors_in_interval_indicator(n, y, z)
    exact = int(np.count_nonzero(marked))
    preconditions = (n >= 10 ** 5 and 100 <= y <= z - 1
                     and y <= math.sqrt(n) and 2 * y <= z <= y * y)
    if not preconditions:
        return TableCountEstimate(exact=exact)
    u = math.log(z) / math.log(y) - 1
    theta = n * u ** erdos_ford_delta() * (math.log(2 / u)) ** (-1.5)
    return TableCountEstimate(exact=exact, u=u, theta_form=theta, ratio=exact / theta)


def supersaturation_count(A: IntegerSubset) -> int:
    """Ordered triples (a, b, c) in (A cap [2, sqrt n])^2 x A with ab = c.

    n is the carrier's upper end.  Both a and b range over the small
    part, matching the ordered-count convention of the supersaturation
    argument, so the full set [2, n] scores (floor(sqrt n) - 1)^2.
    """
    ind, lo, n = A._ind, A.interval.lo, A.interval.hi
    small = np.flatnonzero(ind[:max(math.isqrt(n) + 1 - lo, 0)]) + lo
    small = small[small >= 2]
    total = 0
    for a in small:
        total += int(np.count_nonzero(ind[int(a) * small - lo]))
    return total
