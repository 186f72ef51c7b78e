"""Exact enumeration and counting for triples, divisors and table problems.

Counting conventions matter here: the census of product triples counts
unordered pairs a <= b (split into off-diagonal a < b and diagonal
a = b), while the supersaturation count follows the ordered-pair
convention of its source argument.  Both are exposed under explicit
names to keep factor-of-2 drift out of downstream checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterator, Optional

import numpy as np

from .core import (Colouring, IntegerSubset, ResourceGuardError, TripleSystem,
                   _mono_rows)


@dataclass(frozen=True)
class TripleCount:
    """Census of product triples ab = c <= n with 2 <= a <= b."""

    total: int
    off_diagonal: int  # a < b
    diagonal: int      # a = b

    def __post_init__(self) -> None:
        if self.total != self.off_diagonal + self.diagonal:
            raise ValueError("total must equal off_diagonal + diagonal")


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
    integer arithmetic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = math.isqrt(n)
    off = sum(n // a - a for a in range(2, r + 1))
    diag = max(r - 1, 0)
    return TripleCount(total=off + diag, off_diagonal=off, diagonal=diag)


def enumerate_product_triples(n: int) -> Iterator[tuple[int, int, int]]:
    """All (a, b, ab) with 2 <= a <= b and ab <= n, ordered by (a, b)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for a in range(2, math.isqrt(n) + 1):
        for b in range(a, n // a + 1):
            yield (a, b, a * b)


def factorisation_pairs(c: int, n: int) -> set[tuple[int, int]]:
    """All factorisations c = a*b with 2 <= a <= b and both factors <= n."""
    if not (2 <= c <= n):
        raise ValueError(f"need 2 <= c <= n, got c={c}, n={n}")
    reps = set()
    for a in range(2, math.isqrt(c) + 1):
        if c % a == 0:
            reps.add((a, c // a))
    return reps


# ---------------------------------------------------------------------------
# monochromatic triples under a colouring
# ---------------------------------------------------------------------------

def _sum_count_fft(col: np.ndarray, lo: int, hi: int, double: bool) -> int:
    """Monochromatic a+b=c (and, if `double`, a+b=c-1) triples, a <= b.

    Per colour class F, the self-convolution g of F restricted to
    [lo, hi-lo] counts ordered pairs (a, b) by a + b = t + 2lo, so the
    ordered triples are sum_c F[c] g[c - 2lo] (c - 2lo - 1 for the shifted
    equation).  The a <= b count is (ordered + diagonal) / 2.  O(n log n)
    per colour; the float convolution is rounded only after checking
    that it lies within 1/4 of an integer everywhere.
    """
    m = hi - 2 * lo + 1  # number of sums a + b in [2lo, hi]
    if m < 1:
        return 0
    size = 1 << (2 * m - 1).bit_length()  # no wrap-around below index m
    doubled = 0  # ordered + diagonal, over all classes and equations
    for colour in np.flatnonzero(np.bincount(col[lo:hi + 1])[1:]) + 1:
        F = col == colour
        g = np.fft.irfft(np.fft.rfft(F[lo:hi - lo + 1], size) ** 2, size)[:m]
        rounded = np.rint(g)
        err = np.abs(g - rounded).max()
        if err >= 0.25:
            raise RuntimeError(f"sum convolution off an integer by {err:.3g}; "
                               f"count not exact")
        pairs = rounded.astype(np.int64)
        doubled += int(pairs[F[2 * lo:hi + 1]].sum())
        doubled += int(np.count_nonzero(F[lo:hi // 2 + 1] & F[2 * lo:hi + 1:2]))
        if double:
            doubled += int(pairs[:m - 1][F[2 * lo + 1:hi + 1]].sum())
            doubled += int(np.count_nonzero(F[lo:(hi - 1) // 2 + 1]
                                            & F[2 * lo + 1:hi + 1:2]))
    if doubled % 2:
        raise RuntimeError("ordered plus diagonal sum count is odd; count not exact")
    return doubled // 2


def _mono_scan(col: np.ndarray, lo: int, hi: int, system: TripleSystem,
               collect: bool) -> tuple[int, list[tuple[int, int, int]]]:
    """Count (and optionally list) monochromatic triples with a <= b.

    `col` is the absolute colour array (0 = not in the ground set).
    Sum systems are counted by convolution and read from the rows of
    `_mono_rows` only to list a non-zero count; products are counted
    and listed from the rows.  Listings are ordered by (a, b, c).
    """
    product = system is TripleSystem.PRODUCT
    if not product:
        expected = _sum_count_fft(col, lo, hi, system is TripleSystem.DOUBLE_SUM)
        if not collect or expected == 0:
            return expected, []
    elif not collect:
        return sum(int(np.count_nonzero(mask))
                   for _, _, mask in _mono_rows(col, hi, system)), []
    parts = [np.empty((3, 0), dtype=np.int64)]
    for a, shift, mask in _mono_rows(col, hi, system):
        b = np.flatnonzero(mask) + a
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


def count_monochromatic(colouring: Colouring, system: TripleSystem) -> int:
    """Exact number of monochromatic triples (a <= b) inside the ground set."""
    iv = colouring.ground.interval
    col = colouring.dense()
    count, _ = _mono_scan(col, iv.lo, iv.hi, system, collect=False)
    return count


def min_monochromatic_bruteforce(n: int, k: int, system: TripleSystem
                                 ) -> tuple[int, Colouring]:
    """Exact minimum of monochromatic triples over all k-colourings.

    Ground is [1,n] for the sum systems and [2,n] for products.  The
    minimiser returned is the lexicographically least colour sequence
    (colours of the ground elements in increasing order) attaining the
    minimum.  k = 1 is answered by one count for any n; larger k is
    refused with ResourceGuardError beyond 2^22 colourings (2^24 for
    k = 2) before any triple is listed.
    """
    lo = 2 if system is TripleSystem.PRODUCT else 1
    if n < lo:
        raise ValueError(f"n must be >= {lo} for {system.value}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = n - lo + 1
    ones = np.zeros(n + 1, dtype=np.int8)
    ones[lo:] = 1  # one colour class: every triple of the system in [lo, n]
    ground = IntegerSubset.full(lo, n)
    if k == 1:
        count, _ = _mono_scan(ones, lo, n, system, collect=False)
        return count, Colouring(ground, 1, ones[lo:])
    two_colour = k == 2 and m <= 24
    if not two_colour and k ** min(m, 23) > 2 ** 22:  # k >= 2: no big power
        raise ResourceGuardError(
            f"{k}^{m} colourings is beyond the brute-force guard (2^22)")
    members = list(range(lo, n + 1))
    _, triples = _mono_scan(ones, lo, n, system, collect=True)
    if two_colour:
        return _min_mono_two_colour(members, triples)

    best_count: Optional[int] = None
    best_assign: Optional[tuple[int, ...]] = None
    index = {e: i for i, e in enumerate(members)}
    tri_idx = [(index[a], index[b], index[c]) for a, b, c in triples]
    for assign in iter_product(range(k), repeat=m):
        cnt = sum(1 for ia, ib, ic in tri_idx
                  if assign[ia] == assign[ib] == assign[ic])
        if best_count is None or cnt < best_count:
            best_count, best_assign = cnt, assign
            if cnt == 0:
                break  # lexicographically first zero mino is globally first
    witness = Colouring.from_map(ground, k,
                                 {e: c + 1 for e, c in zip(members, best_assign)})
    return best_count, witness


def _min_mono_two_colour(members: list[int], triples: list[tuple[int, int, int]]
                         ) -> tuple[int, Colouring]:
    """Vectorised 2-colouring minimum: one bit per element, msb = first element."""
    m = len(members)
    index = {e: i for i, e in enumerate(members)}
    ids = np.arange(1 << m, dtype=np.uint32)
    counts = np.zeros(1 << m, dtype=np.uint16)
    for a, b, c in triples:
        sa, sb, sc = (np.uint32(m - 1 - index[e]) for e in (a, b, c))
        differ = (((ids >> sa) ^ (ids >> sb)) | ((ids >> sb) ^ (ids >> sc))) & np.uint32(1)
        counts += (differ == 0)
    best_id = int(np.argmin(counts))
    lo = members[0]
    ground = IntegerSubset.full(lo, members[-1])
    colour_of = {e: ((best_id >> (m - 1 - i)) & 1) + 1 for i, e in enumerate(members)}
    witness = Colouring.from_map(ground, 2, colour_of)
    return int(counts[best_id]), witness


# ---------------------------------------------------------------------------
# divisor statistics and the multiplication-table quantity
# ---------------------------------------------------------------------------

def divisor_count_table(n: int) -> np.ndarray:
    """tau(m) for every m in [1, n], via the paired-divisor sieve.

    Each a <= sqrt(n) contributes 1 to a^2 and 2 to every larger multiple
    of a (pairing divisor a with m/a > a), so the table costs
    sum_{a<=sqrt n} n/a ~ (n/2) log n slice updates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 10 ** 9:
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
    ends for determinism.
    """
    if not z > y:
        raise ValueError(f"need z > y, got y={y}, z={z}")
    if n < 1:
        raise ValueError("n must be >= 1")
    marked = np.zeros(n + 1, dtype=bool)
    d_lo = max(math.floor(y) + 1, 1)
    d_hi = min(math.ceil(z) - 1, n)
    for d in range(d_lo, d_hi + 1):
        marked[d::d] = True
    marked[0] = False
    return marked


def multiplication_table_count(n: int, y: float, z: float) -> TableCountEstimate:
    """Exact |H(n,(y,z))| with the theta-shape reference when applicable.

    u = log z / log y - 1 and the reference value is
    n * u^delta * (log(2/u))^(-3/2); the ratio exact/reference is the
    quantity whose stability across n echoes the shape theorem.
    """
    from .constructions import erdos_ford_delta  # deferred: avoids a module cycle

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
    n = A.interval.hi
    dense = A.dense()
    r = math.isqrt(n)
    small = np.flatnonzero(dense[:r + 1])
    small = small[small >= 2]
    total = 0
    for a in small:
        total += int(np.count_nonzero(dense[int(a) * small]))
    return total
