"""Explicit colourings and sets with product-free / sum-free guarantees.

Each construction is paired with a re-checker: verify_colouring_free
lists every monochromatic triple from the rows of the shared scan
kernel (core._mono_rows).  Its independence comes from the test suite,
which arbitrates the kernel against library-free brute-force oracles,
so nothing here is trusted on the strength of its derivation alone.
Natural logarithms are used throughout; for the shape-level checks
downstream this only rescales constants.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from .core import Colouring, IntegerSubset, Interval, TripleSystem, UsageError
from . import counting
from .counting import erdos_ford_delta, has_mono_triple

# Exact small Schur numbers: least n such that every k-colouring of [n]
# has a monochromatic a+b=c (plain), resp. a+b=c or a+b=c-1 (double).
# Cross-checked against the exact solver in the test suite.
KNOWN_SCHUR = {1: 2, 2: 5, 3: 14, 4: 45}
KNOWN_DOUBLE_SUM_SCHUR = {1: 2, 2: 5, 3: 14, 4: 41}

_ALPHA_TOL = 1e-15  # alpha_for_rate's bisection stops at a bracket this narrow


def divisor_interval_rate(alpha: float) -> float:
    """Rate r(alpha) = alpha^(1/delta) / (4 (ln(1/alpha))^(3/(2 delta))).

    Controls how wide a divisor interval must be sieved away to thin the
    integers by density ~alpha; strictly increasing on (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must lie in (0, 1), got {alpha}")
    d = erdos_ford_delta()
    return alpha ** (1.0 / d) / (4.0 * math.log(1.0 / alpha) ** (1.5 / d))


def threshold_exponent_offset(alpha: float) -> float:
    """Offset b(alpha) = r/(1+2r) with r = divisor_interval_rate(alpha).

    The perturbed-threshold probability scales as n^(b - 1/2); always in
    (0, 1/2).
    """
    r = divisor_interval_rate(alpha)
    return r / (1.0 + 2.0 * r)


def alpha_for_rate(target: float) -> float:
    """Inverse of divisor_interval_rate by bisection on its monotone branch."""
    if target <= 0:
        raise UsageError("target rate must be positive")
    lo, hi = 1e-12, 1.0 - 1e-12
    if divisor_interval_rate(hi) < target:
        raise UsageError(f"target rate {target} not attained below alpha = 1")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if divisor_interval_rate(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < _ALPHA_TOL:
            break
    return (lo + hi) / 2.0


def integer_nth_root(x: int, k: int) -> int:
    """floor(x^(1/k)) in exact integer arithmetic (Newton + adjustment)."""
    if x < 0 or k < 1:
        raise UsageError("need x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)  # certainly >= the root
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def log_partition_boundaries(n: int, parts: int) -> np.ndarray:
    """b_i = floor(n^(i/parts)) for i = 1..parts, by exact integer roots.

    The half-open cells (b_{i-1}, b_i] realise the index map
    ceil(parts * log_n(a)) exactly, with no floating-point edge cases at
    perfect powers.
    """
    return np.array([integer_nth_root(n ** i, parts) for i in range(1, parts + 1)],
                    dtype=np.int64)


# Colour sequences of witness colourings of [1, S'(k)-1] free of a+b=c and
# a+b=c-1: the witnesses the exact solver returns, cross-checked against
# it in the test suite and re-checked on every use.
_DOUBLE_SUM_WITNESSES = {
    1: "1",
    2: "1221",
    3: "1221331331221",
    4: "1221331331221441441221441441221331331221",
}


def _double_sum_base(k: int) -> Colouring:
    """Witness colouring of [S'(k)-1] free of a+b=c and a+b=c-1."""
    if k not in _DOUBLE_SUM_WITNESSES:
        raise UsageError(f"no built-in double-sum Schur number for k={k}; "
                         f"pass an explicit base colouring")
    digits = _DOUBLE_SUM_WITNESSES[k]
    colours = np.frombuffer(digits.encode(), dtype=np.int8) - np.int8(ord("0"))
    return Colouring._adopt(Interval(1, len(digits)), k, colours)


def product_free_colouring(k: int, n: int, base: Optional[Colouring] = None) -> Colouring:
    """k-colouring of (n^(1/s), n] with no monochromatic product, s = S'(k).

    Integer a receives the base colour of its logarithmic cell index
    ceil(s * log_n(a)) - 1.  A product ab = c adds log-indices up to the
    double-sum slack, so freeness of the base colouring transfers.  The
    base must be a k-colouring of [s-1] free of a+b=c and a+b=c-1; if
    omitted the built-in witness is used (k <= 4).
    """
    if base is None:
        base = _double_sum_base(k)
    s = base.ground.interval.hi + 1
    if base.ground.interval.lo != 1 or base.ground.cardinality() != s - 1:
        raise UsageError("base must colour the full interval [1, s-1]")
    if base.k != k:
        raise UsageError(f"base has {base.k} colours, expected {k}")
    bad = has_mono_triple(base, TripleSystem.DOUBLE_SUM)
    if bad is not None:
        raise UsageError(f"base colouring admits the monochromatic solution {bad}")

    lo = integer_nth_root(n, s) + 1
    if lo > n:
        raise UsageError(f"ground interval (n^(1/{s}), {n}] is empty")
    bounds = log_partition_boundaries(n, s)
    elements = np.arange(lo, n + 1, dtype=np.int64)
    cell = np.searchsorted(bounds, elements, side="left")  # = index map, in [1, s-1]
    return Colouring._adopt(Interval(lo, n), k, base._col[cell - 1])  # base on [1, s-1]


class ExtremalSizeBounds(NamedTuple):
    lower: float
    upper: float
    upper_condition_met: bool


def max_non_schur_size_bounds(k: int, n: int, eps: float,
                              s: Optional[int] = None,
                              s_prime: Optional[int] = None) -> ExtremalSizeBounds:
    """Bounds n - n^(1/S'(k)) <= size <= n - (1-eps) n^(1/S(k)).

    The upper bound is only proven for n > (2/eps)^(S(k)^2); that
    condition is astronomically large for k >= 2, so it is reported as a
    flag rather than enforced.  S/S' come from the built-in table for
    k <= 4 unless supplied.
    """
    if not 0.0 < eps < 1.0:
        raise UsageError("eps must lie in (0, 1)")
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if n > sys.float_info.max:                        # the bounds are floats
        raise UsageError(f"n must be at most {sys.float_info.max:g}, the largest float")
    s = s if s is not None else KNOWN_SCHUR.get(k)
    s_prime = s_prime if s_prime is not None else KNOWN_DOUBLE_SUM_SCHUR.get(k)
    if s is None or s_prime is None:
        raise UsageError(f"no built-in Schur numbers for k={k}; supply s= and s_prime=")
    if min(s, s_prime) < 1:                           # the bounds take their 1/s-th roots
        raise UsageError(f"need s, s_prime >= 1, got s={s}, s_prime={s_prime}")
    lower = n - n ** (1.0 / s_prime)
    upper = n - (1.0 - eps) * n ** (1.0 / s)
    # log-space comparison: (2/eps)^(s^2) overflows floats long before it matters
    condition = math.log(n) > s * s * math.log(2.0 / eps)
    return ExtremalSizeBounds(lower, upper, condition)


def mod5_colouring(n: int) -> tuple[IntegerSubset, Colouring]:
    """The 2-coloured subset of [n] with no multiple of 5 and no mono sum.

    Members not divisible by 5; residues 1, 4 (mod 5) get colour 1 and
    residues 2, 3 colour 2.  Size is ceil(4n/5).
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    colours = np.array([0, 1, 2, 2, 1], dtype=np.int8)[np.arange(1, n + 1) % 5]
    colouring = Colouring._adopt(Interval(1, n), 2, colours)
    return colouring.ground, colouring


def eleven_interval_colouring(n: int) -> Colouring:
    """2-colouring of [1,n] with colour 1 on (4n/11, 10n/11].

    The colouring that attains the minimal monochromatic-sum count
    n^2/22 + O(n) over two colours.
    """
    if n < 11:
        raise UsageError("n must be >= 11")
    a = np.arange(1, n + 1, dtype=np.int64)
    in_middle = (11 * a > 4 * n) & (11 * a <= 10 * n)
    colours = np.where(in_middle, 1, 2).astype(np.int8)
    return Colouring._adopt(Interval(1, n), 2, colours)


def perturbed_blocker_set(n: int, alpha: float) -> IntegerSubset:
    """[ceil(n^(1-2b)), n] minus every integer with a divisor in (y, z).

    b = threshold_exponent_offset(alpha), y = n^(1/2-b), z = n^(1/2+b).
    Every member then factors only as (small <= y) * (large >= z), and
    pairwise products of members exceed n, so the set alone carries no
    product triple.
    """
    beta = threshold_exponent_offset(alpha)
    npow = n ** beta
    if npow < math.sqrt(2.0):
        raise UsageError(
            f"range violation: n^beta = {npow:.6g} < sqrt(2); alpha too small "
            f"for this n")
    if beta > 1.0 / 6.0 + 1e-12:
        raise UsageError(
            f"range violation: beta = {beta:.6g} > 1/6; alpha exceeds the "
            f"construction range")
    y = n ** (0.5 - beta)
    z = n ** (0.5 + beta)
    lo = math.ceil(n ** (1.0 - 2.0 * beta))
    members = ~counting.divisors_in_interval_indicator(n, y, z)[2:]
    members[:lo - 2] = False  # lo >= n^(2/3) >= 4 in the range checked above
    return IntegerSubset._adopt(Interval(2, n), members)


def verify_colouring_free(colouring: Colouring, system: TripleSystem
                          ) -> list[tuple[int, int, int]]:
    """Every monochromatic triple (a <= b) of the system in the ground set.

    Listed by (a, b, c) from the shared row kernel; an empty list
    certifies the colouring.
    """
    return counting._mono_scan(colouring, system, collect=True)[1]
