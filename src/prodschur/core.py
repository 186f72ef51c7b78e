"""Shared domain types: intervals, dense integer subsets, colourings, triple systems.

Everything here is immutable after construction and safe to share across
workers.  The dense-indicator representation is deliberate: membership
tests sit inside every hot loop (triple detection, sieves), so subsets
are stored as flat indicator arrays over their carrier interval rather
than as sorted element lists.

Indicators follow one rule: an array handed in by a caller is copied
(`IntegerSubset(...)`, `from_dense`), since the caller may keep mutating
it; an array the library has just built is adopted without a copy
(`IntegerSubset._adopt`).  Either way it is then read-only.  The row
kernel `_mono_rows` reads a carrier's own array in place through its
offset `lo`, so a Monte Carlo trial copies nothing between drawing a
set and detecting a triple in it.  Its readers live in `counting` (the
count and listing of monochromatic triples, and `has_mono_triple`, the
first of them) and `randomlab` (product-triple detection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np


class ResourceGuardError(RuntimeError):
    """A size/memory guard refused to run an infeasible computation."""


class TripleSystem(Enum):
    """Which equation family is in force.  a and b need not be distinct."""

    SUM = "sum"              # a + b = c
    DOUBLE_SUM = "double-sum"  # a + b = c  or  a + b = c - 1
    PRODUCT = "product"      # a * b = c

    @classmethod
    def parse(cls, name: str) -> "TripleSystem":
        for sys_ in cls:
            if sys_.value == name:
                return sys_
        raise ValueError(f"unknown triple system {name!r}; expected one of "
                         f"{[s.value for s in cls]}")


@dataclass(frozen=True)
class Interval:
    """Closed integer interval [lo, hi] with 1 <= lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]: need 1 <= lo <= hi")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, m: int) -> bool:
        return self.lo <= m <= self.hi


class IntegerSubset:
    """A subset of an integer interval, held as a dense indicator.

    Membership is O(1).  The indicator is read-only once built; all
    "mutations" return fresh subsets.
    """

    __slots__ = ("interval", "_ind")

    def __init__(self, interval: Interval, indicator: np.ndarray):
        # copy what a caller hands in, which it may keep mutating; arrays
        # the library has just built are adopted instead (`_adopt`)
        self._hold(interval, np.array(indicator, dtype=bool))

    def _hold(self, interval: Interval, ind: np.ndarray) -> None:
        if len(ind) != len(interval):
            raise ValueError("indicator length does not match interval size")
        ind.flags.writeable = False
        self.interval = interval
        self._ind = ind

    def __reduce__(self):
        # unpickled through the copying constructor, so a worker's copy is read-only too
        return IntegerSubset, (self.interval, self._ind)

    # -- constructors -------------------------------------------------

    @classmethod
    def _adopt(cls, interval: Interval, ind: np.ndarray) -> "IntegerSubset":
        """Wrap the bool array `ind` without copying and make it read-only.

        Only for arrays the library has just allocated and hands over.
        """
        self = cls.__new__(cls)
        self._hold(interval, ind)
        return self

    @classmethod
    def full(cls, lo: int, hi: int) -> "IntegerSubset":
        iv = Interval(lo, hi)
        return cls._adopt(iv, np.ones(len(iv), dtype=bool))

    @classmethod
    def from_members(cls, interval: Interval, members: Iterable[int]) -> "IntegerSubset":
        m = np.fromiter(members, dtype=np.int64)
        outside = (m < interval.lo) | (m > interval.hi)
        if outside.any():
            raise ValueError(f"member {m[outside][0]} outside interval "
                             f"[{interval.lo}, {interval.hi}]")
        ind = np.zeros(len(interval), dtype=bool)
        ind[m - interval.lo] = True
        return cls._adopt(interval, ind)

    @classmethod
    def from_dense(cls, interval: Interval, dense: np.ndarray) -> "IntegerSubset":
        """Build from an absolute indicator (index = integer value, length >= hi+1)."""
        return cls(interval, dense[interval.lo:interval.hi + 1])

    # -- queries ------------------------------------------------------

    def __contains__(self, m: int) -> bool:
        iv = self.interval
        return iv.lo <= m <= iv.hi and bool(self._ind[m - iv.lo])

    def cardinality(self) -> int:
        return int(self._ind.sum())

    def __len__(self) -> int:
        return self.cardinality()

    def members(self) -> np.ndarray:
        """All members in increasing order."""
        return np.flatnonzero(self._ind) + self.interval.lo

    def dense(self, hi: Optional[int] = None) -> np.ndarray:
        """Absolute indicator: bool array of length hi+1 indexed by integer value."""
        hi = self.interval.hi if hi is None else hi
        out = np.zeros(hi + 1, dtype=bool)
        top = min(hi, self.interval.hi)
        if top >= self.interval.lo:
            out[self.interval.lo:top + 1] = self._ind[:top - self.interval.lo + 1]
        return out

    def union(self, other: "IntegerSubset") -> "IntegerSubset":
        """Union carried on the smallest interval covering both operands."""
        lo = min(self.interval.lo, other.interval.lo)
        hi = max(self.interval.hi, other.interval.hi)
        ind = np.zeros(hi - lo + 1, dtype=bool)
        for part in (self, other):
            iv = part.interval
            ind[iv.lo - lo:iv.hi - lo + 1] |= part._ind
        return IntegerSubset._adopt(Interval(lo, hi), ind)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerSubset):
            return NotImplemented
        return self.interval == other.interval and np.array_equal(self._ind, other._ind)

    def __repr__(self) -> str:
        return (f"IntegerSubset([{self.interval.lo},{self.interval.hi}], "
                f"|A|={self.cardinality()})")


class Colouring:
    """An assignment of a colour index in 1..k to each member of a ground set."""

    __slots__ = ("ground", "k", "_col")

    def __init__(self, ground: IntegerSubset, k: int, colours: np.ndarray):
        """`colours` is aligned with the ground interval; 0 marks non-members."""
        if k < 1 or k > 127:
            raise ValueError(f"colour count k={k} out of supported range 1..127")
        raw = np.asarray(colours)
        if len(raw) != len(ground.interval):
            raise ValueError("colour array length does not match ground interval")
        # range-check before the int8 cast, which would wrap 257 to 1
        if raw.size and (raw.min() < 0 or raw.max() > k):
            raise ValueError("colour indices must lie in 1..k")
        col = raw.astype(np.int8)
        if not np.array_equal(col > 0, ground._ind):
            raise ValueError("colour array support differs from ground membership")
        col.flags.writeable = False
        self.ground = ground
        self.k = k
        self._col = col

    @classmethod
    def from_map(cls, ground: IntegerSubset, k: int, colour_of: dict[int, int]) -> "Colouring":
        """Every ground member must be a key; keys outside the ground are ignored."""
        iv = ground.interval
        keys = np.fromiter(colour_of.keys(), dtype=np.int64, count=len(colour_of))
        vals = np.fromiter(colour_of.values(), dtype=np.int64, count=len(colour_of))
        inside = (keys >= iv.lo) & (keys <= iv.hi)
        keys, vals = keys[inside] - iv.lo, vals[inside]
        missing = ground._ind.copy()
        missing[keys] = False
        if missing.any():
            raise KeyError(int(np.flatnonzero(missing)[0]) + iv.lo)
        col = np.zeros(len(iv), dtype=np.int64)
        col[keys] = vals
        col[~ground._ind] = 0
        return cls(ground, k, col)

    def colour_of(self, m: int) -> int:
        if m not in self.ground:
            raise KeyError(f"{m} is not in the ground set")
        return int(self._col[m - self.ground.interval.lo])

    def dense(self, hi: Optional[int] = None) -> np.ndarray:
        """Absolute colour array (index = integer value); 0 where absent."""
        hi = self.ground.interval.hi if hi is None else hi
        out = np.zeros(hi + 1, dtype=np.int8)
        top = min(hi, self.ground.interval.hi)
        lo = self.ground.interval.lo
        if top >= lo:
            out[lo:top + 1] = self._col[:top - lo + 1]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Colouring):
            return NotImplemented
        return (self.k == other.k and self.ground == other.ground
                and np.array_equal(self._col, other._col))

    def __repr__(self) -> str:
        return f"Colouring(ground={self.ground!r}, k={self.k})"


@dataclass(frozen=True, eq=True)
class SolverOutcome:
    """Result of an exact Schur-type search.

    `conclusive` is False when a node limit or ceiling stopped the search
    before exhaustion; `lower_bound` is then the best certified bound
    (a good colouring of [lower_bound - 1] was found).  `prunes` counts
    the nodes cut because an uncoloured member had no colour left, and
    `forced` the members propagation left with one colour.  The counters
    sum over every search the outcome rests on, and a node limit caps
    their node total.
    """

    value: Optional[int]
    witness: Optional[Colouring]
    nodes_explored: int
    elapsed: float
    conclusive: bool
    lower_bound: int
    prunes: int = 0
    forced: int = 0

    @property
    def ns_per_node(self) -> float:
        """Search time per node explored, in ns; 0.0 when no node was."""
        return self.elapsed / self.nodes_explored * 1e9 if self.nodes_explored else 0.0


@dataclass(frozen=True, eq=True)
class ExperimentRecord:
    """One row of a Monte Carlo sweep.

    `timings` holds the seconds its trials spent in each phase (sample_s,
    union_s, detect_s), summed over workers; it takes no part in equality,
    so records agree whatever the worker count.
    """

    n: int
    p: float
    seed: int
    trials: int
    successes: int
    extra: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not (0 <= self.successes <= self.trials):
            raise ValueError("successes must lie in [0, trials]")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")

    @property
    def frequency(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def _mono_rows(col: np.ndarray, hi: int, system: TripleSystem, lo: int = 0,
               since: int = 0):
    """Rows of monochromatic triples (a, b, c), a <= b <= c <= hi, c > since.

    `col[i]` is the colour of lo + i (0 = absent), up to hi; lo = 0 means
    an absolute colour array (index = integer value), lo > 0 a carrier's
    own array read in place.  Walks a over the members in increasing
    order and yields
    (a, b, shift, mask), where mask[j] says that a, b + j and c share
    a's colour: c = a(b + j) for products, with b + j <= hi // a;
    c = a + b + j + shift for the sum systems, with shift 0, or 0 then 1
    for the double sum.  b is the least partner >= a whose c exceeds
    `since`, so a caller that has checked every c <= since reads only
    the new triples.  Rows with no admissible partner are skipped.
    """
    if system is TripleSystem.PRODUCT:
        for i in np.flatnonzero(col[:max(math.isqrt(hi) + 1 - lo, 0)]):
            a = int(i) + lo
            b, b_hi = max(a, since // a + 1), hi // a
            if b <= b_hi:
                ca = col[i]
                yield a, b, 0, ((col[b - lo:b_hi + 1 - lo] == ca)
                                & (col[a * b - lo:a * b_hi + 1 - lo:a] == ca))
        return
    shifts = (0, 1) if system is TripleSystem.DOUBLE_SUM else (0,)
    for i in np.flatnonzero(col[:max(hi // 2 + 1 - lo, 0)]):
        a = int(i) + lo
        ca = col[i]
        for shift in shifts:
            b, b_hi = max(a, since - a - shift + 1), hi - a - shift
            if b <= b_hi:
                yield a, b, shift, ((col[b - lo:b_hi + 1 - lo] == ca)
                                    & (col[a + b + shift - lo:hi + 1 - lo] == ca))

