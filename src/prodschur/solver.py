"""Exact Schur-type search: S(k), S'(k), k-Schurness, extremal subsets.

Every query but `max_non_schur_subset` (the branch-and-bound of
`counting`) runs one depth-first backtracking search, `_search`, over
the colourings of an increasing member list.  Members are coloured
in increasing order, and colour c keeps `forb[c]`, a bitmask of the
positions it may no longer take: giving x colour c forbids c at a+x (and
a+x+1 for the double-sum system) for every a already in class c,
including a = x.  Under the sum systems that is one shift-or of the
class bitmask; under the product system the increasing class list is
walked, setting a*x until the first a*x > hi.  Colours appear in
canonical order (colour c+1 may first appear only after colour c has),
which is sound because colour classes are interchangeable.

The search is one loop over an explicit stack of per-depth lists (the
colour given, the colours in play before it, and that colour's forbid
word before it), so its depth is not bounded by the interpreter's
recursion limit.  Once all k colours are in play, each child looks at a
window of future members cut from `suffix`, where `suffix[i]` holds the
bits of members[i:]: all of them in goal mode, those up to `stop` in
frontier mode.  One bit-sliced pass over the k forbid words finds the
window members with no colour left (dead) and those with one colour left
(forced).  Under the sum systems a forced member y joins its class
provisionally, which forbids s+y and |s-y| to that class for every s in
it (also s+y+1 and |s-y|-1 for the double sum); |s-y| comes from a right
shift of the class mask and of a reversed class mask (bit hi-s for
member s).  The pass repeats to a fixpoint, and any dead member prunes
the child.  A forced member that an earlier one of the same round has
already forbidden prunes at once.  Forced members stay in the window, so
one that loses its colour in a later round is dead at the next pass.
The provisional classes live in copies of the words made at that node,
so backtracking restores only what an assignment changed.  The product
system keeps the plain dead test: its differences would need
divisibility.

Propagation cuts only subtrees in which the window cannot be coloured
well, and the nodes it keeps stay in depth-first order.  So the first
complete good colouring is the one the plain dead test finds.  In
frontier mode the window ends at the member that would beat the deepest
prefix so far, so every ancestor of the first colouring to reach a new
depth survives: the deepest prefix, its first colouring and so every
S(k) witness are kept.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .core import (
    Colouring,
    IntegerSubset,
    Interval,
    ResourceGuardError,
    SolverOutcome,
    TripleSystem,
)
from .counting import _branch_and_bound, has_mono_triple


class SearchInconclusive(Exception):
    """A node limit stopped a search before exhaustion."""

    def __init__(self, nodes_explored: int, deepest: int):
        super().__init__(f"search inconclusive after {nodes_explored} nodes "
                         f"(deepest complete prefix: {deepest} elements)")
        self.nodes_explored = nodes_explored
        self.deepest = deepest


@dataclass
class SearchConfig:
    """Limits of one `schur_number` search: its colour count k, its
    ceiling max_n (None: the k!e bound) and its node_limit (None: none)."""

    k: int
    max_n: Optional[int] = None
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        _check_search_args(self.k, self.node_limit)
        if self.max_n is not None and self.max_n < 1:
            raise ValueError("max_n must be >= 1")


class _Run(NamedTuple):
    """What one `_search` did; colours in `found` and `best` are 0-based."""

    found: Optional[list[int]]   # a complete good colouring, or None
    complete: bool               # False when the node limit stopped the search
    nodes: int
    prunes: int                  # children cut by the dead-member test
    forced: int                  # members forced to their one colour left
    deepest: int                 # length of the longest good prefix seen
    best: list[int]              # the first colouring of that prefix


def _search(members: Sequence[int], k: int, system: TripleSystem,
            node_limit: Optional[int] = None, frontier_mode: bool = False) -> _Run:
    """Backtracking over the k-colourings of the increasing `members`.

    The search stops at the first complete good colouring, at the node
    limit, or when the tree is exhausted.  Goal mode propagates over, and
    prunes on, every future member.  Frontier mode (Schur numbers) tracks
    the deepest good prefix over the exhaustive tree and looks only at the
    members needed to push the prefix past it, which keeps that depth
    exact.  `forced` counts the members propagation forced, over all nodes.
    """
    n = len(members)
    if not n:
        return _Run([], True, 0, 0, 0, 0, [])
    product = system is TripleSystem.PRODUCT
    dsum = system is TripleSystem.DOUBLE_SUM
    hi = members[-1]
    mbit = [1 << x for x in members]      # mbit[d]: the bit of members[d]
    # rbit[d]: bit hi - members[d], so y - s is one right shift of a class
    rbit = [0] * n if product else [1 << (hi - x) for x in members]
    suffix = [0] * (n + 1)                # suffix[i]: bits of members[i:]
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | mbit[i]
    cap = math.inf if node_limit is None else node_limit
    # 1*1 = 1 is itself a product triple, so 1 takes no colour
    forb = [1 << 1 if product else 0] * k
    masks = [0] * k                       # sum systems: class bitmasks
    rmasks = [0] * k                      # and the same classes reversed
    classes: list[list[int]] = [[] for _ in range(k)]   # product: class lists
    colour = [0] * n                      # colour given at each depth
    used = [0] * n                        # colours in play before each depth
    saved = [0] * n                       # forb of that colour before it
    nodes = prunes = forced = deepest = 0
    best: list[int] = []
    found = None
    complete = True
    last = n - 1
    stop = 1 if frontier_mode else n      # dead-member window: members[d+1:stop]
    d = c = u = 0
    while True:
        x = members[d]
        bx = mbit[d]
        lim = u + 1 if u < k else k
        while c < lim and forb[c] & bx:
            c += 1
        if c < lim:
            if nodes >= cap:
                complete = False
                break
            nodes += 1
            f = saved[d] = forb[c]
            if product:
                cl = classes[c]
                cl.append(x)
                for a in cl:              # increasing, and ends with x itself
                    q = a * x
                    if q > hi:
                        break
                    f |= 1 << q
            else:
                m = masks[c] | bx
                masks[c] = m
                rmasks[c] |= rbit[d]
                m <<= x
                f |= m | m << 1 if dsum else m
            forb[c] = f
            colour[d] = c
            if d == deepest:
                deepest = d + 1
                best = colour[:deepest]
                if d == last:
                    found = colour
                    break
                if frontier_mode:
                    stop = deepest + 1
            nu = u if c < u else c + 1
            dead = 0
            if nu == k:       # with fewer colours in play a fresh one is free
                window = suffix[d + 1] ^ suffix[stop]
                fl = forb
                done = 0      # forced here; kept in the window to catch a conflict
                while True:
                    # bit-sliced over the forbid words: dead members have
                    # every colour forbidden, `most` all but at most one
                    dead = window
                    most = 0
                    for g in fl:
                        most = most & g | dead
                        dead &= g
                    if dead or product:
                        break
                    single = most & ~done
                    if not single:
                        break
                    # provisional classes live in copies, so undo never sees them
                    if fl is forb:
                        fl = forb[:]
                        ml = masks[:]
                        rl = rmasks[:]
                    done |= single
                    forced += single.bit_count()
                    for j in range(k):
                        # only this group changes fl[j], so g is the round's start
                        g = single & ~fl[j]
                        while g:
                            b = g & -g
                            if fl[j] & b:     # lost its colour this round
                                dead = b
                                break
                            g ^= b
                            y = b.bit_length() - 1
                            m = ml[j] | b
                            ml[j] = m
                            r = rl[j] | 1 << (hi - y)
                            rl[j] = r
                            r = m >> y | r >> (hi - y)        # |s - y|
                            m <<= y                           # s + y
                            fl[j] |= m | m << 1 | r | r >> 1 if dsum else m | r
                        if dead:
                            break
                    if dead:
                        break
            if not dead:
                d += 1
                u = used[d] = nu
                c = 0
                continue
            prunes += 1
        else:
            d -= 1
            if d < 0:
                break
            c = colour[d]
            u = used[d]
        # take back colour c at depth d, then try the next one there
        forb[c] = saved[d]
        if product:
            classes[c].pop()
        else:
            masks[c] ^= mbit[d]
            rmasks[c] ^= rbit[d]
        c += 1
    return _Run(found, complete, nodes, prunes, forced, deepest, best)


def _check_search_args(k: int, node_limit: Optional[int]) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if node_limit is not None and node_limit < 0:
        raise ValueError("node_limit must be >= 0")


def _colouring(ground: IntegerSubset, k: int, members: Sequence[int],
               assign: list[int]) -> Colouring:
    return Colouring.from_map(ground, k, {m: c + 1 for m, c in zip(members, assign)})


def exists_good_colouring(ground: IntegerSubset, k: int, system: TripleSystem,
                          *, node_limit: Optional[int] = None) -> Optional[Colouring]:
    """A k-colouring of `ground` with no monochromatic triple, or None.

    The search is complete: None certifies that no such colouring exists.
    If `node_limit` is exhausted first, SearchInconclusive is raised
    rather than returning None.
    """
    _check_search_args(k, node_limit)
    members = ground.members().tolist()
    run = _search(members, k, system, node_limit)
    if not run.complete:
        raise SearchInconclusive(run.nodes, run.deepest)
    if run.found is None:
        return None
    return _colouring(ground, k, members, run.found)


def schur_number(k: int, system: TripleSystem = TripleSystem.SUM,
                 config: Optional[SearchConfig] = None) -> SolverOutcome:
    """Least n such that every k-colouring of [n] has a monochromatic triple.

    A single exhaustive DFS colours 1, 2, 3, ... as deep as possible; a
    node at depth m is exactly a triple-free colouring of [m], so after
    exhaustion the answer is deepest+1 and the witness is the first
    colouring that reached the deepest level.  The default ceiling is the
    k!e upper bound, which both sum systems respect.
    """
    if system is TripleSystem.PRODUCT:
        raise ValueError("schur_number is defined for the sum systems; use "
                         "is_k_schur/exists_good_colouring on [2,n] grounds "
                         "for the product system")
    if config is None:
        config = SearchConfig(k=k)
    if config.k != k:
        raise ValueError("config.k disagrees with the call argument k")
    if k > 4 and config.max_n is None:
        raise ResourceGuardError(
            "k >= 5 is beyond desk scale; pass a SearchConfig with an explicit "
            "max_n ceiling to attempt it anyway")
    max_n = config.max_n if config.max_n is not None else schur_bounds(k)[1]

    start = time.perf_counter()
    members = list(range(1, max_n + 1))
    run = _search(members, k, system, config.node_limit, frontier_mode=True)
    elapsed = time.perf_counter() - start

    deepest = run.deepest
    witness = None
    if deepest > 0:
        witness = _colouring(IntegerSubset.full(1, deepest), k, members, run.best)
        check = has_mono_triple(witness, system)
        if check is not None:
            raise RuntimeError(f"internal error: witness fails re-check with {check}")
    # a good colouring of the whole ceiling puts the value beyond it
    conclusive = run.complete and run.found is None
    return SolverOutcome(value=deepest + 1 if conclusive else None, witness=witness,
                         nodes_explored=run.nodes, elapsed=elapsed,
                         conclusive=conclusive, lower_bound=deepest + 1,
                         prunes=run.prunes, forced=run.forced)


def schur_bounds(k: int) -> tuple[int, int]:
    """Classical bounds (3^k+1)/2 <= S(k) <= floor(k! e), in exact arithmetic.

    floor(k! e) equals sum_{i=0..k} k!/i!: the tail of the series lies
    strictly between 0 and 1/k, so truncation plus zero correction is the
    exact floor for every k >= 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lower = (3 ** k + 1) // 2
    term = 1
    upper = 1  # i = k term: k!/k!
    for i in range(k, 0, -1):
        term *= i
        upper += term  # k!/(i-1)!
    return lower, upper


def is_k_schur(A: IntegerSubset, k: int, system: TripleSystem,
               *, node_limit: Optional[int] = None) -> bool:
    """True iff every k-colouring of A has a monochromatic triple."""
    return exists_good_colouring(A, k, system, node_limit=node_limit) is None


def max_non_schur_subset(n: int, k: int, system: TripleSystem
                         ) -> tuple[int, IntegerSubset, Colouring]:
    """Largest subset of the ground interval that is not k-Schur.

    Ground is [1,n] for the sum systems and [2,n] for products.  Runs
    `counting._branch_and_bound` with members left out at a cost of 1,
    under its guards; the least colour sequence of the ground attaining
    the optimum wins, "left out" after every colour, as the minimiser of
    `min_monochromatic_bruteforce` does.
    """
    _check_search_args(k, None)
    lo = 2 if system is TripleSystem.PRODUCT else 1
    if n < lo:
        raise ValueError(f"n must be >= {lo} for {system.value}")
    left_out, assign = _branch_and_bound(n, k, system, leave_out=True)
    kept = {x: c + 1 for x, c in enumerate(assign, lo) if c < k}
    ground = IntegerSubset.from_members(Interval(lo, n), list(kept))
    colouring = Colouring.from_map(ground, k, kept)
    check = has_mono_triple(colouring, system)
    if check is not None:
        raise RuntimeError(f"internal error: witness fails re-check with {check}")
    return n - lo + 1 - left_out, ground, colouring
