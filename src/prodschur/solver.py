"""Exact Schur-type search: S(k), S'(k), k-Schurness, extremal subsets.

Three searches answer the exact queries.  Every query under the sum
systems runs `_goal_search`: `exists_good_colouring` and `is_k_schur` on
their ground, and `schur_number` on [1, n] for n = 1, 2, ... until some
[1, n] has no good colouring.  Having one is monotone in n, so that n is
S(k); one more search on [1, S - 1], branching on the lowest free member,
gives the witness.  The product system's goal queries run `_search`,
which colours an increasing member list in increasing order.
`max_non_schur_subset` runs the branch-and-bound of `counting`.  Both
backtracking searches keep, for each colour c, `forb[c]`: a bitmask of
the values c may no longer take.  Colours appear in canonical order
(colour c+1 may first appear only after colour c has), which is sound
because colour classes are interchangeable.  Each search is one loop
over an explicit per-depth stack, so its depth is not bounded by the
interpreter's recursion limit.

`_search` (product system only): giving x colour c forbids c at a*x for
every a already in class c, including a = x, by walking the increasing
class list until the first a*x > hi.  The stack holds, per depth, the
colour given, the colours in play before it, and that colour's forbid
word before it.  Once all k colours are in play, a child whose future
members include one with every colour forbidden is pruned.  No member is
forced: propagating a product class would need divisibility.

`_goal_search` (sum systems only): members join classes out of order, so
inserting y in class c forbids c at every value that closes a triple
with y and a member s of c on either side: s+y and |s-y| (also s+y+1 and
|s-y|-1 for the double sum), and y's half, since y may be a+a (or a+a+1
for the double sum).  s+y is one left shift of the class mask; |s-y|
comes from a right shift of the class mask and of a reversed class mask
(bit hi-s for member s).  A node gives one member a colour, then settles
every free member with exactly one colour left in its class, as real
assignments of that node, to a fixpoint; bit-sliced passes over the k
forbid words find the free members with no colour left (dead) and with
one.  A dead member, or a forced member that an earlier one of the same
round forbade, prunes the node.  By default the next branch is on the
lowest free member among those with the fewest colours left (the DSatur
rule of Brelaz, 1979), where a colour not yet in play counts as left;
the first good colouring it finds is deterministic, but it need not be
the lexicographically least.  Branching on the lowest free member
instead finds the least one: a settled member has its colour in every
good extension, and that colour is in play or is the one colour not yet
in play, so the colourings are met in lexicographic order.  The stack
holds, per depth, one tuple of the state its node left (forbid words,
class masks, reversed masks, free members, colours in play) and the
member it branches on, with the next colour to try in a parallel list.
A child works on copies of its parent's lists, except a depth's last
child: its parent has nothing left to try, so it is popped and the child
takes its lists over.
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
    """A node limit stopped a goal query before exhaustion.

    `deepest` is the most members coloured at one node: under the product
    system the longest good prefix of the increasing member list, and
    under the sum systems the members branched on or settled at a node
    that propagation kept.
    """

    def __init__(self, nodes_explored: int, deepest: int):
        super().__init__(f"search inconclusive after {nodes_explored} nodes "
                         f"(at most {deepest} members coloured at one node)")
        self.nodes_explored = nodes_explored
        self.deepest = deepest


@dataclass
class SearchConfig:
    """Limits of one `schur_number` run: its colour count k, its ceiling
    max_n (None: the k!e bound) and its node_limit over all of the run's
    searches (None: none)."""

    k: int
    max_n: Optional[int] = None
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        _check_search_args(self.k, self.node_limit)
        if self.max_n is not None and self.max_n < 1:
            raise ValueError("max_n must be >= 1")


class _Run(NamedTuple):
    """What one search did; colours in `found` are 0-based."""

    found: Optional[list[int]]   # a complete good colouring, or None
    complete: bool               # False when the node limit stopped the search
    nodes: int
    prunes: int                  # children cut by the dead-member test
    forced: int                  # members forced to their one colour left
    deepest: int                 # most members coloured at one node


def _search(members: Sequence[int], k: int,
            node_limit: Optional[int] = None) -> _Run:
    """Backtracking over the product k-colourings of the increasing `members`.

    The first good colouring found is the lexicographically least.  The
    search stops there, at the node limit, or when the tree is exhausted.
    """
    n = len(members)
    if not n:
        return _Run([], True, 0, 0, 0, 0)
    hi = members[-1]
    mbit = [1 << x for x in members]      # mbit[d]: the bit of members[d]
    suffix = [0] * (n + 1)                # suffix[i]: bits of members[i:]
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | mbit[i]
    cap = math.inf if node_limit is None else node_limit
    # 1*1 = 1 is itself a product triple, so 1 takes no colour
    forb = [1 << 1] * k
    classes: list[list[int]] = [[] for _ in range(k)]
    colour = [0] * n                      # colour given at each depth
    used = [0] * n                        # colours in play before each depth
    saved = [0] * n                       # forb of that colour before it
    nodes = prunes = deepest = 0
    found = None
    complete = True
    last = n - 1
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
            cl = classes[c]
            cl.append(x)
            for a in cl:                  # increasing, and ends with x itself
                q = a * x
                if q > hi:
                    break
                f |= 1 << q
            forb[c] = f
            colour[d] = c
            if d == deepest:
                deepest = d + 1
                if d == last:
                    found = colour
                    break
            nu = u if c < u else c + 1
            dead = 0
            if nu == k:       # with fewer colours in play a fresh one is free
                dead = suffix[d + 1]
                for g in forb:
                    dead &= g
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
        classes[c].pop()
        c += 1
    return _Run(found, complete, nodes, prunes, 0, deepest)


def _goal_search(members: Sequence[int], k: int, system: TripleSystem,
                 node_limit: Optional[int] = None, least: bool = False) -> _Run:
    """Goal search over the k-colourings of `members` under a sum system.

    Each node colours the member with the fewest colours left (the lowest
    one on a tie), or with `least` the lowest free member, then settles
    every free member left with one colour to a fixpoint; a member with
    none prunes the node.  It stops at the first good colouring of every
    member, at the node limit, or when the tree is exhausted.  With
    `least` that colouring is the lexicographically least.  `deepest` is
    the most members coloured at a node that propagation kept.
    """
    n = len(members)
    if not n:
        return _Run([], True, 0, 0, 0, 0)
    dsum = system is TripleSystem.DOUBLE_SUM
    # y's half is barred from y's class: y = a + a for y even, and under
    # the double sum y = a + a + 1 for y odd
    parity = 0 if dsum else 1
    colours = tuple(range(k))
    hi = members[-1]
    cap = math.inf if node_limit is None else node_limit
    # per depth: the state its node left (forbid words, class masks, classes
    # reversed as bits hi - s, free members, colours in play) and the member
    # it branches on; nxt[i] is the next colour to try at depth i
    stack = [([0] * k, [0] * k, [0] * k, sum(1 << x for x in members), 0, members[0])]
    nxt = [0]
    nodes = prunes = forced = deepest = 0
    found = None
    complete = True
    while stack:
        f, masks, rmasks, free, u, x = stack[-1]
        bx = 1 << x
        lim = u + 1 if u < k else k
        c = nxt[-1]
        while c < lim and f[c] & bx:
            c += 1
        if c == lim:
            stack.pop()
            nxt.pop()
            continue
        if nodes >= cap:
            complete = False
            break
        nodes += 1
        e = c + 1
        while e < lim and f[e] & bx:
            e += 1
        if e < lim:
            nxt[-1] = e
            fl = f[:]
            ml = masks[:]
            rl = rmasks[:]
        else:
            stack.pop()
            nxt.pop()
            fl, ml, rl = f, masks, rmasks
        # x joins class c; nothing there forbids it
        free ^= bx
        if c == u:
            u += 1
        mj = ml[c] | bx
        rj = rl[c] | 1 << (hi - x)
        m = mj << x                                   # s + x
        r = mj >> x | rj >> (hi - x)                  # |s - x|
        fj = fl[c] | (m | m << 1 | r | r >> 1 if dsum else m | r)
        if not x & parity:
            fj |= 1 << (x >> 1)                       # x's half
        fl[c] = fj
        ml[c] = mj
        rl[c] = rj
        while True:
            # bit-sliced over the forbid words: free members with every
            # colour forbidden, and with all but at most one
            dead = free
            most = 0
            for g in fl:
                most = most & g | dead
                dead &= g
            if dead or not most:
                break
            free ^= most
            forced += most.bit_count()
            for j in colours:
                g = most & ~fl[j]
                if not g:
                    continue
                if j >= u:
                    u = j + 1
                fj = fl[j]
                mj = ml[j]
                rj = rl[j]
                while g:
                    b = g & -g
                    if fj & b:        # an earlier member of this round forbade it
                        dead = b
                        break
                    g ^= b
                    y = b.bit_length() - 1
                    mj |= b
                    rj |= 1 << (hi - y)
                    m = mj << y
                    r = mj >> y | rj >> (hi - y)
                    fj |= m | m << 1 | r | r >> 1 if dsum else m | r
                    if not y & parity:
                        fj |= 1 << (y >> 1)
                fl[j] = fj
                ml[j] = mj
                rl[j] = rj
                if dead:
                    break
            if dead:
                break
        if dead:
            prunes += 1
            continue
        if not free:
            found = [next(j for j in colours if ml[j] >> y & 1) for y in members]
            deepest = n
            break
        depth = n - free.bit_count()
        if depth > deepest:
            deepest = depth
        if least:
            g = free
        else:
            # level[t]: free members with at least t colours forbidden, for
            # t up to k - 2, as no member with fewer than two colours is left
            level = [free] + [0] * (k - 2)
            for g in fl:
                for t in range(k - 2, 0, -1):
                    level[t] |= level[t - 1] & g
            t = k - 2
            while not level[t]:
                t -= 1
            g = level[t]
        stack.append((fl, ml, rl, free, u, (g & -g).bit_length() - 1))
        nxt.append(0)
    return _Run(found, complete, nodes, prunes, forced, deepest)


def _check_search_args(k: int, node_limit: Optional[int]) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if node_limit is not None and node_limit < 0:
        raise ValueError("node_limit must be >= 0")


def _colouring(ground: IntegerSubset, k: int, members: Sequence[int],
               assign: list[int]) -> Colouring:
    return Colouring.from_map(ground, k, {m: c + 1 for m, c in zip(members, assign)})


def _rechecked(colouring: Colouring, system: TripleSystem) -> Colouring:
    """`colouring`, unless it has a monochromatic triple: then a search
    is at fault, and that is an internal error, not a result."""
    check = has_mono_triple(colouring, system)
    if check is not None:
        raise RuntimeError(f"internal error: colouring fails re-check with {check}")
    return colouring


def exists_good_colouring(ground: IntegerSubset, k: int, system: TripleSystem,
                          *, node_limit: Optional[int] = None) -> Optional[Colouring]:
    """A k-colouring of `ground` with no monochromatic triple, or None.

    The search is complete: None certifies that no such colouring exists.
    If `node_limit` is exhausted first, SearchInconclusive is raised
    rather than returning None.  The colouring is re-checked before it is
    returned.  Under the sum systems it is the first one `_goal_search`
    finds, most constrained member first; it need not be the
    lexicographically least, as the product system's is.
    """
    _check_search_args(k, node_limit)
    members = ground.members().tolist()
    if system is TripleSystem.PRODUCT:
        run = _search(members, k, node_limit)
    else:
        run = _goal_search(members, k, system, node_limit)
    if not run.complete:
        raise SearchInconclusive(run.nodes, run.deepest)
    if run.found is None:
        return None
    return _rechecked(_colouring(ground, k, members, run.found), system)


def schur_number(k: int, system: TripleSystem = TripleSystem.SUM,
                 config: Optional[SearchConfig] = None) -> SolverOutcome:
    """Least n such that every k-colouring of [n] has a monochromatic triple.

    Whether [1, n] has a good k-colouring is monotone in n, so goal
    searches on [1, n] for n = 1, 2, ... find S(k) as the first n with
    none.  One more search on [1, S - 1], branching on the lowest free
    member, returns the witness: the lexicographically least good
    colouring.  The outcome's counters sum over all these searches, and
    `config.node_limit` caps their total.  If the limit or the ceiling
    stops the run first, the outcome is inconclusive: `lower_bound` is one
    more than the largest n found good, and the witness is the colouring
    the ascent found for that n, which need not be the least.  The default
    ceiling is the k!e upper bound, which both sum systems respect.
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
    limit = config.node_limit

    start = time.perf_counter()
    nodes = prunes = forced = 0

    def ask(n: int, least: bool = False) -> _Run:
        """The goal search on [1, n], its counters added to the outcome's."""
        nonlocal nodes, prunes, forced
        run = _goal_search(range(1, n + 1), k, system,
                           None if limit is None else limit - nodes, least)
        nodes += run.nodes
        prunes += run.prunes
        forced += run.forced
        return run

    good: list[int] = []          # the last good colouring found, of [1, len(good)]
    value = None
    for n in range(1, max_n + 1):
        run = ask(n)
        if not run.complete:
            break
        if run.found is None:
            value = n
            break
        good = run.found
    if value is not None:
        run = ask(value - 1, least=True)
        if not run.complete:
            value = None
        elif run.found is None:
            raise RuntimeError(f"internal error: no least colouring of [1, {value - 1}]")
        else:
            good = run.found
    elapsed = time.perf_counter() - start

    top = len(good)
    witness = None
    if top:
        witness = _rechecked(_colouring(IntegerSubset.full(1, top), k,
                                        range(1, top + 1), good), system)
    return SolverOutcome(value=value, witness=witness, nodes_explored=nodes,
                         elapsed=elapsed, conclusive=value is not None,
                         lower_bound=top + 1, prunes=prunes, forced=forced)


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
    colouring = _rechecked(Colouring.from_map(ground, k, kept), system)
    return n - lo + 1 - left_out, ground, colouring
