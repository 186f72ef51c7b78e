"""Exact Schur-type search: S(k), S'(k), k-Schurness, extremal subsets.

Three searches answer the exact queries.  `schur_number` and the product
system's goal queries (`exists_good_colouring`, `is_k_schur`) run
`_search`, which colours an increasing member list in increasing order,
as the prefix semantics of S(k) need.  The same goal queries under the
sum systems run `_goal_search`, which colours the most constrained
member first.  `max_non_schur_subset` runs the branch-and-bound of
`counting`.  Both backtracking searches keep, for each colour c,
`forb[c]`: a bitmask of the values c may no longer take.  Colours appear
in canonical order (colour c+1 may first appear only after colour c
has), which is sound because colour classes are interchangeable.  Each
search is one loop over an explicit per-depth stack, so its depth is not
bounded by the interpreter's recursion limit.

`_search`: giving x colour c forbids c at a+x (and a+x+1 for the
double-sum system) for every a already in class c, including a = x.
Under the sum systems that is one shift-or of the class bitmask; under
the product system the increasing class list is walked, setting a*x
until the first a*x > hi.  The stack holds, per depth, the colour given,
the colours in play before it, and that colour's forbid word before it.
Once all k colours are in play, each child looks at a window of future
members cut from `suffix`, where `suffix[i]` holds the bits of
members[i:]: all of them in goal mode, those up to `stop` in frontier
mode.  One bit-sliced pass over the k forbid words finds the window
members with no colour left (dead) and those with one colour left
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
divisibility.  Propagation cuts only subtrees in which the window cannot
be coloured well, and the nodes it keeps stay in depth-first order.  In
frontier mode the window ends at the member that would beat the deepest
prefix so far, so every ancestor of the first colouring to reach a new
depth survives: the deepest prefix, its first colouring and so every
S(k) witness are kept.

`_goal_search` (sum systems only): members join classes out of order, so
inserting y in class c forbids c at every value that closes a triple
with y and a member s of c on either side: s+y and |s-y| (also s+y+1 and
|s-y|-1 for the double sum), computed as above, and y's half, since y
may be a+a (or a+a+1 for the double sum).  A node gives one member a
colour, then settles every free member with exactly one colour left in
its class, as real assignments of that node, to a fixpoint.  A member
with no colour left, or a forced member that an earlier one of the same
round forbade, prunes the node.  The next branch is on the lowest free
member among those with the fewest colours left (the DSatur rule of
Brelaz, 1979), counted bit-sliced over the k forbid words, where a
colour not yet in play counts as left.  The stack holds, per depth, the
state its node left (forbid words, class masks, reversed masks, free
members, colours in play), the member it branches on and the next colour
to try; each child builds its own copies, so backtracking only steps
back a depth.  The first good colouring it finds is deterministic, but
where it lies in this order decides how soon it is found, and it need
not be the lexicographically least.
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
    """A node limit stopped a search before exhaustion.

    `deepest` is the most members coloured at one node: the longest good
    prefix under the increasing order of `_search`, and under the sum
    systems the members branched on or settled at a node that propagation
    kept.
    """

    def __init__(self, nodes_explored: int, deepest: int):
        super().__init__(f"search inconclusive after {nodes_explored} nodes "
                         f"(at most {deepest} members coloured at one node)")
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
    """What one search did; colours in `found` and `best` are 0-based."""

    found: Optional[list[int]]   # a complete good colouring, or None
    complete: bool               # False when the node limit stopped the search
    nodes: int
    prunes: int                  # children cut by the dead-member test
    forced: int                  # members forced to their one colour left
    deepest: int                 # most members coloured at one node
    best: list[int]              # `_search`: the first colouring of that prefix


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


def _goal_search(members: Sequence[int], k: int, system: TripleSystem,
                 node_limit: Optional[int] = None) -> _Run:
    """Goal search over the k-colourings of `members` under a sum system.

    Each node colours the member with the fewest colours left (the lowest
    one on a tie), then settles every free member left with one colour to
    a fixpoint; a member with none prunes the node.  It stops at the first
    good colouring of every member, at the node limit, or when the tree is
    exhausted.  `deepest` is the most members coloured at a node that
    propagation kept, and `best` stays empty.
    """
    n = len(members)
    if not n:
        return _Run([], True, 0, 0, 0, 0, [])
    dsum = system is TripleSystem.DOUBLE_SUM
    # y's half is barred from y's class: y = a + a for y even, and under
    # the double sum y = a + a + 1 for y odd
    parity = 0 if dsum else 1
    colours = tuple(range(k))
    hi = members[-1]
    cap = math.inf if node_limit is None else node_limit
    # per depth: the state its node left (forbid words, class masks, classes
    # reversed as bits hi - s, free members, colours in play), the member
    # it branches on and the next colour to try there
    stack = [[[0] * k, [0] * k, [0] * k, sum(1 << x for x in members), 0,
              members[0], 0]]
    nodes = prunes = forced = deepest = 0
    found = None
    complete = True
    while stack:
        top = stack[-1]
        f, masks, rmasks, free, u, x, c = top
        bx = 1 << x
        lim = u + 1 if u < k else k
        while c < lim and f[c] & bx:
            c += 1
        if c == lim:
            stack.pop()
            continue
        top[6] = c + 1
        if nodes >= cap:
            complete = False
            break
        nodes += 1
        fl = f[:]
        ml = masks[:]
        rl = rmasks[:]
        free ^= bx
        single = bx               # the members settled this round
        js = (c,)                 # and the colours they take
        while True:
            dead = 0
            for j in js:
                g = single & ~fl[j]
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
                    m = mj << y                           # s + y
                    r = mj >> y | rj >> (hi - y)          # |s - y|
                    fj |= m | m << 1 | r | r >> 1 if dsum else m | r
                    if not y & parity:
                        fj |= 1 << (y >> 1)               # y's half
                fl[j] = fj
                ml[j] = mj
                rl[j] = rj
                if dead:
                    break
            if dead:
                break
            # bit-sliced over the forbid words: free members with every
            # colour forbidden, and with all but at most one
            dead = free
            most = 0
            for g in fl:
                most = most & g | dead
                dead &= g
            if dead or not most:
                break
            single = most
            free ^= single
            forced += single.bit_count()
            js = colours
        if dead:
            prunes += 1
            continue
        if not free:
            found = [next(j for j in colours if ml[j] >> y & 1) for y in members]
            deepest = n
            break
        deepest = max(deepest, n - free.bit_count())
        # level[t]: free members with at least t colours forbidden, for t
        # up to k - 2, as no member with fewer than two colours is left
        level = [free] + [0] * (k - 2)
        for g in fl:
            for t in range(k - 2, 0, -1):
                level[t] |= level[t - 1] & g
        t = k - 2
        while not level[t]:
            t -= 1
        g = level[t]
        stack.append([fl, ml, rl, free, u, (g & -g).bit_length() - 1, 0])
    return _Run(found, complete, nodes, prunes, forced, deepest, [])


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
    rather than returning None.  Under the sum systems the colouring is
    the first one `_goal_search` finds, most constrained member first; it
    need not be the lexicographically least, as the product system's is.
    """
    _check_search_args(k, node_limit)
    members = ground.members().tolist()
    search = _search if system is TripleSystem.PRODUCT else _goal_search
    run = search(members, k, system, node_limit)
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
