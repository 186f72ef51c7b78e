"""Exact Schur-type search: S(k), S'(k), k-Schurness, extremal subsets.

Two searches answer the exact queries; each takes its ground and returns
a `Colouring`, which `counting._rechecked` re-checks.  Every goal query runs
`_goal_search`, under all three triple systems: `exists_good_colouring`
and `is_k_schur` on their ground, and `schur_number` on [1, n] for
n = 1, 2, ... until some [1, n] has no good colouring.  Having one is
monotone in n, so that n is S(k); one more search on [1, S - 1],
branching on the lowest free member, gives the witness.
`max_non_schur_subset` runs the branch-and-bound of `counting`.  In both
searches colours appear in canonical order (colour c+1 may first appear
only after colour c has), which is sound because colour classes are
interchangeable.  The goal search reads its ground's indicator in place
over [lo, hi], its least and top member, and keeps, for each colour c, a
forbid word: a bitmask of the members c may no longer take, bit i for
the carrier entry lo + i.  It is one loop over an explicit per-depth
stack, so its depth is not bounded by the interpreter's recursion limit.

`_goal_search`: members join classes out of order, so inserting y in
class c forbids c at every member that would close a triple with y and
the members of c.  Only this insertion rule depends on the system.
Under the sum systems it is shift arithmetic on the class mask: s+y and
|s-y| for every member s of c (also s+y+1 and |s-y|-1 for the double
sum), and y's half, since y may be a+a (or a+a+1 for the double sum).
s+y is one left shift of the class mask; |s-y| comes from a right shift
of the class mask and of a reversed class mask (bit hi-s for member s).
The class mask's shifts stop at the carrier's width hi - lo + 1: a
longer one only moves bits past the carrier, where no forbid bit is
read, so no word outgrows about twice that width.  Under the product
system the ground's triples are read once, from the rows of
`core._mono_rows`, as per-member pairs (p, q) of bits: y's class holding
p bars q from it.  A triple ab = c of three distinct members gives each
of them two pairs, and a*a = a^2 gives each of its two members (its own
bit, the other's bit).  1*1 = 1 closes in every class, so a product
ground holding 1 is refuted before any set-up.

A node gives one member a colour, then settles every free member with
exactly one colour left in its class, as real assignments of that node,
to a fixpoint; bit-sliced passes over the k forbid words find the free
members with no colour left (dead) and with one.  A dead member, or a
forced member that an earlier one of the same round forbade, prunes the
node.  By default the next branch is on a free member among those with
the fewest colours left (the DSatur rule of Brelaz, 1979), where a colour
not yet in play counts as left.  Ties go by conflict weight, a cheap form
of the dom/wdeg rule of Boussemart, Hemery, Lecoutre and Sais (2004):
each pruned node adds 1 to the weight of the lowest member that pruned
it, the tied members are narrowed to those in the highest power-of-two
weight bucket that holds any of them, and the lowest of those is taken.
The weights live for one search, and before its first prune every tie
goes to the lowest member.  The first good colouring it finds is
deterministic, but it need not be the lexicographically least.
Branching on the lowest free member instead finds the least one: a
settled member has its colour in every good extension, and that colour
is in play or is the one colour not yet in play, so the colourings are
met in lexicographic order.  The stack holds, per depth, one tuple of
the state its node left (forbid words, class masks, reversed masks, free
members, colours in play) and the member it branches on, with the next
colour to try in a parallel list.  A child works on copies of its
parent's lists, except a depth's last child: its parent has nothing left
to try, so it is popped and the child takes its lists over.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    Colouring,
    IntegerSubset,
    ResourceGuardError,
    SolverOutcome,
    TripleSystem,
    UsageError,
    _check_colour_count,
    _mono_rows,
)
from .counting import _branch_and_bound, _rechecked


class SearchInconclusive(Exception):
    """A node limit stopped a goal query before exhaustion.

    `deepest` is the most members coloured at one node, branched on or
    settled, among the nodes that propagation kept.
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
            raise UsageError("max_n must be >= 1")


class _Run(NamedTuple):
    """What one search did."""

    found: Optional[Colouring]   # a good colouring of the whole ground, or None
    complete: bool               # False when the node limit stopped the search
    nodes: int
    prunes: int                  # children cut by the dead-member test
    forced: int                  # members forced to their one colour left
    deepest: int                 # most members coloured at one node


def _product_pairs(members: Sequence[int], ones: np.ndarray
                   ) -> dict[int, list[tuple[int, int]]]:
    """Per member y of the increasing `members` (1 not among them), keyed
    by its carrier entry y - lo, the pairs (p, q) of member bits such that
    y's class holding p bars q from it, one pair for each way y closes a
    product triple of the ground read from its 0/1 carrier indicator `ones`
    over [lo, members[-1]], lo = members[0].  The pairs share one bit
    object per member, but those objects alone hold sum(y - lo) bits."""
    lo = members[0]
    bit = {y: 1 << (y - lo) for y in members}
    close: dict[int, list[tuple[int, int]]] = {y - lo: [] for y in members}
    for a, b0, _, mask in _mono_rows(ones, TripleSystem.PRODUCT, lo):
        pa, by_a = bit[a], close[a - lo]
        for b in (np.flatnonzero(mask) + b0).tolist():
            c = a * b
            pb, pc = bit[b], bit[c]
            if a == b:                                # a * a = c
                by_a.append((pa, pc))
                close[c - lo].append((pc, pa))
            else:
                by_a += (pb, pc), (pc, pb)
                close[b - lo] += (pa, pc), (pc, pa)
                close[c - lo] += (pa, pb), (pb, pa)
    return close


def _goal_search(ground: IntegerSubset, k: int, system: TripleSystem,
                 node_limit: Optional[int] = None, least: bool = False) -> _Run:
    """Goal search over the k-colourings of `ground`.

    Each node colours the member with the fewest colours left, or with
    `least` the lowest free member, then settles every free member left
    with one colour to a fixpoint; a member with none prunes the node and
    adds 1 to the conflict weight of the lowest such member.  A tie for
    the fewest colours goes to the lowest member among those whose weight
    has reached the highest power of two that any of them has reached.
    It stops at the first good colouring of every member, at the node
    limit, or when the tree is exhausted.  With `least` that colouring is
    the lexicographically least.  `deepest` is the most members coloured
    at a node that propagation kept.
    """
    iv, whole = ground.interval, ground._ind
    n = int(np.count_nonzero(whole))
    if not n:
        return _Run(Colouring._adopt(iv, k, whole.astype(np.int8)), True, 0, 0, 0, 0)
    first, last = int(whole.argmax()), len(whole) - 1 - int(whole[::-1].argmax())
    ind = whole[first:last + 1]                       # the carrier [lo, hi]
    lo, hi = iv.lo + first, iv.lo + last
    product = system is TripleSystem.PRODUCT
    if product and lo == 1:                           # 1 * 1 = 1 in every class
        return _Run(None, True, 0, 0, 0, 0)
    dsum = system is TripleSystem.DOUBLE_SUM
    if product:
        close = _product_pairs((np.flatnonzero(ind) + lo).tolist(), ind.view(np.int8))
    else:
        # own[i], for the member v = lo + i: the class mask's shift (clipped),
        # v's reversed bit, the reversed mask's shift and the bit of v's half,
        # barred from v's class (v = a + a for v even, and under the double
        # sum v = a + a + 1 for v odd); filled at v's first insertion, so a
        # long ground pays only for the members the search reaches
        parity = 0 if dsum else 1
        own: dict[int, tuple[int, int, int, int]] = {}

        def own_of(i: int) -> tuple[int, int, int, int]:
            v = lo + i
            half = (v >> 1) - lo                      # its entry, if in the carrier
            o = own[i] = (min(v, hi - lo + 1), 1 << (hi - v), hi + lo - v,
                          0 if half < 0 or v & parity else 1 << half)
            return o
    colours = tuple(range(k))
    slices = tuple(range(k - 2, 0, -1))
    cap = sys.maxsize if node_limit is None else node_limit
    # conflict weights: wt[b] counts the prunes whose lowest dead member was
    # b, and hot[j] holds the members whose weight has reached 2^j
    wt: dict[int, int] = {}
    hot: list[int] = []
    # per depth: the state its node left (forbid words, class masks, classes
    # reversed as bits hi - s for the sum systems, free members, colours in
    # play) and the member it branches on, all as carrier entries (bit i for
    # lo + i); nxt[i] is the next colour to try at depth i
    free = int.from_bytes(np.packbits(ind, bitorder="little").tobytes(), "little")
    stack = [([0] * k, [0] * k, [0] * k, free, 0, 0)]
    nxt = [0]
    nodes = prunes = forced = deepest = 0
    found = None
    complete = True
    while stack:
        f, masks, rmasks, free, u, x = stack[-1]
        bx = 1 << x
        lim = u + 1 if u < k else k
        c = nxt[-1]
        while f[c] & bx:          # stops below lim: x is live, classes >= u are empty
            c += 1
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
        if product:
            fj = fl[c]
            for p, q in close[x]:
                if mj & p:
                    fj |= q
        else:
            t, rb, rt, hb = own.get(x) or own_of(x)   # v = lo + x
            rj = rl[c] | rb
            m = mj << t                               # s + v
            r = mj >> t | rj >> rt                    # |s - v|
            fj = fl[c] | (m | m << 1 | r | r >> 1 if dsum else m | r) | hb
            rl[c] = rj
        fl[c] = fj
        ml[c] = mj
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
                    if product:
                        for p, q in close[y]:
                            if mj & p:
                                fj |= q
                    else:
                        t, rb, rt, hb = own.get(y) or own_of(y)
                        rj |= rb
                        m = mj << t
                        r = mj >> t | rj >> rt
                        fj |= (m | m << 1 | r | r >> 1 if dsum else m | r) | hb
                fl[j] = fj
                ml[j] = mj
                rl[j] = rj
                if dead:
                    break
            if dead:
                break
        if dead:
            prunes += 1
            b = dead & -dead
            w = wt.get(b, 0) + 1
            wt[b] = w
            if not w & (w - 1):                       # w = 2^j
                j = w.bit_length() - 1
                if j == len(hot):
                    hot.append(b)
                else:
                    hot[j] |= b
            continue
        if not free:
            col = whole.astype(np.int8)               # class 0, then each class in play
            sub = col[first:last + 1]
            size = (len(ind) + 7) // 8
            for j in range(1, u):
                bits = np.frombuffer(ml[j].to_bytes(size, "little"), dtype=np.uint8)
                sub[np.unpackbits(bits, count=len(ind), bitorder="little").view(bool)] = j + 1
            found = Colouring._adopt(iv, k, col)
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
                for t in slices:
                    level[t] |= level[t - 1] & g
            t = k - 2
            while not level[t]:
                t -= 1
            g = level[t]
            # a tie goes to the members of the highest weight bucket in it
            for h in reversed(hot):
                if g & h:
                    g &= h
                    break
        stack.append((fl, ml, rl, free, u, (g & -g).bit_length() - 1))
        nxt.append(0)
    return _Run(found, complete, nodes, prunes, forced, deepest)


def _check_search_args(k: int, node_limit: Optional[int]) -> None:
    _check_colour_count(k)
    if node_limit is not None and node_limit < 0:
        raise UsageError("node_limit must be >= 0")


def exists_good_colouring(ground: IntegerSubset, k: int, system: TripleSystem,
                          *, node_limit: Optional[int] = None) -> Optional[Colouring]:
    """A k-colouring of `ground` with no monochromatic triple, or None.

    The search is complete: None certifies that no such colouring exists.
    If `node_limit` is exhausted first, SearchInconclusive is raised
    rather than returning None.  The colouring is re-checked before it is
    returned.  It is the first one `_goal_search` finds, most constrained
    member first; it need not be the lexicographically least.
    """
    _check_search_args(k, node_limit)
    run = _goal_search(ground, k, system, node_limit)
    if not run.complete:
        raise SearchInconclusive(run.nodes, run.deepest)
    return None if run.found is None else _rechecked(run.found, system)


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
    the ascent found for that n, which need not be the least.  A limit
    that cuts only the witness search leaves the run inconclusive too,
    although [1, S] was refuted: `lower_bound` is S.  The default
    ceiling is the k!e upper bound, which both sum systems respect.
    """
    if system is TripleSystem.PRODUCT:
        raise UsageError("schur_number is defined for the sum systems; use "
                         "is_k_schur/exists_good_colouring on [2,n] grounds "
                         "for the product system")
    if config is None:
        config = SearchConfig(k=k)
    if config.k != k:
        raise UsageError("config.k disagrees with the call argument k")
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
        run = _goal_search(IntegerSubset.full(1, n), k, system,
                           None if limit is None else limit - nodes, least)
        nodes += run.nodes
        prunes += run.prunes
        forced += run.forced
        return run

    good: Optional[Colouring] = None    # the last good colouring found
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

    witness = None if good is None else _rechecked(good, system)
    top = 0 if good is None else good.ground.interval.hi
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
        raise UsageError("k must be >= 1")
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
    under its checks and guards; the least colour sequence of the ground
    attaining the optimum wins, "left out" after every colour, as the
    minimiser of `min_monochromatic_bruteforce` does.  The subset is the
    ground of the colouring, which is re-checked before it is returned.
    """
    colouring = _rechecked(_branch_and_bound(n, k, system, leave_out=True)[1], system)
    ground = colouring.ground
    return ground.cardinality(), ground, colouring
