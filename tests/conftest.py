"""Shared brute-force oracles, kept independent of the library internals.

These scanners use nothing but plain loops over explicit member lists so
they can arbitrate the vectorised / propagated implementations.
"""

import math
import random
from itertools import product as iter_product

import pytest

from prodschur.core import TripleSystem


def completions(a, b, system):
    if system is TripleSystem.SUM:
        return (a + b,)
    if system is TripleSystem.DOUBLE_SUM:
        return (a + b, a + b + 1)
    return (a * b,)


def brute_mono_triples(colour_of: dict, system) -> list:
    """All monochromatic triples (a, b, c), a <= b, by full scan."""
    members = sorted(colour_of)
    mem = set(members)
    out = []
    for i, a in enumerate(members):
        for b in members[i:]:
            if colour_of[a] != colour_of[b]:
                continue
            for c in completions(a, b, system):
                if c in mem and colour_of[c] == colour_of[a]:
                    out.append((a, b, c))
    return out


def brute_first_mono(colour_of: dict, system):
    """Lexicographically least monochromatic triple by (a, b, c), or None."""
    members = sorted(colour_of)
    mem = set(members)
    for i, a in enumerate(members):
        for b in members[i:]:
            if colour_of[a] != colour_of[b]:
                continue
            for c in completions(a, b, system):
                if c in mem and colour_of[c] == colour_of[a]:
                    return (a, b, c, colour_of[a])
    return None


def brute_exists_good(members, k, system) -> bool:
    """Naive enumeration over all k^|members| colourings."""
    members = sorted(members)
    for assign in iter_product(range(1, k + 1), repeat=len(members)):
        colour_of = dict(zip(members, assign))
        if not brute_mono_triples(colour_of, system):
            return True
    return False


def brute_least_good(members, k, system):
    """{member: colour} of the lexicographically least canonical good
    colouring (colours 1..k listed by increasing member, colour c + 1 only
    after colour c), or None, by enumeration in lexicographic order."""
    members = sorted(members)
    for assign in iter_product(range(1, k + 1), repeat=len(members)):
        top = 0
        canonical = True
        for a in assign:
            if a > top + 1:
                canonical = False
                break
            top = max(top, a)
        if not canonical:
            continue
        colour_of = dict(zip(members, assign))
        if not brute_mono_triples(colour_of, system):
            return colour_of
    return None


def brute_least_good_pruned(members, k, system):
    """`brute_least_good`'s colouring, or None, by the same walk over the
    canonical colour sequences in lexicographic order, except that a
    prefix with a monochromatic triple is cut with every sequence that
    extends it: the triple stays monochromatic in each of them."""
    members = sorted(members)
    assign = []

    def walk():
        if len(assign) == len(members):
            return True
        for c in range(1, min(max(assign, default=0) + 1, k) + 1):
            assign.append(c)
            if not brute_mono_triples(dict(zip(members, assign)), system) and walk():
                return True
            assign.pop()
        return False

    return dict(zip(members, assign)) if walk() else None


def brute_min_mono(members, k, system) -> tuple:
    """(minimum count, lexicographically least minimising colours) over all
    k^|members| colourings, colours listed by increasing member."""
    members = sorted(members)
    best = best_assign = None
    for assign in iter_product(range(1, k + 1), repeat=len(members)):
        count = len(brute_mono_triples(dict(zip(members, assign)), system))
        if best is None or count < best:
            best, best_assign = count, assign
    return best, best_assign


def brute_max_good_subset(members, k, system) -> tuple:
    """(largest good size, {member: colour} of its kept members).

    Walks every sequence over the symbols 1..k, then k + 1 for "left
    out", in lexicographic order, keeps the canonical ones (colour c + 1
    only after colour c) and returns the first with the fewest left out
    whose kept members have no monochromatic triple."""
    members = sorted(members)
    best_out, best = len(members) + 1, None
    for assign in iter_product(range(1, k + 2), repeat=len(members)):
        top = 0
        canonical = True
        for a in assign:
            if a <= k:
                if a > top + 1:
                    canonical = False
                    break
                top = max(top, a)
        out = assign.count(k + 1)
        if not canonical or out >= best_out:
            continue
        kept = {m: a for m, a in zip(members, assign) if a <= k}
        if not brute_mono_triples(kept, system):
            best_out, best = out, kept
    return len(members) - best_out, best


def class_map(classes) -> dict:
    """{member: colour} with class i (0-based) coloured i + 1."""
    return {m: i + 1 for i, members in enumerate(classes) for m in members}


def brute_contains_product(members) -> bool:
    members = sorted(members)
    mem = set(members)
    for i, a in enumerate(members):
        for b in members[i:]:
            if a * b in mem:
                return True
    return False


def brute_has_divisor_in(x: int, y: float, z: float) -> bool:
    """Does x have a divisor d with y < d < z?  Trial division up to sqrt x."""
    for d in range(1, math.isqrt(x) + 1):
        if x % d == 0 and (y < d < z or y < x // d < z):
            return True
    return False


def gap_walk_members(n: int, p: float, uniform) -> list:
    """[2, n]_p for 0 < p < 1 by the geometric-gap rule, one uniform at a time.

    Walks from 1 by gaps floor(log1p(-U) / log1p(-q)) + 1, q = min(p, 1-p),
    reading U from `uniform()`; the walk visits the members when p <= 1/2
    and the non-members otherwise.
    """
    q = min(p, 1 - p)
    walked, x = [], 1
    while True:
        x += math.floor(math.log1p(-uniform()) / math.log1p(-q)) + 1
        if x > n:
            break
        walked.append(x)
    if p <= 0.5:
        return walked
    return sorted(set(range(2, n + 1)) - set(walked))


def binomial_moments(size: int, q: float) -> tuple:
    """Mean, variance and fourth central moment of Binomial(size, q)."""
    var = size * q * (1 - q)
    return size * q, var, var * (1 + 3 * (size - 2) * q * (1 - q))


@pytest.fixture
def rng():
    return random.Random(20240817)
