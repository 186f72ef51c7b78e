import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodschur import counting
from prodschur.core import (
    Colouring,
    IntegerSubset,
    Interval,
    ResourceGuardError,
    TripleSystem,
    UsageError,
)
from prodschur.counting import (
    TripleCount,
    count_monochromatic,
    count_product_triples,
    divisor_count_table,
    divisors_in_interval_indicator,
    has_mono_triple,
    max_divisor_count,
    min_monochromatic_bruteforce,
    multiplication_table_count,
    supersaturation_count,
)
from prodschur.constructions import (
    eleven_interval_colouring,
    mod5_colouring,
    verify_colouring_free,
)
from conftest import (brute_first_mono, brute_has_divisor_in, brute_min_mono,
                      brute_mono_triples)

SUM = TripleSystem.SUM
DSUM = TripleSystem.DOUBLE_SUM
PROD = TripleSystem.PRODUCT


# (n, k, system, minimum, least minimising colours by increasing member) for
# every k <= 6 that full enumeration could reach (k^m <= 2^22 colourings of
# m members, 2^24 for k = 2), recorded from that enumeration.
_PINNED = """
1 2 sum 0 1
2 2 sum 0 12
3 2 sum 0 121
4 2 sum 0 1221
5 2 sum 1 11221
6 2 sum 1 112221
7 2 sum 2 1112221
8 2 sum 2 11122221
9 2 sum 3 111222211
10 2 sum 4 1111222221
11 2 sum 5 11112222211
12 2 sum 6 111112222221
13 2 sum 7 1111122222211
14 2 sum 8 11111222222121
15 2 sum 9 111112222222211
16 2 sum 11 1111112222222121
17 2 sum 12 11111122222222211
18 2 sum 14 111111122222222121
19 2 sum 15 1111111222222222211
20 2 sum 17 11111112222222222111
21 2 sum 19 111111112222222222211
22 2 sum 21 1111111122222222222111
23 2 sum 23 11111111122222222222211
24 2 sum 25 111111111222222222222111
1 2 double-sum 0 1
2 2 double-sum 0 12
3 2 double-sum 0 122
4 2 double-sum 0 1221
5 2 double-sum 1 11222
6 2 double-sum 1 112221
7 2 double-sum 2 1122211
8 2 double-sum 3 11122221
9 2 double-sum 4 111222211
10 2 double-sum 5 1112222211
11 2 double-sum 7 11112222211
12 2 double-sum 8 111122222211
13 2 double-sum 10 1111222222211
14 2 double-sum 12 11111222222211
15 2 double-sum 14 111112222222211
16 2 double-sum 17 1111112222222211
17 2 double-sum 19 11111122222222211
18 2 double-sum 22 111111222222222111
19 2 double-sum 25 1111111222222222211
20 2 double-sum 28 11111112222222222111
21 2 double-sum 31 111111122222222222111
22 2 double-sum 35 1111111122222222222111
23 2 double-sum 38 11111111222222222222111
24 2 double-sum 42 111111112222222222222111
2 2 product 0 1
3 2 product 0 11
4 2 product 0 112
5 2 product 0 1121
6 2 product 0 11212
7 2 product 0 112121
8 2 product 0 1121211
9 2 product 0 11212112
10 2 product 0 112121122
11 2 product 0 1121211221
12 2 product 0 11212112211
13 2 product 0 112121122111
14 2 product 0 1121211221112
15 2 product 0 11212112211122
16 2 product 0 112121222111221
17 2 product 0 1121212221112211
18 2 product 0 11212122211122111
19 2 product 0 112121222111221111
20 2 product 0 1121212221112211111
21 2 product 0 11212122211122111112
22 2 product 0 112121222111221111122
23 2 product 0 1121212221112211111221
24 2 product 0 11212122212122111112211
25 2 product 0 112121222121221111122112
1 3 sum 0 1
2 3 sum 0 12
3 3 sum 0 121
4 3 sum 0 1213
5 3 sum 0 12131
6 3 sum 0 121312
7 3 sum 0 1213121
8 3 sum 0 12131312
9 3 sum 0 121313121
10 3 sum 0 1213223121
11 3 sum 0 12132331312
12 3 sum 0 121323313121
13 3 sum 0 1221331331221
1 3 double-sum 0 1
2 3 double-sum 0 12
3 3 double-sum 0 122
4 3 double-sum 0 1221
5 3 double-sum 0 12213
6 3 double-sum 0 122133
7 3 double-sum 0 1221331
8 3 double-sum 0 12213312
9 3 double-sum 0 122133122
10 3 double-sum 0 1221331221
11 3 double-sum 0 12213313312
12 3 double-sum 0 122133133122
13 3 double-sum 0 1221331331221
2 3 product 0 1
3 3 product 0 11
4 3 product 0 112
5 3 product 0 1121
6 3 product 0 11212
7 3 product 0 112121
8 3 product 0 1121211
9 3 product 0 11212112
10 3 product 0 112121122
11 3 product 0 1121211221
12 3 product 0 11212112211
13 3 product 0 112121122111
14 3 product 0 1121211221112
1 4 sum 0 1
2 4 sum 0 12
3 4 sum 0 121
4 4 sum 0 1213
5 4 sum 0 12131
6 4 sum 0 121312
7 4 sum 0 1213121
8 4 sum 0 12131214
9 4 sum 0 121312141
10 4 sum 0 1213121412
11 4 sum 0 12131214121
1 4 double-sum 0 1
2 4 double-sum 0 12
3 4 double-sum 0 122
4 4 double-sum 0 1221
5 4 double-sum 0 12213
6 4 double-sum 0 122133
7 4 double-sum 0 1221331
8 4 double-sum 0 12213312
9 4 double-sum 0 122133122
10 4 double-sum 0 1221331221
11 4 double-sum 0 12213312214
2 4 product 0 1
3 4 product 0 11
4 4 product 0 112
5 4 product 0 1121
6 4 product 0 11212
7 4 product 0 112121
8 4 product 0 1121211
9 4 product 0 11212112
10 4 product 0 112121122
11 4 product 0 1121211221
12 4 product 0 11212112211
1 5 sum 0 1
2 5 sum 0 12
3 5 sum 0 121
4 5 sum 0 1213
5 5 sum 0 12131
6 5 sum 0 121312
7 5 sum 0 1213121
8 5 sum 0 12131214
9 5 sum 0 121312141
1 5 double-sum 0 1
2 5 double-sum 0 12
3 5 double-sum 0 122
4 5 double-sum 0 1221
5 5 double-sum 0 12213
6 5 double-sum 0 122133
7 5 double-sum 0 1221331
8 5 double-sum 0 12213312
9 5 double-sum 0 122133122
2 5 product 0 1
3 5 product 0 11
4 5 product 0 112
5 5 product 0 1121
6 5 product 0 11212
7 5 product 0 112121
8 5 product 0 1121211
9 5 product 0 11212112
10 5 product 0 112121122
1 6 sum 0 1
2 6 sum 0 12
3 6 sum 0 121
4 6 sum 0 1213
5 6 sum 0 12131
6 6 sum 0 121312
7 6 sum 0 1213121
8 6 sum 0 12131214
1 6 double-sum 0 1
2 6 double-sum 0 12
3 6 double-sum 0 122
4 6 double-sum 0 1221
5 6 double-sum 0 12213
6 6 double-sum 0 122133
7 6 double-sum 0 1221331
8 6 double-sum 0 12213312
2 6 product 0 1
3 6 product 0 11
4 6 product 0 112
5 6 product 0 1121
6 6 product 0 11212
7 6 product 0 112121
8 6 product 0 1121211
9 6 product 0 11212112
"""
PINNED_MINIMA = [(int(n), int(k), TripleSystem.parse(s), int(count), colours)
                 for n, k, s, count, colours in map(str.split, _PINNED.split("\n")[1:-1])]


def brute_product_census(n):
    off = sum(1 for a in range(2, n + 1) for b in range(a + 1, n + 1) if a * b <= n)
    diag = sum(1 for a in range(2, n + 1) if a * a <= n)
    return off, diag


class TestCountProductTriples:
    def test_small_examples(self):
        tc = count_product_triples(10)
        assert (tc.off_diagonal, tc.diagonal, tc.total) == (3, 2, 5)
        assert count_product_triples(100).off_diagonal == 137
        assert count_product_triples(4).total == 1
        assert count_product_triples(3).total == 0

    @pytest.mark.parametrize("n", [4, 17, 50, 100, 257, 300])
    def test_matches_bruteforce(self, n):
        off, diag = brute_product_census(n)
        tc = count_product_triples(n)
        assert (tc.off_diagonal, tc.diagonal) == (off, diag)

    def test_asymptotic_band_at_1e6(self):
        n = 10 ** 6
        total = count_product_triples(n).total
        assert 0.85 <= total / (0.5 * n * math.log(n)) <= 1.15

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            TripleCount(total=5, off_diagonal=3, diagonal=1)

    def test_guard_refuses_before_the_loop(self):
        """The census is a Python loop of sqrt(n) steps: 1e8 steps at the
        guard; one past it is refused at once."""
        t0 = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="census beyond n = 1e16"):
            count_product_triples(10 ** 16 + 1)
        assert time.perf_counter() - t0 < 1.0


def product_listing(n):
    """Every product triple (a, b, ab) with 2 <= a <= b and ab <= n, as the
    row kernel lists them for [2, n] in one colour."""
    ground = IntegerSubset.full(2, n)
    return verify_colouring_free(Colouring(ground, 1, np.ones(n - 1)), PROD)


class TestEnumerate:
    def test_examples(self):
        assert product_listing(10) == [
            (2, 2, 4), (2, 3, 6), (2, 4, 8), (2, 5, 10), (3, 3, 9)]
        assert product_listing(4) == [(2, 2, 4)]
        assert product_listing(3) == []

    @pytest.mark.parametrize("n", [4, 30, 101, 500])
    def test_stream_length_equals_census(self, n):
        triples = product_listing(n)
        assert len(triples) == count_product_triples(n).total
        assert triples == sorted(triples)  # ordered by (a, b)
        assert all(a * b == c <= n and 2 <= a <= b for a, b, c in triples)


class TestFactorisationPairs:
    """The pairs a <= b that a product c closes, as the listing groups them."""

    def test_examples(self):
        def pairs(c, n):
            return {(a, b) for a, b, x in product_listing(n) if x == c}

        assert pairs(12, 12) == {(2, 6), (3, 4)}
        assert pairs(13, 20) == set()
        assert pairs(36, 36) == {(2, 18), (3, 12), (4, 9), (6, 6)}

    def test_bounds_by_divisor_count(self):
        n = 2000
        table = divisor_count_table(n)
        per_c = Counter(c for _, _, c in product_listing(n))
        assert max(per_c.values()) <= int(table.max())

    def test_bounds_by_divisor_count_sampled_1e5(self, rng):
        n = 10 ** 5
        cap = max_divisor_count(n)[0]
        per_c = Counter(c for _, _, c in product_listing(n))
        for c in rng.sample(range(2, n + 1), 800) + [83160, 98280]:
            assert per_c[c] <= cap


class TestCountMonochromatic:
    def test_all_one_colour_interval_4(self):
        g = IntegerSubset.full(1, 4)
        c = Colouring.from_map(g, 1, dict.fromkeys(range(1, 5), 1))
        # brute oracle: (1,1,2) (1,2,3) (1,3,4) (2,2,4)
        assert count_monochromatic(c, SUM) == 4

    def test_mod5_is_sum_free(self):
        _, colouring = mod5_colouring(100)
        assert count_monochromatic(colouring, SUM) == 0

    def test_eleven_interval_at_110(self):
        colouring = eleven_interval_colouring(110)
        count = count_monochromatic(colouring, SUM)
        assert count == 545  # frozen from the brute-force oracle
        assert abs(count - 110 ** 2 / 22) <= 20 * 110

    def test_matches_bruteforce_random(self, rng):
        for _ in range(60):
            size = rng.randint(1, 14)
            members = sorted(rng.sample(range(1, 20), size))
            k = rng.randint(1, 3)
            colour_of = {m: rng.randint(1, k) for m in members}
            ground = IntegerSubset.from_members(Interval(1, 19), members)
            colouring = Colouring.from_map(ground, k, colour_of)
            for system in (SUM, DSUM, PROD):
                assert count_monochromatic(colouring, system) == \
                    len(brute_mono_triples(colour_of, system)), (members, colour_of)

    def test_sum_counts_match_bruteforce_with_gaps(self, rng):
        # lo > 1, gaps in the ground, up to five colours
        for _ in range(120):
            lo = rng.randint(1, 40)
            hi = lo + rng.randint(0, 120)
            k = rng.randint(1, 5)
            density = rng.choice([0.2, 0.6, 1.0])
            colour_of = {m: rng.randint(1, k) for m in range(lo, hi + 1)
                         if rng.random() < density}
            ground = IntegerSubset.from_members(Interval(lo, hi), colour_of)
            colouring = Colouring.from_map(ground, k, colour_of)
            for system in (SUM, DSUM):
                want = brute_mono_triples(colour_of, system)
                assert count_monochromatic(colouring, system) == len(want), \
                    (lo, hi, colour_of, system)
                assert verify_colouring_free(colouring, system) == want

    def test_products_match_bruteforce_on_offset_carriers(self, rng):
        """Product counts, listings and first triples on carriers [lo, hi]
        with lo > 1 and gaps, against the oracles."""
        with_triples = 0
        for _ in range(150):
            lo = rng.randint(2, 12)
            hi = lo + rng.randint(0, 150)
            k = rng.randint(1, 3)
            density = rng.choice([0.3, 0.7, 1.0])
            colour_of = {m: rng.randint(1, k) for m in range(lo, hi + 1)
                         if rng.random() < density}
            ground = IntegerSubset.from_members(Interval(lo, hi), colour_of)
            colouring = Colouring.from_map(ground, k, colour_of)
            want = brute_mono_triples(colour_of, PROD)
            assert count_monochromatic(colouring, PROD) == len(want), (lo, hi, colour_of)
            assert verify_colouring_free(colouring, PROD) == want
            assert has_mono_triple(colouring, PROD) == brute_first_mono(colour_of, PROD)
            with_triples += bool(want)
        assert with_triples >= 30

    def test_count_agrees_with_listing_at_1e4(self, rng):
        colour_of = {m: rng.randint(1, 3) for m in range(2, 10 ** 4 + 1)
                     if m % 7}
        ground = IntegerSubset.from_members(Interval(2, 10 ** 4), colour_of)
        colouring = Colouring.from_map(ground, 3, colour_of)
        for system in (SUM, DSUM):
            assert count_monochromatic(colouring, system) == \
                len(verify_colouring_free(colouring, system))

    def test_inexact_convolution_raises(self, monkeypatch):
        colouring = eleven_interval_colouring(110)
        real = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: real(*a, **kw) + 0.3)
        with pytest.raises(RuntimeError, match="not exact"):
            count_monochromatic(colouring, SUM)

    def test_class_sums_bounded_by_census(self, rng):
        n = 500
        ground = IntegerSubset.full(2, n)
        for _ in range(5):
            colour_of = {m: rng.randint(1, 2) for m in range(2, n + 1)}
            col = Colouring.from_map(ground, 2, colour_of)
            assert count_monochromatic(col, PROD) <= count_product_triples(n).total


class TestMinMonochromatic:
    def test_four_is_zero(self):
        count, witness = min_monochromatic_bruteforce(4, 2, SUM)
        assert count == 0
        assert count_monochromatic(witness, SUM) == 0

    def test_five_is_one(self):
        count, witness = min_monochromatic_bruteforce(5, 2, SUM)
        assert count == 1
        assert count_monochromatic(witness, SUM) == 1

    def test_product_ground_12_is_zero(self):
        count, witness = min_monochromatic_bruteforce(12, 2, PROD)
        assert count == 0
        assert witness.ground.interval == Interval(2, 12)

    def test_matches_naive_enumeration(self):
        """Count and least minimiser against the conftest oracle on every
        small ground: k = 2 up to 9 members, k = 3 up to 7."""
        for k, most in ((2, 9), (3, 7)):
            for system in (SUM, DSUM, PROD):
                lo = 2 if system is PROD else 1
                for n in range(lo, lo + most):
                    members = list(range(lo, n + 1))
                    best, best_assign = brute_min_mono(members, k, system)
                    count, witness = min_monochromatic_bruteforce(n, k, system)
                    assert count == best, (n, k, system)
                    got = tuple(witness.colour_of(m) for m in members)
                    assert got == best_assign, (n, k, system)

    @pytest.mark.parametrize("n,k,system,count,colours", PINNED_MINIMA,
                             ids=[f"{n}-{k}-{s.value}" for n, k, s, _, _ in PINNED_MINIMA])
    def test_pinned_minimum(self, n, k, system, count, colours):
        got, witness = min_monochromatic_bruteforce(n, k, system)
        assert got == count
        lo = witness.ground.interval.lo
        assert "".join(str(witness.colour_of(m)) for m in range(lo, n + 1)) == colours

    def test_three_colours_generic_path(self):
        count, witness = min_monochromatic_bruteforce(13, 3, SUM)
        assert count == 0  # S(3) = 14, so [13] is 3-colourable
        assert count_monochromatic(witness, SUM) == 0

    def test_product_ground_26_past_the_old_cap(self):
        """25 members, beyond the old 2-colour enumeration: the oracle's
        rescan of the witness certifies the zero."""
        count, witness = min_monochromatic_bruteforce(26, 2, PROD)
        assert count == 0
        colour_of = {m: witness.colour_of(m) for m in range(2, 27)}
        assert brute_mono_triples(colour_of, PROD) == []

    def test_guard(self, monkeypatch):
        """The node budget refuses mid-search, also at the deepest ground,
        and the member cap refuses a ground too large to allocate."""
        for system in (SUM, DSUM, PROD):
            with pytest.raises(ResourceGuardError, match="members"):
                min_monochromatic_bruteforce(10 ** 12, 2, system)
        monkeypatch.setattr(counting, "_MONO_NODE_BUDGET", 10 ** 4)
        with pytest.raises(ResourceGuardError, match="node budget"):
            min_monochromatic_bruteforce(30, 3, SUM)
        with pytest.raises(ResourceGuardError, match="node budget"):
            min_monochromatic_bruteforce(counting._MONO_MAX_MEMBERS + 1, 2, PROD)

    @pytest.mark.parametrize("system,lo", [(SUM, 1), (DSUM, 1), (PROD, 2)])
    def test_one_colour_guard(self, system, lo, monkeypatch):
        """One class is one count, but its arrays grow with the ground: past
        `_ONE_CLASS_MAX_MEMBERS` members it is refused before any colouring
        is built (10^12 members raised MemoryError)."""
        def built(*args):
            raise AssertionError("colouring built")

        monkeypatch.setattr(counting, "Colouring", built)
        for n in (10 ** 8, 10 ** 12):
            with pytest.raises(ResourceGuardError, match="members"):
                min_monochromatic_bruteforce(n, 1, system)
        with pytest.raises(ResourceGuardError, match="members"):
            min_monochromatic_bruteforce(counting._ONE_CLASS_MAX_MEMBERS + lo, 1, system)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("system,lo", [(SUM, 1), (DSUM, 1), (PROD, 2)])
    def test_n_below_the_ground_rejected(self, system, lo, k):
        with pytest.raises(ValueError, match="n must be >= "):
            min_monochromatic_bruteforce(lo - 1, k, system)

    @staticmethod
    def _no_listing(monkeypatch):
        real = counting._mono_scan

        def scan(colouring, system, collect):
            if collect:
                raise AssertionError("triples listed")
            return real(colouring, system, collect)

        monkeypatch.setattr(counting, "_mono_scan", scan)

    def test_guard_fires_before_listing(self, monkeypatch):
        self._no_listing(monkeypatch)
        with pytest.raises(ResourceGuardError, match="members"):
            min_monochromatic_bruteforce(1000, 3, SUM)
        with pytest.raises(ResourceGuardError, match="members"):
            min_monochromatic_bruteforce(counting._MONO_MAX_MEMBERS + 1, 2, SUM)

    @pytest.mark.parametrize("system", [SUM, DSUM, PROD])
    def test_one_colour_counts_without_listing(self, system, monkeypatch):
        """k = 1 at n = 1e4 against the closed-form row sums, with no triple
        list built (it would hold ~25 M tuples)."""
        n = 10 ** 4
        if system is PROD:
            expected = sum(n // a - a + 1 for a in range(2, math.isqrt(n) + 1))
        else:
            rows = [n - 2 * a + 1 for a in range(1, n // 2 + 1)]
            expected = sum(rows)
            if system is DSUM:  # a + b + 1 <= n
                expected += sum(r - 1 for r in rows if r > 1)
        self._no_listing(monkeypatch)
        count, witness = min_monochromatic_bruteforce(n, 1, system)
        assert count == expected
        assert witness.k == 1
        assert witness.ground.interval == Interval(2 if system is PROD else 1, n)
        assert witness.ground.cardinality() == len(witness.ground.interval)

    @pytest.mark.parametrize("system", [SUM, DSUM, PROD])
    def test_one_colour_matches_oracle(self, system):
        lo = 2 if system is PROD else 1
        for n in range(lo, 40):
            count, _ = min_monochromatic_bruteforce(n, 1, system)
            assert count == len(brute_mono_triples(
                {m: 1 for m in range(lo, n + 1)}, system)), n

    def test_colour_count_positive(self):
        with pytest.raises(ValueError):
            min_monochromatic_bruteforce(5, 0, SUM)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("system", [SUM, DSUM, PROD])
    def test_minimiser_is_recounted(self, system, k, monkeypatch):
        """A kernel that returned a cost its colouring does not have would
        be an internal error, not a result."""
        real = counting._branch_and_bound

        def kernel(n, k, system, leave_out):
            cost, colouring = real(n, k, system, leave_out)
            return cost + 1, colouring

        monkeypatch.setattr(counting, "_branch_and_bound", kernel)
        with pytest.raises(RuntimeError, match="internal error"):
            min_monochromatic_bruteforce(9, k, system)


class TestDivisorCounts:
    def test_examples(self):
        assert max_divisor_count(12) == (6, 12)
        assert max_divisor_count(100) == (12, 60)

    def test_table_matches_trial_division(self):
        n = 500
        table = divisor_count_table(n)
        for m in range(1, n + 1):
            tau = sum(1 for d in range(1, m + 1) if m % d == 0)
            assert table[m] == tau

    def test_argmax_is_smallest(self):
        # 60 and 96 both have 12 divisors below 100
        assert max_divisor_count(96)[1] == 60

    def test_wigert_shape_band(self):
        # finite-n echo of the divisor bound: calibrated once, frozen
        for n in (10 ** 4, 10 ** 5, 10 ** 6):
            mx, _ = max_divisor_count(n)
            ratio = mx / (math.log(n) / math.log(math.log(n)))
            assert 1.0 <= ratio <= 100.0

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            divisor_count_table(2 * 10 ** 9)


class TestMultiplicationTable:
    def test_example_20_2_5(self):
        est = multiplication_table_count(20, 2, 5)
        assert est.exact == 10  # multiples of 3 or 4 up to 20
        assert est.ratio is None  # below the shape theorem's preconditions

    def test_empty_interval(self):
        assert multiplication_table_count(50, 6.1, 6.9).exact == 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            multiplication_table_count(50, 5, 5)

    @pytest.mark.parametrize("y,z", [(2.0, math.inf), (2.0, float("1e400")),
                                     (-math.inf, 3.0), (-math.inf, math.inf)])
    def test_non_finite_ends_refused_before_the_sieve(self, y, z, monkeypatch):
        """An infinite end used to reach math.floor/math.ceil in the sieve
        and end in an OverflowError."""
        def zeros(*args, **kwargs):
            raise AssertionError("array built")

        monkeypatch.setattr(counting.np, "zeros", zeros)
        with pytest.raises(UsageError, match="need finite y and z"):
            divisors_in_interval_indicator(100, y, z)
        with pytest.raises(UsageError, match="need finite y and z"):
            multiplication_table_count(100, y, z)

    def test_oracle_random_instances(self, rng):
        for _ in range(30):
            n = rng.randint(10, 2000)
            y = rng.uniform(1, math.sqrt(n) + 2)
            z = y + rng.uniform(0.5, n / 2)
            est = multiplication_table_count(n, y, z)
            expected = sum(1 for x in range(1, n + 1) if brute_has_divisor_in(x, y, z))
            assert est.exact == expected, (n, y, z)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2000), st.data())
    def test_indicator_matches_divisor_oracle(self, n, data):
        """The sieve, which skips d already marked, against trial division."""
        ends = st.one_of(st.integers(-3, n + 3).map(float),
                         st.floats(-3.0, n + 3.0, allow_nan=False))
        y = data.draw(ends, label="y")
        z = data.draw(ends.filter(lambda z: z > y), label="z")
        ind = divisors_in_interval_indicator(n, y, z)
        assert len(ind) == n + 1 and not ind[0]
        want = [x for x in range(1, n + 1) if brute_has_divisor_in(x, y, z)]
        assert np.flatnonzero(ind).tolist() == want

    def test_whole_range_interval(self):
        for n in list(range(1, 120)) + [997, 10 ** 4]:
            est = multiplication_table_count(n, 1, n + 1)
            assert est.exact == max(n - 1, 0)

    def test_theta_fields_when_preconditions_hold(self):
        n = 10 ** 5
        est = multiplication_table_count(n, n ** 0.45, n ** 0.55)
        assert est.u is not None and est.u > 0
        assert est.ratio == pytest.approx(est.exact / est.theta_form)

    def test_indicator_strict_openness(self):
        ind = divisors_in_interval_indicator(20, 2.0, 5.0)
        # d ranges over {3, 4}: 2 and 5 excluded by strict openness
        assert not ind[2] and ind[3] and ind[4] and not ind[5]
        assert ind[20] and not ind[7]


class TestSupersaturation:
    def test_full_ground_is_square_of_small_part(self):
        assert supersaturation_count(IntegerSubset.full(2, 100)) == 81  # (10-1)^2

    def test_ordered_identity_full_sets(self):
        for n in (50, 300, 10 ** 4):
            r = math.isqrt(n)
            off_small = sum(1 for a in range(2, r + 1) for b in range(a + 1, r + 1))
            diag_small = r - 1
            expected = 2 * off_small + diag_small
            assert supersaturation_count(IntegerSubset.full(2, n)) == expected

    def test_empty_small_part(self):
        A = IntegerSubset.from_members(Interval(2, 100), [50, 60, 99])
        assert supersaturation_count(A) == 0

    @pytest.mark.parametrize("lo", [1, 2, 3, 8, 9])
    def test_brute_force_offset_carriers(self, lo, rng):
        """Carriers [lo, 70]: from 1, whose member 1 is outside the small
        part [2, 8], from 2 and 3, and from 9, above sqrt(70), with no
        small part at all."""
        n = 70
        r = math.isqrt(n)
        full = IntegerSubset.full(lo, n)
        assert supersaturation_count(full) == max(r - max(lo, 2) + 1, 0) ** 2
        for _ in range(30):
            members = sorted(rng.sample(range(lo, n + 1), rng.randint(0, n - lo + 1)))
            A = IntegerSubset.from_members(Interval(lo, n), members)
            mem = set(members)
            small = [m for m in members if 2 <= m <= r]
            expected = sum(1 for a in small for b in small if a * b in mem)
            assert supersaturation_count(A) == expected

    def test_brute_force_random_subsets(self, rng):
        n = 60
        for _ in range(30):
            members = sorted(rng.sample(range(2, n + 1),
                                        rng.randint(0, n - 1)))
            A = IntegerSubset.from_members(Interval(2, n), members)
            mem = set(members)
            small = [m for m in members if m <= math.isqrt(n)]
            expected = sum(1 for a in small for b in small if a * b in mem)
            assert supersaturation_count(A) == expected
