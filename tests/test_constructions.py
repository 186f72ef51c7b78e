import math
import sys

import numpy as np
import pytest

from prodschur import constructions
from prodschur.core import Colouring, IntegerSubset, Interval, TripleSystem, UsageError
from prodschur.constructions import (
    KNOWN_DOUBLE_SUM_SCHUR,
    KNOWN_SCHUR,
    alpha_for_rate,
    divisor_interval_rate,
    eleven_interval_colouring,
    integer_nth_root,
    log_partition_boundaries,
    max_non_schur_size_bounds,
    mod5_colouring,
    perturbed_blocker_set,
    product_free_colouring,
    threshold_exponent_offset,
    verify_colouring_free,
    _double_sum_base,
)
from prodschur.counting import count_monochromatic, erdos_ford_delta
from prodschur.solver import schur_number
from conftest import class_map

SUM = TripleSystem.SUM
DSUM = TripleSystem.DOUBLE_SUM
PROD = TripleSystem.PRODUCT


class TestScalarConstants:
    def test_delta_printed_digits(self):
        assert round(erdos_ford_delta(), 6) == 0.086071

    def test_delta_defining_identity(self):
        d = erdos_ford_delta()
        assert (1 - d) * math.log(2) == pytest.approx(1 + math.log(math.log(2)), abs=1e-15)

    def test_delta_range(self):
        assert 0 < erdos_ford_delta() < 0.1

    def test_rate_domain(self):
        for bad in (-0.1, 0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                divisor_interval_rate(bad)

    def test_rate_vanishes_at_zero(self):
        assert divisor_interval_rate(1e-8) < 1e-40
        assert threshold_exponent_offset(1e-8) < 1e-40

    def test_rate_monotone_increasing(self):
        xs = np.linspace(0.01, 0.9, 200)
        vals = [divisor_interval_rate(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_offset_one_sixth_at_quarter_rate(self):
        alpha = alpha_for_rate(0.25)
        assert abs(threshold_exponent_offset(alpha) - 1 / 6) < 1e-9

    def test_offset_increasing_and_capped_below_quarter_rate(self):
        a_star = alpha_for_rate(0.25)
        xs = np.linspace(0.01, a_star, 50)
        vals = [threshold_exponent_offset(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert 0 < vals[0] and all(v <= 1 / 6 + 1e-12 for v in vals)

    def test_alpha_for_rate_roundtrip(self):
        for target in (0.01, 0.1, 0.25, 1.0):
            alpha = alpha_for_rate(target)
            assert divisor_interval_rate(alpha) == pytest.approx(target, rel=1e-9)


class TestIntegerNthRoot:
    def test_perfect_powers_exact(self):
        for base in (2, 3, 7, 10, 99):
            for k in (2, 3, 5, 14):
                x = base ** k
                assert integer_nth_root(x, k) == base
                assert integer_nth_root(x - 1, k) == base - 1
                assert integer_nth_root(x + 1, k) == base

    def test_random_values(self, rng):
        for _ in range(300):
            x = rng.randint(0, 10 ** 18)
            k = rng.randint(1, 20)
            r = integer_nth_root(x, k)
            assert r ** k <= x < (r + 1) ** k

    def test_boundaries_monotone_and_end_at_n(self):
        for n, parts in ((10 ** 6, 5), (10 ** 4, 14), (100, 2)):
            b = log_partition_boundaries(n, parts)
            assert b[-1] == n
            assert all(x <= y for x, y in zip(b, b[1:]))


class TestProductFreeColouring:
    def test_single_colour_ground_above_sqrt(self):
        n = 10 ** 4
        col = product_free_colouring(1, n)
        assert col.ground.interval == Interval(math.isqrt(n) + 1, n)
        assert verify_colouring_free(col, PROD) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_verifies_at_1e4(self, k):
        col = product_free_colouring(k, 10 ** 4)
        assert verify_colouring_free(col, PROD) == []

    def test_boundary_element_gets_last_cell(self):
        n = 10 ** 4
        base = _double_sum_base(2)
        col = product_free_colouring(2, n)
        assert col.colour_of(n) == base.colour_of(KNOWN_DOUBLE_SUM_SCHUR[2] - 1)

    def test_ground_is_open_at_integer_root(self):
        # 2^10 = 1024 with s = S'(1) = 2: the root 32 is excluded
        col = product_free_colouring(1, 1024)
        assert col.ground.interval.lo == 33

    def test_log_index_identity_small(self):
        """Cell indices add up to the double-sum slack on product triples."""
        n = 10 ** 4
        for k in (2, 3):
            s = KNOWN_DOUBLE_SUM_SCHUR[k]
            bounds = log_partition_boundaries(n, s)
            lo = integer_nth_root(n, s) + 1
            cell = np.zeros(n + 1, dtype=np.int64)
            cell[1:] = np.searchsorted(bounds, np.arange(1, n + 1), side="left")
            for a in range(lo, math.isqrt(n) + 1):
                for b in range(a, n // a + 1):
                    if b < lo:
                        continue
                    total = cell[a] + cell[b]
                    assert total in (cell[a * b], cell[a * b] - 1), (a, b)

    def test_corrupted_shipped_witness_is_an_internal_error(self, monkeypatch):
        """The base is shipped data, not caller input: a witness that fails
        its re-check (1 + 1 = 2 in one colour) is a bug, not a usage error."""
        monkeypatch.setitem(constructions._DOUBLE_SUM_WITNESSES, 2, "1111")
        with pytest.raises(RuntimeError, match="internal error.* 6 monochromatic "
                                               "triples, expected 0"):
            product_free_colouring(2, 10 ** 4)


class TestExtremalSizeBounds:
    def test_one_colour_closed_form(self):
        n, eps = 10 ** 4, 0.25
        got = max_non_schur_size_bounds(1, n, eps)
        assert got.lower == pytest.approx(n - math.sqrt(n))
        assert got.upper == pytest.approx(n - 0.75 * math.sqrt(n))

    def test_condition_flag_true_small_k(self):
        # (2/eps)^(S(1)^2) = 4^4 = 256
        assert max_non_schur_size_bounds(1, 300, 0.5).upper_condition_met
        assert not max_non_schur_size_bounds(1, 200, 0.5).upper_condition_met

    def test_condition_astronomical_for_k4(self):
        got = max_non_schur_size_bounds(4, 10 ** 9, 0.5)
        assert not got.upper_condition_met

    def test_k2_lower_value(self):
        n = 10 ** 6
        got = max_non_schur_size_bounds(2, n, 0.5)
        assert got.lower == pytest.approx(n - n ** 0.2)

    def test_unknown_k_needs_explicit_values(self):
        with pytest.raises(ValueError):
            max_non_schur_size_bounds(5, 100, 0.5)
        got = max_non_schur_size_bounds(5, 100, 0.5, s=161, s_prime=120)
        assert got.lower == pytest.approx(100 - 100 ** (1 / 120))

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            max_non_schur_size_bounds(2, 100, 1.5)

    def test_n_beyond_floats_refused(self):
        """The bounds are floats: an n above the largest float raised
        OverflowError converting it; the largest float itself is held."""
        top = int(sys.float_info.max)
        with pytest.raises(UsageError, match="largest float"):
            max_non_schur_size_bounds(2, top + 1, 0.5)
        got = max_non_schur_size_bounds(2, top, 0.5)
        assert got.lower == pytest.approx(top - top ** 0.2)

    @pytest.mark.parametrize("s,s_prime", [(0, 2), (2, 0), (-1, 2)])
    def test_supplied_schur_numbers_positive(self, s, s_prime):
        """s = 0 ended in a ZeroDivisionError."""
        with pytest.raises(UsageError, match="need s, s_prime >= 1"):
            max_non_schur_size_bounds(1, 100, 0.5, s=s, s_prime=s_prime)


class TestMod5:
    def test_n10_members_and_classes(self):
        A, col = mod5_colouring(10)
        assert list(A.members()) == [1, 2, 3, 4, 6, 7, 8, 9]
        assert list(np.flatnonzero(col.dense() == 1)) == [1, 4, 6, 9]
        assert list(np.flatnonzero(col.dense() == 2)) == [2, 3, 7, 8]
        assert verify_colouring_free(col, SUM) == []

    @pytest.mark.parametrize("n,size", [(5, 4), (10, 8), (11, 9)])
    def test_sizes(self, n, size):
        A, _ = mod5_colouring(n)
        assert A.cardinality() == size == -(-4 * n // 5)

    def test_size_formula_up_to_500(self):
        for n in range(1, 501):
            A, _ = mod5_colouring(n)
            assert A.cardinality() == -(-4 * n // 5)

    def test_sum_free_at_1000(self):
        _, col = mod5_colouring(1000)
        assert count_monochromatic(col, SUM) == 0


class TestElevenInterval:
    def test_n22(self):
        col = eleven_interval_colouring(22)
        assert list(np.flatnonzero(col.dense() == 1)) == list(range(9, 21))
        assert list(np.flatnonzero(col.dense() == 2)) == [1, 2, 3, 4, 5, 6, 7, 8, 21, 22]

    def test_n11(self):
        col = eleven_interval_colouring(11)
        assert list(np.flatnonzero(col.dense() == 1)) == [5, 6, 7, 8, 9, 10]

    def test_count_band_at_110(self):
        col = eleven_interval_colouring(110)
        count = count_monochromatic(col, SUM)
        assert abs(count - 110 ** 2 / 22) <= 20 * 110

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            eleven_interval_colouring(10)


class TestPerturbedBlockerSet:
    def test_oracle_equality_with_forced_beta(self):
        """Trial-division filter over the full range reproduces the sieve."""
        n = 10 ** 4
        alpha = alpha_for_rate(0.1 / (1 - 2 * 0.1))  # b = r / (1 + 2r) = 0.1
        got = perturbed_blocker_set(n, alpha)
        beta = threshold_exponent_offset(alpha)
        assert beta == pytest.approx(0.1, abs=1e-12)
        y, z = n ** (0.5 - beta), n ** (0.5 + beta)
        lo = math.ceil(n ** (1 - 2 * beta))

        def has_divisor_in(x):
            for d in range(1, math.isqrt(x) + 1):
                if x % d == 0 and (y < d < z or y < x // d < z):
                    return True
            return False

        expected = [x for x in range(lo, n + 1) if not has_divisor_in(x)]
        assert list(got.members()) == expected

    def test_member_factorisations_split(self):
        n = 10 ** 5
        alpha = alpha_for_rate(0.25)
        beta = threshold_exponent_offset(alpha)
        C = perturbed_blocker_set(n, alpha)
        y, z = n ** (0.5 - beta), n ** (0.5 + beta)
        members = C.members()
        for c in members[:: max(1, len(members) // 200)]:
            c = int(c)
            for a in range(2, math.isqrt(c) + 1):
                if c % a == 0:
                    assert a <= y and c // a >= z, (c, a)

    def test_pairwise_products_exceed_n(self):
        n = 10 ** 5
        C = perturbed_blocker_set(n, alpha_for_rate(0.25))
        smallest = int(C.members()[0])
        assert smallest * smallest > n

    def test_range_violation_messages(self):
        with pytest.raises(ValueError, match="sqrt"):
            perturbed_blocker_set(100, 0.01)  # n^beta below sqrt(2)
        with pytest.raises(ValueError, match="1/6"):
            perturbed_blocker_set(10 ** 6, 0.9)  # beta beyond 1/6

    def test_removed_fraction_band(self):
        """Removed mass over alpha*n sits in one frozen band across n."""
        alpha = alpha_for_rate(0.25)
        beta = threshold_exponent_offset(alpha)
        for n in (10 ** 5, 10 ** 6, 10 ** 7):
            C = perturbed_blocker_set(n, alpha)
            lo = math.ceil(n ** (1 - 2 * beta))
            removed = (n - lo + 1) - C.cardinality()
            assert 1.0 <= removed / (alpha * n) <= 1.4


class TestVerifyColouringFree:
    def test_trivial_violation(self):
        g = IntegerSubset.full(1, 2)
        col = Colouring.from_map(g, 1, class_map([[1, 2]]))
        assert verify_colouring_free(col, SUM) == [(1, 1, 2)]

    def test_mod5_50_clean(self):
        _, col = mod5_colouring(50)
        assert verify_colouring_free(col, SUM) == []

    def test_agrees_with_count_and_oracle(self, rng):
        from conftest import brute_mono_triples

        for _ in range(40):
            size = rng.randint(1, 12)
            members = sorted(rng.sample(range(1, 18), size))
            k = rng.randint(1, 3)
            colour_of = {m: rng.randint(1, k) for m in members}
            ground = IntegerSubset.from_members(Interval(1, 17), members)
            colouring = Colouring.from_map(ground, k, colour_of)
            for system in (SUM, DSUM, PROD):
                violations = verify_colouring_free(colouring, system)
                assert violations == brute_mono_triples(colour_of, system)
                assert len(violations) == count_monochromatic(colouring, system)

    def test_literal_witnesses_match_solver(self):
        for k in (1, 2, 3, 4):
            base = _double_sum_base(k)
            assert base == schur_number(k, DSUM).witness
            assert base.ground.interval.hi == KNOWN_DOUBLE_SUM_SCHUR[k] - 1
            assert verify_colouring_free(base, DSUM) == []

    def test_schur_tables_match_solver(self):
        for k in (1, 2, 3):
            assert schur_number(k, SUM).value == KNOWN_SCHUR[k]
            assert schur_number(k, DSUM).value == KNOWN_DOUBLE_SUM_SCHUR[k]
        assert KNOWN_DOUBLE_SUM_SCHUR == {1: 2, 2: 5, 3: 14, 4: 41}
