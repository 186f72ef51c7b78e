"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE n: PASS`` line once its criterion
holds (run with ``pytest -s`` or ``-v`` to see them).  Frozen expected
values were computed by the independent brute-force oracles that live in
these tests and in conftest.py.
"""

import math
import time

import numpy as np

from prodschur.core import IntegerSubset, Interval, TripleSystem
from prodschur.solver import exists_good_colouring, schur_bounds, schur_number
from prodschur.constructions import (
    KNOWN_DOUBLE_SUM_SCHUR,
    alpha_for_rate,
    eleven_interval_colouring,
    erdos_ford_delta,
    integer_nth_root,
    log_partition_boundaries,
    mod5_colouring,
    perturbed_blocker_set,
    product_free_colouring,
    threshold_exponent_offset,
    verify_colouring_free,
)
from prodschur.counting import (
    count_monochromatic,
    count_product_triples,
    min_monochromatic_bruteforce,
    multiplication_table_count,
    supersaturation_count,
)
from prodschur.randomlab import (
    ProbabilityRule,
    SweepPlan,
    contains_product_triple,
    degree_structure,
    perturbed_sweep,
    threshold_sweep,
)
from conftest import brute_contains_product, brute_exists_good

SUM = TripleSystem.SUM
DSUM = TripleSystem.DOUBLE_SUM
PROD = TripleSystem.PRODUCT


def _report(num: int, desc: str) -> None:
    print(f"\nACCEPTANCE {num:>2}: PASS — {desc}")


def test_criterion_01_exact_schur_numbers():
    expected_sum = {1: 2, 2: 5, 3: 14, 4: 45}
    expected_double = {1: 2, 2: 5, 3: 14, 4: 41}
    for k in (1, 2, 3, 4):
        out = schur_number(k, SUM)
        assert out.conclusive and out.value == expected_sum[k], k
        if k == 3:
            assert out.elapsed < 1.0
        if k == 4:
            assert out.elapsed < 600.0
            # witnesses: the lexicographically least canonical good colourings
            assert "".join(map(str, out.witness.dense()[1:])) == \
                "12131322444434141213233231214343244422313121"
        out = schur_number(k, DSUM)
        assert out.conclusive and out.value == expected_double[k], k
        if k == 4:
            assert "".join(map(str, out.witness.dense()[1:])) == \
                "1221331331221441441221441441221331331221"
    _report(1, "schur numbers (2,5,14,45) and double-sum (2,5,14,41), "
               "k=3 under 1s, k=4 under 10min")


def test_criterion_02_bounds_formula():
    assert [schur_bounds(k) for k in (1, 2, 3, 4)] == \
        [(2, 2), (5, 5), (14, 16), (41, 65)]
    _report(2, "bound pairs (2,2) (5,5) (14,16) (41,65), exact arithmetic")


def test_criterion_03_product_free_construction_verifies():
    for k in (1, 2, 3):
        for n in (10 ** 4, 10 ** 5, 10 ** 6):
            t0 = time.perf_counter()
            colouring = product_free_colouring(k, n)
            violations = verify_colouring_free(colouring, PROD)
            elapsed = time.perf_counter() - t0
            assert violations == [], (k, n)
            assert elapsed < 60.0, (k, n, elapsed)
    # index identity at n = 1e5: cell(a) + cell(b) in {cell(ab), cell(ab)-1}
    n = 10 ** 5
    for k in (1, 2, 3):
        s = KNOWN_DOUBLE_SUM_SCHUR[k]
        bounds = log_partition_boundaries(n, s)
        lo = integer_nth_root(n, s) + 1
        cell = np.zeros(n + 1, dtype=np.int64)
        cell[1:] = np.searchsorted(bounds, np.arange(1, n + 1), side="left")
        for a in range(lo, math.isqrt(n) + 1):
            bs = np.arange(max(a, lo), n // a + 1, dtype=np.int64)
            if len(bs) == 0:
                continue
            total = cell[a] + cell[bs]
            target = cell[a * bs]
            assert np.all((total == target) | (total == target - 1)), (k, a)
    _report(3, "log-product colouring verifies for k<=3 at n=1e4..1e6 and "
               "the index identity holds at n=1e5")


def test_criterion_04_triple_census():
    # exact agreement with brute force for every n <= 2000, via one
    # incremental pair scan feeding cumulative counts
    N = 2000
    per_c_off = np.zeros(N + 1, dtype=np.int64)
    per_c_diag = np.zeros(N + 1, dtype=np.int64)
    for a in range(2, math.isqrt(N) + 1):
        for b in range(a, N // a + 1):
            if a == b:
                per_c_diag[a * b] += 1
            else:
                per_c_off[a * b] += 1
    cum_off = np.cumsum(per_c_off)
    cum_diag = np.cumsum(per_c_diag)
    for n in range(1, N + 1):
        tc = count_product_triples(n)
        assert tc.off_diagonal == cum_off[n] and tc.diagonal == cum_diag[n], n
    n = 10 ** 6
    ratio = count_product_triples(n).total / (0.5 * n * math.log(n))
    assert 0.85 <= ratio <= 1.15
    _report(4, f"census matches brute force up to n=2000; "
               f"n log n ratio {ratio:.4f} in [0.85, 1.15] at n=1e6")


def test_criterion_05_constructions():
    # sizes for every n <= 1e4, plus colour-restriction consistency: the
    # colouring at m is the prefix of the colouring at 1e4, so the
    # exhaustive zero-violation check at 1e4 covers every smaller n
    N = 10 ** 4
    _, big = mod5_colouring(N)
    big_col = big.dense()
    for n in range(1, N + 1):
        A, col = mod5_colouring(n)
        assert A.cardinality() == -(-4 * n // 5), n
        assert np.array_equal(col.dense(), big_col[:n + 1]), n
    assert verify_colouring_free(big, SUM) == []

    n = 1100
    count = count_monochromatic(eleven_interval_colouring(n), SUM)
    assert abs(count - n * n / 22) <= 20 * n
    _report(5, f"mod5 sizes and sum-freeness hold up to n=1e4; "
               f"eleven-interval count {count} within n^2/22 +- 20n at n=1100")


def test_criterion_06_supersaturation():
    n = 10 ** 4
    interval = Interval(2, n)
    rng = np.random.Generator(np.random.Philox(key=np.array([2024, 6],
                                                            dtype=np.uint64)))
    for trial in range(50):
        dense = np.zeros(n + 1, dtype=bool)
        dense[2:] = True
        drop = rng.choice(np.arange(2, n + 1), size=49, replace=False)
        dense[drop] = False
        A = IntegerSubset.from_dense(interval, dense)
        assert A.cardinality() == n - 50
        assert supersaturation_count(A) >= n // 8, trial
    _report(6, "50 random A of size n-50 all carry >= n/8 = 1250 ordered "
               "product solutions")


def test_criterion_07_scalar_constants():
    assert round(erdos_ford_delta(), 6) == 0.086071
    alpha = alpha_for_rate(0.25)
    assert abs(threshold_exponent_offset(alpha) - 1 / 6) <= 1e-9
    _report(7, f"delta = {erdos_ford_delta():.6f}; exponent offset at the "
               f"quarter-rate density = 1/6 within 1e-9")


def test_criterion_08_multiplication_table():
    def has_divisor_in(x, y, z):
        for d in range(1, math.isqrt(x) + 1):
            if x % d == 0 and (y < d < z or y < x // d < z):
                return True
        return False

    rng = np.random.Generator(np.random.Philox(key=np.array([2024, 8],
                                                            dtype=np.uint64)))
    for trial in range(100):
        n = int(rng.integers(10, 10 ** 4 + 1))
        y = float(rng.uniform(1.0, math.sqrt(n) + 2.0))
        z = y + float(rng.uniform(0.5, n / 2))
        est = multiplication_table_count(n, y, z)
        expected = sum(1 for x in range(1, n + 1) if has_divisor_in(x, y, z))
        assert est.exact == expected, (trial, n, y, z)

    ratios = []
    for n in (10 ** 5, 10 ** 6, 10 ** 7):
        est = multiplication_table_count(n, n ** 0.45, n ** 0.55)
        assert est.ratio is not None
        ratios.append(est.ratio)
    assert max(ratios) / min(ratios) <= 3.0
    _report(8, f"sieve matches 100 trial-division oracles; shape ratios "
               f"{[f'{r:.3f}' for r in ratios]} within a factor 3")


def test_criterion_09_random_threshold():
    t0 = time.perf_counter()
    plan = SweepPlan(n=10 ** 6, multipliers=(0.05, 0.2, 1.0, 5.0, 20.0),
                     trials=200, master_seed=7,
                     rule=ProbabilityRule.RANDOM_THRESHOLD)
    records = threshold_sweep(plan)
    elapsed = time.perf_counter() - t0
    freqs = [rec.frequency for rec in records]
    assert freqs[0] <= 0.1
    assert freqs[-1] >= 0.9
    slack = 2.0 / math.sqrt(plan.trials)
    inversions = [max(0.0, freqs[i] - freqs[i + 1]) for i in range(len(freqs) - 1)]
    assert sum(1 for gap in inversions if gap > 0) <= 1
    assert all(gap <= slack for gap in inversions)
    assert elapsed < 600.0
    _report(9, f"threshold frequencies {freqs} monotone within tolerance; "
               f"{elapsed:.0f}s")


def test_criterion_10_perturbed_experiment():
    n = 10 ** 6
    alpha = alpha_for_rate(0.25)
    blocker = perturbed_blocker_set(n, alpha)
    assert contains_product_triple(blocker) is False  # p = 0, exact

    multipliers = (0.01, 100.0 / alpha)
    records = perturbed_sweep(n, alpha, multipliers, trials=100, master_seed=11)
    assert records[0].frequency <= 0.1
    assert records[1].frequency >= 0.9

    # high-degree inequality exercised on product-graph inputs at scale
    beta = threshold_exponent_offset(alpha)
    from prodschur.counting import divisors_in_interval_indicator
    h_dense = divisors_in_interval_indicator(n, n ** (0.5 - beta), n ** (0.5 + beta))
    h_dense[:2] = False
    H = IntegerSubset.from_dense(Interval(2, n), h_dense)
    for cprime, nn, b in [(H, n, beta), (blocker, n, beta)]:
        avg, _, x_size = degree_structure(cprime, nn, b)
        assert x_size >= avg / 2.0
    _report(10, f"blocker triple-free at p=0; frequencies "
                f"{[r.frequency for r in records]} at c=0.01 and c=100/alpha; "
                f"|X| >= d/2 held")


def test_criterion_11_oracle_equivalences():
    for n in range(1, 13):
        got = exists_good_colouring(IntegerSubset.full(1, n), 2, SUM)
        assert (got is not None) == brute_exists_good(range(1, n + 1), 2, SUM), n

    import random
    pyrng = random.Random(11)
    iv = Interval(2, 200)
    for _ in range(1000):
        members = pyrng.sample(range(2, 201), pyrng.randint(0, 40))
        A = IntegerSubset.from_members(iv, members)
        assert contains_product_triple(A) == brute_contains_product(members)

    for n in (1, 2, 3, 4):
        assert min_monochromatic_bruteforce(n, 2, SUM)[0] == 0, n
    count5, _ = min_monochromatic_bruteforce(5, 2, SUM)
    assert count5 >= 1
    assert count5 == 1  # exact exhaustive value
    _report(11, "solver matches naive enumeration (k=2, n<=12); product "
                "detection matches 1000 all-pairs scans; minimum counts "
                "0 at n<=4 and 1 at n=5")
