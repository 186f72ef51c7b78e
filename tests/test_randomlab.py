import dataclasses
import math
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache
from multiprocessing.connection import wait
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodschur.core import Colouring, IntegerSubset, Interval, TripleSystem
from prodschur.constructions import (alpha_for_rate, perturbed_blocker_set,
                                     threshold_exponent_offset)
from prodschur.counting import count_monochromatic
from prodschur import randomlab
from prodschur.randomlab import (
    ProbabilityRule,
    SweepPlan,
    contains_product_triple,
    degree_structure,
    derive_seed,
    perturbed_sweep,
    sample_random_subset,
    threshold_sweep,
)
from conftest import binomial_moments, brute_contains_product, gap_walk_members


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        seen = {derive_seed(7, ci, t) for ci in range(8) for t in range(64)}
        assert len(seen) == 8 * 64

    def test_word_masking(self):
        assert derive_seed(2 ** 64 + 5, 0) == derive_seed(5, 0)


class TestSampleRandomSubset:
    def test_p_zero_empty(self):
        assert sample_random_subset(100, 0.0, 1).cardinality() == 0

    def test_p_one_full(self):
        A = sample_random_subset(100, 1.0, 1)
        assert A.cardinality() == 99
        assert 1 not in A and 2 in A

    def test_seed_reproducibility(self):
        a = sample_random_subset(10 ** 4, 0.3, 99)
        b = sample_random_subset(10 ** 4, 0.3, 99)
        c = sample_random_subset(10 ** 4, 0.3, 100)
        assert a == b
        assert a != c

    def test_size_concentration(self):
        """|sample| within 3% of (n-1)p across 100 seeds at n = 1e5."""
        n, p = 10 ** 5, 0.3
        expected = (n - 1) * p
        for t in range(100):
            size = sample_random_subset(n, p, derive_seed(5, t)).cardinality()
            assert 0.97 <= size / expected <= 1.03

    def test_p_domain(self):
        with pytest.raises(ValueError):
            sample_random_subset(100, 1.2, 0)


SMALL_N = 41
KEYS = 4000


@lru_cache(maxsize=None)
def _indicator_draws(p: float) -> np.ndarray:
    """Row t: the indicator of sample_random_subset(41, p, derive_seed(31, t))
    on [0, 41]."""
    return np.array([sample_random_subset(SMALL_N, p, derive_seed(31, t)).dense()
                     for t in range(KEYS)])


class _CountingGenerator:
    """Forwards random() to a real generator, counts the calls and fails
    past `limit` of them (a refill loop that never ends)."""

    def __init__(self, rng, limit):
        self.rng, self.calls, self.limit = rng, 0, limit

    def random(self, size):
        self.calls += 1
        assert self.calls <= self.limit, "refill loop does not end"
        return self.rng.random(size)


class TestSamplerDistribution:
    """sample_random_subset against the iid Bernoulli(p) law on [2, n].

    p <= 1/2 walks geometric gaps between members; p > 1/2 walks the
    gaps between non-members and inverts.  Every band is 5 sigma over
    KEYS derive_seed keys.
    """

    PS = (1e-3, 0.1, 0.3, 0.5, 0.7, 0.97)

    @pytest.mark.parametrize("p", PS)
    def test_inclusion_frequency_per_position(self, p):
        draws = _indicator_draws(p)
        assert not draws[:, :2].any()  # members lie in [2, n]
        freq = draws[:, 2:].mean(axis=0)
        assert len(freq) == SMALL_N - 1
        band = 5 * math.sqrt(p * (1 - p) / KEYS)
        assert np.abs(freq - p).max() <= band

    @pytest.mark.parametrize("p", PS)
    def test_size_mean_and_variance(self, p):
        sizes = _indicator_draws(p).sum(axis=1)
        mean, var, mu4 = binomial_moments(SMALL_N - 1, p)
        assert abs(sizes.mean() - mean) <= 5 * math.sqrt(var / KEYS)
        assert abs(sizes.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var ** 2) / KEYS)

    @pytest.mark.parametrize("p", PS)
    def test_members_in_range_and_seed_determines_set(self, p):
        n = 5000
        A = sample_random_subset(n, p, 123)
        members = A.members()
        assert A.interval == Interval(2, n)
        assert len(members) == 0 or (members[0] >= 2 and members[-1] <= n)
        assert A == sample_random_subset(n, p, 123)
        assert A != sample_random_subset(n, p, 124)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_edges_draw_nothing(self, p, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("p in {0, 1} must not draw")

        monkeypatch.setattr(randomlab, "_generator", no_draw)
        A = sample_random_subset(1000, p, 5)
        assert A.cardinality() == (999 if p else 0)

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.8])
    def test_refill_loop_reads_the_same_stream(self, p, monkeypatch):
        """A refill of one uniform runs the loop once per gap and must give
        the set that one large chunk gives."""
        n = 2000
        expected = [sample_random_subset(n, p, derive_seed(8, t)) for t in range(5)]
        made = []
        real = randomlab._generator

        def counting(seed):
            made.append(_CountingGenerator(real(seed), limit=n + 1))
            return made[-1]

        monkeypatch.setattr(randomlab, "_generator", counting)
        monkeypatch.setattr(randomlab, "_gap_chunk", lambda size, q: 1)
        for t, want in enumerate(expected):
            got = sample_random_subset(n, p, derive_seed(8, t))
            assert got == want
            walked = got.cardinality() if p <= 0.5 else n - 1 - got.cardinality()
            assert made[-1].calls == walked + 1 >= 2  # one gap past n ends it

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 3000), p=st.floats(1e-3, 0.999),
           seed=st.integers(0, 2 ** 64 - 1), chunk=st.integers(1, 7))
    def test_stream_matches_one_gap_at_a_time_reference(self, n, p, seed, chunk):
        """Stream 0.2.0: Philox keyed (seed, 0x9E3779B97F4A7C15), uniforms
        read in order by the gap walk, whatever the refill size."""
        key = np.array([seed, 0x9E3779B97F4A7C15], dtype=np.uint64)
        uniform = np.random.Generator(np.random.Philox(key=key)).random
        want = gap_walk_members(n, p, uniform)
        assert sample_random_subset(n, p, seed).members().tolist() == want
        with mock.patch.object(randomlab, "_gap_chunk", lambda size, q: chunk):
            assert sample_random_subset(n, p, seed).members().tolist() == want


class TestContainsProductTriple:
    def test_examples(self):
        iv = Interval(2, 20)
        assert contains_product_triple(
            IntegerSubset.from_members(iv, [2, 3, 6])) is True
        assert contains_product_triple(
            IntegerSubset.from_members(iv, [2, 3, 5, 7, 11])) is False
        assert contains_product_triple(
            IntegerSubset.from_members(iv, [3, 9])) is True  # 3*3 = 9

    def test_oracle_on_random_subsets(self, rng):
        """All-pairs scan arbitration on subsets of [2, 200]."""
        iv = Interval(2, 200)
        for _ in range(300):
            size = rng.randint(0, 40)
            members = rng.sample(range(2, 201), size)
            A = IntegerSubset.from_members(iv, members)
            assert contains_product_triple(A) == brute_contains_product(members)

    def test_ground_with_one(self):
        A = IntegerSubset.from_members(Interval(1, 10), [1, 7])
        assert contains_product_triple(A) is True  # (1,1,1)


class TestThresholdSweep:
    def _plan(self, **kw):
        defaults = dict(n=3000, multipliers=(0.2, 2.0, 8.0), trials=30,
                        master_seed=17, rule=ProbabilityRule.RANDOM_THRESHOLD)
        defaults.update(kw)
        return SweepPlan(**defaults)

    def test_reproducible_and_worker_independent(self):
        plan = self._plan()
        a = threshold_sweep(plan, workers=1)
        b = threshold_sweep(plan, workers=1)
        c = threshold_sweep(plan, workers=2)
        assert a == b == c

    def test_record_fields(self):
        records = threshold_sweep(self._plan(), workers=1)
        assert len(records) == 3
        scale = (3000 * math.log(3000)) ** (-1 / 3)
        for rec, c in zip(records, (0.2, 2.0, 8.0)):
            assert rec.extra["c"] == c
            assert rec.p == pytest.approx(c * scale)
            assert not rec.extra["clamped"]
            assert 0 <= rec.successes <= rec.trials

    def test_clamping_is_annotated(self):
        plan = self._plan(multipliers=(10 ** 6,))
        rec = threshold_sweep(plan, workers=1)[0]
        assert rec.p == 1.0
        assert rec.extra["clamped"] is True
        assert rec.frequency == 1.0

    def test_frequency_increases_with_multiplier(self):
        records = threshold_sweep(self._plan(trials=60), workers=1)
        freqs = [r.frequency for r in records]
        assert freqs[0] <= freqs[1] + 0.2 and freqs[1] <= freqs[2] + 0.2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_perturbed_plan_runs_as_perturbed_sweep(self, workers):
        """The plan's rule decides the blocker and the annotations, so a
        perturbed plan gives perturbed_sweep's records."""
        alpha = alpha_for_rate(0.25)
        plan = SweepPlan(n=10 ** 4, multipliers=(0.5, 2.0), trials=12, master_seed=9,
                         rule=ProbabilityRule.PERTURBED, alpha=alpha)
        records = threshold_sweep(plan, workers=workers)
        assert records == perturbed_sweep(10 ** 4, alpha, (0.5, 2.0), trials=12,
                                          master_seed=9, workers=3 - workers)
        assert all(rec.extra["blocker_size"] > 0 for rec in records)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SweepPlan(n=100, multipliers=(), trials=5, master_seed=0)
        with pytest.raises(ValueError):
            SweepPlan(n=100, multipliers=(1.0,), trials=0, master_seed=0)
        with pytest.raises(ValueError):
            SweepPlan(n=100, multipliers=(1.0,), trials=5, master_seed=0,
                      rule=ProbabilityRule.PERTURBED)  # alpha missing
        with pytest.raises(ValueError, match="takes no alpha"):
            SweepPlan(n=10 ** 4, multipliers=(1.0,), trials=3, master_seed=0,
                      alpha=0.52)  # alpha under the default random-threshold rule

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_multipliers_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            SweepPlan(n=100, multipliers=(1.0, bad), trials=5, master_seed=0)


def _trial(blocker, n, p, seed):
    """One sweep trial: does blocker ∪ [2, n]_p contain a product triple?"""
    return randomlab._trial(n, p, blocker, randomlab._generator(seed), [0.0] * 3,
                            np.zeros(n - 1, dtype=bool))


class TestGenerator:
    @pytest.mark.parametrize("salt", [0x9E3779B97F4A7C15, 0])
    def test_rekeyed_generator_draws_the_keyed_philox_stream(self, salt):
        """A re-keyed generator reads the bytes of a fresh
        Philox(key=[seed, salt]), whatever was drawn from it before."""
        rng = None
        for seed in (0, 1, 7, 2 ** 63 + 5, 2 ** 64 - 1):
            rng = randomlab._generator(seed, salt, rng)
            key = np.array([seed, salt], dtype=np.uint64)  # a list goes via float64
            want = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(rng.random(9), want.random(9))
            # odd uint32 draws leave a half-used word buffered
            assert np.array_equal(rng.integers(0, 2 ** 32, 3, dtype=np.uint32),
                                  want.integers(0, 2 ** 32, 3, dtype=np.uint32))
            assert np.array_equal(rng.choice(50, 7, replace=False),
                                  want.choice(50, 7, replace=False))


class TestEarlyExitTrial:
    """The sweep trial stops at the first product triple it can prove; it
    must answer as the full sample, united with the blocker, does."""

    PS = (0.0, 1e-4, 0.01, 0.2, 0.5, math.nextafter(0.5, 1.0), 0.8, 0.999, 1.0)

    @staticmethod
    def _blocker(n, members):
        return None if members is None else IntegerSubset.from_members(
            Interval(2, n), [m for m in members if m <= n])

    @staticmethod
    def _reference(blocker, n, p, seed):
        A = sample_random_subset(n, p, seed)
        return contains_product_triple(A if blocker is None else blocker.union(A))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("blocked", [False, True])
    def test_smallest_carriers(self, n, p, blocked):
        for seed in range(20):
            blocker = self._blocker(n, [2, 3] if blocked else None)
            got = _trial(blocker, n, p, seed)
            want = self._reference(blocker, n, p, seed)
            members = sample_random_subset(n, p, seed).members().tolist()
            members = sorted(set(members) | ({2, 3} if blocked else set()))
            assert got == want == brute_contains_product([m for m in members if m <= n])

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 3000), p=st.one_of(st.sampled_from(PS), st.floats(0.0, 1.0)),
           seed=st.integers(0, 2 ** 64 - 1),
           blocker=st.one_of(st.none(), st.sets(st.integers(2, 3000), max_size=12)),
           one_gap=st.booleans())
    def test_agrees_with_full_sample(self, n, p, seed, blocker, one_gap):
        """With one_gap, each refill draws one uniform, so a check falls
        after every gap."""
        blocker = self._blocker(n, blocker)
        want = self._reference(blocker, n, p, seed)
        if n <= 300:
            members = set(sample_random_subset(n, p, seed).members().tolist())
            if blocker is not None:
                members |= set(blocker.members().tolist())
            assert want == brute_contains_product(members)
        with mock.patch.object(randomlab, "_gap_chunk",
                               (lambda size, q: 1) if one_gap else randomlab._gap_chunk):
            assert _trial(blocker, n, p, seed) == want

    @pytest.mark.parametrize("p", [5e-324, 1.1125369292536007e-308])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_p_draws_without_warning(self, p):
        """A subnormal p sends the gaps past the float range; they become
        inf without a RuntimeWarning, and nothing is drawn (but for U = 0,
        at odds of 2^-53)."""
        for seed in range(20):
            assert sample_random_subset(3000, p, seed).cardinality() == 0
            assert _trial(None, 3000, p, seed) is False

    def test_stops_reading_at_the_first_triple(self):
        """At n = 1e6, p = 1/2 a triple lies in the first prefix, so the
        trial reads a few hundred uniforms, not half a million."""
        rng = randomlab._generator(3)
        assert randomlab._trial(10 ** 6, 0.5, None, rng, [0.0] * 3,
                                np.zeros(10 ** 6 - 1, dtype=bool)) is True
        words = 4 * int(rng.bit_generator.state["state"]["counter"][0])
        assert 0 < words < 2000  # one 64-bit word per uniform

    def test_blocker_on_another_carrier_is_refused(self):
        """The sweep builds the blocker from its own plan, so one off
        [2, n] is an internal error, not refused input."""
        C = IntegerSubset.from_members(Interval(1, 20), [2, 3, 6])
        with pytest.raises(RuntimeError, match=r"internal error.*carried on \[2, 20\]"):
            _trial(C, 20, 0.0, 1)
        with pytest.raises(RuntimeError, match=r"internal error.*carried on \[2, 30\]"):
            _trial(C, 30, 0.1, 1)


class TestOneIndicatorPerChunk:
    """A chunk draws every trial into one indicator, which each trial must
    leave all False: a member left over would join the next trial's set."""

    PS = TestEarlyExitTrial.PS

    @staticmethod
    def _run(n, blocker, run):
        """Outcomes of `run`, (p, blocked, seed) triples, each trial drawn
        into one shared indicator and checked against a fresh `_trial`;
        `_chunk` over each trial's seed must count the same."""
        ind = np.zeros(n - 1, dtype=bool)
        real, cleared = randomlab._trial, []

        def spy(*args):
            hit = real(*args)
            cleared.append(not args[-1].any())
            return hit

        outcomes = []
        for p, blocked, seed in run:
            C = blocker if blocked else None
            hit = randomlab._trial(n, p, C, randomlab._generator(seed), [0.0] * 3, ind)
            assert not ind.any()
            assert hit == _trial(C, n, p, seed)
            outcomes.append(hit)
        with mock.patch.object(randomlab, "_trial", spy):
            for p, blocked in dict.fromkeys((p, b) for p, b, _ in run):  # a chunk each
                group = [(seed, hit) for (q, b, seed), hit in zip(run, outcomes)
                         if (q, b) == (p, blocked)]
                chunk = (blocker if blocked else None, n, p, [seed for seed, _ in group])
                assert randomlab._chunk(chunk)[0] == sum(hit for _, hit in group)
        assert len(cleared) == len(run) and all(cleared)
        return outcomes

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 3000),
           blocker=st.sets(st.integers(2, 3000), max_size=12),
           run=st.lists(st.tuples(st.one_of(st.sampled_from(PS), st.floats(0.0, 1.0)),
                                  st.booleans(), st.integers(0, 2 ** 64 - 1)),
                         min_size=1, max_size=8))
    def test_shared_indicator_gives_fresh_outcomes(self, n, blocker, run):
        self._run(n, TestEarlyExitTrial._blocker(n, blocker), run)

    def test_mixed_run_of_hits_and_misses(self):
        """p below and above 1/2, 0 and 1, with and without a blocker,
        interleaved so that a long walk precedes a short one."""
        n = 3000
        blocker = TestEarlyExitTrial._blocker(n, [2, 3, 5, 7])
        run = [(p, blocked, derive_seed(6, i))
               for i, (p, blocked) in enumerate(
                   [(0.8, False), (1e-3, False), (1.0, True), (0.0, False),
                    (0.0, True), (0.2, False), (0.999, True), (0.01, True),
                    (1.0, False), (0.5, False), (1e-4, True)])]
        assert set(self._run(n, blocker, run)) == {False, True}


class TestPerturbedTrials:
    def test_triple_bearing_set_at_p_zero(self):
        C = IntegerSubset.from_members(Interval(2, 20), [2, 3, 6])
        assert _trial(C, 20, 0.0, 1) is True

    def test_blocker_at_p_zero(self):
        n = 10 ** 4
        alpha = alpha_for_rate(0.12 / (1 - 2 * 0.12))  # b = r / (1 + 2r) = 0.12
        assert threshold_exponent_offset(alpha) == pytest.approx(0.12, abs=1e-12)
        C = perturbed_blocker_set(n, alpha)
        assert _trial(C, n, 0.0, 1) is False

    def test_sweep_records_annotations(self):
        n = 10 ** 4
        alpha = alpha_for_rate(0.25)
        records = perturbed_sweep(n, alpha, (0.05, 5.0), trials=10,
                                  master_seed=3, workers=1)
        assert len(records) == 2
        for rec in records:
            assert rec.extra["alpha"] == alpha
            assert rec.extra["beta_alpha"] == pytest.approx(1 / 6, abs=1e-9)
            assert rec.extra["blocker_size"] > 0
            assert 0 < rec.extra["blocker_fraction"] < 1

    def test_sweep_worker_independent(self):
        n = 10 ** 4
        alpha = alpha_for_rate(0.25)
        a = perturbed_sweep(n, alpha, (0.5, 2.0), trials=12, master_seed=9,
                            workers=1)
        b = perturbed_sweep(n, alpha, (0.5, 2.0), trials=12, master_seed=9,
                            workers=2)
        assert a == b


class TestSweepTimings:
    @pytest.mark.parametrize("blocked", [False, True])
    def test_phase_seconds_present_and_outside_equality(self, blocked):
        def sweep(workers):
            if blocked:
                return perturbed_sweep(10 ** 4, alpha_for_rate(0.25), (0.5, 2.0),
                                       trials=12, master_seed=9, workers=workers)
            plan = SweepPlan(n=3000, multipliers=(0.5, 2.0), trials=12,
                             master_seed=9)
            return threshold_sweep(plan, workers=workers)

        one, two = sweep(1), sweep(2)
        assert one == two
        for rec in one + two:
            assert set(rec.timings) == {"sample_s", "union_s", "detect_s", "cpu_s"}
            assert all(t >= 0 for t in rec.timings.values())
            assert rec.timings["sample_s"] > 0 and rec.timings["detect_s"] > 0
            assert rec.timings["cpu_s"] > 0
            assert (rec.timings["union_s"] > 0) == blocked
        assert dataclasses.replace(one[0], timings={}) == one[0]

    @pytest.mark.parametrize("p", [0.05, 0.7, 1.0])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_each_phase_sums_over_the_prefix_steps(self, p, blocked, monkeypatch):
        """A clock that ticks once per reading: every prefix step adds one
        tick to sample_s and to detect_s, and one to union_s only when
        there is a blocker."""
        ticks = iter(range(10 ** 9))
        monkeypatch.setattr(randomlab, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(ticks)),
                                            process_time=lambda: 0.0))
        monkeypatch.setattr(randomlab, "_gap_chunk", lambda size, q: 1)
        steps = []
        advance = randomlab._GapWalk.advance
        monkeypatch.setattr(randomlab._GapWalk, "advance",
                            lambda walk, target: steps.append(target) or advance(walk, target))
        n = 3000
        blocker = perturbed_blocker_set(n, alpha_for_rate(0.25)) if blocked else None
        hits, *spent, cpu = randomlab._chunk((blocker, n, p,
                                              [derive_seed(4, t) for t in range(6)]))
        assert len(steps) >= 6  # one step per trial at p = 1, one per gap below
        assert spent == [len(steps), len(steps) if blocked else 0.0, len(steps)]


class TestSeedOutputContract:
    """Exact success counts for fixed master seeds, for one and two workers.

    Trial t of multiplier index ci draws from derive_seed(master, ci, t);
    these counts pin stream 0.2.0 (sets drawn by geometric gaps), and any
    change to them is a change of the random stream.  Stream 0.1.x (one
    uniform per element) gave [4, 14, 34, 40] and [8, 19, 24, 24].
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_threshold_successes(self, workers):
        plan = SweepPlan(n=3000, multipliers=(0.5, 1.0, 2.0, 4.0), trials=40,
                         master_seed=2024)
        records = threshold_sweep(plan, workers=workers)
        assert [r.successes for r in records] == [0, 10, 32, 40]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_perturbed_successes(self, workers):
        records = perturbed_sweep(10 ** 4, alpha_for_rate(0.25),
                                  (0.5, 1.0, 2.0, 4.0), trials=24,
                                  master_seed=77, workers=workers)
        assert [r.successes for r in records] == [10, 19, 24, 24]


class TestWorkerPool:
    """One process pool per process: made at the first pooled sweep,
    reused while the worker count stays, replaced when it changes or
    breaks, shut down at exit."""

    PLAN = SweepPlan(n=3000, multipliers=(0.5, 2.0), trials=12, master_seed=9)

    @pytest.fixture(autouse=True)
    def no_pool_around(self):
        randomlab._close_pool()
        yield
        randomlab._close_pool()

    @staticmethod
    def _pids():
        return set(randomlab._POOL[1]._processes)

    @staticmethod
    def _alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    def test_exit_joins_the_workers_quietly(self):
        code = ("from prodschur import randomlab\n"
                "from prodschur.randomlab import SweepPlan, threshold_sweep\n"
                "plan = SweepPlan(n=3000, multipliers=(0.5, 2.0), trials=12, master_seed=9)\n"
                "threshold_sweep(plan, workers=2)\n"
                "print(*randomlab._POOL[1]._processes)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(randomlab.__file__).parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        assert not any(self._alive(pid) for pid in pids)

    def test_reused_while_the_count_stays(self):
        first = threshold_sweep(self.PLAN, workers=2)
        pool, pids = randomlab._POOL[1], self._pids()
        assert threshold_sweep(self.PLAN, workers=2) == first
        assert randomlab._POOL[1] is pool and self._pids() == pids
        assert threshold_sweep(self.PLAN, workers=3) == first
        assert randomlab._POOL[1] is not pool and len(self._pids()) == 3
        assert not any(self._alive(pid) for pid in pids)

    def test_broken_pool_is_replaced(self):
        want = threshold_sweep(self.PLAN, workers=1)
        assert threshold_sweep(self.PLAN, workers=2) == want
        killed = min(self._pids())
        os.kill(killed, signal.SIGKILL)
        # let it die first: a worker still running could finish every chunk
        # before the pool sees the loss, leaving it to break the sweep after
        assert wait([randomlab._POOL[1]._processes[killed].sentinel], timeout=60)
        try:
            assert threshold_sweep(self.PLAN, workers=2) == want
        except BrokenProcessPool:
            assert randomlab._POOL is None
        assert threshold_sweep(self.PLAN, workers=2) == want
        assert killed not in self._pids()

    def test_seed_contract_on_a_reused_pool(self):
        n, alpha = 10 ** 4, alpha_for_rate(0.25)

        def perturbed(workers):
            return perturbed_sweep(n, alpha, (0.5, 2.0), trials=12, master_seed=9,
                                   workers=workers)

        first = threshold_sweep(self.PLAN, workers=2)
        pool = randomlab._POOL[1]
        assert perturbed(2) == perturbed(1)
        assert threshold_sweep(self.PLAN, workers=2) == first
        assert first == threshold_sweep(self.PLAN, workers=1)
        assert randomlab._POOL[1] is pool


class TestDegreeStructure:
    def test_hand_enumerated_example(self):
        C = IntegerSubset.from_members(Interval(2, 16), [12])
        avg, X, x_size = degree_structure(C, 16, 0.0)
        assert avg == pytest.approx(2 / 3)
        assert list(X.members()) == [3, 4]
        assert x_size == 2

    def test_empty_input(self):
        C = IntegerSubset.from_members(Interval(2, 100), [])
        avg, X, x_size = degree_structure(C, 100, 0.1)
        assert avg == 0.0 and x_size == 0

    def test_high_degree_inequality_random(self, rng):
        for _ in range(25):
            n = rng.randint(20, 400)
            members = rng.sample(range(2, n + 1), rng.randint(0, n // 3))
            C = IntegerSubset.from_members(Interval(2, n), members)
            beta = rng.uniform(0.0, 0.16)
            avg, _, x_size = degree_structure(C, n, beta)
            assert x_size >= avg / 2  # proved inequality, checked on every call

    def test_degrees_against_naive_graph(self, rng):
        n = 60
        members = rng.sample(range(2, n + 1), 20)
        C = IntegerSubset.from_members(Interval(2, n), members)
        beta = 0.1
        vmax = math.floor(n ** (0.5 + beta))
        mem = set(members)
        edges = {frozenset((a, b)) for a in range(2, vmax + 1)
                 for b in range(2, vmax + 1)
                 if a != b and a * b in mem}
        avg, _, _ = degree_structure(C, n, beta)
        assert avg == pytest.approx(2 * len(edges) / (vmax - 1))


class TestFirstMomentAndCollisions:
    def test_first_moment_tiny_at_small_multiplier(self):
        """Mean exact triple count at p = 0.1 (n ln n)^(-1/3) stays near 0."""
        n = 10 ** 6
        p = 0.1 * (n * math.log(n)) ** (-1 / 3)
        total = 0
        for t in range(20):
            A = sample_random_subset(n, p, derive_seed(42, 1, t))
            cols = A.dense()[2:].astype(np.int8)
            total += count_monochromatic(Colouring(A, 1, cols),
                                         TripleSystem.PRODUCT)
        assert total / 20 <= 0.01

    def test_representation_collisions_rare_in_split_copy(self):
        """Fraction of seeds with a thrice-represented product, at the
        density of one two-copy exposure.

        The asymptotic statement ('at most 2 representatives per product,
        with high probability') is still polylog-burdened at n = 1e6: the
        measured fraction is 0.16, decreasing in n.  Band frozen at 0.25
        after calibration.
        """
        n = 10 ** 6
        p = math.log(n) * (n * math.log(n)) ** (-1 / 3)
        p1 = 1 - math.sqrt(1 - p)  # (1 - p1)^2 = 1 - p: one of two exposures
        r = math.isqrt(n)
        hits = 0
        seeds = 50
        for t in range(seeds):
            A = sample_random_subset(n, p1, derive_seed(123, 7, t))
            dense = A.dense()
            small = np.flatnonzero(dense[:r + 1])
            small = small[small >= 2]
            reps = np.zeros(n + 1, dtype=np.int16)
            for a in small:
                a = int(a)
                bs = np.flatnonzero(dense[a:n // a + 1]) + a
                np.add.at(reps, a * bs, 1)
            hits += int(reps.max()) >= 3
        assert hits / seeds <= 0.25
