import functools
import hashlib
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodschur.core import (Colouring, IntegerSubset, Interval, ResourceGuardError,
                            TripleSystem)
from prodschur.counting import has_mono_triple
from prodschur.solver import (
    SearchConfig,
    SearchInconclusive,
    exists_good_colouring,
    is_k_schur,
    max_non_schur_subset,
    schur_bounds,
    schur_number,
    _Run,
    _goal_search,
)
import prodschur
from prodschur import counting
from conftest import (
    brute_exists_good,
    brute_least_good,
    brute_least_good_pruned,
    brute_max_good_subset,
    brute_mono_triples,
)

SUM = TripleSystem.SUM
DSUM = TripleSystem.DOUBLE_SUM
PROD = TripleSystem.PRODUCT


def _goal(members, k, system, least=False):
    """`_goal_search` on the ground of the increasing `members`, with the
    colouring it finds read back as the members' 0-based colours."""
    members = list(members)
    ground = IntegerSubset.from_members(Interval(members[0], members[-1]), members)
    run = _goal_search(ground, k, system, least=least)
    if run.found is None:
        return run
    return run._replace(found=(run.found._col[ground._ind] - 1).tolist())


def _one_class(ground, k, *args, **kwargs):
    """A broken search: every member in colour 1, reported as good."""
    return _Run(Colouring(ground, k, ground._ind), True, 1, 0, 0, ground.cardinality())


class TestExistsGoodColouring:
    def test_interval_4_two_colours(self):
        w = exists_good_colouring(IntegerSubset.full(1, 4), 2, SUM)
        assert w is not None
        assert has_mono_triple(w, SUM) is None

    def test_interval_5_two_colours_absent(self):
        assert exists_good_colouring(IntegerSubset.full(1, 5), 2, SUM) is None

    def test_interval_4_double_sum(self):
        w = exists_good_colouring(IntegerSubset.full(1, 4), 2, DSUM)
        assert w is not None
        assert has_mono_triple(w, DSUM) is None

    @pytest.mark.parametrize("n", range(1, 13))
    def test_completeness_oracle_k2(self, n):
        """Backtracking equals naive enumeration of all 2^n colourings."""
        got = exists_good_colouring(IntegerSubset.full(1, n), 2, SUM)
        expected = brute_exists_good(range(1, n + 1), 2, SUM)
        assert (got is not None) == expected
        if got is not None:
            assert has_mono_triple(got, SUM) is None

    def test_completeness_oracle_sparse_grounds(self, rng):
        for _ in range(40):
            size = rng.randint(1, 10)
            members = sorted(rng.sample(range(1, 16), size))
            ground = IntegerSubset.from_members(Interval(1, 15), members)
            for system in (SUM, DSUM, PROD):
                got = exists_good_colouring(ground, 2, system)
                expected = brute_exists_good(members, 2, system)
                assert (got is not None) == expected
                if got is not None:
                    assert has_mono_triple(got, system) is None

    def test_node_limit_is_loud(self):
        with pytest.raises(SearchInconclusive) as info:
            exists_good_colouring(IntegerSubset.full(1, 13), 3, SUM, node_limit=5)
        assert info.value.nodes_explored == 5
        assert 0 < info.value.deepest < 13
        assert "members coloured at one node" in str(info.value)
        # the product goal search on [4, 1000] needs 408 nodes
        with pytest.raises(SearchInconclusive) as info:
            exists_good_colouring(IntegerSubset.full(4, 1000), 2, PROD, node_limit=5)
        assert info.value.nodes_explored == 5
        assert 0 < info.value.deepest < 997

    @pytest.mark.parametrize("system,lo", [(SUM, 1), (DSUM, 1), (PROD, 2)])
    def test_colouring_is_rechecked(self, system, lo, monkeypatch):
        """A search that returned a colouring with a monochromatic triple
        (1 + 1 = 2, or 2 * 2 = 4) would be an internal error, not a result."""
        monkeypatch.setattr(prodschur.solver, "_goal_search", _one_class)
        ground = IntegerSubset.full(lo, 4)
        with pytest.raises(RuntimeError, match="internal error"):
            exists_good_colouring(ground, 2, system)
        with pytest.raises(RuntimeError, match="internal error"):
            is_k_schur(ground, 2, system)

    @pytest.mark.parametrize("system", [SUM, DSUM, PROD])
    def test_long_good_ground(self, system):
        """[10^4, 2 * 10^4 - 1] holds no triple of any system (2 lo > hi and
        lo^2 > hi): one node colours its lowest member and settles the
        other 9 999 into the one class, and the colouring read back from
        the class mask is all ones."""
        ground = IntegerSubset.full(10 ** 4, 2 * 10 ** 4 - 1)
        assert exists_good_colouring(ground, 1, system) == \
            Colouring(ground, 1, [1] * 10 ** 4)
        run = _goal(range(10 ** 4, 2 * 10 ** 4), 1, system)
        assert (run.found, run.nodes, run.forced) == ([0] * 10 ** 4, 1, 9999)

    @pytest.mark.parametrize("system", [SUM, DSUM, PROD])
    def test_empty_ground(self, system):
        """A ground with no member has one colouring, the empty one, and it
        is good, as enumeration says; the search explores no node.  On
        [1, 5] a product ground lacks 1, so 1 * 1 = 1 does not refute it."""
        assert brute_exists_good([], 2, system)
        for lo in (1, 2):
            ground = IntegerSubset.from_members(Interval(lo, 5), [])
            for k in (1, 2, 127):
                empty = Colouring(ground, k, [0] * (6 - lo))
                assert exists_good_colouring(ground, k, system) == empty
                assert is_k_schur(ground, k, system) is False
                assert _goal_search(ground, k, system) == _Run(empty, True, 0, 0, 0, 0)

    def test_product_ground_with_one_is_never_colourable(self):
        """1 * 1 = 1 closes in every class, so the goal search refutes such a
        ground at once, under either branch rule, and enumeration agrees."""
        for members in ([1], [1, 3], [1, 2, 3, 5]):
            ground = IntegerSubset.from_members(Interval(1, members[-1]), members)
            for k in (1, 2, 3):
                for least in (False, True):
                    assert _goal(members, k, PROD, least=least) == \
                        _Run(None, True, 0, 0, 0, 0)
                assert exists_good_colouring(ground, k, PROD) is None
                assert not brute_exists_good(members, k, PROD)

    @pytest.mark.parametrize("lo,k,digest", [
        (4, 2, "66585660a15cb091"),
        (2, 3, "93dfc821e67d966b"),
    ])
    def test_long_product_grounds_need_no_recursion(self, lo, k, digest):
        """Grounds far deeper than the default recursion limit of 1000.

        The digest of the 0-based least colouring is the one the recursive
        increasing-order search produced (run with a raised recursion
        limit); the colouring `exists_good_colouring` finds first is
        re-certified by enumeration.
        """
        members = list(range(lo, 1001))
        run = _goal(members, k, PROD, least=True)
        assert run.complete and run.found is not None
        assert hashlib.sha256(bytes(run.found)).hexdigest()[:16] == digest
        ground = IntegerSubset.full(lo, 1000)
        col = exists_good_colouring(ground, k, PROD)
        assert col is not None and col.ground == ground
        colour_of = {m: col.colour_of(m) for m in members}
        assert brute_mono_triples(colour_of, PROD) == []

    def test_negative_node_limit_rejected(self):
        ground = IntegerSubset.full(1, 5)
        with pytest.raises(ValueError, match="node_limit"):
            exists_good_colouring(ground, 2, SUM, node_limit=-1)
        with pytest.raises(ValueError, match="node_limit"):
            is_k_schur(ground, 2, SUM, node_limit=-1)

    def test_zero_node_limit_is_inconclusive_with_no_nodes(self):
        with pytest.raises(SearchInconclusive) as info:
            exists_good_colouring(IntegerSubset.full(1, 5), 2, SUM, node_limit=0)
        assert info.value.nodes_explored == 0
        assert exists_good_colouring(IntegerSubset.full(1, 4), 2, SUM,
                                     node_limit=100) is not None

    def test_powers_of_two_product_mirror_sum_on_exponents(self):
        """2^a * 2^b = 2^(a+b): under either branch rule the product search
        on {2, 4, ..., 2^13} does what the sum search does on [1, 13], node
        for node, and finds the same colouring."""
        powers = [2 ** e for e in range(1, 14)]
        for least in (True, False):
            prod_run = _goal(powers, 3, PROD, least=least)
            sum_run = _goal(list(range(1, 14)), 3, SUM, least=least)
            assert prod_run == sum_run and sum_run.found is not None, least
        ground = IntegerSubset.from_members(Interval(2, powers[-1]), powers)
        col = exists_good_colouring(ground, 3, PROD)
        colour_of = {m: col.colour_of(m) for m in powers}
        assert list(colour_of.values()) == [c + 1 for c in sum_run.found]
        assert brute_mono_triples(colour_of, PROD) == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the address-space size from /proc")
    def test_sparse_ground_with_large_top_member_stays_small(self):
        """Bit words grow with the top member, never a table over all values.

        {2, 4, ..., 2^20} has 20 members; a 1 << v table for every v up to
        2^20 would need about 73 GB.  [1, 10^5] under sums is refuted near
        its bottom; a reversed bit and a half bit built up front for every
        member would need about 0.9 GB.  [10^13, 10^13 + 3] has a good
        2-colouring under every system (2 * lo > hi and lo^2 > hi); bits
        numbered by value would need over a terabyte.  The child runs with
        its address space capped at 512 MB above its size after import.
        """
        script = inspect.getsource(_goal) + textwrap.dedent("""
            import json, os, resource
            from prodschur.core import IntegerSubset, Interval, TripleSystem
            from prodschur.solver import _goal_search, exists_good_colouring, is_k_schur
            with open("/proc/self/statm") as f:
                size = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (size + (512 << 20), hard))
            powers = [2 ** e for e in range(1, 21)]
            ground = IntegerSubset.from_members(Interval(2, powers[-1]), powers)
            out = {"none": exists_good_colouring(ground, 2, TripleSystem.PRODUCT) is None,
                   "long": is_k_schur(IntegerSubset.full(1, 10 ** 5), 3, TripleSystem.SUM)}
            high = IntegerSubset.full(10 ** 13, 10 ** 13 + 3)
            for system in TripleSystem:
                col = exists_good_colouring(high, 2, system)
                out[system.value] = [col.ground == high, is_k_schur(high, 2, system)]
            for k in (2, 3):
                for least in (False, True):
                    prod = _goal(powers, k, TripleSystem.PRODUCT, least=least)
                    plain = _goal(list(range(1, 21)), k, TripleSystem.SUM,
                                  least=least)
                    out[f"{k}{least}"] = prod == plain
            print(json.dumps(out))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(prodschur.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout)
        assert out == {"none": True, "long": True, "2False": True, "2True": True,
                       "3False": True, "3True": True, "sum": [True, False],
                       "double-sum": [True, False], "product": [True, False]}


@st.composite
def gappy_grounds(draw, max_size=10):
    """Members of [lo, lo + 24] on [lo, top member], or none on [lo, lo]."""
    lo = draw(st.integers(1, 6))
    members = sorted(draw(st.sets(st.integers(lo, lo + 24), max_size=max_size)))
    return IntegerSubset.from_members(Interval(lo, members[-1] if members else lo),
                                      members)


@st.composite
def grounds_and_k(draw):
    """k <= 3 on up to 10 members, or k = 4 on up to 7 (4^7 colourings)."""
    k = draw(st.integers(1, 4))
    return draw(gappy_grounds(max_size=10 if k <= 3 else 7)), k


@functools.lru_cache(maxsize=None)
def brute_prefix_good(p, k, system):
    """Whether [1, p] has a good k-colouring, by enumeration (cached)."""
    return brute_exists_good(range(1, p + 1), k, system)


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(grounds_and_k(), st.sampled_from(list(TripleSystem)))
    def test_exists_good_colouring_matches_enumeration(self, ground_k, system):
        ground, k = ground_k
        members = [int(m) for m in ground.members()]
        got = exists_good_colouring(ground, k, system)
        assert (got is not None) == brute_exists_good(members, k, system)
        if got is not None:
            assert got.ground == ground and got.k == k
            assert brute_mono_triples({m: got.colour_of(m) for m in members},
                                      system) == []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12),
           st.sampled_from([SUM, DSUM]))
    def test_lower_bound_matches_enumerated_prefix(self, k, m, system):
        """The ascent under a ceiling m stops at exactly the longest prefix
        of [1, m] that enumeration can colour; a conclusive witness is the
        least good colouring of that prefix."""
        prefix = 0
        while prefix < m and brute_prefix_good(prefix + 1, k, system):
            prefix += 1
        out = schur_number(k, system, SearchConfig(k=k, max_n=m))
        assert out.lower_bound == prefix + 1
        assert out.conclusive == (prefix < m)
        colour_of = {i: out.witness.colour_of(i) for i in range(1, prefix + 1)}
        assert brute_mono_triples(colour_of, system) == []
        if out.conclusive:
            assert colour_of == brute_least_good(range(1, prefix + 1), k, system)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda k: st.tuples(st.just(k), gappy_grounds(max_size=10 if k < 3 else 8))),
        st.sampled_from([SUM, DSUM, PROD]))
    def test_least_goal_search_matches_enumeration(self, k_ground, system):
        """Branching on the lowest free member finds exactly the least good
        colouring that enumeration finds, or none when it finds none."""
        k, ground = k_ground
        members = ground.members().tolist()
        run = _goal_search(ground, k, system, least=True)
        assert run.complete
        want = brute_least_good(members, k, system)
        got = None if run.found is None else {m: run.found.colour_of(m) for m in members}
        assert got == want


class TestPinnedSearchOrder:
    """Node, prune and forced counts of `schur_number` and of the goal
    search, and the witnesses and found colourings they must share with
    the increasing-order searches before them.

    The counts were recorded from these searches; values, witnesses and
    found colourings keep the pins recorded before them.
    """

    S3_WITNESS = [1, 2, 2, 1, 3, 3, 1, 3, 3, 1, 2, 2, 1]

    @pytest.mark.parametrize("system,nodes,prunes,forced", [
        (SUM, 123, 28, 138), (DSUM, 82, 9, 84),
    ], ids=["sum", "double-sum"])
    def test_schur_number_k3(self, system, nodes, prunes, forced):
        out = schur_number(3, system)
        assert out.value == 14
        assert (out.nodes_explored, out.prunes, out.forced) == (nodes, prunes, forced)
        assert out.witness.dense()[1:].tolist() == self.S3_WITNESS

    @pytest.mark.parametrize("members,k,system,nodes,deepest,prunes", [
        (range(2, 33), 2, PROD, 1, 0, 1),
        (range(2, 41), 2, PROD, 1, 0, 1),
        (range(4, 1001), 2, PROD, 408, 997, 0),
        (range(2, 1001), 3, PROD, 923, 999, 0),
        (range(1, 14), 3, SUM, 20, 13, 9),
        (range(1, 14), 3, DSUM, 5, 13, 0),
    ])
    def test_goal_search(self, members, k, system, nodes, deepest, prunes):
        """Products on the default rule, which `exists_good_colouring` and
        `is_k_schur` run; sums on the lowest-free-member rule."""
        run = _goal(members, k, system, least=system is not PROD)
        assert run.complete
        assert (run.nodes, run.deepest, run.prunes) == (nodes, deepest, prunes)
        assert (run.found is not None) == (deepest == len(members))

    GAPPY = [7, 10, 11, 12, 13, 15, 16, 20, 21, 22, 29, 30, 32, 33, 34, 35, 37,
             42, 43, 44, 45, 51, 55, 61, 65]

    @pytest.mark.parametrize("members,k,system,least,found,counters", [
        (range(3, 41), 3, SUM, False, "00011111100022222200022222000111111000",
         (14, 2, 33, 38)),
        (range(3, 41), 3, SUM, True, "00011111100022222200022222000111111000",
         (85, 38, 242, 38)),
        (range(3, 56), 3, DSUM, False, None, (46, 23, 202, 19)),
        (range(3, 56), 3, DSUM, True, None, (485, 243, 2090, 27)),
        (GAPPY, 3, DSUM, False, "0000210221101111211200220", (23, 4, 36, 25)),
        (range(12, 40), 2, DSUM, True, "0" * 12 + "1" * 16, (12, 0, 16, 28)),
        (range(40, 120), 2, SUM, False, "0" * 40 + "1" * 40, (40, 0, 40, 80)),
        (range(4, 50), 3, PROD, False, "0000000000001000100011001010100110001010110011",
         (46, 0, 0, 46)),
        (range(3, 261), 2, PROD, True, None, (1, 1, 4, 0)),
    ])
    def test_goal_search_offset_grounds(self, members, k, system, least, found,
                                        counters):
        """Whole runs on grounds whose least member is above 1, where bit i
        of every word stands for the carrier entry lo + i."""
        run = _goal(members, k, system, least=least)
        assert run == _Run(found and [int(c) for c in found], True, *counters)

    def test_goal_search_colouring(self):
        """The most-constrained-first search finds the same colouring of
        [1, 13] as the increasing-order one, re-certified by enumeration."""
        col = exists_good_colouring(IntegerSubset.full(1, 13), 3, SUM)
        assert col.dense()[1:].tolist() == self.S3_WITNESS
        assert brute_mono_triples(dict(enumerate(self.S3_WITNESS, 1)), SUM) == []


class TestGoalSearch:
    """The sum systems' goal search: most constrained member first, ties to
    the members that caused the most prunes, forced members settled in
    place."""

    @pytest.mark.parametrize("n,k,system,nodes,prunes,forced,good", [
        (41, 4, DSUM, 3647, 1859, 10706, False),
        (44, 4, SUM, 2807, 1408, 7825, True),
        (14, 3, SUM, 32, 16, 66, False),
        (14, 3, DSUM, 18, 9, 44, False),
        (13, 3, SUM, 9, 2, 13, True),
    ], ids=["41-4-double-sum", "44-4-sum", "14-3-sum", "14-3-double-sum", "13-3-sum"])
    def test_pinned_counts(self, n, k, system, nodes, prunes, forced, good):
        """[1, 14] has no good 3-colouring under either sum system (S(3) =
        S'(3) = 14).  Coloured out of order, 6 can join a class before 3,
        and a search that did not then bar 6's half from that class
        returned a colouring of [1, 14] with 3 + 3 = 6 in one class."""
        run = _goal(range(1, n + 1), k, system)
        assert run.complete
        assert (run.nodes, run.prunes, run.forced) == (nodes, prunes, forced)
        assert (run.found is not None) == good
        if good:
            colour_of = dict(enumerate(run.found, 1))
            assert brute_mono_triples(colour_of, system) == []

    @pytest.mark.parametrize("system,members,half", [
        (SUM, [2, 3, 4, 5, 8, 10, 13], (5, 5, 10)),
        (DSUM, [1, 3, 4, 7, 9, 12], (4, 4, 9)),
    ])
    def test_halving_is_the_only_obstacle(self, system, members, half):
        """Some 2-colouring of these grounds has `half` (a + a = c, or
        a + a + 1 = c) as its only monochromatic triple, and none has
        none.  The search puts c in a class before a, so it must bar a
        from c's class when c joins it."""
        colourings = (dict(zip(members, assign))
                      for assign in itertools.product((1, 2), repeat=len(members)))
        assert any(brute_mono_triples(col, system) == [half] for col in colourings)
        assert not brute_exists_good(members, 2, system)
        ground = IntegerSubset.from_members(Interval(members[0], members[-1]), members)
        assert exists_good_colouring(ground, 2, system) is None

    def test_default_rule_matches_enumeration(self):
        """Once a node is pruned, the default rule breaks ties by conflict
        weight.  It agrees with enumeration on existence on [1, n] for
        n <= 14 at k = 3 under both sum systems, and on 120 seeded gappy
        grounds (k = 2 on up to 16 members, k = 3 on up to 10, every
        system); each colouring it finds has no monochromatic triple."""
        cases = [(list(range(1, n + 1)), 3, system)
                 for n in range(1, 15) for system in (SUM, DSUM)]
        rng = random.Random(2004)
        for i in range(120):
            k = (2, 3)[i % 2]
            system = (SUM, DSUM, PROD)[i // 2 % 3]
            size = rng.randint(6, 16 if k == 2 else 10)
            lo = rng.randint(1, 4)
            members = sorted(rng.sample(range(lo, lo + 2 * size + rng.randint(0, size)),
                                        size))
            cases.append((members, k, system))
        weighted = 0
        for members, k, system in cases:
            run = _goal(members, k, system)
            assert run.complete
            good = brute_least_good_pruned(members, k, system) is not None
            if len(members) <= 8:   # the pruned walk against plain enumeration
                assert good == brute_exists_good(members, k, system)
            assert (run.found is not None) == good, (members, k, system)
            if good:
                colour_of = dict(zip(members, run.found))
                assert brute_mono_triples(colour_of, system) == [], (members, k, system)
            weighted += run.prunes >= 2
        assert weighted >= 10   # runs whose later ties met conflict weights

    def test_matches_increasing_order_search(self):
        """200 seeded gappy grounds of 15-30 members under the sum systems,
        and 40 seeded product grounds [2, n], too many to enumerate: the
        default rule and the lowest-free-member rule agree on existence,
        every colouring found has no monochromatic triple, and the second
        rule's is never above the first's in lexicographic order."""
        rng = random.Random(1979)
        cases = []
        for i in range(200):
            k = (3, 4)[i % 2]
            system = (SUM, DSUM)[i // 2 % 2]
            size = rng.randint(15, 30)
            lo = rng.randint(1, 2)
            members = sorted(rng.sample(range(lo, lo + size + rng.randint(0, 8)), size))
            cases.append((members, k, system))
        for i in range(40):
            k = (2, 3)[i % 2]
            n = rng.randint(20, 40 if k == 2 else 300)  # [2, 32] is 2-Schur
            cases.append((list(range(2, n + 1)), k, PROD))
        answers = set()
        for members, k, system in cases:
            run = _goal(members, k, system)
            least = _goal(members, k, system, least=True)
            assert run.complete and least.complete
            good = least.found is not None
            assert (run.found is not None) == good, (members, k, system)
            answers.add((system is PROD, k, good))
            if good:
                assert least.found <= run.found, (members, k, system)
                for found in (run.found, least.found):
                    colour_of = dict(zip(members, found))
                    assert brute_mono_triples(colour_of, system) == [], \
                        (members, k, system)
        # (product?, k, good)
        assert {(False, 3, True), (False, 3, False), (False, 4, True),
                (True, 2, True), (True, 2, False), (True, 3, True)} <= answers


class TestSchurNumber:
    def test_k1(self):
        out = schur_number(1, SUM)
        assert out.value == 2 and out.conclusive
        assert out.witness.ground.interval == Interval(1, 1)

    def test_k2(self):
        assert schur_number(2, SUM).value == 5
        assert schur_number(2, DSUM).value == 5

    def test_k3_fast(self):
        out = schur_number(3, SUM)
        assert out.value == 14
        assert out.elapsed < 1.0

    def test_k3_double_sum_equals_sum(self):
        assert schur_number(3, DSUM).value == schur_number(3, SUM).value == 14

    def test_witness_is_rechecked_and_valid(self):
        out = schur_number(3, SUM)
        assert out.witness.ground.interval == Interval(1, 13)
        assert has_mono_triple(out.witness, SUM) is None

    def test_double_sum_witness_is_also_sum_free(self):
        """Double-sum freeness dominates plain sum freeness."""
        w = schur_number(3, DSUM).witness
        assert has_mono_triple(w, SUM) is None

    def test_determinism(self):
        a = schur_number(3, SUM)
        b = schur_number(3, SUM)
        assert a.value == b.value
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness

    def test_monotonicity_of_absence(self):
        # once [n] is uncolourable, so is every larger interval
        for n in (5, 6, 7, 8):
            assert exists_good_colouring(IntegerSubset.full(1, n), 2, SUM) is None

    def test_negative_node_limit_rejected(self):
        with pytest.raises(ValueError, match="node_limit"):
            SearchConfig(k=3, node_limit=-1)

    def test_ns_per_node(self):
        out = schur_number(3, SUM)
        assert out.ns_per_node == pytest.approx(out.elapsed / out.nodes_explored * 1e9)

    def test_node_limit_gives_inconclusive_outcome(self):
        # the README and perfbench expect `schur --k 3 --node-limit 50` to
        # stay inconclusive, so the full search must need more nodes
        assert schur_number(3, SUM).nodes_explored > 50
        out = schur_number(3, SUM, SearchConfig(k=3, node_limit=50))
        assert not out.conclusive
        assert out.value is None
        assert out.nodes_explored == 50
        # the ascent's colouring of [1, 10], the largest prefix it found
        # good within the limit
        assert out.lower_bound == 11
        assert out.witness.dense()[1:].tolist() == [1, 2, 2, 1, 3, 1, 3, 3, 1, 2]
        assert has_mono_triple(out.witness, SUM) is None

    def test_zero_node_limit_explores_nothing(self):
        out = schur_number(3, SUM, SearchConfig(k=3, node_limit=0))
        assert not out.conclusive and out.nodes_explored == 0
        assert out.lower_bound == 1 and out.witness is None

    def test_low_ceiling_gives_inconclusive_with_lower_bound(self):
        out = schur_number(2, SUM, SearchConfig(k=2, max_n=3))
        assert not out.conclusive
        assert out.lower_bound == 4  # [3] is colourable, so the value exceeds 3

    def test_product_rejected(self):
        with pytest.raises(ValueError):
            schur_number(2, PROD)

    def test_config_mismatch_rejected(self):
        with pytest.raises(ValueError):
            schur_number(2, SUM, SearchConfig(k=3))

    def test_witness_is_rechecked(self, monkeypatch):
        """A search that returned a bad witness would be an internal error,
        not a result: 1 + 1 = 2 in one colour."""
        monkeypatch.setattr(prodschur.solver, "_goal_search", _one_class)
        with pytest.raises(RuntimeError, match="internal error"):
            schur_number(2, SUM)

    def test_k5_guarded(self):
        with pytest.raises(ResourceGuardError):
            schur_number(5, SUM)


@pytest.mark.parametrize("k", [0, 128, 200])
def test_colour_count_out_of_range_refused_before_search(k, monkeypatch):
    """Colour counts run over 1..127, the range of the int8 colour array.
    Every query refuses any other k before a search: k = 128 ran the
    whole search before `Colouring` refused it, and k = 200 overflowed
    the colour array with an uncaught OverflowError."""
    def search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr(prodschur.solver, "_goal_search", search)
    monkeypatch.setattr(counting, "_mono_scan", search)
    range_error = pytest.raises(ValueError, match=rf"k={k} out of supported range 1\.\.127")
    for system in (SUM, DSUM, PROD):
        lo = 2 if system is PROD else 1
        with range_error:
            exists_good_colouring(IntegerSubset.full(lo, 3), k, system)
        with range_error:
            is_k_schur(IntegerSubset.full(lo, 3), k, system)
        with range_error:
            max_non_schur_subset(5, k, system)
        with range_error:
            counting.min_monochromatic_bruteforce(5, k, system)
    for system in (SUM, DSUM):
        with range_error:
            schur_number(k, system)
        with range_error:
            SearchConfig(k=k, max_n=3)


class TestSchurBounds:
    @pytest.mark.parametrize("k,expected", [
        (1, (2, 2)), (2, (5, 5)), (3, (14, 16)), (4, (41, 65)),
    ])
    def test_exact_small(self, k, expected):
        assert schur_bounds(k) == expected

    def test_matches_float_floor_midrange(self):
        import math
        for k in range(1, 15):
            assert schur_bounds(k)[1] == math.floor(math.factorial(k) * math.e)

    def test_large_k_no_overflow(self):
        lower, upper = schur_bounds(40)
        assert lower == (3 ** 40 + 1) // 2
        assert upper > lower


class TestIsKSchur:
    def test_examples(self):
        assert is_k_schur(IntegerSubset.full(1, 5), 2, SUM) is True
        assert is_k_schur(IntegerSubset.full(1, 4), 2, SUM) is False
        assert is_k_schur(IntegerSubset.full(2, 3), 1, PROD) is False

    def test_inconclusive_propagates(self):
        with pytest.raises(SearchInconclusive):
            is_k_schur(IntegerSubset.full(1, 13), 3, SUM, node_limit=5)


class TestMaxNonSchurSubset:
    def test_one_colour_sum(self):
        size, subset, colouring = max_non_schur_subset(6, 1, SUM)
        assert size == 3  # ceil(6/2)
        assert subset.cardinality() == 3
        assert has_mono_triple(colouring, SUM) is None

    def test_two_colour_sum_matches_mod5_size(self):
        size, _, colouring = max_non_schur_subset(10, 2, SUM)
        assert size == 8  # >= ceil(4n/5) = 8 by construction; equal by search
        assert has_mono_triple(colouring, SUM) is None

    def test_one_colour_product(self):
        size, subset, colouring = max_non_schur_subset(9, 1, PROD)
        assert size == 6  # frozen from the exhaustive 2^8 oracle
        assert subset.interval.lo == 2
        assert has_mono_triple(colouring, PROD) is None

    def test_tie_break_deterministic(self):
        a = max_non_schur_subset(9, 1, PROD)
        b = max_non_schur_subset(9, 1, PROD)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]

    def test_guard(self, monkeypatch):
        """The branch-and-bound's member cap and node budget refuse, as they
        do for the exact minimum."""
        with pytest.raises(ResourceGuardError, match="members"):
            max_non_schur_subset(counting._MONO_MAX_MEMBERS + 1, 1, SUM)
        with pytest.raises(ResourceGuardError, match="members"):
            max_non_schur_subset(counting._MONO_MAX_MEMBERS + 2, 2, PROD)
        for system in (SUM, DSUM, PROD):
            with pytest.raises(ResourceGuardError, match="members"):
                max_non_schur_subset(10 ** 12, 2, system)
        monkeypatch.setattr(counting, "_MONO_NODE_BUDGET", 10 ** 4)
        with pytest.raises(ResourceGuardError, match="node budget"):
            max_non_schur_subset(40, 2, SUM)

    def test_past_24_members(self):
        """30 members, beyond the old subset enumeration: ceil(4n/5)."""
        size, subset, colouring = max_non_schur_subset(30, 2, SUM)
        assert size == 24 == subset.cardinality()
        colour_of = {m: colouring.colour_of(m) for m in subset.members().tolist()}
        assert brute_mono_triples(colour_of, SUM) == []

    @pytest.mark.parametrize("k,most", [(1, 12), (2, 10), (3, 9)])
    @pytest.mark.parametrize("system", [SUM, DSUM, PROD])
    def test_matches_oracle(self, system, k, most):
        """Size, subset and colouring against the library-free oracle: the
        least colour sequence, "left out" after every colour."""
        lo = 2 if system is PROD else 1
        for n in range(lo, lo + most):
            want_size, want = brute_max_good_subset(range(lo, n + 1), k, system)
            size, subset, colouring = max_non_schur_subset(n, k, system)
            assert size == want_size, (n, k, system)
            assert subset.members().tolist() == sorted(want), (n, k, system)
            assert {m: colouring.colour_of(m) for m in want} == want, (n, k, system)

    @pytest.mark.parametrize("n,k,system,size", [
        (5, 2, SUM, 4), (6, 2, SUM, 5), (7, 2, SUM, 6), (10, 2, SUM, 8),
        (11, 2, SUM, 9), (15, 2, SUM, 12), (14, 3, SUM, 13), (15, 3, SUM, 14),
        (16, 3, SUM, 15), (17, 3, SUM, 16), (18, 3, SUM, 17)])
    def test_witnesses_that_moved_with_the_tie_break(self, n, k, system, size):
        """The cases whose witness changed when the least member tuple gave
        way to the least colour sequence: sizes as before, re-certified."""
        got, subset, colouring = max_non_schur_subset(n, k, system)
        assert got == size
        colour_of = {m: colouring.colour_of(m) for m in subset.members().tolist()}
        assert len(colour_of) == size
        assert brute_mono_triples(colour_of, system) == []

    def test_witness_is_rechecked(self, monkeypatch):
        """A kernel that returned a bad colouring would be an internal
        error, not a result."""
        def kernel(n, k, system, leave_out):
            return 0, Colouring(IntegerSubset.full(1, n), k, [1] * n)

        monkeypatch.setattr(prodschur.solver, "_branch_and_bound", kernel)
        with pytest.raises(RuntimeError, match="internal error"):
            max_non_schur_subset(5, 2, SUM)

    @pytest.mark.parametrize("n,system,members,dense", [
        (12, SUM, [1, 2, 3, 4, 6, 7, 8, 9, 11, 12],
         [0, 1, 2, 2, 1, 0, 1, 2, 2, 1, 0, 1, 2]),
        (16, PROD, list(range(2, 17)),
         [0, 0, 1, 1, 2, 1, 2, 1, 2, 2, 2, 1, 1, 1, 2, 2, 1]),
    ])
    def test_pinned_winner(self, n, system, members, dense):
        """Subset and colouring recorded before the search ran on bare tuples."""
        size, subset, colouring = max_non_schur_subset(n, 2, system)
        assert size == len(members)
        assert subset.members().tolist() == members
        assert colouring.ground == subset and colouring.k == 2
        assert colouring.dense(n).tolist() == dense

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            max_non_schur_subset(6, 0, SUM)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("system,lo", [(SUM, 1), (DSUM, 1), (PROD, 2)])
    def test_n_below_the_ground_rejected(self, system, lo, k):
        with pytest.raises(ValueError, match="n must be >= "):
            max_non_schur_subset(lo - 1, k, system)
