import ast
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodschur
from prodschur import cli
from prodschur.constructions import (
    _double_sum_base,
    eleven_interval_colouring,
    mod5_colouring,
    perturbed_blocker_set,
    product_free_colouring,
    verify_colouring_free,
)
from prodschur.core import (
    Colouring,
    ExperimentRecord,
    IntegerSubset,
    Interval,
    TripleSystem,
    UsageError,
    _mono_rows,
)
from prodschur.counting import (
    count_monochromatic,
    has_mono_triple,
    min_monochromatic_bruteforce,
    supersaturation_count,
)
from prodschur.randomlab import contains_product_triple, sample_random_subset
from prodschur.solver import (
    _goal_search,
    exists_good_colouring,
    max_non_schur_subset,
    schur_number,
)
from conftest import (
    brute_contains_product,
    brute_first_mono,
    brute_mono_triples,
    class_map,
    completions,
)

SUM = TripleSystem.SUM
DSUM = TripleSystem.DOUBLE_SUM
PROD = TripleSystem.PRODUCT


class TestInterval:
    def test_basic(self):
        iv = Interval(2, 10)
        assert len(iv) == 9
        assert 2 in iv and 10 in iv and 1 not in iv and 11 not in iv

    @pytest.mark.parametrize("lo,hi", [(0, 5), (5, 4), (-1, 3)])
    def test_invalid(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)


class TestIntegerSubset:
    def test_membership_and_cardinality(self):
        A = IntegerSubset.from_members(Interval(2, 12), [2, 5, 12])
        assert 5 in A and 6 not in A and 1 not in A and 13 not in A
        assert A.cardinality() == 3
        assert list(A.members()) == [2, 5, 12]

    def test_full(self):
        A = IntegerSubset.full(1, 6)
        assert A.cardinality() == 6

    def test_member_outside_interval(self):
        with pytest.raises(ValueError):
            IntegerSubset.from_members(Interval(2, 5), [6])
        with pytest.raises(ValueError, match="member 1 "):
            IntegerSubset.from_members(Interval(2, 5), [3, 1])

    def test_from_members_any_iterable(self):
        iv = Interval(3, 9)
        want = IntegerSubset.from_members(iv, [3, 4, 9])
        assert IntegerSubset.from_members(iv, (m for m in (9, 4, 3, 4))) == want
        assert IntegerSubset.from_members(iv, np.array([4, 9, 3])) == want
        assert IntegerSubset.from_members(iv, {3: 0, 4: 0, 9: 0}.keys()) == want
        assert IntegerSubset.from_members(iv, []).cardinality() == 0

    def test_dense_absolute_indexing(self):
        A = IntegerSubset.from_members(Interval(3, 8), [3, 7])
        d = A.dense()
        assert d[3] and d[7] and not d[4] and not d[0]
        assert len(d) == 9
        assert len(A.dense(20)) == 21

    def test_union(self):
        A = IntegerSubset.from_members(Interval(2, 6), [2, 3])
        B = IntegerSubset.from_members(Interval(4, 9), [8])
        U = A.union(B)
        assert U.interval == Interval(2, 9)
        assert list(U.members()) == [2, 3, 8]

    def test_immutable(self):
        A = IntegerSubset.full(1, 4)
        with pytest.raises(ValueError):
            A._ind[0] = False

    def test_handed_in_arrays_are_copied_built_ones_adopted_read_only(self):
        iv = Interval(2, 9)
        arr = np.zeros(len(iv), dtype=bool)
        arr[[0, 3]] = True
        A = IntegerSubset(iv, arr)
        dense = np.zeros(10, dtype=bool)
        dense[[2, 5]] = True
        D = IntegerSubset.from_dense(iv, dense)
        arr[:] = True
        dense[:] = True
        assert A.members().tolist() == D.members().tolist() == [2, 5]
        assert arr.flags.writeable and dense.flags.writeable
        sampled = sample_random_subset(100, 0.3, 4)
        unioned = sampled.union(A)
        for S in (A, D, sampled, unioned, IntegerSubset.full(3, 7),
                  IntegerSubset.from_members(iv, [4])):
            assert not S._ind.flags.writeable
            with pytest.raises(ValueError):
                S._ind[0] = True
        # colourings: the same rule, and an unpickled copy is read-only too
        cols = np.array([1, 0, 0, 2, 0, 0, 0, 0], dtype=np.int8)
        colour_of = {2: 1, 5: 2}
        C, M = Colouring(A, 2, cols), Colouring.from_map(A, 2, colour_of)
        cols[:] = 1
        colour_of[2] = 2
        assert C.dense().tolist() == M.dense().tolist() == [0, 0, 1, 0, 0, 2, 0, 0, 0, 0]
        assert cols.flags.writeable
        built = [C, M, mod5_colouring(20)[1], eleven_interval_colouring(11),
                 product_free_colouring(2, 100), _double_sum_base(2),
                 cli.colouring_from_text("# interval 2 9 2\n2 1\n5 2\n"),
                 min_monochromatic_bruteforce(6, 2, SUM)[1],
                 min_monochromatic_bruteforce(6, 1, SUM)[1],
                 max_non_schur_subset(6, 2, SUM)[2], exists_good_colouring(A, 2, SUM)]
        for c in built + [pickle.loads(pickle.dumps(c)) for c in built]:
            assert not c._col.flags.writeable
            with pytest.raises(ValueError):
                c._col[0] = 1
        for c in built:
            assert pickle.loads(pickle.dumps(c)) == c


@st.composite
def interval_pairs(draw):
    """Two intervals in [1, 90] that overlap, nest or are disjoint, in either order."""
    lo = draw(st.integers(1, 30))
    hi = draw(st.integers(lo, lo + 30))
    layout = draw(st.sampled_from(["overlapping", "nested", "disjoint"]))
    if layout == "nested":
        lo2 = draw(st.integers(lo, hi))
        hi2 = draw(st.integers(lo2, hi))
    elif layout == "overlapping":
        lo2 = draw(st.integers(lo, hi))
        hi2 = draw(st.integers(hi, hi + 30))
    else:
        lo2 = draw(st.integers(hi + 1, hi + 30))
        hi2 = draw(st.integers(lo2, lo2 + 30))
    pair = [Interval(lo, hi), Interval(lo2, hi2)]
    return pair if draw(st.booleans()) else pair[::-1]


class TestAdoptedIndicatorAgainstOracles:
    """The in-place readers of an indicator against absolute arrays and oracles."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(TripleSystem)), st.integers(1, 40), st.data())
    def test_offset_rows_match_absolute_rows(self, system, lo, data):
        hi = data.draw(st.integers(lo, 200), label="hi")
        k = data.draw(st.integers(1, 3), label="k")
        carried = data.draw(st.lists(st.integers(0, k), min_size=hi - lo + 1,
                                     max_size=hi - lo + 1), label="colours")
        col = np.zeros(hi + 1, dtype=np.int8)
        col[lo:] = carried

        def rows(*args):
            return [(a, b, shift, mask.tolist())
                    for a, b, shift, mask in _mono_rows(*args)]

        assert rows(col[lo:], system, lo) == rows(col, system, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(TripleSystem)), st.integers(1, 40), st.data())
    def test_rows_since_list_only_the_larger_c(self, system, lo, data):
        """The triples read from rows with `since` are those of the full rows
        whose c exceeds it, in the same order."""
        hi = data.draw(st.integers(lo, 200), label="hi")
        since = data.draw(st.integers(0, hi + 1), label="since")
        k = data.draw(st.integers(1, 2), label="k")
        carried = data.draw(st.lists(st.integers(0, k), min_size=hi - lo + 1,
                                     max_size=hi - lo + 1), label="colours")
        col = np.array(carried, dtype=np.int8)

        def triples(since):
            out = []
            for a, b, shift, mask in _mono_rows(col, system, lo, since):
                for y in (np.flatnonzero(mask) + b).tolist():
                    out.append((a, y, a * y if system is PROD else a + y + shift))
            return out

        assert triples(since) == [t for t in triples(0) if t[2] > since]
        colour_of = {lo + i: c for i, c in enumerate(carried) if c}
        assert sorted(triples(0)) == sorted(brute_mono_triples(colour_of, system))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_contains_product_triple_matches_oracle(self, lo, data):
        hi = data.draw(st.integers(lo, 200), label="hi")
        members = data.draw(st.sets(st.integers(lo, hi), max_size=30), label="members")
        A = IntegerSubset.from_members(Interval(lo, hi), members)
        assert contains_product_triple(A) == brute_contains_product(list(members))

    @settings(max_examples=300, deadline=None)
    @given(interval_pairs(), st.data())
    def test_union_matches_set_union(self, intervals, data):
        sets = [data.draw(st.sets(st.integers(iv.lo, iv.hi)), label="members")
                for iv in intervals]
        A, B = (IntegerSubset.from_members(iv, m) for iv, m in zip(intervals, sets))
        U = A.union(B)
        assert U.interval == Interval(min(iv.lo for iv in intervals),
                                      max(iv.hi for iv in intervals))
        assert U.members().tolist() == sorted(sets[0] | sets[1])


class TestColouring:
    def test_from_map_and_queries(self):
        g = IntegerSubset.full(1, 4)
        c = Colouring.from_map(g, 2, class_map([[1, 4], [2, 3]]))
        assert c.colour_of(1) == 1 and c.colour_of(3) == 2
        assert list(np.flatnonzero(c.dense() == 1)) == [1, 4]
        assert sorted(set(c.dense()) - {0}) == [1, 2]

    def test_colour_of_non_member(self):
        g = IntegerSubset.from_members(Interval(1, 5), [1, 5])
        c = Colouring.from_map(g, 1, {1: 1, 5: 1})
        with pytest.raises(KeyError):
            c.colour_of(3)

    def test_support_mismatch_rejected(self):
        g = IntegerSubset.from_members(Interval(1, 3), [1, 3])
        with pytest.raises(ValueError):
            Colouring(g, 2, np.array([1, 1, 1], dtype=np.int8))

    def test_colour_out_of_range_rejected(self):
        g = IntegerSubset.full(1, 2)
        with pytest.raises(ValueError):
            Colouring(g, 2, np.array([1, 3], dtype=np.int8))

    def test_range_checked_before_int8_cast(self):
        # 257 and 258 wrap to 1 and 2 in int8; they must not slip through
        with pytest.raises(ValueError, match="1..k"):
            Colouring(IntegerSubset.full(1, 3), 2, np.array([1, 257, 258]))
        with pytest.raises(ValueError, match="1..k"):
            Colouring(IntegerSubset.full(1, 2), 2, [1, -255])

    def test_from_map_ignores_keys_off_the_ground(self):
        g = IntegerSubset.from_members(Interval(2, 6), [2, 5])
        c = Colouring.from_map(g, 2, {2: 2, 5: 1, 3: 1, 99: 2})
        assert (c.colour_of(2), c.colour_of(5)) == (2, 1)
        assert list(np.flatnonzero(c.dense() == 1)) == [5]

    def test_from_map_missing_member(self):
        g = IntegerSubset.from_members(Interval(2, 6), [2, 5])
        with pytest.raises(KeyError):
            Colouring.from_map(g, 2, {2: 1})


def kernel_lists(a, b, c, system):
    """Whether the row kernel lists (a, b, c) once {a, b, c} is one colour."""
    members = {a, b, c}
    ground = IntegerSubset.from_members(Interval(min(members), max(members)), members)
    colouring = Colouring.from_map(ground, 1, dict.fromkeys(members, 1))
    return (min(a, b), max(a, b), c) in verify_colouring_free(colouring, system)


class TestTripleSatisfied:
    """Which (a, b, c) solve each system, read off the shared row kernel."""

    @pytest.mark.parametrize("a,b,c,system,expected", [
        (1, 1, 2, SUM, True),
        (2, 2, 5, DSUM, True),   # 2+2 = 5-1
        (3, 3, 9, PROD, True),   # a and b may coincide
        (1, 2, 4, SUM, False),
        (2, 2, 4, DSUM, True),
        (2, 3, 7, PROD, False),
        (1, 1, 1, PROD, True),   # 1*1 = 1, the literal reading
    ])
    def test_examples(self, a, b, c, system, expected):
        assert kernel_lists(a, b, c, system) is expected

    def test_symmetry_exhaustive_small(self):
        for system in TripleSystem:
            for a in range(1, 31):
                for b in range(1, 31):
                    for c in (a + b, a + b + 1, a * b, 7):
                        assert kernel_lists(a, b, c, system) == \
                            (c in completions(b, a, system)), (a, b, c, system)

    def test_symmetry_random_up_to_1000(self, rng):
        for system in TripleSystem:
            for _ in range(2000):
                a, b, c = (rng.randint(1, 1000) for _ in range(3))
                assert kernel_lists(a, b, c, system) == \
                    (c in completions(b, a, system)), (a, b, c, system)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kernel_lists(0, 1, 1, SUM)

    def test_parse(self):
        assert TripleSystem.parse("double-sum") is DSUM
        with pytest.raises(ValueError):
            TripleSystem.parse("products")


class TestHasMonoTriple:
    def test_spec_examples(self):
        g = IntegerSubset.full(1, 2)
        both_one = Colouring.from_map(g, 1, class_map([[1, 2]]))
        assert has_mono_triple(both_one, SUM) == (1, 1, 2, 1)

        g4 = IntegerSubset.full(1, 4)
        split = Colouring.from_map(g4, 2, class_map([[1, 4], [2, 3]]))
        assert has_mono_triple(split, SUM) is None

        gp = IntegerSubset.from_members(Interval(2, 6), [2, 3, 6])
        mono = Colouring.from_map(gp, 1, {2: 1, 3: 1, 6: 1})
        assert has_mono_triple(mono, PROD) == (2, 3, 6, 1)

    def test_oracle_equivalence_random_grounds(self, rng):
        """Agreement with a full brute scan on ground sets of size <= 20."""
        for trial in range(120):
            size = rng.randint(1, 20)
            members = sorted(rng.sample(range(1, 21), size))
            k = rng.randint(1, 3)
            colour_of = {m: rng.randint(1, k) for m in members}
            ground = IntegerSubset.from_members(Interval(1, 20), members)
            colouring = Colouring.from_map(ground, k, colour_of)
            for system in TripleSystem:
                got = has_mono_triple(colouring, system)
                expected = brute_first_mono(colour_of, system)
                assert got == expected, (members, colour_of, system)

    def test_product_ground_containing_one(self):
        g = IntegerSubset.from_members(Interval(1, 5), [1, 5])
        c = Colouring.from_map(g, 2, {1: 1, 5: 2})
        # (1,1,1) is monochromatic no matter the colours
        assert has_mono_triple(c, PROD) == (1, 1, 1, 1)


@st.composite
def sparse_colourings(draw):
    """(Colouring, colour_of) with lo >= 1, k <= 4 and a possibly gappy ground."""
    k = draw(st.integers(1, 4))
    lo = draw(st.integers(1, 12))
    hi = draw(st.integers(lo, lo + 80))
    members = sorted(draw(st.sets(st.integers(lo, hi))))
    colour_of = {m: draw(st.integers(1, k)) for m in members}
    ground = IntegerSubset.from_members(Interval(lo, hi), members)
    return Colouring.from_map(ground, k, colour_of), colour_of


class TestMonoRowsAgainstOracles:
    """Every reader of the shared row kernel against the conftest oracles."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_colourings(), st.sampled_from(list(TripleSystem)))
    def test_first_hit_count_list_and_detect(self, drawn, system):
        colouring, colour_of = drawn
        assert has_mono_triple(colouring, system) == brute_first_mono(colour_of, system)
        triples = brute_mono_triples(colour_of, system)
        assert verify_colouring_free(colouring, system) == triples
        assert count_monochromatic(colouring, system) == len(triples)
        assert contains_product_triple(colouring.ground) == \
            brute_contains_product(list(colour_of))

    def test_double_sum_order_within_a_row(self):
        # (3,3) sums to 6 and 7, both coloured 2; (3,5) hits 8 and 9
        colour_of = {3: 1, 5: 1, 6: 2, 7: 2, 8: 1, 9: 1}
        ground = IntegerSubset.from_members(Interval(3, 9), colour_of)
        colouring = Colouring.from_map(ground, 2, colour_of)
        assert has_mono_triple(colouring, DSUM) == (3, 5, 8, 1)
        assert verify_colouring_free(colouring, DSUM) == [(3, 5, 8), (3, 5, 9)]
        # a smaller b through the shifted equation wins: (3,3,7) before (3,5,8)
        colour_of = {3: 1, 5: 1, 7: 1, 8: 1}
        ground = IntegerSubset.from_members(Interval(3, 8), colour_of)
        colouring = Colouring.from_map(ground, 1, colour_of)
        assert has_mono_triple(colouring, DSUM) == (3, 3, 7, 1)
        assert verify_colouring_free(colouring, DSUM) == [(3, 3, 7), (3, 5, 8)]


class TestCarrierLayout:
    """Readers and builders work on carrier arrays in place, never on an
    array indexed by value from 0."""

    def test_high_carrier(self):
        """A colouring on [10^13, 10^13 + 3] costs four entries to read,
        write and read back."""
        lo = 10 ** 13
        colour_of = {lo: 1, lo + 3: 1}
        ground = IntegerSubset.from_members(Interval(lo, lo + 3), colour_of)
        colouring = Colouring.from_map(ground, 2, colour_of)
        for system in TripleSystem:
            assert count_monochromatic(colouring, system) == 0
            assert has_mono_triple(colouring, system) is None
            assert verify_colouring_free(colouring, system) == []
        text = cli.colouring_to_text(colouring)
        assert text == f"# interval {lo} {lo + 3} 2\n{lo} 1\n{lo + 3} 1\n"
        assert cli.colouring_from_text(text) == colouring

    def test_no_absolute_arrays(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("an absolute array was built")

        monkeypatch.setattr(Colouring, "dense", refuse)
        monkeypatch.setattr(IntegerSubset, "dense", refuse)
        monkeypatch.setattr(IntegerSubset, "from_dense", refuse)
        ground, mod5 = mod5_colouring(60)
        assert ground.cardinality() == 48
        eleven = eleven_interval_colouring(40)
        for colouring in (mod5, eleven):
            for system in TripleSystem:
                listing = verify_colouring_free(colouring, system)
                assert count_monochromatic(colouring, system) == len(listing)
                first = has_mono_triple(colouring, system)
                assert (first and first[:3]) == (listing[0] if listing else None)
                text = cli.colouring_to_text(colouring)
                assert cli.colouring_from_text(text) == colouring
        log_product = product_free_colouring(3, 1000)
        assert count_monochromatic(log_product, TripleSystem.PRODUCT) == 0
        blocker = perturbed_blocker_set(10 ** 4, 0.5226495409595402)
        assert blocker.cardinality() == 3483
        assert not contains_product_triple(blocker)
        assert supersaturation_count(blocker) == 0
        for system in TripleSystem:
            lo = 2 if system is PROD else 1
            count, ones = min_monochromatic_bruteforce(50, 1, system)
            assert count == count_monochromatic(ones, system) > 0
            assert ones.ground == IntegerSubset.full(lo, 50)
        assert max_non_schur_subset(10, 2, SUM)[0] == 8
        assert exists_good_colouring(IntegerSubset.full(1, 13), 3, SUM) is not None
        assert cli.main(["count", "--what", "supersat", "--n", "1000",
                         "--drop", "49", "--seed", "5"]) == cli.EXIT_OK
        assert "count: 791\nsize: 950\n" in capsys.readouterr().out


class TestExperimentRecord:
    def test_frequency(self):
        rec = ExperimentRecord(n=10, p=0.5, seed=1, trials=4, successes=3)
        assert rec.frequency == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentRecord(n=10, p=0.5, seed=1, trials=4, successes=5)
        with pytest.raises(ValueError):
            ExperimentRecord(n=10, p=1.5, seed=1, trials=4, successes=1)


def test_only_core_calls_the_copying_colouring_constructor():
    """Colour arrays the library builds are adopted (`Colouring._adopt`):
    outside `core`, no module calls `Colouring(...)`, which copies and
    re-checks what it is handed."""
    copying, adopting = [], []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == "Colouring" or \
                    isinstance(f, ast.Attribute) and f.attr == "Colouring":
                copying.append(f"{path.name}:{node.lineno}")
            elif isinstance(f, ast.Attribute) and f.attr == "_adopt" and \
                    isinstance(f.value, ast.Name) and f.value.id == "Colouring":
                adopting.append(path.name)
    assert copying == []
    assert set(adopting) == {"cli.py", "constructions.py", "counting.py", "solver.py"}


def test_refused_input_is_one_type():
    """Every check on a caller's argument or input text raises `UsageError`,
    the one type the CLI maps to exit 1: no module raises a bare
    ValueError, which the CLI takes for a bug, and `cli` keeps no exception
    type of its own."""
    bare = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []
    own = [name for name, obj in vars(cli).items() if isinstance(obj, type)
           and issubclass(obj, BaseException) and obj.__module__ == cli.__name__]
    assert own == []
    assert issubclass(UsageError, ValueError) and prodschur.UsageError is UsageError


def _goal_found(system, members, k=3):
    """A goal search's colouring of `members` on [1, 40], which must be its ground."""
    ground = IntegerSubset.from_members(Interval(1, 40), members)
    found = _goal_search(ground, k, system).found
    assert found.ground == ground
    return found


def _leaving_out():
    """A largest non-2-Schur subset of [1, 9], which must leave members out."""
    size, subset, colouring = max_non_schur_subset(9, 2, SUM)
    assert size < 9 and colouring.ground == subset
    return colouring


# every kind of colouring the library builds, on small inputs
BUILT_COLOURINGS = {
    "goal-sum": lambda: _goal_found(SUM, [2, 3, 5, 7, 11, 12, 13, 20, 29]),
    "goal-double-sum": lambda: _goal_found(DSUM, [4, 5, 9, 10, 17, 30]),
    "goal-product": lambda: _goal_found(PROD, [2, 3, 4, 6, 8, 12, 24, 36]),
    "goal-empty-sum": lambda: _goal_found(SUM, []),
    "goal-empty-double-sum": lambda: _goal_found(DSUM, []),
    "goal-empty-product": lambda: _goal_found(PROD, []),
    "schur-witness-k3": lambda: schur_number(3).witness,
    "max-non-schur": _leaving_out,
    "min-mono": lambda: min_monochromatic_bruteforce(8, 2, SUM)[1],
    "min-mono-one-class": lambda: min_monochromatic_bruteforce(8, 1, PROD)[1],
    "from-text": lambda: cli.colouring_from_text("# interval 3 9 2\n7 2\n3 1\n"),
    "mod5": lambda: mod5_colouring(12)[1],
    "eleven-interval": lambda: eleven_interval_colouring(22),
    "product-free": lambda: product_free_colouring(2, 200),
    "double-sum-base": lambda: _double_sum_base(3),
}


@pytest.mark.parametrize("name", sorted(BUILT_COLOURINGS))
def test_built_colourings_hold_the_constructor_invariants(name):
    """What the copying constructor checks at run time holds for every
    colouring the library adopts: int8, read-only, support = ground,
    colours in 1..k, and the constructor accepts it unchanged."""
    c = BUILT_COLOURINGS[name]()
    assert c._col.dtype == np.int8 and not c._col.flags.writeable
    assert np.array_equal(c.ground._ind, c._col > 0)
    colours = c._col[c.ground._ind]
    assert ((colours >= 1) & (colours <= c.k)).all()
    assert Colouring(c.ground, c.k, c._col) == c


def test_conftest_imports_only_triple_system():
    """The oracles stay independent: conftest may take only TripleSystem
    from the library."""
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    library = {(module, name) for module, name in imported
               if module == "prodschur" or module.startswith("prodschur.")}
    assert library == {("prodschur.core", "TripleSystem")}
