import hashlib
import json
import os
import platform
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodschur
from prodschur import __version__, cli, randomlab
from prodschur.cli import (
    EXIT_GUARD,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    colouring_from_text,
    colouring_to_text,
    main,
    subset_to_text,
)
from prodschur.core import Colouring, IntegerSubset, Interval, TripleSystem
from prodschur.constructions import (
    mod5_colouring,
    product_free_colouring,
    verify_colouring_free,
)
from conftest import brute_mono_triples


def reference_text(lo, hi, k, colour_of):
    """The text format written line by line, independent of the library."""
    out = "# interval %d %d %d\n" % (lo, hi, k)
    for m in sorted(colour_of):
        out += "%d %d\n" % (m, colour_of[m])
    return out


def random_colouring(rnd, lo, hi, k, density):
    colour_of = {m: rnd.randint(1, k) for m in range(lo, hi + 1)
                 if rnd.random() < density}
    ground = IntegerSubset.from_members(Interval(lo, hi), colour_of)
    col = np.zeros(hi - lo + 1, dtype=np.int64)
    for m, c in colour_of.items():
        col[m - lo] = c
    return colour_of, Colouring(ground, k, col)


class TestTextBytes:
    @pytest.mark.parametrize("seed", range(6))
    def test_writer_matches_reference(self, seed):
        rnd = random.Random(seed)
        for _ in range(20):
            lo = rnd.choice([1, 2, 7, 95, 999, 10 ** rnd.randint(1, 6)])
            hi = lo + rnd.choice([0, 1, 30, 2000])
            k = rnd.choice([1, 2, 9, 10, 11, 99, 100, 127])
            density = rnd.choice([0.0, 0.01, 0.3, 1.0])
            colour_of, col = random_colouring(rnd, lo, hi, k, density)
            want = reference_text(lo, hi, k, colour_of)
            assert colouring_to_text(col) == want
            assert colouring_from_text(want) == col
            ground = col.ground
            assert subset_to_text(ground) == reference_text(
                lo, hi, 1, dict.fromkeys(colour_of, 1))

    def test_powers_of_ten(self):
        members = [10 ** e + d for e in range(7) for d in (-1, 0, 1) if 10 ** e + d >= 1]
        colour_of = {m: 1 + i % 127 for i, m in enumerate(sorted(set(members)))}
        ground = IntegerSubset.from_members(Interval(1, 10 ** 6 + 1), colour_of)
        col = Colouring.from_map(ground, 127, colour_of)
        text = colouring_to_text(col)
        assert text == reference_text(1, 10 ** 6 + 1, 127, colour_of)
        assert "\n1000000 " in text and "\n999999 " in text

    def test_empty_ground(self):
        col = Colouring(IntegerSubset.from_members(Interval(4, 9), []), 3,
                        np.zeros(6, dtype=np.int8))
        assert colouring_to_text(col) == "# interval 4 9 3\n"
        assert colouring_from_text("# interval 4 9 3\n") == col

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10 ** 9), st.integers(0, 300), st.integers(1, 127),
           st.data())
    def test_round_trip_property(self, lo, span, k, data):
        hi = lo + span
        elems = data.draw(st.sets(st.integers(lo, hi)))
        colour_of = {m: data.draw(st.integers(1, k)) for m in sorted(elems)}
        text = reference_text(lo, hi, k, colour_of)
        assert colouring_to_text(colouring_from_text(text)) == text


class TestStrictParser:
    """Every malformed input is a ValueError that names the problem."""

    def test_duplicate_element(self):
        with pytest.raises(ValueError, match="duplicate element 2"):
            colouring_from_text("# interval 1 5 2\n2 2\n2 1\n")

    @pytest.mark.parametrize("elem", ["0", "6", "3000000000"])
    def test_element_outside_interval(self, elem):
        with pytest.raises(ValueError, match=f"element {elem} outside \\[1, 5\\]"):
            colouring_from_text(f"# interval 1 5 2\n1 1\n{elem} 1\n")

    @pytest.mark.parametrize("colour", ["0", "3", "257"])
    def test_colour_outside_range(self, colour):
        with pytest.raises(ValueError, match=f"colour {colour} outside 1..2"):
            colouring_from_text(f"# interval 1 5 2\n1 1\n2 {colour}\n")

    @pytest.mark.parametrize("line", ["2 x", "2 1.0", "-2 1", "2 1e3", "2\x001"])
    def test_non_integer_token(self, line):
        with pytest.raises(ValueError, match="line 3: expected 'element colour'"):
            colouring_from_text(f"# interval 1 5 2\n1 1\n{line}\n4 1\n")

    @pytest.mark.parametrize("body", ["1 1\n2\n", "1 1\n2\n3 1\n", "1 1 2 2\n",
                                      "1\n1\n"])
    def test_odd_token_count_or_split_pair(self, body):
        with pytest.raises(ValueError, match="line [23]: expected one"):
            colouring_from_text("# interval 1 5 2\n" + body)

    @pytest.mark.parametrize("tail", ["2 1 7\n", "2 1 # note\n", "# end\n", "2 1\n}"])
    def test_trailing_junk(self, tail):
        with pytest.raises(ValueError, match="line [34]: expected"):
            colouring_from_text("# interval 1 5 2\n1 1\n" + tail)

    @pytest.mark.parametrize("header", ["# interval 1 5", "# interval 1 5 2 9",
                                        "# intervals 1 5 2", "#interval 1 5 2",
                                        "# interval 1 five 2", "# interval 1 5 2.0"])
    def test_bad_header(self, header):
        with pytest.raises(ValueError, match="bad header"):
            colouring_from_text(header + "\n1 1\n")

    def test_header_values_validated(self):
        with pytest.raises(ValueError, match="invalid interval"):
            colouring_from_text("# interval 5 1 2\n")
        with pytest.raises(ValueError, match="k=128"):
            colouring_from_text("# interval 1 5 128\n")

    def test_overlong_integer(self):
        with pytest.raises(ValueError, match="longer than 18 digits"):
            colouring_from_text("# interval 1 5 2\n" + "1" * 19 + " 1\n")

    def test_non_ascii(self):
        with pytest.raises(ValueError, match="'ascii' codec"):
            colouring_from_text("# interval 1 5 2\n\u0661 1\n")

    def test_blank_lines_and_order_tolerated(self):
        col = colouring_from_text("\n# interval 1 5 2\n\n4 2\r\n 1\t1 \n\n")
        assert (col.colour_of(1), col.colour_of(4)) == (1, 2)
        assert list(col.ground.members()) == [1, 4]


class TestTextFormat:
    def test_round_trip_colouring(self):
        _, col = mod5_colouring(23)
        text = colouring_to_text(col)
        assert text.splitlines()[0] == "# interval 1 23 2"
        back = colouring_from_text(text)
        assert back == col
        assert verify_colouring_free(back, TripleSystem.SUM) == []

    def test_round_trip_subset(self):
        A = IntegerSubset.from_members(Interval(2, 30), [2, 17, 29])
        back = colouring_from_text(subset_to_text(A))
        assert back.ground == A
        assert back.k == 1

    def test_missing_header(self):
        with pytest.raises(ValueError):
            colouring_from_text("1 1\n2 2\n")

    @pytest.mark.parametrize("body", ["\n", "  \n\n", "\r\n", "\t"])
    def test_blank_body_is_an_empty_colouring(self, body):
        empty = Colouring(IntegerSubset.from_members(Interval(1, 5), []), 2,
                          np.zeros(5, dtype=np.int8))
        assert colouring_from_text("# interval 1 5 2\n" + body) == empty


# a line with one fault of each kind, and the message that kind raises
FAULTS = {
    "non-ascii": (lambda rnd, lo, hi, k: rnd.choice(["١ 1", "%d 1é" % lo]),
                  "'ascii' codec"),
    "junk": (lambda rnd, lo, hi, k: rnd.choice(["%d x" % lo, "-%d 1" % lo, "# note"]),
             "expected 'element colour' as two"),
    "tokens": (lambda rnd, lo, hi, k: rnd.choice(["%d" % lo, "%d 1 1" % lo]),
               "expected one 'element colour' pair"),
    "width": (lambda rnd, lo, hi, k: "1" * 19 + " 1", "longer than 18 digits"),
    "outside": (lambda rnd, lo, hi, k: "%d 1" % (hi + rnd.randint(1, 9)), "outside \\["),
    "colour": (lambda rnd, lo, hi, k: "%d %d" % (rnd.randint(lo, hi), rnd.choice([0, k + 1])),
               "has colour"),
}


def parse_outcome(text):
    """The colouring parsed from `text`, or the type and message it raised."""
    try:
        return colouring_from_text(text)
    except ValueError as e:  # UnicodeEncodeError is one too
        return type(e), str(e)


def faulty_text(rnd, kinds):
    """A colouring text with blank, CRLF and leading blank lines, shuffled
    lines, and one fault of each of `kinds` (``duplicate`` repeats a line)."""
    lo, k = rnd.randint(1, 50), rnd.randint(1, 9)
    hi = lo + rnd.randint(0, 40)
    lines = ["%d %d" % (m, rnd.randint(1, k)) for m in range(lo, hi + 1)
             if rnd.random() < 0.5]
    if rnd.random() < 0.5:
        rnd.shuffle(lines)
    for kind in kinds:
        at = rnd.choice([0, len(lines), len(lines) // 2, rnd.randint(0, len(lines))])
        if kind == "duplicate":
            lines.insert(at, rnd.choice(lines) if lines else "%d 1" % lo)
            lines.insert(rnd.randint(0, len(lines)), lines[at])
        else:
            lines.insert(at, FAULTS[kind][0](rnd, lo, hi, k))
    for _ in range(rnd.randint(0, 4)):
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(["", "  ", "\t"]))
    ends = [rnd.choice(["\n", "\n", "\r\n"]) for _ in lines]
    if lines and rnd.random() < 0.2:
        ends[-1] = ""
    lead = rnd.choice(["", "\n", "\n \n", "\r\n\t", "\xa0\u2028\n"])
    return (lead + "# interval %d %d %d\n" % (lo, hi, k)
            + "".join(line + end for line, end in zip(lines, ends)))


class TestBlocks:
    """The text layer works in blocks, and no block size shows in what it returns."""

    @pytest.mark.parametrize("seed", range(6))
    def test_parser_blocks_are_invisible(self, seed, monkeypatch):
        rnd = random.Random(seed)
        cases = []
        for kinds in ([[]] * 10 + [[kind] for kind in [*FAULTS, "duplicate"]] * 3
                      + [rnd.sample([*FAULTS, "duplicate"], rnd.randint(2, 4))
                         for _ in range(30)]):
            text = faulty_text(rnd, kinds)
            assert len(text) < cli._BLOCK_CHARS  # so this is a one-block parse
            want = parse_outcome(text)
            if kinds == ["duplicate"]:
                assert want[1].startswith("duplicate element")
            elif len(kinds) == 1:
                assert re.search(FAULTS[kinds[0]][1], want[1])
            else:
                assert isinstance(want, Colouring) == (not kinds)
            cases.append((text, want))
        for chars in (1, 2, 3, 5, 8, 13, 40):
            monkeypatch.setattr(cli, "_BLOCK_CHARS", chars)
            for text, want in cases:
                assert parse_outcome(text) == want, (chars, text)

    @pytest.mark.parametrize("chars", [4, 8, 1 << 20])
    def test_least_duplicate_inside_and_across_blocks(self, chars, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_CHARS", chars)
        with pytest.raises(ValueError, match="^duplicate element 3$"):
            colouring_from_text("# interval 1 20 2\n9 1\n9 2\n5 1\n3 1\n7 1\n3 2\n")

    def test_body_fault_outranks_an_interval_too_long_to_hold(self):
        # 10^16 one-byte colours exceed any address space, so nothing is allocated
        with pytest.raises(ValueError, match="line 3: expected"):
            colouring_from_text("# interval 1 %d 2\n1 1\n1 x\n" % 10 ** 16)
        with pytest.raises(MemoryError):
            colouring_from_text("# interval 1 %d 2\n1 1\n1 1\n" % 10 ** 16)

    @pytest.mark.parametrize("entries", [1, 2, 3, 7])
    def test_writer_blocks_are_invisible(self, entries, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ENTRIES", entries)
        rnd = random.Random(entries)
        for _ in range(10):
            lo = rnd.choice([1, 9, 95, 999])
            hi = lo + rnd.choice([0, 1, 30])
            k = rnd.choice([1, 9, 10, 127])
            colour_of, col = random_colouring(rnd, lo, hi, k, rnd.choice([0.0, 0.3, 1.0]))
            assert colouring_to_text(col) == reference_text(lo, hi, k, colour_of)
            assert subset_to_text(col.ground) == reference_text(
                lo, hi, 1, dict.fromkeys(colour_of, 1))


def test_text_io_peak_memory_is_a_small_multiple_of_the_text():
    col = product_free_colouring(3, 2 * 10 ** 5 + 2)
    assert col.ground.cardinality() == 2 * 10 ** 5

    def peak(fn, arg):
        tracemalloc.start()
        try:
            fn(arg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    text = colouring_to_text(col)
    assert peak(colouring_from_text, text) <= 3 * len(text)
    assert peak(colouring_to_text, col) <= 5 * len(text)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["schur"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_bad_subcommand_usage(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["count", "--what", "bogus", "--n", "10"],
                                      ["construct", "--name", "bogus", "--n", "10"]])
    def test_unknown_choice_is_usage(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_schur_ok(self, capsys):
        assert main(["schur", "--k", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "value: 5" in out

    def test_schur_report_lines(self, capsys):
        assert main(["schur", "--k", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        report = dict(line.split(": ", 1) for line in lines)
        assert list(report) == ["k", "system", "value", "lower_bound",
                                "nodes_explored", "prunes", "forced",
                                "ns_per_node", "elapsed_s"]
        assert (report["value"], report["nodes_explored"], report["prunes"],
                report["forced"]) == ("14", "123", "28", "138")
        assert int(report["ns_per_node"]) > 0

    @pytest.mark.parametrize("limit", ["-1", "-50"])
    def test_schur_negative_node_limit_is_usage(self, limit, capsys):
        assert main(["schur", "--k", "3", "--node-limit", limit]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "node_limit" in captured.err

    def test_schur_inconclusive_is_two(self, capsys):
        # 50 is the README's and perfbench's `schur-k3-node-limit` command
        for limit in ("20", "50"):
            assert main(["schur", "--k", "3", "--node-limit", limit]) == \
                EXIT_INCONCLUSIVE
            assert "inconclusive" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--k", "0"], ["--k", "128"], ["--k", "200"],
                                      ["--k", "200", "--max-n", "3"]])
    def test_colour_count_out_of_range_is_usage(self, argv, capsys):
        """k runs over 1..127.  `--k 200` used to trip the k >= 5 guard
        (exit 3), and with `--max-n 3` it ended in a traceback (exit 1)."""
        assert main(["schur", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: colour count k={argv[1]} out of supported "
                                f"range 1..127\n")

    def test_guard_is_three(self, capsys):
        assert main(["schur", "--k", "6"]) == EXIT_GUARD
        assert "guard" in capsys.readouterr().err

    def test_internal_error_is_four(self, monkeypatch, capsys):
        """A witness that fails its re-check is an internal error, and its
        exit code is not the usage code."""
        monkeypatch.setattr(prodschur.solver, "has_mono_triple",
                            lambda colouring, system: (1, 1, 2, 1))
        assert main(["schur", "--k", "2"]) == EXIT_INTERNAL != EXIT_USAGE
        assert "internal error" in capsys.readouterr().err

    def test_value_error_is_usage(self, capsys):
        assert main(["gstar", "--k", "2", "--n", "100", "--eps", "2.0"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["threshold", "perturbed"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_multiplier_runs_no_trial(self, command, bad,
                                                 monkeypatch, capsys):
        drawn = []
        monkeypatch.setenv("PRODSCHUR_WORKERS", "1")
        monkeypatch.setattr(randomlab, "sample_random_subset",
                            lambda *args: drawn.append(args))
        code = main([command, "--n", "100", "--c", f"1,{bad}", "--trials", "3",
                     "--seed", "1"])
        assert code == EXIT_USAGE
        assert drawn == []
        out, err = capsys.readouterr()
        assert out == "" and "positive and finite" in err

    @pytest.mark.parametrize("exc", [ValueError("boom"), OverflowError("boom"),
                                     KeyError("boom")])
    def test_other_exception_is_four_on_one_line(self, exc, monkeypatch, capsys):
        """Only a `UsageError` is refused input: a ValueError raised inside
        a computation (at the parent it exited 1 as a usage error), or any
        other exception (a traceback), is an internal error."""
        def count(n):
            raise exc

        monkeypatch.setattr(cli, "count_product_triples", count)
        assert main(["count", "--what", "triples", "--n", "10"]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {type(exc).__name__}: {exc}\n"

    def test_size_beyond_numpy_is_four(self):
        """n = 1e19 passes every check and fails in numpy's array
        allocation: not refused input, so exit 4, with no traceback."""
        env = {**os.environ, "PRODSCHUR_WORKERS": "1",
               "PYTHONPATH": str(Path(prodschur.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "prodschur.cli", "threshold",
                               "--n", "10000000000000000000", "--c", "1",
                               "--trials", "1", "--seed", "0"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_INTERNAL
        assert proc.stdout == ""
        assert proc.stderr == "error: ValueError: Maximum allowed dimension exceeded\n"

    def test_census_beyond_its_guard_is_three(self, capsys):
        """n = 1e19 would loop over 3.2e9 values of a in Python (minutes);
        it is refused before the loop."""
        argv = ["count", "--what", "triples", "--n", "10000000000000000000"]
        assert main(argv) == EXIT_GUARD
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("resource guard: product-triple census beyond n = 1e16 "
                       "exceeds the time guard\n")

    @pytest.mark.parametrize("argv,message", [
        (["--y", "2", "--z", "inf"], "need finite y and z, got y=2.0, z=inf"),
        (["--y", "2", "--z", "1e400"], "need finite y and z, got y=2.0, z=inf"),
        (["--y=-inf", "--z", "3"], "need finite y and z, got y=-inf, z=3.0"),
        (["--y", "nan", "--z", "3"], "need z > y, got y=nan, z=3.0"),
    ])
    def test_non_finite_table_ends_are_usage(self, argv, message, capsys):
        """`--z inf` ended in an OverflowError traceback from the sieve's
        integer bounds (exit 1 only as Python's own code for it)."""
        assert main(["count", "--what", "table", "--n", "100", *argv]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_gstar_n_beyond_floats_is_usage(self, capsys):
        """An n no float holds ended in an OverflowError traceback."""
        n = str(2 ** 1024)
        assert main(["gstar", "--k", "2", "--n", n, "--eps", "0.5"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: n must be at most 1.79769e+308")


class TestCommands:
    @pytest.mark.parametrize("argv", [
        ["count", "--what", "triples", "--n", "1"],
        ["count", "--what", "divisors", "--n", "1"],
        ["count", "--what", "divisors", "--n", "2"],
        ["gstar", "--k", "2", "--n", "0", "--eps", "0.5"],
    ])
    def test_degenerate_n_is_usage(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "must be >=" in err

    def test_gstar(self, capsys):
        assert main(["gstar", "--k", "2", "--n", "1000000", "--eps", "0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lower: 999984.15" in out
        assert "upper_condition_met: False" in out

    def test_count_triples(self, capsys):
        assert main(["count", "--what", "triples", "--n", "100"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "off_diagonal: 137" in out

    def test_count_divisors(self, capsys):
        assert main(["count", "--what", "divisors", "--n", "100"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max: 12" in out and "argmax: 60" in out

    def test_count_table(self, capsys):
        assert main(["count", "--what", "table", "--n", "20",
                     "--y", "2", "--z", "5"]) == EXIT_OK
        assert "exact: 10" in capsys.readouterr().out

    def test_count_supersat(self, capsys):
        assert main(["count", "--what", "supersat", "--n", "100"]) == EXIT_OK
        assert "count: 81" in capsys.readouterr().out

    @pytest.mark.parametrize("drop", ["-1", "100"])
    def test_count_supersat_drop_out_of_range(self, drop, capsys, monkeypatch):
        monkeypatch.setattr(IntegerSubset, "full", classmethod(
            lambda cls, lo, hi: pytest.fail("set built before --drop was checked")))
        assert main(["count", "--what", "supersat", "--n", "100",
                     "--drop", drop]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--drop" in captured.err

    @pytest.mark.parametrize("seed,drop,count,size", [
        (5, 49, 791, 950), (0, 1, 900, 998), (123, 500, 152, 499),
        (2 ** 40, 999, 0, 0), (7, 3, 894, 996)])
    def test_count_supersat_stream_unchanged(self, seed, drop, count, size, capsys):
        """n = 1000 outputs recorded from the 0.1.0 release."""
        assert main(["count", "--what", "supersat", "--n", "1000",
                     "--drop", str(drop), "--seed", str(seed)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"count: {count}\n" in out and f"size: {size}\n" in out

    def test_count_mono_requires_name(self, capsys):
        assert main(["count", "--what", "mono", "--n", "100"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv,message", [
        (["count", "--what", "mono", "--n", "100", "--name", "blocker"],
         "--name must be one of"),
        (["count", "--what", "mono", "--n", "100", "--name", "log-product"],
         "--k is required"),
        (["construct", "--name", "log-product", "--n", "100"], "--k is required"),
    ])
    def test_construction_usage_errors(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_count_mono_mod5(self, capsys):
        assert main(["count", "--what", "mono", "--n", "100",
                     "--name", "mod5"]) == EXIT_OK
        assert "monochromatic: 0" in capsys.readouterr().out

    def test_construct_writes_artifact_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "mod5.txt"
        assert main(["construct", "--name", "mod5", "--n", "50",
                     "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "violations: 0" in err
        text = out.read_text()
        back = colouring_from_text(text)
        assert verify_colouring_free(back, TripleSystem.SUM) == []
        manifest = json.loads((tmp_path / "mod5.txt.manifest.json").read_text())
        assert manifest["version"]
        assert manifest["config_digest"]
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "workers"}
        assert env["numpy"] == np.__version__
        assert isinstance(env["workers"], int) and env["workers"] >= 1
        timings = manifest["timings"]
        assert set(timings) == {"build_s", "verify_s", "serialise_s"}
        assert all(t >= 0 for t in timings.values())
        assert sum(timings.values()) <= manifest["wall_time_s"] + 0.002

    def test_manifest_records_the_parsed_command_line(self, tmp_path, capsys,
                                                      monkeypatch):
        """In-process calls record their own argv, not the host's; with no
        argv, main parses and records the process's arguments.  The config
        digest does not depend on how main was called."""
        out = str(tmp_path / "eleven.txt")
        argv = ["construct", "--name", "eleven", "--n", "11", "--out", out]
        assert main(argv) == EXIT_OK
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["command"] == " ".join(argv)
        sweep = ["threshold", "--n", "500", "--c", "1", "--trials", "3", "--seed", "2"]
        monkeypatch.setattr(sys, "argv", ["prodschur"] + sweep)
        for call in (lambda: main(sweep), main):
            capsys.readouterr()
            assert call() == EXIT_OK
            manifest = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert manifest["command"] == " ".join(sweep)
            assert manifest["config_digest"] == \
                "632b64db5270d008c180ba1c92d14b9f4461e7a62093deba753c43cfce154a7d"

    # sha256 of each construction's payload at a small n: artifacts are
    # byte-identical for identical manifests, so these move only with a
    # documented change of the format or of a construction
    @pytest.mark.parametrize("argv,sha256", [
        (["--name", "log-product", "--k", "3", "--n", "10000"],
         "674823317b3d8dd57c7132a12ed3339093d72c023d2086b728162cd0f88f7a08"),
        (["--name", "mod5", "--n", "1000"],
         "5b043baa6f774a01ad0e99e79c87f129241b07b35b009447b36994602dd3b4f0"),
        (["--name", "eleven", "--n", "1000"],
         "1e7054c4a56cce723a513a3e4ae591995931478976c0c67bd9f3f474174991a3"),
        (["--name", "blocker", "--alpha", "0.5226495409595402", "--n", "10000"],
         "43c9dc2f9d995c756f6231886215bacb1b42f57d9427eb809e5fc41ad77d1dae")],
        ids=["log-product", "mod5", "eleven", "blocker"])
    def test_construct_payload_bytes_pinned(self, argv, sha256, tmp_path, capsys):
        out = tmp_path / "payload.txt"
        assert main(["construct", *argv, "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("name,builder,system", [
        ("mod5", "mod5_colouring", TripleSystem.SUM),
        ("log-product", "product_free_colouring", TripleSystem.PRODUCT)])
    def test_construct_reports_violation_count(self, name, builder, system,
                                               monkeypatch, capsys):
        """A violating build reports how many triples it has, as the
        listing would, in the same report text."""
        bad = Colouring(IntegerSubset.full(10, 200), 1, np.ones(191, dtype=np.int64))
        if name == "mod5":
            monkeypatch.setattr(cli, builder, lambda n: (None, bad))
        else:
            monkeypatch.setattr(cli, builder, lambda k, n: bad)
        argv = ["construct", "--name", name, "--n", "200"]
        assert main(argv + (["--k", "2"] if name == "log-product" else [])) == EXIT_OK
        count = len(brute_mono_triples({m: 1 for m in range(10, 201)}, system))
        assert count > 0
        assert f"violations: {count}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["threshold", "--n", "500", "--c", "1,4", "--trials", "3", "--seed", "2"],
        ["perturbed", "--n", "500", "--c", "1", "--trials", "3", "--seed", "2"],
        ["schur", "--k", "2", "--out", "{out}"],
        ["construct", "--name", "mod5", "--n", "20", "--out", "{out}"]])
    def test_every_manifest_names_its_environment(self, argv, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("PRODSCHUR_WORKERS", "3")
        out = str(tmp_path / "artifact.txt")
        assert main([a.format(out=out) for a in argv]) == EXIT_OK
        if "--out" in argv:
            manifest = json.loads(Path(out + ".manifest.json").read_text())
        else:
            manifest = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert manifest["version"] == __version__
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "workers": 3}

    def test_version_has_one_value(self):
        """The manifest's version names the random stream, so the package
        and its metadata must agree."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(prodschur.__file__).parents[2] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == __version__

    def test_construct_blocker(self, tmp_path, capsys):
        out = tmp_path / "blocker.txt"
        code = main(["construct", "--name", "blocker", "--n", "10000",
                     "--alpha", "0.5226495409595402", "--out", str(out)])
        assert code == EXIT_OK
        assert "product_triple_free: True" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv,csv_text", [
        (["threshold", "--n", "2000", "--c", "0.3,3", "--trials", "10", "--seed", "11"],
         "n,c,p,trials,successes,frequency\n"
         "2000,0.3,0.012110336286501192,10,0,0.0\n"
         "2000,3.0,0.12110336286501192,10,10,1.0\n"),
        (["perturbed", "--n", "10000", "--c", "0.1,2", "--trials", "6", "--seed", "3"],
         "n,c,p,trials,successes,frequency,alpha,beta_alpha,blocker_size\n"
         "10000,0.1,0.004641588833612777,6,2,0.3333333333333333,"
         "0.5226495409595402,0.16666666666666663,3483\n"
         "10000,2.0,0.09283177667225555,6,6,1.0,"
         "0.5226495409595402,0.16666666666666663,3483\n")],
        ids=["threshold", "perturbed"])
    def test_sweep_csv_pinned_and_manifest_timed(self, argv, csv_text, workers,
                                                 tmp_path, monkeypatch):
        monkeypatch.setenv("PRODSCHUR_WORKERS", workers)
        out = tmp_path / "sweep.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert out.read_text() == csv_text
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"sample_s", "union_s", "detect_s", "cpu_s"}
        assert all(t >= 0 for t in timings.values())
        assert (timings["union_s"] > 0) == (argv[0] == "perturbed")
        assert timings["cpu_s"] > 0

    def test_start_up_leaves_the_process_pool_unimported(self):
        code = ("import sys, prodschur.cli; "
                "sys.exit('concurrent.futures' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(prodschur.__file__).parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_threshold_csv_deterministic(self, tmp_path):
        args = ["threshold", "--n", "2000", "--c", "0.3,3", "--trials", "10",
                "--seed", "11"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "n,c,p,trials,successes,frequency"

    def test_perturbed_csv_columns(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["perturbed", "--n", "10000", "--c", "0.1,2",
                     "--trials", "5", "--seed", "3", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ("n,c,p,trials,successes,frequency,"
                            "alpha,beta_alpha,blocker_size")
        assert len(lines) == 3
