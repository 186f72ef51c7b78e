"""Tests of the benchmark itself: seeded inputs and planted wrong answers.

Run from the repository root with ``python -m pytest perfbench``.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    assert workloads.build_ops(name, 5) == workloads.build_ops(name, 5)
    assert workloads.build_ops(name, 5) != workloads.build_ops(name, 6)


def test_every_op_has_a_unique_name():
    for name in workloads.WORKLOADS:
        ops = workloads.build_ops(name, 1)
        assert len({op.name for op in ops}) == len(ops)


# --- colourings ------------------------------------------------------------

def test_colouring_check_accepts_a_good_colouring():
    # [1, 4] as {1, 4} / {2, 3} has no monochromatic a + b = c
    assert checks.colouring_errors([0, 1, 2, 2, 1], 1, 4, 2, "sum") == []


@pytest.mark.parametrize("colour, system", [
    ([0, 1, 1, 2, 2], "sum"),              # 1 + 1 = 2
    ([0, 1, 2, 1], "double-sum"),          # 1 + 1 = 3 - 1, not a plain sum
    ([0, 0, 1, 2, 1, 2, 2, 2, 1], "product"),  # 2 * 2 = 4
])
def test_colouring_check_rejects_a_planted_mono_triple(colour, system):
    lo = 2 if system == "product" else 1
    errs = checks.colouring_errors(colour, lo, len(colour) - 1, 2, system)
    assert errs and "monochromatic" in errs[0]


def test_colouring_check_rejects_a_gap_and_a_bad_colour():
    assert checks.colouring_errors([0, 1, 0, 2, 1], 1, 4, 2, "sum")
    assert checks.colouring_errors([0, 1, 3, 3, 1], 1, 4, 2, "sum")


def test_subset_colouring_check():
    assert checks.subset_colouring_errors([0, 1, 0, 0, 1], 2, 2, "sum") == []
    assert checks.subset_colouring_errors([0, 1, 0, 0, 1], 3, 2, "sum")
    assert checks.subset_colouring_errors([0, 1, 1, 0, 0], 2, 2, "sum")


# --- exit codes, artifacts, reports ----------------------------------------

def test_exit_code_check_rejects_a_wrong_code():
    assert checks.exit_code_errors(2, 2) == []
    assert checks.exit_code_errors(1, 2)
    assert checks.exit_code_errors(0, 3)


def test_artifact_check_rejects_a_changed_byte():
    from prodschur.cli import colouring_to_text
    from prodschur.constructions import mod5_colouring
    data = colouring_to_text(mod5_colouring(10 ** 5)[1]).encode()
    assert checks.artifact_errors("construct-mod5", data) == []
    i = len(data) // 2
    changed = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
    assert checks.artifact_errors("construct-mod5", changed)


def test_report_parsing_and_check():
    report = checks.parse_report("k: 4\nvalue: 41\nwrote x (+ manifest)\n")
    assert report == {"k": "4", "value": "41"}
    assert checks.report_errors(report, {"value": "41"}) == []
    assert checks.report_errors(report, {"value": "45"})
    assert checks.report_errors(report, {"violations": "0"})


# --- Monte Carlo bands -----------------------------------------------------

def test_band_check_accepts_the_criterion_9_shape():
    assert checks.band_errors([0.0, 0.005, 0.3, 1.0, 1.0], 200) == []


@pytest.mark.parametrize("freqs", [
    [0.2, 0.3, 0.5, 1.0, 1.0],   # first above 0.1
    [0.0, 0.1, 0.5, 0.8, 0.85],  # last below 0.9
    [0.0, 0.5, 0.2, 1.0, 1.0],   # inversion wider than 2/sqrt(200)
    [0.0, 0.3, 0.25, 1.0, 0.95],  # two inversions
])
def test_band_check_rejects_a_frequency_outside_its_band(freqs):
    assert checks.band_errors(freqs, 200)


def test_sweep_probability_matches_the_library():
    from prodschur.constructions import alpha_for_rate
    from prodschur.randomlab import ProbabilityRule, SweepPlan
    alpha = alpha_for_rate(0.25)
    for rule, a in ((ProbabilityRule.RANDOM_THRESHOLD, None),
                    (ProbabilityRule.PERTURBED, alpha)):
        plan = SweepPlan(n=10 ** 6, multipliers=(1.0,), trials=1, master_seed=0,
                         rule=rule, alpha=a)
        assert plan.probability(0.7)[0] == pytest.approx(
            checks.sweep_probability(10 ** 6, 0.7, a), rel=1e-12)


# --- recorded expected values, recomputed independently ----------------------

def test_recorded_counts_match_independent_oracles():
    assert checks.eleven_mono_count(10 ** 5) == checks.ELEVEN_MONO_1E5
    assert checks.table_count(10 ** 7, 1000, 10000) == checks.TABLE_1E7_1E3_1E4
    # `count --what supersat --n 1000000 --drop 49 --seed 5` at the seed commit
    assert checks.supersat_expected(10 ** 6, 49, 5) == {"count": "997943",
                                                        "size": "999950"}
    # `gstar --k 2 --n 1000000 --eps 0.5` at the seed commit
    assert checks.gstar_bounds(10 ** 6, 0.5) == {
        "lower": "999984.1510680754", "upper": "999992.0755340377",
        "upper_condition_met": "False"}


def test_stream_seed_matches_derive_seed():
    from prodschur.randomlab import derive_seed
    for args in ((7, 0, 3), (2 ** 40 + 1, 49), (0,)):
        assert checks.stream_seed(*args) == derive_seed(*args)


# --- tracing ---------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    tr = Tracer("t")
    with tr.span("outer", "cli"):
        with tr.span("inner", "solver"):
            pass
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"] and outer["run"] == inner["run"] == "t"
    self_s = tr.self_times()
    assert self_s["solver"] == pytest.approx(inner["end"] - inner["start"])
    assert self_s["cli"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))


def test_span_records_the_error_it_lets_through():
    tr = Tracer("t")
    with pytest.raises(RecursionError):
        with tr.span("solver.exists_good_colouring", "solver"):
            raise RecursionError
    assert tr.spans[0]["error"] == "RecursionError"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
