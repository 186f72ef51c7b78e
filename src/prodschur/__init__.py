"""Sum and product Schur triples: exact search, constructions, counting,
and Monte Carlo threshold experiments.

Every public name is loaded from its home module on first use (PEP 562),
so ``import prodschur`` loads neither numpy nor any submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.2.0"

# the home module of every public name; a submodule is its own home
_HOME = {name: module for module, names in {
    "core": ("core", "Colouring", "ExperimentRecord", "IntegerSubset", "Interval",
             "ResourceGuardError", "SolverOutcome", "TripleSystem", "UsageError"),
    "solver": ("solver", "SearchConfig", "SearchInconclusive", "exists_good_colouring",
               "is_k_schur", "max_non_schur_subset", "schur_bounds", "schur_number"),
    "constructions": ("constructions", "KNOWN_DOUBLE_SUM_SCHUR", "KNOWN_SCHUR",
                      "alpha_for_rate", "divisor_interval_rate",
                      "eleven_interval_colouring", "integer_nth_root",
                      "log_partition_boundaries", "max_non_schur_size_bounds",
                      "mod5_colouring", "perturbed_blocker_set", "product_free_colouring",
                      "threshold_exponent_offset", "verify_colouring_free"),
    "counting": ("counting", "TableCountEstimate", "TripleCount", "count_monochromatic",
                 "count_product_triples", "divisor_count_table",
                 "divisors_in_interval_indicator", "erdos_ford_delta", "has_mono_triple",
                 "max_divisor_count", "min_monochromatic_bruteforce",
                 "multiplication_table_count", "supersaturation_count"),
    "randomlab": ("randomlab", "ProbabilityRule", "SweepPlan", "contains_product_triple",
                  "degree_structure", "derive_seed", "perturbed_sweep",
                  "sample_random_subset", "threshold_sweep"),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
