"""Sum and product Schur triples: exact search, constructions, counting,
and Monte Carlo threshold experiments."""

from .core import (
    Colouring,
    ExperimentRecord,
    IntegerSubset,
    Interval,
    ResourceGuardError,
    SolverOutcome,
    TripleSystem,
    UsageError,
)
from .solver import (
    SearchConfig,
    SearchInconclusive,
    exists_good_colouring,
    is_k_schur,
    max_non_schur_subset,
    schur_bounds,
    schur_number,
)
from .constructions import (
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
)
from .counting import (
    TableCountEstimate,
    TripleCount,
    count_monochromatic,
    count_product_triples,
    divisor_count_table,
    divisors_in_interval_indicator,
    erdos_ford_delta,
    has_mono_triple,
    max_divisor_count,
    min_monochromatic_bruteforce,
    multiplication_table_count,
    supersaturation_count,
)
from .randomlab import (
    ProbabilityRule,
    SweepPlan,
    contains_product_triple,
    degree_structure,
    derive_seed,
    perturbed_sweep,
    sample_random_subset,
    threshold_sweep,
)

__version__ = "0.2.0"

__all__ = [name for name in dir() if not name.startswith("_")]
