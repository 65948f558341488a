"""Subcritical random k-uniform hypergraphs: sampling, j-component
decomposition, hypertree/wheel classification, exact enumeration, and
Monte Carlo verification of the largest-component size law."""

from .combinatorics import (
    TheoryParams,
    rank_subset,
    unrank_subset,
)
from .enumeration import (
    EnumReport,
    RationalSeries,
    b_s,
    brute_force_Bs,
    enum_report,
    exp_reciprocal_bounds,
    expected_Cs_lower_reference,
    expected_Rs_upper,
    f_s,
    laplace_sum_check,
    predicted_L1,
    predicted_M1,
    tj_series_fixed_point,
    unicycle_bound,
    wheel_bound_exact,
    wheel_constant,
)
from .errors import HyperlabError, ResourceLimitError, ValidationError
from .experiments import (
    ExperimentConfig,
    ExperimentSummary,
    TrialRecord,
    compare_to_theory,
    csv_lines,
    format_summary,
    machine_block,
    run_experiment,
)
from .hypergraph import (
    ComponentSummary,
    Hypergraph,
    Wheel,
    brute_force_wheel_census,
    find_wheel,
    j_components,
    read_hypergraph,
    sample,
    write_hypergraph,
)
from .processes import (
    SearchTrace,
    TwoTypeTree,
    branching_with_rate,
    coupled_run,
    search_component,
)
from .rng import RNG_ALGORITHM, make_generator, splitmix64, trial_seed

__version__ = "0.1.0"
