"""Rate analysis, memory allocation, lower bounds, and simulation for
multi-level cache-aided broadcast delivery networks."""

from .model import (
    ConfigError,
    LevelSpec,
    SystemConfig,
    ValidationWarning,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    load_config,
    make_config,
    validate,
)
from .rate import coded_load, lfu_rate, single_level_rate, small_k_rate
from .pama import (
    Allocation,
    Partition,
    PamaResult,
    ThresholdTable,
    build_threshold_table,
    grid_search_alpha,
    optimize_access_structure,
    pama_allocate,
    pama_rate,
    total_rate_closed_form,
    total_rate_exact,
)
from .bounds import (
    BoundWitness,
    GapProfile,
    best_lower_bound,
    corollary_bound,
    cutset_bound,
    gap_profile,
    k0,
    lower_bounds,
    noncutset_bound,
    optimality_gap_envelope,
)
from .popularity import (
    EmpiricalDistribution,
    LevelPartition,
    brute_force_partition,
    discretize,
    fit_zipf,
    level_map_for_config,
    load_counts,
    zipf_distribution,
    zipf_split_heuristic,
)
from .sim import (
    DeliveryLog,
    PlacementState,
    SimulationResult,
    deliver_bit_exact,
    expected_profile_rate,
    lfu_simulate,
    place,
    simulate_stochastic,
    worst_case_demands,
)

__version__ = "0.1.0"
