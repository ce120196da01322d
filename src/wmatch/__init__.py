"""Exact-arithmetic randomized bipartite matching algorithms, with
executable surjection witnesses for their failure-probability bounds
and a brute-force harness that verifies the witnesses exhaustively at
small sizes."""

from .classical import (
    AlternatingPath,
    PerfectMatchingExistsError,
    WeightCover,
    cover_cost,
    find_augmenting_path,
    hall_violator,
    hungarian_max_weight,
    is_cover,
    maximum_matching,
    mwpm,
    neighborhood,
)
from .edmonds import (
    ExtractionTrace,
    ZeroDeterminantError,
    extract_pm,
    extract_pm_trace,
    lovasz_sample,
)
from .graphs import (
    BipartiteGraph,
    FileFormatError,
    Matching,
    WeightAssignment,
    edmonds_eval,
    format_graph,
    format_weights,
    is_perfect_matching,
    matching_weight,
    parse_graph,
    parse_weights,
    random_weights,
)
from .isolation import (
    enumerate_nonisolating,
    is_nonisolating,
    nonisolating_witness,
    nonisolating_witness_map,
)
from .linalg import (
    IntMatrix,
    cofactors,
    det_bareiss,
    det_berkowitz,
    det_cofactor,
    det_lagrange,
    minor,
    minor_cofactors,
    trailing_zeros,
)
from .mvv import (
    MvvTrial,
    build_power_matrix,
    edge_in_unique_min_pm,
    exact_power_det_valuation,
    extract_pm_weight_bounded,
    mvv_trial,
)
from .oracle import (
    BruteMinResult,
    BudgetExceededError,
    SurjectivityReport,
    brute_max_matching_size,
    brute_max_weight_matching,
    brute_min_weight_pms,
    check_surjection,
    enumerate_perfect_matchings,
    min_weight_pms_map,
)
from .rng import DEFAULT_SEED, SplitMix64, derive_seed
from .zeroset import (
    vanishing_step,
    zero_set,
    zero_witness_complete,
    zero_witness_graph,
    zero_witness_graph_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
