"""Tree-based search graph (TBSG): an approximate nearest-neighbor index.

The index combines a cover tree (global connectivity, fixed enter point)
with a bidirected K-nearest-neighbor graph, pruned per node by a
probability-guaranteed rule, and answers queries with best-first pool
search. See README.md for the CLI walkthrough.
"""

from .bench import (
    BenchmarkReport,
    BenchmarkRow,
    GroundTruth,
    ProbCheckResult,
    ProbCheckRow,
    ScalingResult,
    ScalingRow,
    brute_force_groundtruth,
    default_geometry_grid,
    prob_check,
    read_report_csv,
    recall,
    run_benchmark,
    scaling_experiment,
    write_report_csv,
)
from .core import Dataset, l2_distance, squared_l2_distance
from .covertree import CoverTree, build_cover_tree
from .index import (
    SearchParams,
    TbsgIndex,
    TbsgParams,
    build_tbsg,
    load_index,
    reachable_fraction,
    save_index,
    search_knn,
    search_knn_with_stats,
)
from .io import (
    FormatError,
    generate_synthetic,
    generate_synthetic_labeled,
    read_fvecs,
    read_ivecs,
    write_fvecs,
    write_ivecs,
)
from .knng import (
    BKnnGraph,
    KnnGraph,
    add_reverse_edges,
    build_exact_knng,
    build_knng,
    knng_recall,
)
from .pruning import (
    StrategyParams,
    TriangleGeom,
    analytic_disk_prob,
    min_prob,
    monte_carlo_prob,
    select_neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "l2_distance",
    "squared_l2_distance",
    "FormatError",
    "read_fvecs",
    "write_fvecs",
    "read_ivecs",
    "write_ivecs",
    "generate_synthetic",
    "generate_synthetic_labeled",
    "KnnGraph",
    "BKnnGraph",
    "build_exact_knng",
    "build_knng",
    "knng_recall",
    "add_reverse_edges",
    "CoverTree",
    "build_cover_tree",
    "TriangleGeom",
    "StrategyParams",
    "min_prob",
    "monte_carlo_prob",
    "analytic_disk_prob",
    "select_neighbors",
    "TbsgParams",
    "SearchParams",
    "TbsgIndex",
    "build_tbsg",
    "search_knn",
    "search_knn_with_stats",
    "save_index",
    "load_index",
    "reachable_fraction",
    "GroundTruth",
    "brute_force_groundtruth",
    "recall",
    "BenchmarkRow",
    "BenchmarkReport",
    "run_benchmark",
    "write_report_csv",
    "read_report_csv",
    "ScalingRow",
    "ScalingResult",
    "scaling_experiment",
    "ProbCheckRow",
    "ProbCheckResult",
    "prob_check",
    "default_geometry_grid",
    "__version__",
]
