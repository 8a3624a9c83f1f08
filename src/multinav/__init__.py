"""Multiplex network link prediction and navigability analysis.

The package splits into four layers; each is importable on its own:

* multiplex  — edge-list parsing, trimming, network assembly, integration
* prediction — exclusive-neighborhood Jaccard / Adamic-Adar link scoring
* walks      — supra-transition matrices and discrete walker simulation
* navigability — spectral decomposition, coverage curves, t90 reporting

The ``multinav`` console script orchestrates them end to end.
"""

from .multiplex import (
    ConstructionError,
    EdgeList,
    FlowEdge,
    MultiplexNetwork,
    ParseError,
    SchemaError,
    build_multiplex,
    enumerate_layer_subsets,
    export_edges,
    integrate_links,
    knockout_nodes,
    parse_edge_list,
    trim_edges,
    write_edge_csv,
)
from .navigability import (
    AnalyticCoverageState,
    CoverageCurve,
    DegradedDecompositionError,
    NavigabilityReport,
    SpectralDecomposition,
    compare_stages,
    coverage_analytic,
    coverage_montecarlo,
    decompose,
    default_time_grid,
    navigability_report,
    poisson_clock,
    spectral_gap,
    supra_laplacian,
    time_to_coverage,
)
from .prediction import (
    LinkTable,
    PredictedLink,
    ScoredPairs,
    adamic_adar_classic,
    assign_weights,
    dedupe_links,
    exclusive_neighbors,
    jaccard_classic,
    modified_adamic_adar,
    modified_jaccard,
    normalize_scores,
    run_stage,
    threshold_filter,
)
from .walks import (
    SupraTransitionMatrix,
    WalkTrajectory,
    build_supra_transition,
    row_stochastic_check,
    simulate_walk,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticCoverageState",
    "ConstructionError",
    "CoverageCurve",
    "DegradedDecompositionError",
    "EdgeList",
    "FlowEdge",
    "LinkTable",
    "MultiplexNetwork",
    "NavigabilityReport",
    "ParseError",
    "PredictedLink",
    "SchemaError",
    "ScoredPairs",
    "SpectralDecomposition",
    "SupraTransitionMatrix",
    "WalkTrajectory",
    "adamic_adar_classic",
    "assign_weights",
    "build_multiplex",
    "build_supra_transition",
    "compare_stages",
    "coverage_analytic",
    "coverage_montecarlo",
    "decompose",
    "dedupe_links",
    "default_time_grid",
    "enumerate_layer_subsets",
    "exclusive_neighbors",
    "export_edges",
    "integrate_links",
    "jaccard_classic",
    "knockout_nodes",
    "modified_adamic_adar",
    "modified_jaccard",
    "navigability_report",
    "normalize_scores",
    "parse_edge_list",
    "poisson_clock",
    "run_stage",
    "simulate_walk",
    "spectral_gap",
    "supra_laplacian",
    "threshold_filter",
    "time_to_coverage",
    "trim_edges",
    "write_edge_csv",
]
