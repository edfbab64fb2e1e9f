"""Exact localization of personalized PageRank, plus the competition and
leadership structure it induces on a directed graph.

The analysis pipeline: parse a graph, build its patched row-stochastic
matrix, form X = (1 - alpha) * (I - alpha P_u)^{-1}, and read every
question off X: per-node attainable rank intervals, effective-competitor
pairs, and the leadership group, each with constructive personalization
witnesses and a seeded Monte-Carlo verification layer.
"""

from .competition import (
    STRICT_MARGIN,
    CompetitionVerdict,
    CompetitivityInterval,
    LeadershipGroup,
    WitnessCertificate,
    competitivity_graph,
    competitivity_interval,
    competitor_scan,
    effective_competitors,
    leadership_certificate,
    leadership_group,
    witness_epsilon,
)
from .errors import (
    ConvergenceError,
    DegenerateIntervalError,
    DomainError,
    NumericalError,
    OracleMismatchError,
    ParseError,
    RankReachError,
    StructureError,
)
from .graph import (
    CSRMatrix,
    DirectedGraph,
    adjacency,
    parse_edge_list,
    parse_graph_json,
)
from .localization import (
    AchieveResult,
    FundamentalMatrix,
    PRInterval,
    RankContext,
    StructureReport,
    achieve_value,
    basis_family,
    pr_interval,
    verify_structure,
)
from .oracle import (
    SampleReport,
    explicit_inverse_check,
    google_matrix,
    monte_carlo_interval,
    observe_rank_swaps,
    pagerank_power,
    sample_personalization_batch,
)
from .stochastic import (
    DEFAULT_ALPHA,
    PageRankVector,
    PersonalizationVector,
    RowStochasticMatrix,
    row_stochastic,
)

__all__ = [
    "AchieveResult",
    "CSRMatrix",
    "CompetitionVerdict",
    "CompetitivityInterval",
    "ConvergenceError",
    "DEFAULT_ALPHA",
    "DegenerateIntervalError",
    "DirectedGraph",
    "DomainError",
    "FundamentalMatrix",
    "LeadershipGroup",
    "NumericalError",
    "OracleMismatchError",
    "PRInterval",
    "PageRankVector",
    "ParseError",
    "PersonalizationVector",
    "RankContext",
    "RankReachError",
    "RowStochasticMatrix",
    "STRICT_MARGIN",
    "SampleReport",
    "StructureError",
    "StructureReport",
    "WitnessCertificate",
    "achieve_value",
    "adjacency",
    "basis_family",
    "competitivity_graph",
    "competitivity_interval",
    "competitor_scan",
    "effective_competitors",
    "explicit_inverse_check",
    "google_matrix",
    "leadership_certificate",
    "leadership_group",
    "monte_carlo_interval",
    "observe_rank_swaps",
    "pagerank_power",
    "parse_edge_list",
    "parse_graph_json",
    "pr_interval",
    "row_stochastic",
    "sample_personalization_batch",
    "verify_structure",
    "witness_epsilon",
]
