"""Multi-resolution GMM clustering with stability metrics and lineage export."""

from .data import (
    ContingencyTable,
    EmbeddingMatrix,
    Partition,
    build_contingency,
    intersect_partitions,
    load_embeddings,
    save_embeddings,
)
from .gmm import GmmConfig, MixtureModel, e_step, fit, log_density_diag, m_step
from .metrics import (
    AmiReport,
    StabilityBreakdown,
    ami,
    entropy,
    expected_mutual_information,
    mutual_information,
    proportional_stability,
)
from .pipeline import SweepResult, read_archive, run_sweep, transition_counts, write_archive
from .sankey import SankeyGraph, build_graph, export_html, export_json
from .stability import (
    PerturbationSpec,
    StabilityCurve,
    dimension_stability,
    row_stability,
    seed_stability,
)

__version__ = "0.1.0"

__all__ = [
    "AmiReport",
    "ContingencyTable",
    "EmbeddingMatrix",
    "GmmConfig",
    "MixtureModel",
    "Partition",
    "PerturbationSpec",
    "SankeyGraph",
    "StabilityBreakdown",
    "StabilityCurve",
    "SweepResult",
    "ami",
    "build_contingency",
    "build_graph",
    "dimension_stability",
    "e_step",
    "entropy",
    "expected_mutual_information",
    "export_html",
    "export_json",
    "fit",
    "intersect_partitions",
    "load_embeddings",
    "log_density_diag",
    "m_step",
    "mutual_information",
    "proportional_stability",
    "read_archive",
    "row_stability",
    "run_sweep",
    "save_embeddings",
    "seed_stability",
    "transition_counts",
    "write_archive",
]
