"""Multi-resolution GMM clustering with stability metrics and lineage export."""

from .data import load_embeddings
from .gmm import GmmConfig
from .metrics import ami, proportional_stability
from .pipeline import run_sweep, write_archive
from .sankey import build_graph, export_html
from .stability import PerturbationSpec, dimension_stability

__version__ = "0.1.0"

__all__ = [
    "GmmConfig",
    "PerturbationSpec",
    "ami",
    "build_graph",
    "dimension_stability",
    "export_html",
    "load_embeddings",
    "proportional_stability",
    "run_sweep",
    "write_archive",
]
