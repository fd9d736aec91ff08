"""Exact solver and verification workbench for rooted cycle minors."""

from .connectivity import (
    MassedReport,
    PathSystem,
    Separation,
    is_massed,
    menger,
)
from .errors import (
    CertificateError,
    CyclelinkError,
    FalsifierError,
    GenerationError,
    Graph6Error,
    GraphError,
    NotMassedError,
    ResourceGuardError,
    UnsupportedError,
)
from .extremal import ExtremalCertificate, generate, recognize
from .graph import Graph, complete_graph, cycle_graph, path_graph
from .io6 import load_graph, parse_edge_list, parse_graph6, read_graph6_file, to_graph6
from .minor import (
    CycleLinkReport,
    MinorModel,
    canonical_cyclic_orders,
    find_rooted_cycle_minor,
    is_cycle_linked,
    path_exists,
    verify_model,
)
from .reducer import solve

__all__ = [
    "CertificateError",
    "CycleLinkReport",
    "CyclelinkError",
    "ExtremalCertificate",
    "FalsifierError",
    "GenerationError",
    "Graph",
    "Graph6Error",
    "GraphError",
    "MassedReport",
    "MinorModel",
    "NotMassedError",
    "PathSystem",
    "ResourceGuardError",
    "Separation",
    "UnsupportedError",
    "canonical_cyclic_orders",
    "complete_graph",
    "cycle_graph",
    "find_rooted_cycle_minor",
    "generate",
    "is_cycle_linked",
    "is_massed",
    "load_graph",
    "menger",
    "parse_edge_list",
    "parse_graph6",
    "path_exists",
    "path_graph",
    "read_graph6_file",
    "recognize",
    "solve",
    "to_graph6",
    "verify_model",
]
