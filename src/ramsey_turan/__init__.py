"""Exact constructions, certificates, and brute-force oracles for
two-colored clique-avoidance extremal graph problems."""

from .certify import (
    AuditConfig,
    BipartitionSearchResult,
    Certificate,
    CheckRow,
    IndependenceCapError,
    audit_partition,
    bipartition_indep_search,
    check_colored_free,
    check_rt_witness,
    edge_formula_check,
    mono_triangle_free_count,
    pentagonlike_census,
)
from .constructions import (
    ConstructionError,
    Distance,
    FGraphResult,
    KklConstruction,
    KklParams,
    RuleVariant,
    andrasfai,
    blowup,
    construction_37,
    f_graph,
    kkl_36,
    pentagonlike,
    turan,
    turan_partition,
)
from .graph6 import Graph6Error, decode, encode
from .graphs import (
    ColoredGraph,
    EdgeColoring,
    Graph,
    VertexPartition,
    clique_number,
    find_clique,
    independence_number,
    min_crossing_degree,
)
from .qp import (
    CertificationError,
    InfeasiblePointError,
    QpCertificate,
    QpPoint,
    eval_f,
    eval_g,
    maximize_f,
    maximize_g,
    optimal_y,
    reduce_f_over_y,
)
from .report import ReportRow, bound_gap_report, reference_table
from .search import (
    ColoringSearch,
    RtInstance,
    RtResult,
    SearchBudgetExceeded,
    canonical_form,
    enumerate_canonical_graphs,
    find_free_coloring,
    graph_from_canonical,
    ramsey_verify,
    rt_exact,
)

__version__ = "0.1.0"
