"""Dynamic betweenness centrality over exact shortest-path DAG state."""

from .graph import (
    DIST_LIMIT,
    Graph,
    GraphFormatError,
    WEIGHT_SCALE,
    format_weight,
    parse_graph,
    parse_weight,
    serialize_graph,
)
from .apsp import (
    INF,
    SIGMA_EXACT_LIMIT,
    ApspState,
    SsspResult,
    StarStats,
    UpdateReport,
    WorkCounters,
    accumulate_dependency,
    brandes_bc,
    counting_dijkstra,
    derive_rdags,
    star_stats,
    static_bc,
    topo_order,
)
from .edge_update import (
    EdgeUpdate,
    FlagMatrix,
    UpdateError,
    classify_pairs,
    incremental_bc_edge,
    update_dag,
)
from .vertex_update import (
    VertexUpdate,
    build_r_sets,
    incremental_bc_vertex,
    update_dag_vertex,
)
from .oracle import (
    OracleReport,
    PairFlag,
    classify_pair,
    classify_pair_vertex,
    compare_states,
    enumerate_paths_bc,
)
from .generate import SplitMix64, gen_graph

__all__ = [
    "DIST_LIMIT", "Graph", "GraphFormatError", "WEIGHT_SCALE",
    "format_weight", "parse_graph", "parse_weight", "serialize_graph",
    "INF", "SIGMA_EXACT_LIMIT", "ApspState", "SsspResult", "StarStats",
    "UpdateReport", "WorkCounters", "accumulate_dependency", "brandes_bc",
    "counting_dijkstra", "derive_rdags", "star_stats", "static_bc",
    "topo_order",
    "EdgeUpdate", "FlagMatrix", "UpdateError", "classify_pairs",
    "incremental_bc_edge", "update_dag",
    "VertexUpdate", "build_r_sets", "incremental_bc_vertex", "update_dag_vertex",
    "OracleReport", "PairFlag", "classify_pair", "classify_pair_vertex",
    "compare_states", "enumerate_paths_bc",
    "SplitMix64", "gen_graph",
]
