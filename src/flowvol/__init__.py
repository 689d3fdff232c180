"""Exact-arithmetic volumes of Pitman-Stanley and caracol flow polytopes.

Four independent computation paths - flow counting behind the volume sum,
iterated constant terms, labeled Dyck path enumeration, and closed product
formulas - plus the verification harness that cross-checks them.
"""

from .graphs import (
    DirectedStepGraph,
    FlowAssignment,
    NetFlow,
    augment,
    caracol_graph,
    parse_graph_spec,
    parse_net_flow,
    pitman_stanley_graph,
    restrict,
)
from .kostant import count_flows, list_flows
from .lidskii import (
    ehrhart_differences,
    ehrhart_like,
    unit_flow_volume,
    volume,
)

__all__ = [
    "DirectedStepGraph",
    "FlowAssignment",
    "NetFlow",
    "augment",
    "caracol_graph",
    "parse_graph_spec",
    "parse_net_flow",
    "pitman_stanley_graph",
    "restrict",
    "count_flows",
    "list_flows",
    "ehrhart_differences",
    "ehrhart_like",
    "unit_flow_volume",
    "volume",
]
