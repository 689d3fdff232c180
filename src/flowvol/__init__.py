"""Exact-arithmetic volumes of Pitman-Stanley and caracol flow polytopes.

Four independent computation paths - flow counting behind the volume sum,
iterated constant terms, labeled Dyck path enumeration, and closed product
formulas - plus the verification harness that cross-checks them.

The names below load their module on first use, so importing one path
(``import flowvol.dyck``) loads no other.
"""

from importlib import import_module

# exported name -> the module that defines it
_EXPORTS = {
    "DirectedStepGraph": "graphs",
    "FlowAssignment": "graphs",
    "NetFlow": "graphs",
    "augment": "graphs",
    "caracol_graph": "graphs",
    "parse_graph_spec": "graphs",
    "parse_net_flow": "graphs",
    "pitman_stanley_graph": "graphs",
    "restrict": "graphs",
    "count_flows": "kostant",
    "list_flows": "kostant",
    "ehrhart_differences": "lidskii",
    "ehrhart_like": "lidskii",
    "unit_flow_volume": "lidskii",
    "volume": "lidskii",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
