"""Simulation, verification, and experimentation toolkit for bounded-memory
gossip protocols on connected graphs.

The names below are resolved on first use (PEP 562), so that importing the
package, or one of its modules, loads only the modules a command runs."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "engine": ("Activation", "Graph", "RunResult", "arc_chunks", "build_graph", "clock",
               "measure_meeting_time", "run", "stream"),
    "protocols": ("ProtocolDef", "bit_protocol", "estimate_protocol", "lsb_counter_protocol",
                  "or_protocol", "threshold_protocol"),
    "circuits": ("Circuit", "compile_circuit", "complete_max_tree", "evaluate",
                 "max_gate_protocol", "min_gate_protocol", "parse_circuit",
                 "plurality_protocol"),
    "oracle": ("audit_memory", "scaling_report", "verify_exhaustive"),
    "catalog": ("parse_inputs", "resolve_protocol"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # so that the next lookup finds it without this call
    return value
