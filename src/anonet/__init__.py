"""Simulation, verification, and experimentation toolkit for bounded-memory
gossip protocols on connected graphs."""

__version__ = "0.1.0"

from .engine import (  # noqa: F401
    Activation,
    Graph,
    RunResult,
    arc_chunks,
    build_graph,
    clock,
    measure_meeting_time,
    run,
    stream,
)
from .protocols import (  # noqa: F401
    ProtocolDef,
    bit_protocol,
    estimate_protocol,
    lsb_counter_protocol,
    or_protocol,
    threshold_protocol,
)
from .circuits import (  # noqa: F401
    Circuit,
    collision_count_check,
    compile_circuit,
    complete_max_tree,
    evaluate,
    max_gate_protocol,
    min_gate_protocol,
    parse_circuit,
    plurality_protocol,
)
from .oracle import (  # noqa: F401
    audit_memory,
    scaling_report,
    verify_exhaustive,
)
from .catalog import parse_inputs, resolve_protocol  # noqa: F401
