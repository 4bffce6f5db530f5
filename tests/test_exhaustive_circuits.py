"""Exhaustive (every fair schedule) verification of the circuit machinery on
tiny instances, including exactly tied gates where the bookkeeping is most
delicate."""

import pytest

from anonet.catalog import resolve_protocol
from anonet.circuits import compile_circuit, evaluate, parse_circuit
from anonet.engine import build_graph
from anonet.oracle import verify_exhaustive


def expand(counts):
    return [c for c, k in enumerate(counts) for _ in range(k)]


@pytest.mark.parametrize(
    "text,counts,graph",
    [
        ("(max 0 1)", (2, 2), "cycle:4"),
        ("(max 0 1)", (3, 1), "complete:4"),
        ("(max (max 0 1) 2)", (1, 1, 2), "cycle:4"),
        ("(max (max 0 1) (max 2 3))", (1, 1, 1, 1), "complete:4"),
        ("(max (max 0 1) (max 2 3))", (2, 1, 1, 1), "path:5"),
    ],
)
def test_ledger_circuits_stabilize_under_every_schedule(text, counts, graph):
    circ = parse_circuit(text)
    proto = compile_circuit(circ)
    res = verify_exhaustive(
        proto, build_graph(graph), expand(counts), evaluate(circ, counts),
        max_configs=2_000_000,
    )
    assert res.verdict == "PASS", res.detail


@pytest.mark.parametrize(
    "counts,graph",
    [
        ((1, 0, 0, 2), "cycle:3"),
        ((1, 1, 0, 2), "cycle:4"),  # tied left gate feeding the root
        ((0, 1, 1, 2), "path:4"),
        ((1, 1, 2, 1), "path:5"),
    ],
)
def test_plurality_stabilizes_under_every_schedule(counts, graph):
    resolved = resolve_protocol("plurality:4")
    proto, expected = resolved.protocol, resolved.oracle_fn(counts)
    res = verify_exhaustive(
        proto, build_graph(graph), expand(counts), expected, max_configs=2_000_000
    )
    assert res.verdict == "PASS", res.detail

