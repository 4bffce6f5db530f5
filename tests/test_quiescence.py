"""The stop rule (`engine.settled`, every protocol's `quiescent`) decides when
a run stops and claims that it has stabilized. Check it mechanically: on
small graphs, from every input, every labelled configuration reachable from
one where the rule holds must give the same outputs (per node, or as a
multiset for protocols that are matched on their ones-count, whose agents
swap states)."""

import itertools

import pytest

from anonet.catalog import KINDS, resolve_protocol
from anonet.circuits import compile_circuit, parse_circuit
from anonet.engine import TransitionTable, build_graph

GRAPHS = ("path:4", "star:4", "cycle:4", "complete:4", "cycle:5")
# plurality:3 on cycle:5 alone takes ~60 s
SMALL_GRAPHS = GRAPHS[:4]


def stop_rule_violation(protocol, graph):
    """A (settled configuration, reachable configuration with other outputs)
    pair as state-object tuples, or None, over every configuration that some
    input reaches on `graph`. Inputs share their reachable configurations, so
    each is explored once. The rule is called as `run` calls it, on the
    search's own table."""
    table = TransitionTable(protocol)
    ordered = [arc for u, v in graph.edges for arc in ((u, v), (v, u))]

    def successors(cfg):
        for u, v in ordered:
            a, b = cfg[u], cfg[v]
            pair = table.rows[a].get(b)
            if pair is None:
                table.fill(a, b)
                pair = table.rows[a][b]
            if pair:  # () for a null pair
                na, nb = pair
                nxt = list(cfg)
                nxt[u], nxt[v] = na, nb
                yield tuple(nxt)

    def outputs(cfg):
        outs = tuple(table.outs[s] for s in cfg)
        return tuple(sorted(outs)) if protocol.match_mode == "ones_count" else outs

    reachable = set()
    for inputs in itertools.product(range(protocol.colors), repeat=graph.n):
        init = tuple(table.intern(protocol.init(c)) for c in inputs)
        frontier = [init] if init not in reachable else []
        reachable.update(frontier)
        while frontier:
            for d in successors(frontier.pop()):
                if d not in reachable:
                    reachable.add(d)
                    frontier.append(d)

    # Everything reached from a settled configuration gives that one's
    # outputs, so a later search may stop at it after comparing outputs.
    settled = set()
    for root in reachable:
        if root in settled or not protocol.quiescent(table, root):
            continue
        want = outputs(root)
        settled.add(root)
        stack = [root]
        while stack:
            for d in successors(stack.pop()):
                if outputs(d) != want:
                    return tuple(table.objs[s] for s in root), tuple(table.objs[s] for s in d)
                if d not in settled:
                    settled.add(d)
                    stack.append(d)
    return None


SPECS = ("or", "lsb:2", "threshold:2:1", "bit:1:8", "estimate:8", "max-gate", "min-gate",
         "plurality:3")


def protocols():
    protos = [resolve_protocol(spec).protocol for spec in SPECS]
    protos.append(compile_circuit(parse_circuit("(max (max 0 1) 2)")))
    return protos


@pytest.mark.parametrize("protocol", protocols(), ids=lambda p: p.name)
def test_quiescence_is_never_left_for_other_outputs(protocol):
    for spec in GRAPHS if protocol.colors == 2 else SMALL_GRAPHS:
        bad = stop_rule_violation(protocol, build_graph(spec))
        assert bad is None, (spec, bad)


def test_every_kind_is_checked():
    assert {spec.partition(":")[0] for spec in SPECS} == set(KINDS)
