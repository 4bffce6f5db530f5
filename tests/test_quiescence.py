"""The stop rule (`engine.settled`, every protocol's `quiescent`) decides when
a run stops and claims that it has stabilized. Check it mechanically: on
small graphs, from every input, every labelled configuration reachable from
one where the rule holds must give the same outputs (per node, or as a
multiset for protocols that are matched on their ones-count, whose agents
swap states). And check that it is live: every terminal component of those
configurations holds one where the rule holds."""

import itertools

import networkx as nx
import pytest

from anonet.catalog import KINDS, resolve_protocol
from anonet.circuits import compile_circuit, parse_circuit
from anonet.engine import TransitionTable, build_graph, settled

GRAPHS = ("path:4", "star:4", "cycle:4", "complete:4", "cycle:5")
# plurality:3 on cycle:5 alone takes ~60 s
SMALL_GRAPHS = GRAPHS[:4]


def search(protocol, graph):
    """(the search's table, its successor function, every labelled
    configuration that some input reaches on `graph`). Inputs share their
    reachable configurations, so each is explored once."""
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
    return table, successors, reachable


def stop_rule_violation(protocol, graph):
    """A (settled configuration, reachable configuration with other outputs)
    pair as state-object tuples, or None, over every configuration that some
    input reaches on `graph`. The rule is called as `run` calls it, on the
    search's own table."""
    table, successors, reachable = search(protocol, graph)

    def outputs(cfg):
        outs = tuple(table.outs[s] for s in cfg)
        return tuple(sorted(outs)) if protocol.match_mode == "ones_count" else outs

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


def protocols(specs=SPECS):
    protos = [resolve_protocol(spec).protocol for spec in specs]
    protos.append(compile_circuit(parse_circuit("(max (max 0 1) 2)")))
    return protos


@pytest.mark.parametrize("protocol", protocols(), ids=lambda p: p.name)
def test_quiescence_is_never_left_for_other_outputs(protocol):
    for spec in GRAPHS if protocol.colors == 2 else SMALL_GRAPHS:
        bad = stop_rule_violation(protocol, build_graph(spec))
        assert bad is None, (spec, bad)


@pytest.mark.parametrize("protocol", protocols(), ids=lambda p: p.name)
def test_the_memo_gives_a_fresh_tables_verdict(protocol):
    # `settled` decides each set of present states once per table; on the
    # search's table, which every configuration's call fills and memoizes,
    # its verdict must be that of a table holding only this configuration's
    # states. The rule reads the states as a multiset, so one fresh table
    # serves every arrangement of it
    for spec in GRAPHS if protocol.colors == 2 else SMALL_GRAPHS:
        table, _, reachable = search(protocol, build_graph(spec))
        fresh_verdicts = {}
        for cfg in reachable:
            multiset = tuple(sorted(cfg))
            if multiset not in fresh_verdicts:
                fresh = TransitionTable(protocol)
                ids = [fresh.intern(table.objs[s]) for s in multiset]
                fresh_verdicts[multiset] = settled(fresh, ids)
            assert settled(table, cfg) == fresh_verdicts[multiset], (spec, cfg)


# plurality:3 reaches 207,416 labelled configurations on SMALL_GRAPHS, which
# networkx condenses in ~14 s; two colours check the kind in a fraction of it
LIVE_SPECS = tuple("plurality:2" if spec.startswith("plurality") else spec for spec in SPECS)


@pytest.mark.parametrize("protocol", protocols(LIVE_SPECS), ids=lambda p: p.name)
def test_every_terminal_component_holds_a_settled_configuration(protocol):
    # liveness: a fair run ends in a terminal component, so it can stop by
    # the rule only if the component holds a configuration where the rule
    # holds; otherwise every run that enters it runs to max_steps
    for spec in SMALL_GRAPHS:
        table, successors, reachable = search(protocol, build_graph(spec))
        configs = nx.DiGraph()
        configs.add_nodes_from(reachable)
        configs.add_edges_from((cfg, d) for cfg in reachable for d in successors(cfg))
        for component in nx.attracting_components(configs):
            assert any(settled(table, cfg) for cfg in component), (spec, component)


def test_every_kind_is_checked():
    for specs in (SPECS, LIVE_SPECS):
        assert {spec.partition(":")[0] for spec in specs} == set(KINDS)
