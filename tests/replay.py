"""Replaying a recorded run, for tests that check every activation."""


def replay(protocol, inputs, result, check):
    """Replay `result.trace` (a run with `record_trace=True`) through
    `protocol.transition` from the initial states of `inputs`, call
    `check(step, states)` with a copy of the states after each activation,
    and assert that the replay ends at `result.final_states`. The trace's
    arcs are those the run drew, rewiring included."""
    states = [protocol.init(c) for c in inputs]
    for act in result.trace:
        u, v = act.initiator, act.responder
        states[u], states[v] = protocol.transition(states[u], states[v])
        check(act.step, list(states))
    assert tuple(states) == result.final_states


def held(protocol, inputs, result):
    """The set of states that agents held along `result.trace` (a run with
    `record_trace=True`), replayed as `replay` does, initial states included."""
    seen = {protocol.init(c) for c in inputs}
    replay(protocol, inputs, result, lambda step, states: seen.update(states))
    return seen
