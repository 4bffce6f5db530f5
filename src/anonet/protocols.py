"""Binary-input gossip protocols with strict per-agent memory budgets.

Each protocol is a `ProtocolDef`: an initializer from input colors to agent
states, a total deterministic pairwise transition rule applied to the
(initiator, responder) state pair, an output map, and a declared bit budget
that the reachable state set must fit (certified by oracle.audit_memory). No
protocol writes its own stop rule: every run stops by `engine.settled`,
which is derived from the transition rule.

Conventions shared by all protocols here:

* input color 0 is the counted color ("red"); r denotes its multiplicity,
* in asymmetric rules the initiator takes the first listed outcome,
* states are small NamedTuples, hashable so the engine can memoize pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .engine import ProtocolViolation, settled

__all__ = [
    "ProtocolDef",
    "ParityState",
    "ThresholdState",
    "BitState",
    "EstState",
    "or_protocol",
    "lsb_counter_protocol",
    "threshold_protocol",
    "bit_protocol",
    "estimate_protocol",
    "level_count",
]


@dataclass(frozen=True)
class ProtocolDef:
    """Immutable protocol descriptor; transitions are pure functions, so a
    single instance is safe to share across parallel runs. `quiescent(table,
    ids)` is the stop rule: `engine.settled`, as no factory sets it. A stop
    rule must fail while a per-node kind's outputs differ, and `engine.run`
    skips it then, whether or not the run is given an answer. `core`, set
    only by `plurality_protocol`, is (projection, spread): the audit closes
    projected states and counts each `spread` times."""

    name: str
    init: Callable
    transition: Callable
    output: Callable
    quiescent: Callable = settled  # the stop rule
    budget_bits: int = 0
    colors: int = 2
    match_mode: str = "per_node"  # "per_node" | "ones_count"
    core: Optional[tuple[Callable, int]] = None  # (projection, spread)


# ---------------------------------------------------------------------------
# OR


def or_protocol() -> ProtocolDef:
    """1-bit OR: on meeting, both parties keep the max of the two bits."""

    def init(color: int) -> int:
        return color

    def transition(a: int, b: int):
        m = a if a > b else b
        return (m, m)

    def output(s: int) -> int:
        return s

    return ProtocolDef(
        name="or",
        init=init,
        transition=transition,
        output=output,
        budget_bits=1,
    )


# ---------------------------------------------------------------------------
# Modular counter (c least significant bits of r)


class ParityState(NamedTuple):
    counter: int
    active: int


def lsb_counter_protocol(c: int) -> ProtocolDef:
    """Counts r modulo 2^c in c+1 bits per agent.

    Red agents start (1, active), others (0, passive). Two active agents
    merge: the initiator keeps the mod-2^c sum and stays active, the
    responder keeps the sum but turns passive. A passive agent copies an
    active agent's counter and the active/passive statuses swap, so the
    live token random-walks. Passive pairs do not interact.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    mod = 1 << c

    def init(color: int) -> ParityState:
        return ParityState(1, 1) if color == 0 else ParityState(0, 0)

    def transition(a: ParityState, b: ParityState):
        if a.active and b.active:
            s = (a.counter + b.counter) % mod
            return (ParityState(s, 1), ParityState(s, 0))
        if a.active != b.active:  # the token crosses; both keep its counter
            k = a.counter if a.active else b.counter
            return (ParityState(k, b.active), ParityState(k, a.active))
        return (a, b)

    def output(s: ParityState) -> int:
        return s.counter

    return ProtocolDef(
        name=f"lsb:{c}",
        init=init,
        transition=transition,
        output=output,
        budget_bits=c + 1,
    )


# ---------------------------------------------------------------------------
# Rational threshold


class ThresholdState(NamedTuple):
    counter: int
    strong: int


def threshold_protocol(a: int, b: int, c: int) -> ProtocolDef:
    """Decides whether r/(n-r) > a/b with c+2 bits per agent.

    Red agents start (+b, strong), others (-a, strong). Opposite-sign strong
    agents cancel: the initiator keeps the sum and stays strong while the
    responder drops to (0, weak); on equal magnitudes the initiator becomes
    (0, weak) and the responder (0, strong). Weak agents copy a strong
    agent's counter (zero included: after a full tie cancellation only
    zero strongs remain and stale nonzero copies must still be flushed)
    with statuses swapped, and a strong zero defers to a nonzero strong the
    same way, so zero strongs die out whenever nonzero strongs exist and
    cannot keep feeding 0 alongside them. Everything else swaps states.
    Output is [counter > 0]; exact ties stabilize to 0.
    """
    if not (1 <= a <= (1 << c) and 1 <= b <= (1 << c)):
        raise ValueError(f"need 1 <= a,b <= 2^c, got a={a} b={b} c={c}")

    def init(color: int) -> ThresholdState:
        return ThresholdState(b, 1) if color == 0 else ThresholdState(-a, 1)

    def transition(x: ThresholdState, y: ThresholdState):
        cx, cy = x.counter, y.counter
        if x.strong and y.strong and cx * cy < 0:
            if cx + cy:
                return (ThresholdState(cx + cy, 1), ThresholdState(0, 0))
            return (ThresholdState(0, 0), ThresholdState(0, 1))
        if y.strong and (not x.strong or cx == 0 != cy):  # x defers to y
            return (y, ThresholdState(cy, 0))
        if x.strong and (not y.strong or cy == 0 != cx):  # y defers to x
            return (ThresholdState(cx, 0), x)
        return (y, x)

    def output(s: ThresholdState) -> int:
        return 1 if s.counter > 0 else 0

    return ProtocolDef(
        name=f"threshold:{a}:{b}:{c}",
        init=init,
        transition=transition,
        output=output,
        budget_bits=c + 2,
    )


# ---------------------------------------------------------------------------
# Per-bit counting


def level_count(n_max: int) -> int:
    """Number of levels L = ceil(log2(n_max)) + 1; tokens live in [0, L)."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return (n_max - 1).bit_length() + 1  # in integers: a float log2 is one short at 2^49 + 1


class BitState(NamedTuple):
    color: int
    active: int
    level: int
    out: int


def _move_tokens(x, y, levels: int):
    """The token move shared by `bit` and `estimate`, on states with `color`,
    `active` and `level` fields; every other field carries through.

    Two equal-level tokens merge: (1,1) promotes the responder one level up,
    and any other color pair leaves the XOR on the initiator and kills the
    responder. A token meeting any other agent swaps the two states, so tokens
    random-walk. Two passive agents give None.
    """
    if x.active and y.active and x.level == y.level:
        if x.color and y.color:
            if y.level + 1 >= levels:
                raise ProtocolViolation(f"token would exceed level {levels - 1}: r, the "
                                        f"count of color 0, must be < 2^{levels}")
            return (x._replace(color=0), y._replace(level=y.level + 1))
        return (x._replace(color=x.color ^ y.color), y._replace(color=0, active=0))
    if x.active or y.active:
        return (y, x)
    return None


def bit_protocol(j: int, n_max: int) -> ProtocolDef:
    """Computes bit j of r (count of color-0 agents) for any r < 2^L, where
    L = level_count(n_max) >= log2(n_max) + 1, so any n <= n_max is safe; a
    larger r raises ProtocolViolation.

    Red agents start as active level-0 tokens of color 1. Equal-level tokens
    merge, carrying binary-addition carries upward, so the last token left
    at level i holds bit i of r. Tokens at different levels only swap (a
    random-walk shuffle), and a passive agent meeting an active one swaps
    full states after recording its observation.

    Every agent keeps an `out` register updated whenever it meets an active
    level-j agent. The output map reads `color` for an active level-j agent
    itself (its own register may hold a stale observation of an earlier
    level-j token) and `out` for everyone else; passive agents that never
    meet a level-j token answer the default 0.
    """
    levels = level_count(n_max)
    if not (0 <= j < levels):
        raise ValueError(f"bit index {j} outside [0, {levels})")

    def init(color: int) -> BitState:
        return BitState(1, 1, 0, 0) if color == 0 else BitState(0, 0, 0, 0)

    def observe(s: BitState, other: BitState) -> BitState:
        if other.active and other.level == j and s.out != other.color:
            return s._replace(out=other.color)
        return s

    def transition(x: BitState, y: BitState):
        x2, y2 = observe(x, y), observe(y, x)
        return _move_tokens(x2, y2, levels) or (x2, y2)

    def output(s: BitState) -> int:
        if s.active and s.level == j:
            return s.color
        return s.out

    return ProtocolDef(
        name=f"bit:{j}:{n_max}",
        init=init,
        transition=transition,
        output=output,
        budget_bits=math.ceil(math.log2(levels)) + 3,
    )


# ---------------------------------------------------------------------------
# Factor-2 count estimator


class EstState(NamedTuple):
    color: int
    active: int
    level: int
    est: int


def estimate_protocol(n_max: int) -> ProtocolDef:
    """Estimates r within a factor of 2: runs the per-bit token dynamics and
    gossips est = max level ever observed on an active agent, which settles
    at floor(log2 r), so 2^est is the estimate. For r = 0 every register
    stays 0 and the caller reports the run as empty. Like `bit_protocol` it
    needs r < 2^level_count(n_max).
    """
    levels = level_count(n_max)

    def init(color: int) -> EstState:
        return EstState(1, 1, 0, 0) if color == 0 else EstState(0, 0, 0, 0)

    def transition(x: EstState, y: EstState):
        ax, ay = _move_tokens(x, y, levels) or (x, y)
        est = max(
            ax.est,
            ay.est,
            ax.level if ax.active else 0,
            ay.level if ay.active else 0,
        )
        return (ax._replace(est=est), ay._replace(est=est))

    def output(s: EstState) -> int:
        return s.est

    log_l = math.ceil(math.log2(levels))
    return ProtocolDef(
        name=f"estimate:{n_max}",
        init=init,
        transition=transition,
        output=output,
        budget_bits=log_l + 3 + log_l,
    )
