"""Resolution of protocol and input specification strings.

Protocol strings are `kind[:p1[:p2...]]` with integer parameters in digits
0-9 (`engine.parse_decimal`). `KINDS` is their grammar: kind -> (accepted
parameter counts, `build(*params)`), and `build` returns (protocol, truth)
or (protocol, truth, audit note), the fields of `ResolvedProtocol`.
`truth(counts)` is plain arithmetic over per-color counts (r is the count
of color 0), None when there is nothing to report; ValueError means there
is no answer.

    or                 1 if any agent has color 1
    lsb:c              r mod 2^c
    threshold:a:b[:c]  1 if r/(n - r) > a/b; c defaults to the minimal c
                       with a, b <= 2^c
    bit:j:nmax         bit j of r, for r < 2^L with L = ceil(log2 nmax) + 1
    estimate:nmax      floor(log2 r), None for r = 0; r < 2^L as for bit
    max-gate           max of the two color counts
    min-gate           min of the two color counts
    plurality:k        the most common of k colors; a tie has no answer

`circuit:path` is the one kind outside the table, since its parameter is
a file holding a MAX tree (a MIN gate in it is an error, as MIN gates do not
compose); its truth is `circuits.evaluate`.

Input specs are either an explicit comma-separated color list ("0,1,0,0")
or "color:count" blocks ("0:5,1:3"); counts may be given as integers, as
percentages of n ("0:25%"), or "rest" to absorb the remainder. Block inputs
are laid out in ascending color blocks and then shuffled with the seed's
`inputs` stream (the protocols are symmetric, so placement only affects
reproducibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from . import protocols
from .engine import parse_decimal, stream

__all__ = ["KINDS", "ResolvedProtocol", "resolve_protocol", "parse_inputs", "counts_of",
           "ConfigError"]


class ConfigError(ValueError):
    pass


@dataclass
class ResolvedProtocol:
    protocol: protocols.ProtocolDef
    oracle_fn: Callable[[Sequence[int]], object]
    audit_note: str = ""  # what `anonet audit` adds to the kind's row


def _circuits():
    """The `circuits` module, imported when a spec first needs it, so that
    the kinds outside it never load it."""
    from . import circuits

    return circuits


def _threshold(a: int, b: int, c: Optional[int] = None):
    if c is None:
        c = max(1, max(a, b) - 1).bit_length()
    return (protocols.threshold_protocol(a, b, c),
            lambda counts: 1 if b * counts[0] > a * (sum(counts) - counts[0]) else 0)


def _plurality(counts: Sequence[int]) -> int:
    top = max(counts)
    winners = [i for i, c in enumerate(counts) if c == top]
    if len(winners) != 1:
        raise ValueError(f"plurality tie between colors {winners}")
    return winners[0]


KINDS: dict[str, tuple[tuple[int, ...], Callable]] = {
    "or": ((0,), lambda: (protocols.or_protocol(),
                          lambda counts: 1 if sum(counts) > counts[0] else 0)),
    "lsb": ((1,), lambda c: (protocols.lsb_counter_protocol(c),
                             lambda counts: counts[0] % (1 << c))),
    "threshold": ((2, 3), _threshold),
    "bit": ((2,), lambda j, nmax: (protocols.bit_protocol(j, nmax),
                                   lambda counts: (counts[0] >> j) & 1,
                                   "output register adds one bit over the counter tuple")),
    "estimate": ((1,), lambda nmax: (
        protocols.estimate_protocol(nmax),
        lambda counts: counts[0].bit_length() - 1 if counts[0] else None)),
    "max-gate": ((0,), lambda: (_circuits().max_gate_protocol(),
                                lambda counts: max(counts[0], counts[1]))),
    "min-gate": ((0,), lambda: (_circuits().min_gate_protocol(),
                                lambda counts: min(counts[0], counts[1]))),
    "plurality": ((1,), lambda k: (_circuits().plurality_protocol(k), _plurality)),
}


def resolve_protocol(spec: str) -> ResolvedProtocol:
    """Build the protocol and its ground truth from a spec string."""
    kind, colon, rest = spec.partition(":")
    params = rest.split(":") if colon else []
    try:
        if kind == "circuit" and colon:
            circuits = _circuits()
            try:
                with open(rest, "r", encoding="utf-8") as fh:
                    circ = circuits.parse_circuit(fh.read())
            except OSError as exc:
                raise ConfigError(f"cannot read circuit file {rest}: {exc}") from exc
            return ResolvedProtocol(circuits.compile_circuit(circ),
                                    partial(circuits.evaluate, circ))
        arities, build = KINDS.get(kind, ((), None))
        if len(params) in arities:
            return ResolvedProtocol(*build(*map(parse_decimal, params)))
    except ValueError as exc:  # CircuitError included
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad protocol spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown protocol spec {spec!r}")


def counts_of(inputs: Sequence[int], colors: int) -> list[int]:
    counts = [0] * colors
    for c in inputs:
        counts[c] += 1
    return counts


def parse_inputs(spec: str, n: int, colors: int, seed: int = 0) -> list[int]:
    """Expand an input spec into a node-indexed color list of length n."""
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty input spec")
    fields = [f.strip() for f in spec.split(",")]
    if all(":" not in f for f in fields):
        try:
            values = [parse_decimal(f) for f in fields]
        except ValueError as exc:
            raise ConfigError(f"bad input list {spec!r}") from exc
        if len(values) != n:
            raise ConfigError(f"input list has {len(values)} entries, graph has {n}")
        for v in values:
            if v >= colors:
                raise ConfigError(f"input color {v} out of range [0, {colors})")
        return values

    counts = [0] * colors
    rest_color: Optional[int] = None
    used = 0
    for f in fields:
        if ":" not in f:
            raise ConfigError(f"mixed input spec {spec!r}")
        color_s, count_s = f.split(":", 1)
        try:
            color = parse_decimal(color_s)
            count = None if count_s == "rest" else parse_decimal(count_s.removesuffix("%"))
        except ValueError as exc:
            raise ConfigError(f"bad input block {f!r}: expected color:count, color:p% "
                              "or color:rest") from exc
        if color >= colors:
            raise ConfigError(f"input color {color} out of range [0, {colors})")
        if count is None:
            if rest_color is not None:
                raise ConfigError("only one 'rest' block allowed")
            rest_color = color
            continue
        if count_s.endswith("%"):
            count = n * count // 100
        counts[color] += count
        used += count
    if rest_color is not None:
        if used > n:
            raise ConfigError(f"counts sum to {used} > n = {n}")
        counts[rest_color] += n - used
    elif used != n:
        raise ConfigError(f"counts sum to {used}, graph has n = {n}")
    values: list[int] = []
    for color, count in enumerate(counts):
        values.extend([color] * count)
    stream("inputs", seed).shuffle(values)
    return values
