"""Resolution of protocol and input specification strings.

Protocol strings: or | lsb:c | threshold:a:b[:c] | bit:j:nmax |
estimate:nmax | max-gate | min-gate | plurality:k | circuit:path.
Threshold infers the minimal c with a, b <= 2^c when omitted.

Input specs are either an explicit comma-separated color list ("0,1,0,0")
or "color:count" blocks ("0:5,1:3"); counts may be given as integers, as
percentages of n ("0:25%"), or "rest" to absorb the remainder. Block inputs
are laid out in ascending color blocks and then shuffled with the seed's
`inputs` stream (the protocols are symmetric, so placement only affects
reproducibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import circuits, oracle, protocols
from .engine import stream

__all__ = ["ResolvedProtocol", "resolve_protocol", "parse_inputs", "ConfigError"]


class ConfigError(ValueError):
    pass


@dataclass
class ResolvedProtocol:
    spec: str
    protocol: protocols.ProtocolDef
    oracle_fn: Callable[[Sequence[int]], object]
    kind: str


def resolve_protocol(spec: str) -> ResolvedProtocol:
    """Build the protocol and its ground-truth oracle from a spec string."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "or" and len(parts) == 1:
            proto = protocols.or_protocol()
            return ResolvedProtocol(spec, proto, lambda c: oracle.oracle_value("or", c), "or")
        if kind == "lsb" and len(parts) == 2:
            c = int(parts[1])
            proto = protocols.lsb_counter_protocol(c)
            return ResolvedProtocol(
                spec, proto, lambda counts: oracle.oracle_value("lsb", counts, c=c), "lsb"
            )
        if kind == "threshold" and len(parts) in (3, 4):
            a, b = int(parts[1]), int(parts[2])
            if len(parts) == 4:
                c = int(parts[3])
            else:
                c = max(1, max(a, b) - 1).bit_length()
            proto = protocols.threshold_protocol(a, b, c)
            return ResolvedProtocol(
                spec,
                proto,
                lambda counts: oracle.oracle_value("threshold", counts, a=a, b=b),
                "threshold",
            )
        if kind == "bit" and len(parts) == 3:
            j, nmax = int(parts[1]), int(parts[2])
            proto = protocols.bit_protocol(j, nmax)
            return ResolvedProtocol(
                spec, proto, lambda counts: oracle.oracle_value("bit", counts, j=j), "bit"
            )
        if kind == "estimate" and len(parts) == 2:
            nmax = int(parts[1])
            proto = protocols.estimate_protocol(nmax)
            return ResolvedProtocol(
                spec, proto, lambda counts: oracle.oracle_value("estimate", counts), "estimate"
            )
        if kind == "max-gate" and len(parts) == 1:
            proto = circuits.max_gate_protocol()
            return ResolvedProtocol(
                spec, proto, lambda counts: oracle.oracle_value("max_gate", counts), "max_gate"
            )
        if kind == "min-gate" and len(parts) == 1:
            proto = circuits.min_gate_protocol()
            return ResolvedProtocol(
                spec, proto, lambda counts: oracle.oracle_value("min_gate", counts), "min_gate"
            )
        if kind == "plurality" and len(parts) == 2:
            k = int(parts[1])
            proto = circuits.plurality_protocol(k)
            return ResolvedProtocol(
                spec, proto, lambda counts: oracle.oracle_value("plurality", counts), "plurality"
            )
        if kind == "circuit" and len(parts) >= 2:
            path = spec.split(":", 1)[1]
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read circuit file {path}: {exc}") from exc
            circ = circuits.parse_circuit(text)
            proto = circuits.compile_circuit(circ)
            return ResolvedProtocol(
                spec,
                proto,
                lambda counts: oracle.oracle_value("circuit", counts, circuit=circ),
                "circuit",
            )
    except (ValueError, circuits.CircuitError) as exc:
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
            values = [int(f) for f in fields]
        except ValueError as exc:
            raise ConfigError(f"bad input list {spec!r}") from exc
        if len(values) != n:
            raise ConfigError(f"input list has {len(values)} entries, graph has {n}")
        for v in values:
            if not (0 <= v < colors):
                raise ConfigError(f"input color {v} out of range [0, {colors})")
        return values

    counts = [0] * colors
    rest_color: Optional[int] = None
    used = 0
    for f in fields:
        if ":" not in f:
            raise ConfigError(f"mixed input spec {spec!r}")
        color_s, count_s = f.split(":", 1)
        color = int(color_s)
        if not (0 <= color < colors):
            raise ConfigError(f"input color {color} out of range [0, {colors})")
        if count_s == "rest":
            if rest_color is not None:
                raise ConfigError("only one 'rest' block allowed")
            rest_color = color
            continue
        if count_s.endswith("%"):
            count = (n * int(count_s[:-1])) // 100
        else:
            count = int(count_s)
        if count < 0:
            raise ConfigError(f"negative count in {f!r}")
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
