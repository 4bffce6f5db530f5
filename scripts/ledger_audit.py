#!/usr/bin/env python3
"""Collision-count bookkeeping audit for composed MAX gates.

Runs random depth-2 MAX trees, replays each trace, and prints the per-gate
ledger: initial side sizes A/B, settled child outputs a/b, the four
correction-event counts, collisions, and final ones. The identities
collisions = c2 + d2 + min(a, b) and ones = max(a, b) must hold exactly.

Usage:
    python3 scripts/ledger_audit.py [--cases 10] [--max-count 6]
"""

import argparse
import random

from anonet import build_graph, collision_count_check, compile_circuit, evaluate, parse_circuit, run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=10)
    ap.add_argument("--max-count", type=int, default=6)
    args = ap.parse_args()

    circ = parse_circuit("(max (max 0 1) (max 2 3))")
    proto = compile_circuit(circ)
    bad = 0
    for case in range(args.cases):
        rng = random.Random(case)
        counts = [rng.randint(1, args.max_count) for _ in range(4)]
        inputs = []
        for color, c in enumerate(counts):
            inputs.extend([color] * c)
        rng.shuffle(inputs)
        graph = build_graph(f"complete:{len(inputs)}")
        res = run(proto, graph, inputs, seed=case, expected=evaluate(circ, counts), record_trace=True)
        report = collision_count_check(circ, inputs, res.trace)
        print(f"case {case}: counts {counts}, {'PASS' if report.passed else 'FAIL'}")
        print(report)
        bad += 0 if report.passed else 1
    print(f"{bad} failures in {args.cases} cases")


if __name__ == "__main__":
    main()
