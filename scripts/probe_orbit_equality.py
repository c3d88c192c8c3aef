#!/usr/bin/env python3
"""Empirical probe: does the minimal sink of v in V<a> equal the commutator
orbit of v plus the identity?

The weak inclusion (orbit inside sink, identity excluded) always holds and is
asserted by the test suite. Whether the reverse inclusion holds depends on
the group: directions a^i for i >= 2 can feed extra cycles into the sink.
This script prints the per-family answer for the bundled test families.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from sinklab.engel import commutator_tail, sinks  # noqa: E402
from sinklab.families import FamilySpec, build  # noqa: E402
from sinklab.structure import nilpotent_residual  # noqa: E402

FAMILIES = [
    FamilySpec("inversion_extension", (3, 1)),
    FamilySpec("inversion_extension", (3, 2)),
    FamilySpec("inversion_extension", (3, 3)),
    FamilySpec("inversion_extension", (5, 1)),
    FamilySpec("frobenius", (7, 3, 2)),
    FamilySpec("frobenius", (7, 3, 4)),
    FamilySpec("frobenius", (13, 3, 3)),
    FamilySpec("frobenius", (13, 3, 9)),
    FamilySpec("frobenius", (11, 5, 3)),
]


def main() -> int:
    print(f"{'group':28} {'|V|':>4} {'orbit sizes':>12} {'max sink':>9}  equality")
    for spec in FAMILIES:
        G = build(spec)
        V = nilpotent_residual(G)
        a = G.generators[-1]
        sink_of = sinks(G, V.members)
        equal = True
        orbit_sizes = set()
        max_sink = 0
        for v in sorted(V.members):
            tail = commutator_tail(G, v, a)
            orbit = tail.preperiod + tail.cycle
            orbit_sizes.add(len(orbit))
            sink = sink_of[v]
            max_sink = max(max_sink, len(sink))
            assert all(z in sink for z in orbit), "weak inclusion violated"
            if sink.members != set(orbit) | {0}:
                equal = False
        sizes = ",".join(str(s) for s in sorted(orbit_sizes))
        verdict = "sink == orbit + {e}" if equal else "sink strictly larger"
        print(f"{spec.describe():28} {len(V):>4} {sizes:>12} {max_sink:>9}  {verdict}")
    print(
        "\nOnly the weak inclusion is asserted anywhere; equality is a per-group"
        "\nempirical observation (it fails when some power of a twists V with a"
        "\nlonger commutator cycle than a itself)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
