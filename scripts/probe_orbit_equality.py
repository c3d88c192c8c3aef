#!/usr/bin/env python3
"""Empirical probe: does the minimal sink of v in V<a> equal the commutator
orbit of v plus the identity?

The weak inclusion (orbit inside sink, identity excluded) always holds and is
asserted by the test suite. Whether the reverse inclusion holds depends on
the group: directions a^i for i >= 2 can feed extra cycles into the sink.
This script prints the per-family answer for the bundled test families, as
recorded by the orbit_lemma check.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from sinklab.engel import sinks  # noqa: E402
from sinklab.families import FamilySpec, build  # noqa: E402
from sinklab.structure import nilpotent_residual  # noqa: E402
from sinklab.verify import check_orbit_lemma  # noqa: E402

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
    print(f"{'group':28} {'|V|':>4} {'max orbit':>9} {'max sink':>9}  equality")
    for spec in FAMILIES:
        G = build(spec)
        V = nilpotent_residual(G)
        result = check_orbit_lemma(G, V, G.generators[-1], 2)
        assert result.passed, result.counterexample
        max_sink = max(len(sink) for sink in sinks(G, V).values())
        equal = result.stats["sink_equals_orbit_plus_identity"]
        verdict = "sink == orbit + {e}" if equal else "sink strictly larger"
        print(f"{spec.describe():28} {len(V):>4} {result.stats['max_orbit']:>9} {max_sink:>9}  {verdict}")
    print(
        "\nOnly the weak inclusion is asserted anywhere; equality is a per-group"
        "\nempirical observation (it fails when some power of a twists V with a"
        "\nlonger commutator cycle than a itself)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
