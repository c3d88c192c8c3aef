"""Theorem-backed oracles for the sink kernel at any order: neither walks a
commutator tail, so both reach past the window oracle's cap.

- Right Engel elements = hypercentre. In a finite group the right Engel
  elements are exactly the hypercentre (R. Baer, "Engelsche Elemente
  Noetherscher Gruppen", Math. Ann. 133 (1957) 256-270), and g is right
  Engel iff its sink is {1}.
- Sinks lie in the nilpotent residual. [g, n x] lies in gamma_{n+1}(G), and
  a sink value recurs at every depth, so it lies in every term.
"""

import pytest

from sinklab.engel import sinks
from sinklab.families import FamilySpec, build
from sinklab.verify import check_heineken

EXTRA_GROUPS = (
    FamilySpec("alternating", (6,)),
    FamilySpec("inversion_extension", (3, 4)),
    FamilySpec("frobenius", (7, 3, 2)),
    FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (6,))),
)


@pytest.fixture(scope="module")
def groups(corpus):
    """(name, G, sinks of every element) for the corpus and EXTRA_GROUPS."""
    named = corpus + [(spec.describe(), build(spec)) for spec in EXTRA_GROUPS]
    return [(name, G, sinks(G)) for name, G in named]


def upper_central_series(G) -> list[set[int]]:
    """Z_0 = 1, Z_{i+1} = {g : [g, x] in Z_i for all x}, by scalar loops over
    G.comm, up to its first repeated term."""
    terms = [{0}]
    while True:
        Z = terms[-1]
        nxt = {g for g in G.elements() if all(G.comm(g, x) in Z for x in G.elements())}
        if nxt == Z:
            return terms
        terms.append(nxt)


def test_right_engel_elements_are_the_hypercentre(groups):
    """{g : |sink(g)| = 1} and check_heineken's right_engel_count (summed
    over classes, weighted by class size) against the hypercentre."""
    between = []
    for name, G, sink_of in groups:
        hypercentre = upper_central_series(G)[-1]
        assert {g for g, sink in sink_of.items() if len(sink) == 1} == hypercentre, name
        assert check_heineken(G).stats["right_engel_count"] == len(hypercentre), name
        if 1 < len(hypercentre) < G.n:
            between.append(name)
    assert {"D6", "D12"} <= set(between)  # not vacuous: proper, nontrivial hypercentres


def test_sinks_lie_in_the_nilpotent_residual(groups):
    proper = 0
    for name, G, sink_of in groups:
        residual = G.lower_central[-1].mask
        for g, sink in sink_of.items():
            assert not (sink.mask & ~residual).any(), (name, g)
        proper += 1 < residual.sum() < G.n
    assert proper  # not vacuous: some residual is neither 1 nor G
