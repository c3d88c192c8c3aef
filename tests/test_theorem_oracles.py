"""Theorem-backed oracles for the sink kernel at any order: none walks a
commutator tail, so all reach past the window oracle's cap.

- Right Engel elements = hypercentre. In a finite group the right Engel
  elements are exactly the hypercentre (R. Baer, "Engelsche Elemente
  Noetherscher Gruppen", Math. Ann. 133 (1957) 256-270), and g is right
  Engel iff its sink is {1}.
- Sinks lie in the nilpotent residual. [g, n x] lies in gamma_{n+1}(G), and
  a sink value recurs at every depth, so it lies in every term.
- Direct products. [(c, d), n (a, b)] = ([c, n a], [d, n b]), so each
  projection of sink((a, b)) is sink(a), resp. sink(b).
- Conjugation. Conjugation by h is an automorphism, so sink(g^h) = sink(g)^h.
"""

import numpy as np
import pytest

from sinklab.engel import sinks
from sinklab.families import FamilySpec, build
from sinklab.group import direct_product
from sinklab.verify import run_checks

EXTRA_GROUPS = (
    FamilySpec("alternating", (6,)),
    FamilySpec("inversion_extension", (3, 4)),
    FamilySpec("frobenius", (7, 3, 2)),
    FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (6,))),
    FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (12,))),
    FamilySpec("frobenius", (43, 7, 4)),
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
        assert set(np.flatnonzero(sink_of.sum(axis=1) == 1).tolist()) == hypercentre, name
        assert run_checks(G, "heineken", 2, None)[0].stats["right_engel_count"] == len(hypercentre), name
        if 1 < len(hypercentre) < G.n:
            between.append(name)
    assert {"D6", "D12"} <= set(between)  # not vacuous: proper, nontrivial hypercentres


def test_sinks_lie_in_the_nilpotent_residual(groups):
    proper = 0
    for name, G, sink_of in groups:
        residual = G.lower_central[-1].mask
        for g, sink in enumerate(sink_of):
            assert not (sink & ~residual).any(), (name, g)
        proper += 1 < residual.sum() < G.n
    assert proper  # not vacuous: some residual is neither 1 nor G


@pytest.mark.parametrize("factors", [
    (FamilySpec("symmetric", (3,)), FamilySpec("dihedral", (5,))),
    (FamilySpec("alternating", (4,)), FamilySpec("frobenius", (7, 3, 2))),
    (FamilySpec("quaternion8", ()), FamilySpec("symmetric", (3,))),
], ids=lambda factors: "x".join(spec.describe() for spec in factors))
def test_sinks_of_a_direct_product_project_to_the_factors(factors):
    """For (a, b) = a*|B| + b in A x B, sink((a, b)) projects onto sink(a) and sink(b)."""
    A, B = (build(spec) for spec in factors)
    MA, MB, M = sinks(A), sinks(B), sinks(direct_product(A, B))  # M[g, z]: z is in sink(g)
    M = M.reshape(A.n, B.n, A.n, B.n)
    assert (M.any(axis=3) == MA[:, None, :]).all()  # [a, b, a']: a' in the A-projection of sink((a, b))
    assert (M.any(axis=2) == MB[None, :, :]).all()
    assert MA.sum() + MB.sum() > A.n + B.n  # not vacuous: some factor has a sink larger than {1}


def test_sinks_are_conjugation_equivariant(groups):
    """sink(g^h) = sink(g)^h for every g and h: M[g^h, z^h] = M[g, z], on
    groups with elements outside the class minima whose sinks are not {1}."""
    moved = 0
    for name, G, sink_of in groups:
        M, idx = sink_of, np.arange(G.n)
        for h in range(G.n):
            conj = G.table[G.table[G.inverse[h], idx], h]  # conj[g] = g^h
            assert np.array_equal(M[np.ix_(conj, conj)], M), (name, h)
        moved += int((M[G.class_labels != idx].sum(axis=1) > 1).any())
    assert moved  # not vacuous: some non-minimum has a sink larger than {1}
