"""The structure layer against an independent implementation:
sympy.combinatorics.PermutationGroup (Schreier-Sims, no multiplication table).

Both libraries compose permutations left to right, so sinklab's
table[a, b] = a * b is sympy's p_a * p_b. Commutators differ in name only:
sinklab's [a, b] = a^-1 b^-1 a b is sympy's ~p_a * ~p_b * p_a * p_b, which
sympy calls p_b.commutator(p_a).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinklab.group import ElementSet, centralizer, close_generators, validate_table
from sinklab.perm import Permutation
from sinklab.structure import is_nilpotent, lower_central_series

from oracles import conj, derived_series, normal_closure

pytest.importorskip("sympy")
from sympy.combinatorics import Permutation as SymPerm, PermutationGroup  # noqa: E402


def sym(p: Permutation) -> SymPerm:
    return SymPerm([i - 1 for i in p.image])


def chain(orders) -> list[int]:
    """Orders of a descending series, with repeats of the stable term dropped."""
    orders = list(orders)
    return [o for i, o in enumerate(orders) if i == 0 or o != orders[i - 1]]


def assert_matches_sympy(G, elements):
    P = PermutationGroup([sym(G.perms[g]) for g in G.generators])
    assert P.order() == G.n
    series = [(derived_series(G), P.derived_series()), (lower_central_series(G), P.lower_central_series())]
    for ours, theirs in series:
        assert chain(len(t) for t in ours) == chain(H.order() for H in theirs)
    assert is_nilpotent(G) == P.is_nilpotent
    assert len(centralizer(G, ElementSet.full(G.n))) == P.center().order()
    sizes = np.bincount(G.class_labels)
    assert sorted(sizes[sizes > 0]) == sorted(len(c) for c in P.conjugacy_classes())
    for x in elements:
        ours, theirs = normal_closure(G, [x]), P.normal_closure(sym(G.perms[x]))
        assert len(ours) == theirs.order()
        assert is_nilpotent(G, ours) == theirs.is_nilpotent


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(min_value=2, max_value=6))
    count = draw(st.integers(min_value=1, max_value=3))
    gens = [
        Permutation(degree, tuple(draw(st.permutations(range(1, degree + 1)))))
        for _ in range(count)
    ]
    return close_generators(gens)


@settings(max_examples=25, deadline=None)
@given(permutation_groups(), st.data())
def test_random_groups_match_sympy(G, data):
    validate_table(G)  # the Latin-square oracle that the closure's build skips
    elements = data.draw(st.lists(st.integers(min_value=0, max_value=G.n - 1), min_size=1, max_size=4))
    assert_matches_sympy(G, elements)


def test_corpus_permutation_groups_match_sympy(corpus):
    built = [(group_id, G) for group_id, G in corpus if G.perms is not None]
    assert len(built) >= 5
    for group_id, G in built:
        assert_matches_sympy(G, range(G.n))


@settings(max_examples=25, deadline=None)
@given(permutation_groups(), st.data())
def test_left_to_right_convention(G, data):
    a = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    b = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    pa, pb = sym(G.perms[a]), sym(G.perms[b])
    assert sym(G.perms[G.mul(a, b)]) == pa * pb  # a then b
    assert [(pa * pb)(i) for i in range(pa.size)] == [pb(pa(i)) for i in range(pa.size)]
    assert sym(G.perms[G.comm(a, b)]) == ~pa * ~pb * pa * pb == pb.commutator(pa)
    assert sym(G.perms[conj(G, a, b)]) == ~pb * pa * pb
