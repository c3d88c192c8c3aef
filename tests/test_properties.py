"""Property-based checks over randomly generated small permutation groups."""

import numpy as np
from hypothesis import given, settings, strategies as st

from sinklab.engel import gamma_values, is_left_engel, left_engel_set, right_engel_sink, sinks
from sinklab.group import (
    ElementSet,
    close_generators,
    comm_values,
    is_normal,
    is_subgroup,
    quotient,
    subgroup_closure,
    validate_table,
)
from sinklab.perm import Permutation
from sinklab.structure import fitting_subgroup, is_nilpotent, lower_central_series
from sinklab.verify import scan_row

from oracles import (
    associativity_audit, commute, derived_series, landing_sinks, normal_closure, relabel, series_nilpotent,
    walk_values_centralizer,
)

MAX_ORDER = 200


@st.composite
def small_groups(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    count = draw(st.integers(min_value=1, max_value=2))
    gens = [
        Permutation(degree, tuple(draw(st.permutations(range(1, degree + 1)))))
        for _ in range(count)
    ]
    return close_generators(gens, order_cap=MAX_ORDER)


common = settings(max_examples=30, deadline=None)


@common
@given(small_groups())
def test_table_laws(G):
    validate_table(G)
    associativity_audit(G)


@common
@given(small_groups(), st.data())
def test_comm_zero_iff_commute(G, data):
    a = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    b = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    assert (G.comm(a, b) == 0) == commute(G, a, b)


@common
@given(small_groups(), st.data())
def test_subgroup_closure_is_subgroup(G, data):
    seed = data.draw(st.sets(st.integers(min_value=0, max_value=G.n - 1), min_size=1, max_size=3))
    S = subgroup_closure(G, seed)
    assert is_subgroup(G, S)
    assert set(subgroup_closure(G, S)) == set(S)
    assert is_nilpotent(G, S) == series_nilpotent(G, S)


@common
@given(small_groups(), st.data())
def test_comm_values_match_brute_force(G, data):
    """Unions of classes take the class-minima route, other sets the full grid."""
    def some_set():
        x = data.draw(st.integers(min_value=0, max_value=G.n - 1))
        kind = data.draw(st.sampled_from(["full", "normal closure", "subgroup", "subset"]))
        if kind == "subset":
            return ElementSet.of(G.n, data.draw(st.sets(st.integers(min_value=0, max_value=G.n - 1), min_size=1)))
        return {"full": ElementSet.full(G.n), "normal closure": normal_closure(G, [x]),
                "subgroup": subgroup_closure(G, [x])}[kind]

    left, right = some_set(), some_set()
    assert set(comm_values(G, left, right)) == {G.comm(x, g) for x in left for g in right}


@common
@given(small_groups(), st.data())
def test_normal_closure_is_normal(G, data):
    seed = data.draw(st.sets(st.integers(min_value=0, max_value=G.n - 1), min_size=1, max_size=2))
    N = normal_closure(G, seed)
    assert is_normal(G, N)
    assert seed <= set(N)


@common
@given(small_groups(), st.data())
def test_quotient_homomorphism(G, data):
    x = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    N = normal_closure(G, [x])
    Q, proj = quotient(G, N)
    a = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    b = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    assert proj[G.mul(a, b)] == Q.mul(proj[a], proj[b])
    # reference: scan elements in index order; each one not yet placed opens
    # the next coset, so cosets are numbered by ascending least element
    reps, ref = [], [-1] * G.n
    for r in G.elements():
        if ref[r] < 0:
            for m in N:
                ref[G.mul(r, m)] = len(reps)
            reps.append(r)
    assert proj == ref
    assert all(Q.mul(i, j) == ref[G.mul(r, s)] for i, r in enumerate(reps) for j, s in enumerate(reps))


@common
@given(small_groups(), st.data())
def test_sink_monotone_under_quotient(G, data):
    x = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    N = normal_closure(G, [x])
    Q, proj = quotient(G, N)
    g = data.draw(st.integers(min_value=0, max_value=G.n - 1))
    sink_g = right_engel_sink(G, g).sink
    sink_q = right_engel_sink(Q, proj[g]).sink
    assert set(sink_q) <= {proj[z] for z in sink_g}


@common
@given(small_groups())
def test_heineken_on_random_groups(G):
    for g, sink in enumerate(sinks(G)):
        if sink.sum() == 1:
            assert is_left_engel(G, G.inv(g))


@common
@given(small_groups())
def test_sinks_contain_identity_and_witnesses_replay(G):
    for g, sink in enumerate(sinks(G)):
        assert sink[0]
        report = right_engel_sink(G, g)
        assert np.array_equal(report.sink.mask, sink)
        for z, (x, n) in report.witnesses.items():
            c = g
            for _ in range(n):
                c = G.comm(c, x)
            assert c == z


@common
@given(small_groups())
def test_rebuild_from_own_elements(G):
    if G.n == 1:
        return
    gens = [G.perms[i] for i in range(1, min(G.n, 3))]
    H = close_generators(gens, order_cap=MAX_ORDER)
    assert H.n <= G.n
    sub = subgroup_closure(G, range(1, min(G.n, 3)))
    assert H.n == len(sub)


@common
@given(small_groups(), st.data())
def test_relabelling_invariance(G, data):
    pi = np.array([0] + data.draw(st.permutations(range(1, G.n))), dtype=G.table.dtype)
    H = relabel(G, pi)
    validate_table(H)

    def moved(S):
        return {int(pi[a]) for a in S}

    sink_g, sink_h = sinks(G), sinks(H)
    for g in G.elements():
        assert set(np.flatnonzero(sink_h[int(pi[g])]).tolist()) == moved(np.flatnonzero(sink_g[g]))
    assert set(left_engel_set(H)) == moved(left_engel_set(G))
    right_g = np.flatnonzero(sink_g.sum(axis=1) == 1)
    assert set(np.flatnonzero(sink_h.sum(axis=1) == 1).tolist()) == moved(right_g)
    assert set(gamma_values(H, 2)) == moved(gamma_values(G, 2))
    assert set(fitting_subgroup(H)) == moved(fitting_subgroup(G))
    assert scan_row(H, "G", 2) == scan_row(G, "G", 2)


def conj_grid(G):
    """Slow oracle, the full n x n conjugation grid: grid[c, h] = h^-1 c h."""
    t, idx = G.table, np.arange(G.n)
    return t[t[G.inverse[None, :], idx[:, None]], idx[None, :]]


def is_class_union(grid, S):
    return bool(S.mask[grid[S.mask]].all())


def relabelled_corpus_group(corpus, data):
    _, G = data.draw(st.sampled_from(corpus))
    pi = np.array([0] + data.draw(st.permutations(range(1, G.n))), dtype=G.table.dtype)
    return relabel(G, pi)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_class_invariance(corpus, data):
    """Conjugation is an automorphism: sink(g^h) = sink(g)^h, and the value
    sets, the left Engel set and every lower central term are class unions."""
    G = relabelled_corpus_group(corpus, data)
    grid = conj_grid(G)
    sink_of = sinks(G)
    for h in data.draw(st.lists(st.integers(min_value=0, max_value=G.n - 1), min_size=1, max_size=3)):
        for g, sink in enumerate(sink_of):
            image = np.zeros(G.n, dtype=bool)
            image[grid[sink, h]] = True
            assert np.array_equal(sink_of[int(grid[g, h])], image)
    for S in (gamma_values(G, 2), gamma_values(G, 3), left_engel_set(G), *lower_central_series(G)):
        assert is_class_union(grid, S)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sinks_match_landing_oracle_relabelled(corpus, data):
    """The Brent walk against the landing route on a relabelled corpus group,
    for all elements and for a random target set."""
    G = relabelled_corpus_group(corpus, data)
    assert np.array_equal(sinks(G), landing_sinks(G))
    targets = data.draw(st.sets(st.integers(min_value=0, max_value=G.n - 1), max_size=8))
    assert np.array_equal(sinks(G, targets), landing_sinks(G, targets))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_directions_matter_modulo_centralizer_of_walk_values(corpus, data):
    """[c, z x] = [c, x] for every c in S, z in C and x in G, with S the
    commutators and a random target set's classes and C = C_G(S): the lemma
    by which sinks walks one direction per coset of C."""
    G = relabelled_corpus_group(corpus, data)
    targets = data.draw(st.sets(st.integers(min_value=0, max_value=G.n - 1), max_size=4))
    S, C = walk_values_centralizer(G, targets)
    t, inv, c, x = G.table, G.inverse, np.array(S)[:, None], np.arange(G.n)[None, :]

    def comm(a, b):
        return t[t[t[inv[a], inv[b]], a], b]

    for z in C:
        assert np.array_equal(comm(c, t[z, x]), comm(c, x))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_class_labels_are_conjugation_grid_row_minima(corpus, data):
    G = relabelled_corpus_group(corpus, data)
    assert np.array_equal(G.class_labels, conj_grid(G).min(axis=1))


def test_class_labels_on_corpus(corpus):
    for _, G in corpus:
        grid = conj_grid(G)
        assert np.array_equal(G.class_labels, grid.min(axis=1))
        for S in (*lower_central_series(G), *derived_series(G)):
            assert is_class_union(grid, S)
