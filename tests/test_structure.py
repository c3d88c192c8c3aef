from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from sinklab import group, structure
from sinklab.cli import load_corpus
from sinklab.engel import is_left_engel
from sinklab.errors import InternalInconsistency
from sinklab.families import FamilySpec, build
from sinklab.group import (
    ElementSet, GroupTable, centralizer, comm_values, is_normal, quotient, subgroup_closure, subgroup_table,
    validate_table,
)
from sinklab.specfile import build_spec, parse_spec_file
from sinklab.structure import (
    fitting_subgroup,
    is_nilpotent,
    left_engel_set,
    lower_central_series,
    nilpotency_class,
    nilpotent_residual,
)
from sinklab.verify import scan_row

from oracles import (
    derived_series, fitting_maximality_check, fitting_via_normal_closures, normal_closure, normal_subgroups, relabel,
    series_nilpotent, upper_central_nilpotent,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def test_derived_subgroup(s3, c12):
    """G' is the second term of the lower central series."""
    assert set(c12.lower_central[1]) == {0}
    d = s3.lower_central[1]
    assert len(d) == 3
    assert s3.labels.index("(1 2 3)") in d


def test_lower_central_series_s3(s3):
    series = lower_central_series(s3)
    assert [len(t) for t in series] == [6, 3, 3]
    assert set(series[-1]) == set(series[-2])


def test_series_terms_normal_and_descending(s4, q8, ie32, corpus):
    """Both series start at G, descend through normal subgroups, and end in
    their first repeated term, on three named groups and every corpus group."""
    for G in (s4, q8, ie32, *(G for _, G in corpus)):
        for series in (lower_central_series(G), derived_series(G)):
            assert len(series[0]) == G.n
            for a, b in zip(series, series[1:]):
                assert set(b) <= set(a)
                assert is_normal(G, b)
            assert series[-1] == series[-2], G.name
            assert all(a != b for a, b in zip(series[:-2], series[1:-1])), G.name


def test_nilpotency(c12, q8, d4, s3):
    assert is_nilpotent(c12) and nilpotency_class(c12) == 1
    assert is_nilpotent(q8) and nilpotency_class(q8) == 2
    assert is_nilpotent(d4) and nilpotency_class(d4) == 2
    assert not is_nilpotent(s3) and nilpotency_class(s3) is None


def test_nilpotency_of_a_subgroup_in_g(s4):
    def closure(*labels):
        return subgroup_closure(s4, [s4.labels.index(x) for x in labels])

    v4 = closure("(1 2)(3 4)", "(1 3)(2 4)")
    sylow2 = closure("(1 2 3 4)", "(1 3)")  # dihedral of order 8, not normal
    s3 = closure("(1 2 3)", "(1 2)")
    a4 = s4.lower_central[1]
    expected = [(v4, True), (sylow2, True), (s3, False), (a4, False)]
    for S, nilpotent in expected:
        assert is_nilpotent(s4, S) == nilpotent == series_nilpotent(s4, S)


def nilpotency_agrees(groups) -> None:
    """is_nilpotent(G, S) equals series_nilpotent on F, R, every term of G's series, the centre and
    four random closures of each group, and is_nilpotent(G) equals nilpotency_class(G) is not None."""
    rng = np.random.default_rng(44)
    for group_id, G in groups:
        closures = [subgroup_closure(G, rng.choice(G.n, size=size)) for size in (1, 1, 2, 2)]
        centre = centralizer(G, ElementSet.full(G.n))
        for S in (fitting_subgroup(G), nilpotent_residual(G), *G.lower_central, centre, *closures):
            assert is_nilpotent(G, S) == series_nilpotent(G, S), (group_id, len(S))
        assert is_nilpotent(G) == (nilpotency_class(G) is not None), group_id


@pytest.fixture(scope="module")
def nilpotency_groups(corpus):
    """The corpus and the largest corpus group relabelled."""
    group_id, big = max(corpus, key=lambda item: item[1].n)
    pi = np.array([0, *np.random.default_rng(44).permutation(np.arange(1, big.n))], dtype=big.table.dtype)
    return [*corpus, (f"relabelled {group_id}", relabel(big, pi))]


def quotient_nilpotency_agrees(groups) -> None:
    """is_nilpotent(G, N=N) equals upper_central_nilpotent(G, N) for N every normal subgroup of each
    group of order at most 120, and each term of the lower central series and the centre of the rest."""
    for group_id, G in groups:
        centre = centralizer(G, ElementSet.full(G.n))
        for N in normal_subgroups(G) if G.n <= 120 else (*G.lower_central, centre):
            assert is_nilpotent(G, N=N) == upper_central_nilpotent(G, N), (group_id, len(N))


def test_p_element_count_matches_each_subgroups_own_series(nilpotency_groups):
    nilpotency_agrees(nilpotency_groups)


def test_p_element_count_matches_the_upper_central_series_on_quotients(nilpotency_groups):
    quotient_nilpotency_agrees(nilpotency_groups)


def test_p_element_count_fails_when_a_prime_is_dropped(monkeypatch, s3, nilpotency_groups):
    """With the last prime dropped, S3 has one prime left, so it reads as nilpotent, and both
    agreement tests above fail, on subgroups and on quotients."""
    monkeypatch.setattr(group, "_prime_powers", lambda m, real=group._prime_powers: real(m)[:-1])
    assert is_nilpotent(s3)
    for agrees in (nilpotency_agrees, quotient_nilpotency_agrees):
        with pytest.raises(AssertionError):
            agrees(nilpotency_groups)


def test_d4_series_reaches_identity(d4):
    assert len(lower_central_series(d4)[-1]) == 1


def test_nilpotent_residual(s3, q8):
    assert set(nilpotent_residual(q8)) == {0}
    res = nilpotent_residual(s3)
    assert len(res) == 3
    for r in (1, 2, 3):
        G = build(FamilySpec("inversion_extension", (3, r)))
        assert len(nilpotent_residual(G)) == 3**r


def test_residual_iff_nilpotent(corpus):
    for _, G in corpus:
        assert (set(nilpotent_residual(G)) == {0}) == is_nilpotent(G)


@pytest.mark.parametrize(
    "spec,sizes,computed_from",
    [
        (FamilySpec("dihedral", (4,)), [8, 2, 1, 1], [8, 2]),
        (FamilySpec("quaternion8", ()), [8, 2, 1, 1], [8, 2]),
        (FamilySpec("dihedral", (8,)), [16, 4, 2, 1, 1], [16, 4, 2]),
        (FamilySpec("symmetric", (4,)), [24, 12, 12], [24, 12]),
    ],
)
def test_series_stop_at_the_trivial_term(monkeypatch, spec, sizes, computed_from):
    """G's series of a nilpotent group of class c makes c comm_values calls,
    one from each term before the trivial one, which repeats without a call.
    S4's series computes its repeated A4 term, from the second of two calls."""
    made = []

    def counted(G, left, right):
        made.append(len(left))
        return comm_values(G, left, right)

    G = build(spec)
    monkeypatch.setattr(group, "comm_values", counted)
    assert [len(term) for term in lower_central_series(G)] == sizes
    assert made == computed_from, spec.describe()


def counted_property(monkeypatch, name):
    """Wrap GroupTable.<name> so that each computation (not each read) is listed."""
    made = []

    def compute(G, func=getattr(GroupTable, name).func):
        made.append(G)
        return func(G)

    prop = cached_property(compute)
    prop.__set_name__(GroupTable, name)
    monkeypatch.setattr(GroupTable, name, prop)
    return made


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("dihedral", (8,)),
        FamilySpec("quaternion8", ()),
        FamilySpec("symmetric", (4,)),
        FamilySpec("inversion_extension", (3, 2)),
        FamilySpec("frobenius", (7, 3, 2)),
    ],
)
def test_scan_row_makes_one_series_and_one_labelling(monkeypatch, spec):
    """One lower central series and one class labelling, both G's, serve
    sink_profile, fitting_subgroup and the residual, whose certificate makes
    no quotient table, nilpotent G or not; and one read-only set of
    commutator coset minima serves the sink and left Engel walks."""
    series, labels = counted_property(monkeypatch, "lower_central"), counted_property(monkeypatch, "class_labels")
    cosets, quotients = counted_property(monkeypatch, "commutator_cosets"), []

    def counted(G, N):
        quotients.append(G)
        return quotient(G, N)

    monkeypatch.setattr(group, "quotient", counted)
    monkeypatch.setattr(structure, "quotient", counted, raising=False)
    G = build(spec)
    scan_row(G, spec.describe(), 2)
    assert series == [G] and labels == [G] and cosets == [G] and quotients == []
    assert not G.commutator_cosets.flags.writeable
    assert quotient(G, ElementSet.trivial(G.n))[0] is G and series == [G]


def test_scan_row_certifies_each_series_once(monkeypatch):
    """One certificate per table: scan_row on each freshly built corpus group, nilpotent or not,
    runs is_nilpotent on a quotient (with N) exactly once, where G's lower central series is made."""
    certified, real = [], group.is_nilpotent

    def counted(G, S=None, N=None):
        if N is not None:
            certified.append(G)
        return real(G, S, N)

    monkeypatch.setattr(group, "is_nilpotent", counted)
    nilpotent = set()
    for group_id, path in load_corpus(CORPUS_DIR):
        G = build_spec(parse_spec_file(path))
        certified.clear()
        scan_row(G, group_id, 2)
        assert certified == [G], group_id
        nilpotent.add(len(G.lower_central[-1]) == 1)
    assert nilpotent == {True, False}


def test_residual_certificate_runs_on_every_path(monkeypatch):
    """The series certifies its stable term R where it is made, whether R is nontrivial or trivial:
    with comm_values faulted so that the series computes to G, R, R, for R = V4 on S4 (G/R is S3)
    and R = 1 on S3 and on S4, reading G's kept lower central series, and so nilpotent_residual, raises."""
    s3, s4 = build(FamilySpec("symmetric", (3,))), build(FamilySpec("symmetric", (4,)))
    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    for G, R in ((s4, v4), (s3, ElementSet.trivial(s3.n)), (s4, ElementSet.trivial(s4.n))):
        monkeypatch.setattr(group, "comm_values", lambda G, left, right, R=R: R)
        for read in (lambda: G.lower_central, lambda: nilpotent_residual(G)):  # a series that raises is not kept
            with pytest.raises(InternalInconsistency, match="nilpotent residual"):
                read()


def test_quotient_nilpotency_matches_the_quotient_table(corpus):
    """is_nilpotent(G, N=N), the upper central series modulo N and is_nilpotent on the quotient
    table G/N agree, for N each term of G's lower central series and N the centre, on every corpus
    group and on a relabelled one."""
    big = max((G for _, G in corpus), key=lambda G: G.n)
    pi = np.array([0, *np.random.default_rng(37).permutation(np.arange(1, big.n))], dtype=big.table.dtype)
    for group_id, G in corpus + [("relabelled " + big.name, relabel(big, pi))]:
        for N in (*G.lower_central, centralizer(G, ElementSet.full(G.n))):
            on_quotient = is_nilpotent(quotient(G, N)[0])
            assert is_nilpotent(G, N=N) == upper_central_nilpotent(G, N) == on_quotient, (group_id, len(N))


@pytest.mark.parametrize(
    "cycles,close,message",
    [
        (["e", "(1 2 3)"], False, "not closed"),
        (["(1 2)"], True, "not normal"),
        (["(1 2)(3 4)", "(1 2 3)"], True, "not nilpotent"),
    ],
)
def test_fitting_certificates_reject_a_wrong_left_engel_set(monkeypatch, s4, cycles, close, message):
    """Each certificate of fitting_subgroup fires on its own: a set that is not
    a subgroup, a subgroup that is not normal, and A4, normal but not nilpotent."""
    S = [s4.labels.index(c) for c in cycles]
    S = subgroup_closure(s4, S) if close else ElementSet.of(s4.n, S)
    monkeypatch.setattr(structure, "left_engel_set", lambda G: S)
    with pytest.raises(InternalInconsistency, match=message):
        fitting_subgroup(s4)


@pytest.mark.parametrize(
    "spec,tests",
    [
        (FamilySpec("inversion_extension", (3, 2)), 0),
        (FamilySpec("frobenius", (7, 3, 2)), 0),
        (FamilySpec("symmetric", (4,)), 1),
    ],
)
def test_fitting_equal_to_the_residual_is_not_tested_again(monkeypatch, spec, tests):
    """A walked F equal to G's kept stable term R, certified a normal subgroup where the series is
    made, takes no subgroup test of its own once the series is read: F = R on inversion_extension 3 2
    and frobenius 7 3 2. On S4, F = V4 and R = A4, so F is tested once."""
    G = build(spec)
    R, made = G.lower_central[-1], []
    monkeypatch.setattr(structure, "is_subgroup", lambda G, S: made.append(S) or group.is_subgroup(G, S))
    F = fitting_subgroup(G)
    assert len(made) == tests and (F == R) == (tests == 0)


def test_fitting_of_a_nilpotent_group_is_g_without_a_walk(corpus, monkeypatch):
    """When G's kept lower central series ends at 1, fitting_subgroup returns G and makes no left
    Engel walk and no product grid, on every nilpotent corpus group and a relabelled dihedral 512."""
    d512 = build(FamilySpec("dihedral", (512,)))
    pi = np.array([0, *np.random.default_rng(38).permutation(np.arange(1, d512.n))], dtype=d512.table.dtype)
    groups = [(group_id, G) for group_id, G in corpus if len(G.lower_central[-1]) == 1]  # makes and keeps each series
    groups.append(("relabelled dihedral 512", relabel(d512, pi)))
    assert len(groups) == 33 and len(groups[-1][1].lower_central[-1]) == 1
    made = []
    monkeypatch.setattr(structure, "left_engel_set", lambda G: made.append("left Engel walk"))
    monkeypatch.setattr(group, "_product_grid", lambda *args: made.append("product grid"))
    for group_id, G in groups:
        assert fitting_subgroup(G) == ElementSet.full(G.n), group_id
    assert made == []


def test_fitting_shortcut_is_certified_by_the_upper_central_series(monkeypatch):
    """F = G rests on the certified series: with comm_values faulted so that S4's series computes
    to S4, 1, 1, though S4 is not nilpotent, fitting_subgroup raises where it reads the series, as
    S4 has more 2-elements than its Sylow 2-subgroup's 8 (the upper central series' verdict too)."""
    s4 = build(FamilySpec("symmetric", (4,)))
    monkeypatch.setattr(group, "comm_values", lambda G, left, right: ElementSet.trivial(G.n))
    with pytest.raises(InternalInconsistency, match="nilpotent residual"):
        fitting_subgroup(s4)


def test_residual_minimality_small(s3, s4):
    a4 = build(FamilySpec("alternating", (4,)))
    d6 = build(FamilySpec("dihedral", (6,)))
    for G in (s3, s4, a4, d6):
        res = nilpotent_residual(G)
        Q, _ = quotient(G, res)
        validate_table(Q)  # a quotient's build checks only the O(n) laws
        assert is_nilpotent(Q)
        for N in normal_subgroups(G):
            QN, _ = quotient(G, N)
            if is_nilpotent(QN):
                assert set(res) <= set(N)


def test_fitting_spot_values(s3, s4):
    F3 = fitting_subgroup(s3)
    assert len(F3) == 3 and s3.n // len(F3) == 2
    assert set(F3) == set(subgroup_closure(s3, [s3.labels.index("(1 2 3)")]))
    F4 = fitting_subgroup(s4)
    assert len(F4) == 4 and s4.n // len(F4) == 6
    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    assert set(F4) == set(v4)


def test_fitting_nilpotent_group_is_whole(q8, c12, d4):
    for G in (q8, c12, d4):
        assert set(fitting_subgroup(G)) == set(range(G.n))
        assert fitting_maximality_check(G)


def test_fitting_equals_left_engel_set(s3, s4, frob732):
    for G in (s3, s4, frob732):
        F = fitting_subgroup(G)
        assert set(F) == set(left_engel_set(G))
        assert set(F) == {x for x in G.elements() if is_left_engel(G, x)}


def test_fitting_properties(s4, frob732, ie32):
    for G in (s4, frob732, ie32):
        F = fitting_subgroup(G)
        assert is_normal(G, F)
        sub, _ = subgroup_table(G, F)
        validate_table(sub)  # a subgroup table's build checks only the O(n) laws
        assert is_nilpotent(sub)


def test_fitting_maximality(s3, s4, frob732):
    for G in (s3, s4, frob732):
        assert fitting_maximality_check(G)


def test_fitting_cross_check(s3, s4, q8, frob732, ie32):
    for G in (s3, s4, q8, frob732, ie32):
        assert set(fitting_subgroup(G)) == set(fitting_via_normal_closures(G))


def test_normal_subgroups_s4(s4):
    sizes = sorted(len(N) for N in normal_subgroups(s4))
    assert sizes == [1, 4, 12, 24]  # trivial, V4, A4, S4


def test_fitting_maximality_corpus_wide(corpus):
    for group_id, G in corpus:
        if G.n > 200:
            continue
        assert fitting_maximality_check(G), group_id


def test_fitting_contains_nilpotent_normal_closures(corpus):
    for group_id, G in corpus:
        if G.n > 100:
            continue
        F = fitting_subgroup(G)
        for x in G.elements():
            ncl = normal_closure(G, [x])
            sub, _ = subgroup_table(G, ncl)
            if is_nilpotent(sub):
                assert set(ncl) <= set(F), group_id
