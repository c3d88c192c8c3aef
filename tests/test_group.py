import dataclasses
import functools
import gc
import itertools
import math
import re
import tracemalloc
import types
import weakref
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinklab
from sinklab import families, group, perm
from sinklab.cli import load_corpus, parse_element
from sinklab.engel import gamma_values, sinks
from sinklab.errors import (
    CapExceeded,
    IndexOutOfRange,
    InvalidPermutation,
    NotAHomomorphism,
    NotAnAutomorphism,
    NotASubgroup,
    NotNormal,
)
from sinklab.families import FamilySpec, build
from sinklab.group import (
    ElementSet,
    GroupTable,
    LazyList,
    centralizer,
    close_generators,
    comm_values,
    direct_product,
    is_normal,
    is_subgroup,
    quotient,
    semidirect_product,
    subgroup_closure,
    subgroup_table,
    validate_table,
)
from sinklab.perm import Permutation, parse_cycles
from sinklab.specfile import build_spec, parse_spec_file
from sinklab.structure import fitting_subgroup, nilpotent_residual
from sinklab.verify import scan_row

from oracles import (
    associativity_audit, commute, compose, conj, counted_class_labels, derived_series, element_order, exponent_by_powers,
    non_automorphisms, non_homomorphism_pairs, normal_closure, normal_subgroups, relabel, union,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def gens(degree, *texts):
    return [parse_cycles(t, degree) for t in texts]


def test_close_generators_s3():
    G = close_generators(gens(3, "(1 2 3)", "(1 2)"))
    assert G.n == 6
    assert G.labels[0] == "e"
    # BFS discovery order: e, then the generators, then products
    assert G.labels[1] == "(1 2 3)"
    assert G.labels[2] == "(1 2)"


def test_close_generators_cyclic5():
    G = close_generators(gens(5, "(1 2 3 4 5)"))
    assert G.n == 5
    assert all(commute(G, a, b) for a in range(5) for b in range(5))


def test_close_generators_a5():
    G = close_generators(gens(5, "(1 2 3 4 5)", "(1 2 3)"))
    assert G.n == 60


def test_close_generators_cap():
    with pytest.raises(CapExceeded):
        close_generators(gens(5, "(1 2 3 4 5)", "(1 2 3)"), order_cap=59)


def test_close_generators_degree_mismatch():
    with pytest.raises(InvalidPermutation):
        close_generators([parse_cycles("(1 2)", 2), parse_cycles("(1 2 3)", 3)])


def test_table_matches_composition(s4):
    index = {p.image: i for i, p in enumerate(s4.perms)}
    for i in range(s4.n):
        for j in range(s4.n):
            assert s4.table[i, j] == index[compose(s4.perms[i], s4.perms[j]).image]


def test_comm_examples(s3):
    for g in range(s3.n):
        assert s3.comm(g, g) == 0
    a = s3.labels.index("(1 2 3)")
    b = s3.labels.index("(1 2)")
    assert s3.labels[s3.comm(a, b)] == "(1 2 3)"


def test_comm_abelian(c12):
    assert all(c12.comm(a, b) == 0 for a in range(c12.n) for b in range(c12.n))


def test_comm_zero_iff_commute(s4):
    for a in range(s4.n):
        for b in range(s4.n):
            assert (s4.comm(a, b) == 0) == commute(s4, a, b)


def test_comm_grid_matches_scalar_comm(corpus):
    """The flat-gather commutator grid against G.comm, on every corpus group
    of order up to 60, for all columns and for the class minima; and _comm on
    pairs of index arrays, with c in the table's dtype, and with a scalar x."""
    rng = np.random.default_rng(5)
    for group_id, G in corpus:
        if G.n > 60:
            continue
        xs, minima = np.arange(G.n), np.flatnonzero(G.class_labels == np.arange(G.n))
        for cs in (xs, minima):
            want = [[G.comm(int(c), int(x)) for c in cs] for x in xs]
            assert np.array_equal(group._comm_grid(G, xs, cs), want), group_id
        c, x = rng.integers(G.n, size=200).astype(G.table.dtype), rng.integers(G.n, size=200)
        assert np.array_equal(group._comm(G, c, x), [G.comm(int(a), int(b)) for a, b in zip(c, x)]), group_id
        assert np.array_equal(group._comm(G, xs, G.n - 1), [G.comm(a, G.n - 1) for a in range(G.n)]), group_id


def test_conj_matches_definition(s4):
    for a in range(0, s4.n, 5):
        for b in range(s4.n):
            expected = s4.mul(s4.mul(s4.inv(b), a), b)
            assert conj(s4, a, b) == expected


def test_index_out_of_range(s3):
    with pytest.raises(IndexOutOfRange):
        s3.mul(0, 6)
    with pytest.raises(IndexOutOfRange):
        s3.inv(-1)


def test_element_set_surface():
    S = ElementSet.of(6, [4, 0, 2, 4])
    assert S.n == 6 and len(S) == 3
    assert list(S) == [0, 2, 4] and set(S) == {0, 2, 4}
    assert 2 in S and 3 not in S and 6 not in S and -1 not in S
    assert S == ElementSet.of(6, (4, 2, 0)) and hash(S) == hash(ElementSet.of(6, (4, 2, 0)))
    assert S != ElementSet.of(7, [0, 2, 4])
    assert union(S, ElementSet.trivial(6)) == S and len(ElementSet.full(6)) == 6
    assert ElementSet.of(6, S) is S
    with pytest.raises(ValueError):
        S.mask[1] = True  # the mask is read-only
    with pytest.raises(IndexOutOfRange):
        ElementSet.of(6, [0, 6])
    with pytest.raises(IndexOutOfRange):
        ElementSet.of(6, [-1])


@pytest.mark.parametrize("entry", [
    lambda G, mask: ElementSet.of(G.n, mask),
    sinks,
    subgroup_closure,
    centralizer,
], ids=["ElementSet.of", "sinks", "subgroup_closure", "centralizer"])
def test_boolean_mask_is_not_a_member_list(s3, entry):
    """A boolean array would read as the indices 0 and 1: it is rejected, and
    the message points to indices or ElementSet(mask)."""
    mask = np.array([True, False, True, False, False, False])
    with pytest.raises(IndexOutOfRange, match=r"ElementSet\(mask\)"):
        entry(s3, mask)


def test_wrong_order_sets_rejected(s3):
    full = ElementSet.full(s3.n)
    for S in (ElementSet.full(s3.n + 1), ElementSet.full(s3.n - 1)):
        with pytest.raises(IndexOutOfRange):
            ElementSet.of(s3.n, S)
        for primitive in (is_subgroup, is_normal, quotient, subgroup_table):
            with pytest.raises(IndexOutOfRange):
                primitive(s3, S)
        for left, right in ((S, full), (full, S)):
            with pytest.raises(IndexOutOfRange):
                comm_values(s3, left, right)


def test_table_certified_at_construction(s3):
    """Each table that breaks an O(n) law fails it in the constructor; each
    that breaks only the Latin-square law is made, and validate_table, the
    full oracle, rejects it."""
    t, inv, n = s3.table, s3.inverse, s3.n
    a, b = [r for r in range(1, n) if t[r, 1]][:2]  # two rows whose entry in column 1 is not 0
    rows_broken = t.copy()
    rows_broken[[a, b], 1] = t[[b, a], 1]  # column 1 stays a permutation, rows a and b repeat a value
    cols_broken = t.copy()
    cols_broken[1, [a, b]] = t[1, [b, a]]  # row 1 stays a permutation, columns a and b repeat a value
    for table in (rows_broken, cols_broken):  # no 0 moves, so the identity and inverse laws hold
        G = GroupTable(n, table, inv.copy(), list(s3.labels), list(s3.generators))
        with pytest.raises(InvalidPermutation, match="Latin square"):
            validate_table(G)
    pi = np.array([1, 0] + list(range(2, n)), dtype=t.dtype)  # the identity becomes element 1
    moved, moved_inv = np.empty_like(t), np.empty_like(inv)
    moved[np.ix_(pi, pi)] = pi[t]
    moved_inv[pi] = pi[inv]
    out_of_range = inv.copy()
    out_of_range[1] = 9
    cases = [
        (moved, moved_inv, "identity law"),
        (t.copy(), np.arange(n, dtype=inv.dtype), "inverse law"),  # 3-cycles are not involutions
        (t[:, :-1].copy(), inv, "shape"),
        (t.copy(), inv[:-1], "shape"),  # an inverse one entry short
        (t.copy(), inv[None, :], "shape"),  # an inverse of shape (1, n)
        (t.copy(), out_of_range, "inverse law"),  # 9 in a group of order 6
        (t.astype(np.float64), inv, "integers"),
    ]
    for table, inverse, law in cases:
        with pytest.raises(InvalidPermutation, match=law):
            GroupTable(n, table, inverse.copy(), list(s3.labels), list(s3.generators))
    assert GroupTable(n, t.copy(), inv.copy(), list(s3.labels), list(s3.generators)).n == n


def test_package_exports_the_oracle(s3):
    """sinklab.validate_table, the full oracle, is exported beside
    sinklab.GroupTable, and rejects the swapped-entry S3 table that the
    constructor's O(n) laws accept."""
    t = s3.table.copy()
    a, b = [r for r in range(1, s3.n) if t[r, 1]][:2]
    t[[a, b], 1] = t[[b, a], 1]  # no 0 moves, so the identity and inverse laws hold
    G = sinklab.GroupTable(s3.n, t, s3.inverse.copy(), list(s3.labels), list(s3.generators))
    with pytest.raises(InvalidPermutation, match="Latin square"):
        sinklab.validate_table(G)
    assert sinklab.validate_table is validate_table


@pytest.mark.parametrize("field,value,error", [
    ("generators", [9], IndexOutOfRange),
    ("generators", [1, -1], IndexOutOfRange),
    ("labels", ["()"], InvalidPermutation),
    ("perms", [], InvalidPermutation),
], ids=["generator_above", "generator_below", "one_label", "no_perms"])
def test_table_rejects_inputs_that_do_not_fit_its_order(s3, field, value, error):
    """Generators outside 0..n-1, and labels or perms not n long, are rejected
    where the table is made, not later as a numpy IndexError or a wrong label."""
    fields = dict(n=s3.n, table=s3.table, inverse=s3.inverse, labels=list(s3.labels),
                  generators=list(s3.generators), perms=list(s3.perms))
    GroupTable(**fields)
    fields[field] = value
    with pytest.raises(error, match="order 6"):
        GroupTable(**fields)


def test_table_dtype_too_narrow_for_its_order():
    """An int8 table of order 200 cannot hold 128..199 (np.arange(200, dtype=int8)
    wraps), so it is no Latin square; a uint8 table of order 256 still is one."""
    for n, dtype, ok in ((200, np.int8, False), (256, np.uint8, True)):
        idx = np.arange(n)
        table = ((idx[:, None] + idx) % n).astype(dtype)  # C_n, addition mod n
        make = functools.partial(GroupTable, n, table, (-idx % n).astype(dtype), [str(i) for i in idx], [1])
        if ok:
            assert make().n == n
        else:
            with pytest.raises(InvalidPermutation, match="Latin square"):
                make()


@pytest.fixture
def small_blocks(monkeypatch):
    """BLOCK_ENTRIES cut to 4096 bytes, so that (D12)^2 (n = 576) spans many blocks."""
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 12)
    return build(FamilySpec("dihedral", (12,)))


def test_latin_square_checked_up_to_the_last_block(small_blocks):
    """Two rows (then two columns) swap one entry, so only they break the law:
    both in the last block, then the last and then the first rows of the last
    two blocks. No 0 moves, so each table is made, and validate_table finds it."""
    G = direct_product(small_blocks, small_blocks)
    t, n = G.table, G.n
    blocks = list(group._blocks(n, n * t.itemsize))  # validate_table's row blocks
    assert len(blocks) > 10 and n - 2 in blocks[-1]
    for pair in ([n - 2, n - 1], [blocks[-2][-1], n - 1], [blocks[-2][0], blocks[-1][0]]):
        c = max(set(range(1, n)) - set(G.inverse[pair].tolist()))  # t[r, c] and t[c, r] are 0 for c = r^-1 only
        rows_broken = t.copy()
        rows_broken[pair, c] = t[pair[::-1], c]  # column c stays a permutation
        cols_broken = t.copy()
        cols_broken[c, pair] = t[c, pair[::-1]]  # row c stays a permutation
        for table in (rows_broken, cols_broken):  # each is made, then fails the full oracle
            broken = GroupTable(n, table, G.inverse.copy(), list(G.labels), list(G.generators))
            with pytest.raises(InvalidPermutation, match="Latin square"):
                validate_table(broken)


def test_build_transients_bounded_by_blocks(small_blocks):
    """The tracemalloc peak above what stays live is a fixed multiple of
    BLOCK_ENTRIES, for the product fill and for validate_table, whatever n is."""
    bound = 64 * group.BLOCK_ENTRIES  # bytes
    tracemalloc.start()
    try:
        G = direct_product(small_blocks, small_blocks)
        live, peak = tracemalloc.get_traced_memory()
        assert peak - live <= bound
        tracemalloc.reset_peak()
        validate_table(G)
        live, peak = tracemalloc.get_traced_memory()
        assert peak - live <= bound
    finally:
        tracemalloc.stop()
    assert G.table.nbytes > 2 * bound


def test_table_passes_bounded_in_bytes(monkeypatch):
    """With BLOCK_ENTRIES = 65536 bytes, each table-wide pass peaks within
    3 * BLOCK_ENTRIES bytes above what stays live: validate_table on (D12)^2
    and the class labels of a copy of it made by hand (the closure that
    certifies its generating set, then the propagation over that set; a
    builder's table keeps its set and closes none), the fill of E3^5:C2, the quotient
    of (D12)^2 by its nilpotent residual (with its class labels), and the
    product grids that gather rows first: the quotient by the Fitting
    subgroup, of index 4, is_subgroup of the index-2 subgroup C12 x D12,
    and the centralizer of all of G."""
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 16)
    D12, E = build(FamilySpec("dihedral", (12,))), build(FamilySpec("elementary_abelian", (3, 5)))
    C2 = build(FamilySpec("cyclic", (2,)))
    G, H, K = (direct_product(D12, D12) for _ in range(3))  # the residual (K) and the quotient (H) leave G unlabelled
    by_hand = dataclasses.replace(G)  # its generators are not kept as its generating set, so they are closed
    R, F = nilpotent_residual(K), fitting_subgroup(K)
    # C12 x D12, the pairs (a, b) = a * 24 + b with a in C12: a proper subgroup whose grid gathers rows
    rotations_by_D12 = ElementSet(np.repeat(fitting_subgroup(D12).mask, D12.n))
    assert 4 * len(rotations_by_D12) >= G.n > len(rotations_by_D12) and is_subgroup(G, rotations_by_D12)
    passes = {
        "validate_table": lambda: validate_table(G),
        "class_labels": lambda: by_hand.class_labels,
        "semidirect_product": lambda: semidirect_product(E, C2, [range(E.n), E.inverse.tolist()]),
        "quotient": lambda: quotient(H, R),
        "quotient by F": lambda: quotient(K, F),
        "is_subgroup": lambda: is_subgroup(G, rotations_by_D12),
        "centralizer": lambda: centralizer(G, ElementSet.full(G.n)),
    }
    over = {}
    for name, run in passes.items():
        tracemalloc.start()
        try:
            kept = run()  # the result stays live, so only transients count
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        over[name] = (peak - live) / group.BLOCK_ENTRIES
    assert G.n * G.n * G.table.itemsize > 3 * group.BLOCK_ENTRIES
    assert all(blocks <= 3 for blocks in over.values()), over


def test_product_fill_fault_passes_the_laws_and_fails_the_oracle(monkeypatch):
    """A product's build checks only the O(n) laws, so a fill that writes one
    column wrong (rows 1 and 2 of column 2 swapped, in the |H| <= 8 branch)
    still builds; validate_table, the products' tier-1 oracle, then finds
    that rows 1 and 2 are no permutations."""
    spec = FamilySpec("inversion_extension", (3, 2))  # E3^2:C2, n = 18
    honest = build(spec)
    validate_table(honest)
    calls = []

    def add(x, y, out=None, **kwargs):  # the fill's first np.add writes product column 0 of each a2: out[a, h, a2]
        np.add(x, y, out=out, **kwargs)
        if not calls and out is not None:  # column 1 * |H| + 0 = 2 of rows (0, 1) = 1 and (1, 0) = 2
            out[0, 1, 1], out[1, 0, 1] = out[1, 0, 1], out[0, 1, 1]
        calls.append(out is not None)

    monkeypatch.setattr(group, "np", types.SimpleNamespace(**{**vars(np), "add": add}))
    G = build(spec)
    monkeypatch.undo()
    assert calls and all(calls)  # the fill, and only the fill, called np.add
    assert (G.table != honest.table).sum() == 2 and G.table[1, 2] == honest.table[2, 2]
    assert np.array_equal(G.inverse, honest.inverse)
    with pytest.raises(InvalidPermutation, match="Latin square"):
        validate_table(G)


def test_product_fill_widens_to_the_table_dtype(monkeypatch):
    """Factors of order <= 255 in uint8 and a product of order 486 in uint16:
    the fill must compute in the product's dtype, not in the factors'."""
    monkeypatch.setattr(group, "_index_dtype", lambda n: np.uint8 if n <= 255 else np.uint16)
    G = build(FamilySpec("inversion_extension", (3, 5)))
    T, C2 = build(FamilySpec("elementary_abelian", (3, 5))), build(FamilySpec("cyclic", (2,)))
    assert (T.table.dtype, C2.table.dtype, G.table.dtype) == (np.uint8, np.uint8, np.uint16)
    assert_pair_formula(G, T, C2, [list(range(T.n)), T.inverse.tolist()])


def test_every_table_allocation_checks_memory_first(s4, monkeypatch):
    """Each n x n table comes from one helper, which raises CapExceeded and
    names its estimate when the table does not fit the memory budget. (G/1
    is G itself and allocates nothing, so the quotient is taken by V4.)"""
    monkeypatch.setattr(group, "_memory_budget", lambda: 16 * group.BLOCK_ENTRIES)
    z = centralizer(s4, ElementSet.full(s4.n))  # the centre, trivial; any table exceeds this budget, even Z's of order 1
    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    for make in (
        lambda: close_generators(gens(3, "(1 2 3)")),
        lambda: direct_product(s4, s4),
        lambda: quotient(s4, v4),
        lambda: subgroup_table(s4, z),
    ):
        with pytest.raises(CapExceeded, match="needs about .* MiB"):
            make()


def test_subgroup_closure_examples(s3, s4):
    assert set(subgroup_closure(s3, [0])) == {0}
    rot = s3.labels.index("(1 2 3)")
    assert len(subgroup_closure(s3, [rot])) == 3
    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    assert len(v4) == 4
    assert is_subgroup(s4, v4)


def test_center_examples(s3, q8):
    assert set(centralizer(s3, ElementSet.full(s3.n))) == {0}
    assert len(centralizer(q8, ElementSet.full(q8.n))) == 2


def test_centralizer_is_subgroup(s4):
    for x in (1, 5, 9):
        C = centralizer(s4, [x])
        assert is_subgroup(s4, C)
        assert x in C


def test_is_normal(s3):
    a3 = subgroup_closure(s3, [s3.labels.index("(1 2 3)")])
    assert is_normal(s3, a3)
    refl = subgroup_closure(s3, [s3.labels.index("(1 2)")])
    assert not is_normal(s3, refl)
    with pytest.raises(NotASubgroup):
        is_normal(s3, ElementSet.of(s3.n, [1, 2]))


def test_comm_values_of_sets_that_are_not_class_unions(s3):
    """[x, g] for x in S3 and g = (1 2 3) is never (1 2 3) itself, so this
    value set is not a union of classes and must not be spread to one."""
    full, c = ElementSet.full(s3.n), s3.labels.index("(1 2 3)")
    assert set(comm_values(s3, full, [c])) == {0, s3.labels.index("(1 3 2)")}
    assert set(comm_values(s3, [c], full)) == {0, c}


def test_class_labels_lazy_and_read_only(s4):
    G = build(FamilySpec("symmetric", (4,)))
    assert "class_labels" not in vars(G)  # the constructor does not pay for them
    labels = G.class_labels
    assert G.class_labels is labels
    assert not labels.flags.writeable
    assert np.array_equal(labels, s4.class_labels)
    assert sorted(np.bincount(labels)[np.unique(labels)]) == [1, 3, 6, 6, 8]


def test_commutators_match_scalar_comm_and_feed_both_series():
    """GroupTable.commutators against {G.comm(x, g)} on every corpus group,
    freshly built, and on one relabelled one. It is made on first use, not by
    the build, and comm_values over G and G, gamma_values at k = 2, and the
    second terms of both series read the one kept set. comm_values(G, X, G)
    for the class unions X of G's series and gamma_values at k = 2 and 3 is
    one gather over X: it equals the plain grid and, for n <= 60, the scalar
    commutators."""
    groups = [build_spec(parse_spec_file(path)) for _, path in load_corpus(CORPUS_DIR)]
    big = max(groups, key=lambda G: G.n)
    pi = np.array([0, *np.random.default_rng(7).permutation(np.arange(1, big.n))], dtype=big.table.dtype)
    for G in groups + [relabel(big, pi)]:
        assert "commutators" not in G.__dict__, G.name  # the constructor does not pay for it
        values = G.commutators
        assert set(values) == {G.comm(x, g) for x in G.elements() for g in G.elements()}, G.name
        assert not values.mask.flags.writeable and G.commutators is values
        full = ElementSet.full(G.n)
        assert comm_values(G, full, full) is values and gamma_values(G, 2) == values
        closure = subgroup_closure(G, values)
        assert G.lower_central[1] == closure == derived_series(G)[1], G.name
        # the one gather against all of G, for every class union below, equals the plain grid of X by G
        for X in (full, *G.lower_central, gamma_values(G, 2), gamma_values(G, 3)):
            got = comm_values(G, X, full)
            assert got == ElementSet(group._values(G, group._comm_grid, np.arange(G.n), X.mask.nonzero()[0])), G.name
            if G.n <= 60:
                assert set(got) == {G.comm(x, g) for x in X for g in G.elements()}, G.name


def test_class_labels_certified_without_trusting_generators(s4):
    """A table made by hand whose generators do not generate G: its labels
    are the orbits of its generating set, the generators closed and extended
    until they generate, so they are S4's, and so are its normal subgroups
    and normal closures. The orbits of the generators alone are finer than
    the classes, and the Burnside-counted oracle still rejects them."""
    g = s4.generators[:1]
    bad = GroupTable(s4.n, s4.table.copy(), s4.inverse.copy(), list(s4.labels), list(g))
    assert np.array_equal(bad.class_labels, s4.class_labels)
    H = subgroup_closure(s4, g)  # invariant under conjugation by g, yet not normal in S4
    assert not is_normal(s4, H) and not is_normal(bad, H)
    assert normal_closure(bad, g) == normal_closure(s4, g)
    with pytest.raises(InvalidPermutation, match="conjugacy classes"):
        counted_class_labels(bad)


def test_failed_labelling_names_generators_that_do_not_generate(monkeypatch, s3):
    """S3 handed only its first generator: the counted oracle's failure names
    the generators and the order they generate. A table made by hand closes
    its generators once, into its generating set, however often its labels
    and its centre are read, and a builder's table closes none."""
    g = s3.generators[:1]
    order = len(subgroup_closure(s3, g))
    bad = GroupTable(s3.n, s3.table.copy(), s3.inverse.copy(), list(s3.labels), list(g))
    with pytest.raises(InvalidPermutation, match=rf"generators \[{g[0]}\] generate a subgroup of order {order}, not 6"):
        counted_class_labels(bad)
    closed, real = [], group._generate
    monkeypatch.setattr(group, "_generate", lambda G, S, gens: closed.append(G) or real(G, S, gens))
    good = GroupTable(s3.n, s3.table.copy(), s3.inverse.copy(), list(s3.labels), list(s3.generators))
    built = build(FamilySpec("symmetric", (3,)))
    for _ in range(3):
        for G in (bad, good, built):
            assert np.array_equal(G.class_labels, s3.class_labels)
            assert np.array_equal(group._coset_minima(G, np.ones(G.n, dtype=bool)), np.arange(G.n))  # Z(S3) = 1
    assert closed == [bad, good]
    assert bad.generating_set[:1] == tuple(g) and good.generating_set == tuple(s3.generators)


def test_normal_closure_minimal_small(s3, s4, corpus):
    for G in (s3, s4):
        all_normals = normal_subgroups(G)
        for seed in ([1], [2], [1, 2]):
            ncl = normal_closure(G, seed)
            assert is_normal(G, ncl)
            assert set(seed) <= set(ncl)
            for N in all_normals:
                if set(seed) <= set(N):
                    assert set(ncl) <= set(N)


def test_quotient_examples(s3, s4):
    a3 = subgroup_closure(s3, [s3.labels.index("(1 2 3)")])
    Q, proj = quotient(s3, a3)
    assert Q.n == 2

    Q2, proj2 = quotient(s3, ElementSet.trivial(s3.n))
    assert Q2.n == s3.n

    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    Q3, proj3 = quotient(s4, v4)
    assert Q3.n == 6
    assert any(not commute(Q3, a, b) for a in range(6) for b in range(6))


def test_quotient_generators_reach_the_constructor(s4, monkeypatch):
    """quotient hands its projected generators to GroupTable(...), so the
    constructor's range check sees the generators that the table keeps."""
    seen, real = [], group.validate_table

    def recording(G, sorts=True):
        seen.append(list(G.generators))
        real(G, sorts)

    monkeypatch.setattr(group, "validate_table", recording)
    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    Q, proj = quotient(s4, v4)
    assert seen == [Q.generators] and Q.generators == list(dict.fromkeys(proj[g] for g in s4.generators if proj[g]))
    assert len(subgroup_closure(Q, Q.generators)) == Q.n


def test_subgroup_generators_reach_the_constructor(s4, corpus, monkeypatch):
    """subgroup_table hands GroupTable(...) the greedy generating set that
    certifies its set: generating_set of the same table made with none, for
    every proper subgroup of S4 (each is 2-generated) and every proper normal
    subgroup of the corpus groups. A set with no identity, a set not closed
    under multiplication and the empty set still raise NotASubgroup."""
    seen, real = [], group.validate_table

    def recording(G, sorts=True):
        seen.append(list(G.generators))
        real(G, sorts)

    monkeypatch.setattr(group, "validate_table", recording)
    subgroups = {subgroup_closure(s4, [a, b]) for a in range(s4.n) for b in range(s4.n)}
    cases = [(s4, S) for S in subgroups] + [(G, N) for _, G in corpus for N in normal_subgroups(G)]
    for G, S in (case for case in cases if len(case[1]) < case[0].n):
        before = len(seen)
        sub, _ = subgroup_table(G, S)
        assert seen[before:] == [sub.generators], (G.name, sorted(S))
        assert tuple(sub.generators) == dataclasses.replace(sub, generators=[]).generating_set, (G.name, sorted(S))
    assert len(subgroups) == 30
    for members in ([1, 2], [0, 1, 2], []):
        with pytest.raises(NotASubgroup, match="not closed under multiplication"):
            subgroup_table(s4, ElementSet.of(s4.n, members))


def test_quotient_projection_is_homomorphism(s4):
    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    Q, proj = quotient(s4, v4)
    for a in range(s4.n):
        for b in range(s4.n):
            assert proj[s4.mul(a, b)] == Q.mul(proj[a], proj[b])


def test_quotient_requires_normal(s3):
    refl = subgroup_closure(s3, [s3.labels.index("(1 2)")])
    with pytest.raises(NotNormal):
        quotient(s3, refl)
    with pytest.raises(NotASubgroup):
        quotient(s3, ElementSet.of(s3.n, [0, 1, 2]))


def test_direct_product_abelian():
    c2 = build(FamilySpec("cyclic", (2,)))
    c3 = build(FamilySpec("cyclic", (3,)))
    G = direct_product(c2, c3)
    assert G.n == 6
    assert all(commute(G, a, b) for a in range(6) for b in range(6))
    assert G.exponent() == 6


def test_semidirect_inversion_is_s3_shaped(s3):
    c3 = build(FamilySpec("cyclic", (3,)))
    c2 = build(FamilySpec("cyclic", (2,)))
    inversion = [int(v) for v in c3.inverse]
    G = semidirect_product(c3, c2, [list(range(3)), inversion])
    assert G.n == 6
    assert set(centralizer(G, ElementSet.full(G.n))) == {0}
    assert len(G.lower_central[1]) == 3
    assert sorted(element_order(G, x) for x in range(6)) == sorted(
        element_order(s3, x) for x in range(6)
    )


def assert_pair_formula(G, N, H, action):
    """Every entry of G against (a1 * act[h1^-1](a2), h1 h2), element by element."""
    for x in range(G.n):
        a1, h1 = divmod(x, H.n)
        assert G.inv(x) == action[h1][N.inv(a1)] * H.n + H.inv(h1)
        for y in range(G.n):
            a2, h2 = divmod(y, H.n)
            expected = N.mul(a1, action[H.inv(h1)][a2]) * H.n + H.mul(h1, h2)
            assert G.mul(x, y) == expected, (x, y)


def test_semidirect_identity_action_equals_direct_product():
    c4 = build(FamilySpec("cyclic", (4,)))
    c3 = build(FamilySpec("cyclic", (3,)))
    ident_action = [list(range(4)) for _ in range(3)]
    sd = semidirect_product(c4, c3, ident_action)
    dp = direct_product(c4, c3)
    assert np.array_equal(sd.table, dp.table)
    assert np.array_equal(sd.inverse, dp.inverse)
    assert_pair_formula(dp, c4, c3, ident_action)
    assert dp.labels == [f"({a} {h})" for a in c4.labels for h in c3.labels]
    assert dp.generators == [a * 3 for a in c4.generators] + c3.generators
    assert (dp.name, sd.name) == ("C4xC3", "C4:C3")
    c7 = build(FamilySpec("cyclic", (7,)))
    action = [[(k * pow(2, j, 7)) % 7 for k in range(7)] for j in range(3)]
    assert_pair_formula(semidirect_product(c7, c3, action), c7, c3, action)


def test_product_cap_checked_first():
    c4 = build(FamilySpec("cyclic", (4,)))
    c2 = build(FamilySpec("cyclic", (2,)))
    swap_non_auto = [0, 2, 1, 3]
    with pytest.raises(CapExceeded, match="product order 8 exceeds cap 7"):
        semidirect_product(c4, c2, [list(range(4)), swap_non_auto], order_cap=7)
    with pytest.raises(CapExceeded):
        direct_product(c4, c2, order_cap=7)
    assert direct_product(c4, c2, order_cap=8).n == 8


def test_semidirect_conjugation_matches_action():
    c7 = build(FamilySpec("cyclic", (7,)))
    c3 = build(FamilySpec("cyclic", (3,)))
    action = [[(k * pow(2, j, 7)) % 7 for k in range(7)] for j in range(3)]
    G = semidirect_product(c7, c3, action)
    u = G.generators[0]  # (u, 0)
    a = G.generators[-1]  # (0, h)
    assert conj(G, u, a) == G.power(u, 2)


def test_semidirect_rejects_non_automorphism():
    c4 = build(FamilySpec("cyclic", (4,)))
    c2 = build(FamilySpec("cyclic", (2,)))
    swap_non_auto = [0, 2, 1, 3]  # swaps an order-4 element with the involution
    with pytest.raises(NotAnAutomorphism):
        semidirect_product(c4, c2, [list(range(4)), swap_non_auto])


def test_semidirect_rejects_ragged_action():
    c4 = build(FamilySpec("cyclic", (4,)))
    c2 = build(FamilySpec("cyclic", (2,)))
    for entry in ([0, 1, 2], [0, 1, 2, 3, 0]):
        with pytest.raises(NotAnAutomorphism, match="permutation of N's indices"):
            semidirect_product(c4, c2, [range(4), entry])


def test_semidirect_rejects_non_homomorphism():
    c3 = build(FamilySpec("cyclic", (3,)))
    c4 = build(FamilySpec("cyclic", (4,)))
    inversion = [int(v) for v in c3.inverse]
    # order-4 h acting by inversion twice would need action[2] = identity
    bad = [list(range(3)), inversion, inversion, inversion]
    with pytest.raises(NotAHomomorphism, match="h1=1, h2=1"):
        semidirect_product(c3, c4, bad)


ACTED_ON = tuple(build(FamilySpec(name, args)) for name, args in (
    ("cyclic", (4,)), ("cyclic", (5,)), ("cyclic", (6,)), ("cyclic", (7,)), ("cyclic", (8,)),
    ("elementary_abelian", (2, 2)), ("symmetric", (3,)), ("dihedral", (4,)), ("quaternion8", ()),
))
ACTING = tuple(build(FamilySpec("cyclic", (m,))) for m in (1, 2, 3, 4))


@functools.cache
def automorphisms(N: GroupTable) -> list[list[int]]:
    """Every automorphism of a small N: each choice of images for its
    generating set, extended along x -> x s, kept if the full check passes."""
    gens, found = N.generating_set, []
    for images in itertools.product(range(N.n), repeat=len(gens)):
        a, frontier = {0: 0}, [0]
        while frontier:
            x = frontier.pop()
            for s, image in zip(gens, images):
                y = N.mul(x, s)
                if y not in a:
                    a[y] = N.mul(a[x], image)
                    frontier.append(y)
        a = [a[x] for x in range(N.n)]
        if sorted(a) == list(range(N.n)) and not non_automorphisms(N, [a]):
            found.append(a)
    return found


def _power(a: list[int], k: int) -> list[int]:
    x = list(range(len(a)))
    for _ in range(k):
        x = [a[v] for v in x]
    return x


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ACTED_ON), st.sampled_from(ACTING), st.data())
def test_generator_checks_match_the_full_checks(N, H, data):
    """Actions of C1 to C4 on small groups: a homomorphism into Aut(N),
    with some entries replaced by any automorphism, a random bijection, or an
    automorphism composed with one transposition. semidirect_product raises
    exactly when the full N x N and H x H checks fail, and names an h, or a
    pair (h1, h2), that breaks the law."""
    autos = automorphisms(N)
    alpha = data.draw(st.sampled_from([a for a in autos if _power(a, H.n) == list(range(N.n))]))
    action = [None] * H.n
    for k in range(H.n):
        action[H.power(H.generators[0], k)] = _power(alpha, k)
    for h in range(H.n):
        kind = data.draw(st.sampled_from(["keep", "keep", "keep", "automorphism", "bijection", "transposed"]))
        if kind == "automorphism":
            action[h] = data.draw(st.sampled_from(autos))
        elif kind == "bijection":
            action[h] = data.draw(st.permutations(range(N.n)))
        elif kind == "transposed":
            i, j = data.draw(st.lists(st.integers(0, N.n - 1), min_size=2, max_size=2, unique=True))
            action[h] = list(data.draw(st.sampled_from(autos)))
            action[h][i], action[h][j] = action[h][j], action[h][i]
    bad_h, bad_pairs = non_automorphisms(N, action), non_homomorphism_pairs(H, action)
    if bad_h:
        with pytest.raises(NotAnAutomorphism) as caught:
            semidirect_product(N, H, action)
        assert int(re.search(r"h=(\d+)", str(caught.value))[1]) == min(bad_h)
    elif bad_pairs:
        with pytest.raises(NotAHomomorphism) as caught:
            semidirect_product(N, H, action)
        h1, h2 = map(int, re.search(r"h1=(\d+), h2=(\d+)", str(caught.value)).groups())
        assert (h1, h2) in bad_pairs
    else:
        G = semidirect_product(N, H, action)
        assert G.n == N.n * H.n
        validate_table(G)


def test_action_checks_extend_untrusted_generators():
    """Hand-made tables whose generators are [] or do not generate are
    checked exactly: generating_set extends them until they generate."""
    c8, c4, c3, c2 = (build(FamilySpec("cyclic", (m,))) for m in (8, 4, 3, 2))
    sigma = [0, 5, 2, 3, 4, 1, 6, 7]  # respects x -> x + 4, not x -> x + 1
    for gens, extended in (([], (1,)), ([4], (4, 1))):
        N = GroupTable(c8.n, c8.table, c8.inverse, c8.labels, gens)
        assert N.generating_set == extended
        assert non_automorphisms(N, [range(8), sigma]) == {1}
        with pytest.raises(NotAnAutomorphism, match="h=1 "):
            semidirect_product(N, c2, [range(8), sigma])
    inversion = c3.inverse.tolist()
    bad = [[0, 1, 2], [0, 1, 2], inversion, inversion]  # respects h -> h + 2, not h -> h + 1
    for gens, extended in (([], (1,)), ([2], (2, 1))):
        H = GroupTable(c4.n, c4.table, c4.inverse, c4.labels, gens)
        assert H.generating_set == extended
        assert (1, 1) in non_homomorphism_pairs(H, bad)
        with pytest.raises(NotAHomomorphism, match="h1=1, h2=1"):
            semidirect_product(c3, H, bad)
    c1 = build(FamilySpec("cyclic", (1,)))
    H = GroupTable(c1.n, c1.table, c1.inverse, c1.labels, [])
    assert H.generating_set == () and non_homomorphism_pairs(H, [inversion]) == {(0, 0)}
    with pytest.raises(NotAHomomorphism, match="h1=0, h2=0"):  # action[0] must be the identity
        semidirect_product(c3, H, [inversion])


def test_generating_set_is_certified_once_per_table(monkeypatch, s3):
    """A builder's generators generate its table by construction, so a direct
    power of builder tables closes no factor: (S3)^3 and (D12)^2 make no
    closure. A table made by hand is certified by one closure, however many
    products take it as a factor: S3 made from S3's fields, three times in
    (S3 x S3) x S3, is closed once. The kept set is a tuple, so no caller
    changes it."""
    closed, real = [], group.subgroup_closure

    def recording(G, seed):
        closed.append(G)  # keeps G alive, so no two tables share an id
        return real(G, seed)

    monkeypatch.setattr(group, "subgroup_closure", recording)
    for count, base in ((3, FamilySpec("symmetric", (3,))), (2, FamilySpec("dihedral", (12,)))):
        closed.clear()
        build(FamilySpec("direct_power", (count,), base=base))
        assert closed == [], base
    S = GroupTable(s3.n, s3.table, s3.inverse, s3.labels, list(s3.generators))
    closed.clear()
    direct_product(direct_product(S, S), S)
    assert len(closed) == 1 and closed[0] is S
    monkeypatch.undo()
    G = build(FamilySpec("direct_power", (2,), base=FamilySpec("symmetric", (3,))))
    assert isinstance(G.generating_set, tuple) and G.generating_set is G.generating_set == tuple(G.generators)


def construction_oracle(G):
    """G's labels equal the orbits of its generators that the Burnside count certifies (counted_class_labels),
    and its generators generate it."""
    assert np.array_equal(G.class_labels, counted_class_labels(G)), G.name
    assert len(subgroup_closure(G, G.generators)) == G.n, G.name


def test_builder_generators_generate_by_construction(corpus, s4, monkeypatch):
    """Every builder keeps its generators as its generating set, unclosed, and its labels propagate
    over that set: the oracle holds on the corpus, on larger closed forms, products and extensions, and on a
    subgroup table. It is not vacuous: S4 built with only its first generator keeps that one as its
    generating set, so its labels are wrong, and the oracle's count rejects them; a copy made by hand
    closes and extends that generator, so its labels are S4's."""
    specs = [FamilySpec("dihedral", (300,)), FamilySpec("cyclic", (2000,)), FamilySpec("elementary_abelian", (3, 7)),
             FamilySpec("inversion_extension", (3, 7)), FamilySpec("direct_power", (3,), base=FamilySpec("quaternion8"))]
    extra = [build(spec) for spec in specs] + [subgroup_table(s4, s4.lower_central[1])[0]]  # A4 in S4
    for G in [G for _, G in corpus] + extra:
        assert vars(G)["generating_set"] == tuple(G.generators), G.name  # kept by the builder, so none is closed
        construction_oracle(G)
    real = group._perm_table
    with monkeypatch.context() as patched:
        patched.setattr(group, "_perm_table", lambda *args: real(*args[:4], args[4][:1], args[5]))  # gens[:1]
        bad = build(FamilySpec("symmetric", (4,)))
    assert bad.generating_set == tuple(bad.generators) == tuple(s4.generators[:1])
    assert len(np.unique(bad.class_labels)) > len(np.unique(s4.class_labels))  # unchecked, the labels are wrong
    with pytest.raises(InvalidPermutation, match="conjugacy classes"):
        construction_oracle(bad)
    assert np.array_equal(dataclasses.replace(bad).class_labels, s4.class_labels)


def test_product_generators_are_the_generating_sets_it_checks():
    """C3 with no generators x| C2 by inversion is S3: the product's
    generators are the generating sets its action was checked on, not the
    factors' own, so its class labels certify and its Fitting subgroup is C3."""
    c3, c2 = (build(FamilySpec("cyclic", (m,))) for m in (3, 2))
    N = GroupTable(c3.n, c3.table, c3.inverse, c3.labels, [])
    G = semidirect_product(N, c2, [list(range(3)), c3.inverse.tolist()])
    assert G.generators == [2, 1] and len(subgroup_closure(G, G.generators)) == G.n
    assert sorted(Counter(G.class_labels.tolist()).values()) == [1, 2, 3]
    assert set(fitting_subgroup(G)) == {0, 2, 4}


def test_element_order_and_exponent(s3):
    assert element_order(s3, 0) == 1
    assert element_order(s3, s3.labels.index("(1 2 3)")) == 3
    assert s3.exponent() == 6


def test_exponent_matches_scalar_element_orders(corpus):
    """The prime-power descent's exponent equals the lcm of the scalar element_order of
    every element, on the corpus, on C2000 and on (D50)^2 at the order cap."""
    big = [build(FamilySpec("cyclic", (2000,))),
           build(FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (50,))))]
    for G in [G for _, G in corpus] + big:
        assert G.exponent() == reduce(math.lcm, (element_order(G, a) for a in range(G.n)), 1), G.name


def test_exponent_mod_a_normal_subgroup_is_the_quotient_exponent(corpus):
    """G.exponent(N) equals the exponent of the quotient table G/N for every
    normal subgroup N of every corpus group and of the contrast groups
    E3^r:C2, r = 1..4. N = 1 is among them, whose quotient is G itself, so
    the default G.exponent() is read through both paths as well."""
    contrast = [build(FamilySpec("inversion_extension", (3, r))) for r in range(1, 5)]
    for G in [G for _, G in corpus] + contrast:
        for N in normal_subgroups(G):
            assert G.exponent(N) == quotient(G, N)[0].exponent(), (G.name, sorted(N))


def test_exponent_descent_matches_the_power_loop(corpus):
    """G.exponent(N), by the prime-power descent over the class minima, equals the loop of one
    gather a power (exponent_by_powers) for N = 1, the Fitting subgroup, every lower central term
    and the centre, on every corpus group, on a relabelled one and on dihedral 500."""
    big = max((G for _, G in corpus), key=lambda G: G.n)
    pi = np.array([0, *np.random.default_rng(38).permutation(np.arange(1, big.n))], dtype=big.table.dtype)
    extra = [("relabelled " + big.name, relabel(big, pi)), ("dihedral 500", build(FamilySpec("dihedral", (500,))))]
    for group_id, G in corpus + extra:
        for N in (None, fitting_subgroup(G), *G.lower_central, centralizer(G, ElementSet.full(G.n))):
            assert G.exponent(N) == exponent_by_powers(G, N), (group_id, None if N is None else len(N))


def test_exponent_descent_rejects_a_subgroup_that_is_not_normal(s3):
    """Mod <(1 3)>, whose cosets are no group, (1 2)'s descent outlasts its one raise to 3."""
    with pytest.raises(NotNormal, match="normal subgroup"):
        s3.exponent(subgroup_closure(s3, [s3.labels.index("(1 3)")]))


def test_validate_and_audit(q8, d4, s3):
    for G in (q8, d4, s3):
        validate_table(G)
        associativity_audit(G)


def test_rebuild_from_generating_set(s4):
    transpositions = gens(4, "(1 2)", "(2 3)", "(3 4)")
    H = close_generators(transpositions)
    assert H.n == s4.n
    assert sorted(element_order(H, x) for x in range(H.n)) == sorted(
        element_order(s4, x) for x in range(s4.n)
    )


def test_subgroup_table(s4):
    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    sub, embed = subgroup_table(s4, v4)
    assert sub.n == 4
    assert sub.exponent() == 2
    for i in range(4):
        for j in range(4):
            assert embed[sub.mul(i, j)] == s4.mul(embed[i], embed[j])
    with pytest.raises(NotASubgroup):
        subgroup_table(s4, ElementSet.of(s4.n, [0, 1]))


def test_word_evaluation(s3):
    a = s3.generators[0]
    b = s3.generators[1]
    assert parse_element(s3, "g0") == a
    assert parse_element(s3, "g0^2") == s3.mul(a, a)
    assert parse_element(s3, "g0^-1*g1") == s3.mul(s3.inv(a), b)
    with pytest.raises(IndexOutOfRange):
        parse_element(s3, "g5")


def test_power(s3):
    g = s3.labels.index("(1 2 3)")
    assert s3.power(g, 0) == 0
    assert s3.power(g, 3) == 0
    assert s3.power(g, -1) == s3.inv(g)
    assert s3.power(g, 100) == s3.power(g, 100 % 3)


def test_power_of_an_index_array_is_elementwise(corpus):
    """An index array's powers are its elements' scalar powers; a scalar stays an int."""
    for group_id, G in corpus:
        a = np.arange(G.n)
        for e in (-7, -1, 0, 1, 2, 5, 24, 121):
            assert G.power(a, e).tolist() == [G.power(x, e) for x in range(G.n)], (group_id, e)
    assert type(G.power(G.n - 1, 3)) is int
    with pytest.raises(IndexOutOfRange):
        G.power(G.n, 2)


def test_group_tables_compare_and_hash_by_identity():
    G, H = build(FamilySpec("symmetric", (3,))), build(FamilySpec("symmetric", (3,)))
    assert G == G and G != H
    assert len({G, H, G}) == 2


# The build_cap benchmark workload's groups: products, semidirect products and closures.
BUILD_CAP_SPECS = (
    FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (12,))),
    FamilySpec("direct_power", (3,), base=FamilySpec("symmetric", (3,))),
    FamilySpec("inversion_extension", (3, 5)),
    FamilySpec("inversion_extension", (5, 3)),
    FamilySpec("alternating", (6,)),
    FamilySpec("symmetric", (5,)),
)


@pytest.fixture
def label_work(monkeypatch):
    """Counts of format_cycles calls, Permutation constructions, and the
    generators handed to close_generators, from the time of the fixture on."""
    counts = Counter()

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(group, "format_cycles", counting("format_cycles", group.format_cycles))
    monkeypatch.setattr(perm, "format_cycles", counting("format_cycles", perm.format_cycles))
    monkeypatch.setattr(Permutation, "__post_init__", counting("Permutation", Permutation.__post_init__))
    close = group.close_generators

    def close_counting(gens, *args, **kwargs):
        counts["generators"] += len(gens)
        return close(gens, *args, **kwargs)

    monkeypatch.setattr(families, "close_generators", close_counting)
    return counts


def test_builds_make_no_labels_or_perms(label_work):
    """Closures and products format no cycle notation and construct no
    Permutation beyond their generators; reading a label then makes its own
    element's perm and label, once."""
    for spec in BUILD_CAP_SPECS:
        G = build(spec)
        assert label_work["format_cycles"] == 0, spec
        assert label_work["Permutation"] == label_work["generators"], spec
    generators = label_work["Permutation"]
    assert G.labels[1] == "(1 2 3 4 5)"  # S5: one perm, then one label
    assert (label_work["Permutation"], label_work["format_cycles"]) == (generators + 1, 1)
    assert G.labels[1] == "(1 2 3 4 5)" and G.perms[1].image == (2, 3, 4, 5, 1)
    assert (label_work["Permutation"], label_work["format_cycles"]) == (generators + 1, 1)  # both were kept


def test_scan_rows_make_no_labels_or_perms(label_work):
    """scan_row on freshly built corpus groups, with their quotients and
    subgroup work, formats and constructs nothing."""
    corpus = [build_spec(parse_spec_file(path)) for _, path in load_corpus(CORPUS_DIR)]
    label_work.clear()
    for G in corpus:
        scan_row(G, G.name, 2)
    assert label_work == Counter()


def test_cycle_notation_lookup_compares_rows(label_work):
    """Resolving dihedral 1000's last element from its cycle notation compares
    image rows: it makes perm 0 (for the degree) and the parsed perm only."""
    G = build(FamilySpec("dihedral", (1000,)))
    label = G.labels[G.n - 1]
    label_work.clear()
    assert parse_element(G, label) == G.n - 1
    assert label_work["Permutation"] <= 3


def test_lazy_list_reads_like_a_read_only_list():
    made = []
    items = LazyList(3, lambda i: made.append(i) or ["e", "(1 2)", "(1 2 3)"][i])
    assert len(items) == 3 and not made
    assert items[-1] == "(1 2 3)" and items[0] == "e" and made == [2, 0]
    for i in (3, -4):
        with pytest.raises(IndexError):
            items[i]
    assert items[1:] == ["(1 2)", "(1 2 3)"] and type(items[1:]) is list and items[::-2] == ["(1 2 3)", "e"]
    assert list(items) == ["e", "(1 2)", "(1 2 3)"] and items.index("(1 2)") == 1
    assert "(1 2)" in items and "(2 3)" not in items
    with pytest.raises(ValueError):
        items.index("(2 3)")
    assert items == ["e", "(1 2)", "(1 2 3)"] and ["e", "(1 2)", "(1 2 3)"] == items
    assert items != ["e"] and ["e"] != items
    with pytest.raises(TypeError):
        items[0] = "x"
    assert made == [2, 0, 1]  # each item made on its first read, then kept


def test_lazy_labels_hold_no_table():
    """The quotient, the subgroup table and the semidirect product keep the
    labels of their source, not the source table: it is collected once
    dropped, and the labels read afterwards are the source's."""
    want = build(FamilySpec("symmetric", (4,)))
    v4 = [want.labels.index("(1 2)(3 4)"), want.labels.index("(1 3)(2 4)")]
    G = build(FamilySpec("symmetric", (4,)))
    ref, N = weakref.ref(G), subgroup_closure(G, v4)
    Q, projection = quotient(G, N)
    sub, embedding = subgroup_table(G, N)
    del G
    gc.collect()
    assert ref() is None
    assert Q.labels == [want.labels[projection.index(c)] for c in range(Q.n)]  # each coset's least element
    assert sub.labels == [want.labels[g] for g in embedding]

    T, C2 = build(FamilySpec("elementary_abelian", (3, 2))), build(FamilySpec("cyclic", (2,)))
    ref, T_labels = weakref.ref(T), build(FamilySpec("elementary_abelian", (3, 2))).labels
    G = semidirect_product(T, C2, [list(range(T.n)), T.inverse.tolist()])
    del T
    gc.collect()
    assert ref() is None
    assert G.labels == [f"({a} {h})" for a in T_labels for h in C2.labels]


@pytest.mark.parametrize("image", [(1, 1, 3), (0, 2, 3), (1, 2, 4)], ids=["repeated", "below", "above"])
def test_closure_checks_every_row_is_a_bijection(image):
    """A generator that slipped past Permutation's own check, with a repeated
    point or a point out of range, is caught by the closure's check of its
    generator rows before the search gathers on them, not later by the
    Latin-square law or as an IndexError."""
    fake = object.__new__(Permutation)
    object.__setattr__(fake, "degree", 3)
    object.__setattr__(fake, "image", image)
    with pytest.raises(InvalidPermutation, match="not a bijection"):
        close_generators([fake])
