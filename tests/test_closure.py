"""close_generators against a scalar breadth-first oracle, pinned digests,
the order cap and the block-bounded transients; the closed-form cyclic
family against the closure."""

import hashlib
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinklab import group
from sinklab.cli import main
from sinklab.errors import CapExceeded, InvalidPermutation
from sinklab.families import FamilySpec, build
from sinklab.group import GroupTable, close_generators, validate_table
from sinklab.perm import Permutation, format_cycles
from sinklab.specfile import build_spec, parse_spec_file, parse_spec_text

from oracles import compose, inverse

REPO = Path(__file__).resolve().parent.parent
CLOSURE_DIGESTS = Path(__file__).resolve().parent / "data" / "closure_digests.json"


def scalar_closure(gens, order_cap):
    """Slow oracle: one compose per (element, generator) pair in
    breadth-first order, then the table column by column, since
    p_i * p_j = (p_i * p_parent[j]) * gen, with hashed generator columns."""
    degree = gens[0].degree
    ident = Permutation.identity(degree)
    elems, index, parent, via, head = [ident], {ident.image: 0}, [0], [0], 0
    while head < len(elems):
        base = elems[head]
        head += 1
        for gi, g in enumerate(gens):
            p = compose(base, g)
            if p.image not in index:
                if len(elems) >= order_cap:
                    raise CapExceeded(f"closure exceeded order cap {order_cap} (degree {degree})")
                index[p.image] = len(elems)
                elems.append(p)
                parent.append(head - 1)
                via.append(gi)
    n = len(elems)
    table = np.empty((n, n), dtype=group._index_dtype(n))
    gen_col = {gi: [index[compose(p, g).image] for p in elems] for gi, g in enumerate(gens)}
    table[:, 0] = np.arange(n)
    for j in range(1, n):
        table[:, j] = np.array(gen_col[via[j]])[table[:, parent[j]]]
    return GroupTable(
        n=n,
        table=table,
        inverse=np.array([index[inverse(p).image] for p in elems], dtype=table.dtype),
        labels=[format_cycles(p) for p in elems],
        generators=list(dict.fromkeys(index[g.image] for g in gens)),
        perms=elems,
    )


def outcome(close, gens, order_cap):
    """Every field of the closure's table, or its CapExceeded message."""
    try:
        G = close(gens, order_cap)
    except CapExceeded as exc:
        return str(exc)
    return G.n, G.table.dtype, G.table.tobytes(), G.inverse.tobytes(), G.labels, G.generators, G.perms


@st.composite
def generating_sets(draw):
    """One to four generators of degree at most 7, with repeats and the identity."""
    degree = draw(st.integers(min_value=1, max_value=7))
    perm = st.permutations(range(1, degree + 1)).map(lambda img: Permutation(degree, tuple(img)))
    pool = draw(st.lists(perm, min_size=1, max_size=3)) + [Permutation.identity(degree)]
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))]


@settings(max_examples=60, deadline=None)
@given(generating_sets(), st.sampled_from([group.BLOCK_ENTRIES, 64, 7]))
def test_closure_matches_scalar_oracle(gens, block):
    """Table, inverse, labels, generators and perms equal the oracle's, also
    when a round spans many blocks; beyond the cap both raise one message."""
    want = outcome(scalar_closure, gens, 800)
    with mock.patch.object(group, "BLOCK_ENTRIES", block):
        assert outcome(close_generators, gens, 800) == want


def closure_digest(G):
    return {
        "order": G.n,
        "dtype": str(G.table.dtype),
        "table_sha256": hashlib.sha256(np.ascontiguousarray(G.table)).hexdigest(),
        "inverse_sha256": hashlib.sha256(np.ascontiguousarray(G.inverse)).hexdigest(),
        "labels_sha256": hashlib.sha256("\n".join(G.labels).encode()).hexdigest(),
        "generators": G.generators,
        "name": G.name,
    }


def test_closure_builds_pinned():
    """Every closure of the corpus, and S6, S7, A7, D50, C24, Q8, E3^5, D300
    and C500, match their pinned tables, inverses, labels, generators and names,
    and pass validate_table, the Latin-square oracle that their build skips."""
    for key, want in json.loads(CLOSURE_DIGESTS.read_text(encoding="utf-8")).items():
        if key.endswith(".grp"):
            G = build_spec(parse_spec_file(REPO / key))
        else:
            G = build(parse_spec_text(f"group construct {key}\n").family)
        assert closure_digest(G) == want, key
        validate_table(G)


def test_closure_fill_fault_passes_the_laws_and_fails_the_oracle():
    """A closure's build checks only the O(n) laws, so a copy of S5's table
    with two entries of one column swapped (no 0 moves, so the identity and
    inverse laws hold) is still made; validate_table, the closures' tier-1
    oracle, then finds that the two rows are no permutations."""
    honest = build(FamilySpec("symmetric", (5,)))
    validate_table(honest)
    t, c = honest.table.copy(), honest.n - 1
    a, b = [r for r in range(1, honest.n) if t[r, c]][:2]  # t[r, c] is 0 for r = c^-1 only
    t[[a, b], c] = t[[b, a], c]
    G = GroupTable(honest.n, t, honest.inverse, honest.labels, list(honest.generators), honest.perms)
    assert (G.table != honest.table).sum() == 2
    with pytest.raises(InvalidPermutation, match="Latin square"):
        validate_table(G)


@pytest.mark.parametrize("spec", [FamilySpec("alternating", (5,)), FamilySpec("dihedral", (12,)),
                                  FamilySpec("elementary_abelian", (3, 3)), FamilySpec("quaternion8", ())])
def test_closure_cap_at_the_order(spec):
    G = build(spec)
    gens = [G.perms[g] for g in G.generators]
    with pytest.raises(CapExceeded) as exc:
        close_generators(gens, order_cap=G.n - 1)
    assert str(exc.value) == f"closure exceeded order cap {G.n - 1} (degree {gens[0].degree})"
    assert np.array_equal(close_generators(gens, order_cap=G.n).table, close_generators(gens).table)


def test_closure_transients_bounded_by_blocks(monkeypatch):
    """With BLOCK_ENTRIES cut to 4096, the tracemalloc peak of closing S6
    above what stays live (its table, and the image rows that its perms and
    labels are made from on first read) is within 64 blocks."""
    want = build(FamilySpec("symmetric", (6,)))
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 12)
    bound = 64 * group.BLOCK_ENTRIES  # bytes
    gens = [want.perms[g] for g in want.generators]
    tracemalloc.start()
    try:
        G = close_generators(gens)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - live <= bound
    assert G.table.nbytes > 2 * bound
    assert np.array_equal(G.table, want.table) and np.array_equal(G.inverse, want.inverse)


def rot_refl(n):
    """dihedral n's generators: the n-cycle and k -> n + 2 - k."""
    return [n_cycle(n), Permutation(n, (1, *range(n, 1, -1)))]


@pytest.mark.parametrize("mib,message", [
    (12, "a table of order 2000 needs about 13 MiB; memory is 12 MiB"),
    (8, r"a closure of degree 1000 at \d+ elements needs about \d+ MiB; memory is 8 MiB"),
], ids=["at_the_table", "in_the_search"])
def test_closure_search_counts_its_rows_and_keys_against_memory(monkeypatch, mib, message):
    """The closure of dihedral 1000's rot and refl (n = 2000, degree 1000; the
    family itself is built in closed form) holds 3.8 MiB of image rows, and
    in its search about as much in byte keys, which it drops before its 7.6 MiB
    table: with BLOCK_ENTRIES at 1 << 16 its build raises CapExceeded, naming
    its estimate, before its tracemalloc peak reaches the budget: at the
    table's check with 12 MiB (7.6 + 3.8 + 1 MiB of transients, 12.44 MiB),
    and from the search itself with 8 MiB."""
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 16)
    monkeypatch.setattr(group, "_memory_budget", lambda: mib << 20)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=message):
            close_generators(rot_refl(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib << 20


def test_closure_peaks_within_its_table_estimate(monkeypatch):
    """With the budget out of the way, the closure of dihedral 1000's rot and
    refl at BLOCK_ENTRIES = 1 << 16 peaks within the estimate that _new_table
    checks: its 7.6 MiB table, its 3.8 MiB of image rows and 16 *
    BLOCK_ENTRIES bytes, 12.44 MiB in all. The byte keys are gone by then,
    and the rows are not joined into a copy."""
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 16)
    checked = []
    monkeypatch.setattr(group, "_check_memory", lambda held, what: checked.append(held))
    tracemalloc.start()
    try:
        G = close_generators(rot_refl(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = checked[-1] + 16 * group.BLOCK_ENTRIES  # _check_memory's formula at the table
    assert checked[-1] == G.table.nbytes + G.n * 1000 * 2  # the table and the uint16 image rows
    assert estimate == 13_048_576  # 12.44 MiB
    assert G.table.nbytes < peak <= estimate


def test_closure_keeps_its_tree_and_rebuilds_its_rows_on_first_read():
    """The closure of dihedral 1000's rot and refl (order 2000, degree 1000)
    holds its 7.63 MiB table once built, and no image rows; its first label
    read rebuilds the 3.81 MiB of uint16 rows down the Schreier tree and keeps
    them, with one perm and one label. Each figure has 1 MiB of slack for the
    tree and the points list."""
    tracemalloc.start()
    try:
        G = close_generators(rot_refl(1000))
        built = tracemalloc.get_traced_memory()[0]
        assert G.labels[1] == "(" + " ".join(map(str, range(1, 1001))) + ")"  # the rotation
        read = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    table, rows = G.table.nbytes, G.n * 1000 * 2
    assert table < built <= table + 2**20
    assert table + rows < read <= table + rows + 2**20


def n_cycle(n):
    return Permutation(n, (*range(2, n + 1), 1))


def cyclic_fields(close, n, order_cap):
    """Every field of C_n as close builds it, or its CapExceeded message."""
    try:
        G = close(n, order_cap)
    except CapExceeded as exc:
        return str(exc)
    return (G.n, G.table.dtype, G.table.tobytes(), G.inverse.dtype, G.inverse.tobytes(),
            G.generators, list(G.perms), list(G.labels), G.name)


def test_cyclic_closed_form_matches_the_closure():
    """build(cyclic n) is close_generators of the n-cycle field by field, and
    raises the closure's messages at the caps n - 1 and 0 (for n <= 64)."""
    def closure(n, order_cap):
        return close_generators([n_cycle(n)], order_cap, name=f"C{n}")

    def closed_form(n, order_cap):
        G = build(FamilySpec("cyclic", (n,)), order_cap)
        validate_table(G)  # the Latin-square oracle that the build skips
        return G

    for n in [*range(1, 65), 500, 2000]:
        for order_cap in (n, n - 1, 0) if n <= 64 else (n,):
            assert cyclic_fields(closed_form, n, order_cap) == cyclic_fields(closure, n, order_cap), (n, order_cap)


def fields(make, order_cap):
    """Every field of the table make(order_cap) builds, or its CapExceeded
    message. Above order 200 the perms are compared by the PermRows image
    rows they are made from, and every 25th label, as formatting them all
    would take most of the time."""
    try:
        G = make(order_cap)
    except CapExceeded as exc:
        return str(exc)
    small = G.n <= 200
    return (G.n, G.table.dtype, G.table.tobytes(), G.inverse.dtype, G.inverse.tobytes(), G.generators,
            list(G.perms) if small else G.perms.rows().tobytes(), G.labels[:: 1 if small else 25], G.name)


def assert_closed_form_is_the_closure(spec, gens):
    """build(spec) is close_generators(gens) field by field and passes
    validate_table; for order <= 64 both raise one message at the caps
    order - 1 and 0."""
    name = build(spec).name

    def closure(order_cap):
        return close_generators(gens, order_cap, name=name)

    def closed_form(order_cap):
        G = build(spec, order_cap)
        validate_table(G)  # the Latin-square oracle that the build skips
        return G

    want = fields(closure, group.DEFAULT_ORDER_CAP)
    n = want[0]
    assert fields(closed_form, n) == want, spec
    for order_cap in (n - 1, 0) if n <= 64 else ():
        assert fields(closed_form, order_cap) == fields(closure, order_cap), (spec, order_cap)


def test_elementary_abelian_closed_form_matches_the_closure():
    """E_p^r's closed-form tree is the closure of its r disjoint p-cycles, for
    every p in {2, 3, 5, 7} with p^r <= 2187."""
    for p in (2, 3, 5, 7):
        for r in range(1, 12):
            if p**r <= 2187:  # g_v cycles the points v p + 1 .. v p + p
                gens = [Permutation(p * r, tuple(p * v + (x + 1) % p + 1 if x // p == v else x + 1
                                                 for x in range(p * r))) for v in range(r)]
                assert_closed_form_is_the_closure(FamilySpec("elementary_abelian", (p, r)), gens)


def test_dihedral_closed_form_matches_the_closure():
    """D_n's closed-form tree is the closure of rot and refl for n = 3..300."""
    for n in range(3, 301):
        assert_closed_form_is_the_closure(FamilySpec("dihedral", (n,)), rot_refl(n))


def test_deepest_closure_digests_pinned_through_the_closure():
    """cyclic 24 and cyclic 500, the deepest breadth-first trees of
    closure_digests.json, still match their pins through close_generators."""
    pinned = json.loads(CLOSURE_DIGESTS.read_text(encoding="utf-8"))
    for n in (24, 500):
        assert closure_digest(close_generators([n_cycle(n)], name=f"C{n}")) == pinned[f"cyclic {n}"], n


def test_cyclic_beyond_the_cap_raises_before_allocating(capsys, tmp_path, monkeypatch):
    """cyclic 10001 raises CapExceeded with the closure's message, and the CLI
    exits 3, with no 10001 x 10001 table (191 MiB) allocated."""
    monkeypatch.delenv("SINKLAB_CAP", raising=False)
    spec = tmp_path / "c10001.grp"
    spec.write_text("group construct cyclic 10001\n", encoding="utf-8")
    message = "closure exceeded order cap 10000 (degree 10001)"
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=re.escape(message)):
            build(FamilySpec("cyclic", (10_001,)))
        code = main(["build", str(spec)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and message in capsys.readouterr().err
    assert peak < 8 << 20


def test_cyclic_build_peaks_at_its_table_plus_blocks():
    """cyclic 10000 fills its table in the table's dtype: the tracemalloc
    peak of the build, validation included, is its table plus less than
    16 * BLOCK_ENTRIES bytes (an int64 table would add 763 MiB)."""
    tracemalloc.start()
    try:
        G = build(FamilySpec("cyclic", (10_000,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.table.nbytes <= peak < G.table.nbytes + 16 * group.BLOCK_ENTRIES
