"""close_generators against a scalar breadth-first oracle, pinned digests,
the order cap and the block-bounded transients."""

import hashlib
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinklab import group
from sinklab.errors import CapExceeded
from sinklab.families import FamilySpec, build
from sinklab.group import GroupTable, close_generators
from sinklab.perm import Permutation, format_cycles
from sinklab.specfile import build_spec, parse_spec_file, parse_spec_text

REPO = Path(__file__).resolve().parent.parent
CLOSURE_DIGESTS = Path(__file__).resolve().parent / "data" / "closure_digests.json"


def scalar_closure(gens, order_cap):
    """Slow oracle: one Permutation.compose per (element, generator) pair in
    breadth-first order, then the table column by column, since
    p_i * p_j = (p_i * p_parent[j]) * gen, with hashed generator columns."""
    degree = gens[0].degree
    ident = Permutation.identity(degree)
    elems, index, parent, via, head = [ident], {ident.image: 0}, [0], [0], 0
    while head < len(elems):
        base = elems[head]
        head += 1
        for gi, g in enumerate(gens):
            p = base.compose(g)
            if p.image not in index:
                if len(elems) >= order_cap:
                    raise CapExceeded(f"closure exceeded order cap {order_cap} (degree {degree})")
                index[p.image] = len(elems)
                elems.append(p)
                parent.append(head - 1)
                via.append(gi)
    n = len(elems)
    table = np.empty((n, n), dtype=group._index_dtype(n))
    gen_col = {gi: [index[p.compose(g).image] for p in elems] for gi, g in enumerate(gens)}
    table[:, 0] = np.arange(n)
    for j in range(1, n):
        table[:, j] = np.array(gen_col[via[j]])[table[:, parent[j]]]
    return GroupTable(
        n=n,
        table=table,
        inverse=np.array([index[p.inverse().image] for p in elems], dtype=table.dtype),
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
    and C500, match their pinned tables, inverses, labels, generators and names."""
    for key, want in json.loads(CLOSURE_DIGESTS.read_text(encoding="utf-8")).items():
        if key.endswith(".grp"):
            G = build_spec(parse_spec_file(REPO / key))
        else:
            G = build(parse_spec_text(f"group construct {key}\n").family)
        assert closure_digest(G) == want, key


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
