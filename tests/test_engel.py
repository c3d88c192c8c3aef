import tracemalloc

import numpy as np

from sinklab import group
from sinklab import engel
from sinklab.engel import (
    gamma_values,
    is_left_engel,
    left_engel_set,
    right_engel_sink,
    sink_profile,
    sinks,
)
from sinklab.families import FamilySpec, build
from sinklab.group import ElementSet, quotient, subgroup_closure
from sinklab.structure import nilpotent_residual
from sinklab.verify import window_sinks

from oracles import commutator_tail, coset_directions, landing, landing_sinks, relabel, tail_witnesses


def brute_commutator_set(G, xs):
    """Independent enumeration of {[x, g] : x in xs, g in G}."""
    return {G.comm(x, g) for x in xs for g in G.elements()}


def iterate_comm(G, g, x, n):
    c = g
    for _ in range(n):
        c = G.comm(c, x)
    return c


def test_tail_identity_direction(s3):
    g = s3.labels.index("(1 2 3)")
    trace = commutator_tail(s3, g, 0)
    assert trace.preperiod == (g,)
    assert trace.cycle == (0,)


def test_tail_constant(s3):
    g = s3.labels.index("(1 2 3)")
    x = s3.labels.index("(1 2)")
    trace = commutator_tail(s3, g, x)
    assert trace.preperiod == ()
    assert trace.cycle == (g,)


def test_tail_abelian(c12):
    for g in (0, 3, 7):
        for x in (1, 5):
            trace = commutator_tail(c12, g, x)
            assert trace.cycle == (0,)


def test_tail_structure(s4):
    for g in range(0, s4.n, 7):
        for x in range(s4.n):
            trace = commutator_tail(s4, g, x)
            assert len(trace.preperiod) + len(trace.cycle) <= s4.n
            # the cycle is closed under c -> [c, x]
            cyc = set(trace.cycle)
            assert {s4.comm(c, x) for c in cyc} == cyc
            # replay: walking the preperiod then the cycle reproduces the trace
            seq = list(trace.preperiod) + list(trace.cycle)
            for a, b in zip(seq, seq[1:]):
                assert s4.comm(a, x) == b


def test_sink_examples(s3, d4, q8):
    g = s3.labels.index("(1 2 3)")
    report = right_engel_sink(s3, g)
    assert {s3.labels[z] for z in report.sink} == {"e", "(1 2 3)"}
    assert report.size_full == 2
    assert report.size_nontrivial == 1

    assert set(right_engel_sink(s3, 0).sink) == {0}
    for G in (d4, q8):
        for g in G.elements():
            assert set(right_engel_sink(G, g).sink) == {0}


def test_sink_contains_identity(s4, frob732):
    for G in (s4, frob732):
        for g, sink in enumerate(sinks(G)):
            assert sink[0]
            report = right_engel_sink(G, g)
            assert np.array_equal(report.sink.mask, sink)  # the witness walk agrees with the sink walk
            assert report.size_nontrivial == report.size_full - 1


def test_sinks_matrix_rows_ascend_and_are_read_only(s4):
    """One read-only bool row per distinct target, in ascending order
    whatever the order of the targets given and their repeats."""
    whole = sinks(s4)
    assert whole.dtype == bool and whole.shape == (s4.n, s4.n) and not whole.flags.writeable
    part = sinks(s4, [20, 3, 20, 7])
    assert part.shape == (3, s4.n) and not part.flags.writeable
    assert np.array_equal(part, whole[[3, 7, 20]])
    assert sinks(s4, []).shape == (0, s4.n)


def test_sink_witnesses_replay(corpus):
    """On every corpus group (every element up to order 60, every 7th past it),
    each witness (x, n) replays, with z recurring after it; the witnesses are
    the scalar tails' (the first direction in index order, and its depth);
    and the sink is the sink walk's row."""
    for group_id, G in corpus:
        for g in range(0, G.n, 1 if G.n <= 60 else 7):
            report = right_engel_sink(G, g)
            assert report.witnesses == tail_witnesses(G, g), (group_id, g)
            assert np.array_equal(report.sink.mask, sinks(G, [g])[0]), (group_id, g)
            for z, (x, n) in report.witnesses.items():
                assert iterate_comm(G, g, x, n) == z
                # z recurs: some m >= 1 brings the tail back to z
                c = G.comm(z, x)
                m = 1
                while c != z:
                    c = G.comm(c, x)
                    m += 1
                    assert m <= G.n
                assert iterate_comm(G, g, x, n + m) == z


def test_engel_element_examples(s4):
    assert sinks(s4, [0]).sum() == 1  # right Engel
    assert is_left_engel(s4, 0)
    v = s4.labels.index("(1 2)(3 4)")
    t = s4.labels.index("(1 2)")
    assert is_left_engel(s4, v)
    assert not is_left_engel(s4, t)


def test_is_right_engel_iff_trivial_sink(corpus):
    """Right Engel read off the sink kernel, |sink(g)| = 1, against the scalar tails."""
    for group_id, G in corpus:
        if G.n > 60:
            continue
        sink_of = sinks(G)
        for g in G.elements():
            assert (sink_of[g].sum() == 1) == (len(tail_witnesses(G, g)) == 1), (group_id, g)


def test_recurrent_value_characterization(s3, q8, d4):
    """z lies in the sink iff z = [g, n x] = [g, (n+m) x] with n, m in 1..2|G|."""
    for G in (s3, q8, d4):
        bound = 2 * G.n
        for g in G.elements():
            sink = set(right_engel_sink(G, g).sink)
            recurrent = set()
            for x in G.elements():
                seq = [g]  # seq[n] = [g, n x]
                for _ in range(2 * bound):
                    seq.append(G.comm(seq[-1], x))
                for n in range(1, bound + 1):
                    if seq[n] in seq[n + 1 : n + bound + 1]:
                        recurrent.add(seq[n])
            assert recurrent == sink


def test_gamma_values_examples(s3, a5, c12):
    assert set(gamma_values(s3, 1)) == set(range(6))
    expected = {0, s3.labels.index("(1 2 3)"), s3.labels.index("(1 3 2)")}
    assert set(gamma_values(s3, 2)) == expected
    assert set(gamma_values(s3, 2)) == brute_commutator_set(s3, range(s3.n))
    for k in (2, 3, 4):
        assert len(gamma_values(a5, k)) == a5.n
    for k in (2, 3):
        assert set(gamma_values(c12, k)) == {0}


def test_gamma_values_match_brute_force(s4, q8, ie32):
    for G in (s4, q8, ie32):
        x2 = brute_commutator_set(G, range(G.n))
        assert set(gamma_values(G, 2)) == x2
        assert set(gamma_values(G, 3)) == brute_commutator_set(G, x2)


def test_gamma_chain(s4, frob732):
    for G in (s4, frob732):
        prev = None
        for k in (1, 2, 3, 4):
            closure = subgroup_closure(G, gamma_values(G, k))
            if prev is not None:
                assert set(closure) <= prev
            prev = set(closure)


def test_sink_profile(s3, d4, q8, c12, ie32):
    for G in (d4, q8, c12):
        assert sink_profile(G, 2) == (1, 0, 0)
    m_full, m_nontrivial, argmax = sink_profile(s3, 2)
    assert (m_full, m_nontrivial) == (2, 1)
    assert argmax == s3.labels.index("(1 2 3)")
    assert sink_profile(ie32, 2)[:2] == (2, 1)


def test_sink_profile_matches_every_value(corpus):
    """sink_profile against the sink sizes of every weight-k value, not only
    the class minima: the same maximum, and the least value reaching it."""
    for group_id, G in corpus:
        sizes = sinks(G).sum(axis=1)
        for k in (2, 3):
            values = list(gamma_values(G, k))
            m = max(int(sizes[g]) for g in values)
            assert sink_profile(G, k) == (m, m - 1, min(g for g in values if sizes[g] == m)), (group_id, k)


def orbit(G, a, v):
    """v, [v,a], [v,a,a], ... up to (excluding) the first repeated value."""
    tail = commutator_tail(G, v, a)
    return list(tail.preperiod + tail.cycle)


def test_commutator_orbit(ie31, frob732):
    assert orbit(ie31, ie31.generators[-1], 0) == [0]
    t = ie31.generators[0]
    alpha = ie31.generators[-1]
    assert orbit(ie31, alpha, t) == [t]
    u = frob732.generators[0]
    a = frob732.generators[-1]
    assert orbit(frob732, a, u) == [u]


def test_orbit_inclusion_under_lemma_hypotheses(ie32, frob732):
    for G in (ie32, frob732):
        V = nilpotent_residual(G)
        a = G.generators[-1]
        sink_of = dict(zip(V, sinks(G, set(V))))  # the rows ascend, as V's iteration does
        for v in V:
            values = orbit(G, a, v)
            assert all(sink_of[v][z] for z in values)
            if v != 0:
                assert 0 not in values


def test_sink_monotone_under_quotient(s4, s3, ie32):
    from sinklab.structure import nilpotent_residual as residual

    cases = [
        (s4, subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])),
        (s3, subgroup_closure(s3, [s3.labels.index("(1 2 3)")])),
        (ie32, residual(ie32)),
    ]
    for G, N in cases:
        Q, proj = quotient(G, N)
        q_sinks = sinks(Q)
        for g, sink in enumerate(sinks(G)):
            projected = {proj[z] for z in np.flatnonzero(sink).tolist()}
            assert set(np.flatnonzero(q_sinks[proj[g]]).tolist()) <= projected


def test_heineken_implication(corpus):
    for _, G in corpus:
        for g, sink in enumerate(sinks(G)):
            if sink.sum() == 1:
                assert is_left_engel(G, G.inv(g))


def test_engel_sets_match_iteration_oracle(corpus):
    """Left and right Engel sets against n-fold iteration of comm_step, with
    no pointer jumping and no cycle detection: after n steps every tail has
    left its preperiod, so it ends in the identity iff it sits there.
    left_engel_set walks one direction per coset of C_G(K), K the
    commutators, so it is also compared with is_left_engel in every
    direction, on every corpus group and on a relabelled one."""
    big = max((G for _, G in corpus), key=lambda G: G.n)
    pi = np.array([0, *np.random.default_rng(11).permutation(np.arange(1, big.n))], dtype=big.table.dtype)
    for group_id, G in corpus + [("relabelled " + big.name, relabel(big, pi))]:
        assert set(left_engel_set(G)) == {x for x in G.elements() if is_left_engel(G, x)}, group_id
        if G.n > 100:
            continue
        left, right = set(), set(G.elements())
        for x in G.elements():
            step = G.comm_step(x)
            c = np.arange(G.n)
            for _ in range(G.n):
                c = step[c]
            if not c.any():
                left.add(x)
            right -= set(np.flatnonzero(c).tolist())
        assert set(left_engel_set(G)) == left, group_id
        assert {g for g, sink in enumerate(sinks(G)) if np.flatnonzero(sink).tolist() == [0]} == right, group_id


def test_left_engel_walks_two_directions_on_a_dihedral_group(monkeypatch):
    """In D_2001, K = <r> = C_G(K) has index 2, so the walk takes 2 directions
    where the class minima are about n / 4 = 1000; F is the rotations."""
    G = build(FamilySpec("dihedral", (2001,)))
    walked = []

    def counted(G, xs):
        walked.append(xs.tolist())
        return left_engel(G, xs)

    left_engel = engel._left_engel
    monkeypatch.setattr(engel, "_left_engel", counted)
    F = left_engel_set(G)
    assert [len(xs) for xs in walked] == [2] and walked[0][0] == 0
    assert len(F) == 2001 and all(G.power(x, 2001) == 0 for x in F)


def test_sinks_match_landing_and_window_oracles(corpus):
    """The Brent walk against the landing route and the plain window, for
    every element of every corpus group, and on targets taken alone."""
    for group_id, G in corpus:
        walk = sinks(G)
        assert np.array_equal(walk, landing_sinks(G)), group_id
        assert np.array_equal(walk, window_sinks(G)), group_id
        assert np.array_equal(sinks(G, range(1, G.n, 2)), walk[1::2]), group_id


def test_sinks_over_many_direction_blocks(corpus, monkeypatch):
    """With a small BLOCK_ENTRIES the walk runs in several direction blocks;
    the directions it walks are exactly the least elements of the cosets of
    C_G(S), S the commutators and the targets' classes, with C brute-forced,
    and none when the only target is the identity (C1); and the sinks, of all
    elements and of one, do not change. A relabelled D12, made by hand, reads
    its centre off a generating set that it closes rather than keeps."""
    d12 = next(G for _, G in corpus if G.name == "D12")
    pi = np.array([0, *np.random.default_rng(42).permutation(np.arange(1, d12.n))], dtype=d12.table.dtype)
    corpus = corpus + [("relabelled D12", relabel(d12, pi))]
    whole = {group_id: (sinks(G), sinks(G, [G.n - 1])) for group_id, G in corpus}
    walked = []

    def counted_grid(G, xs, cs):
        walked.append(xs)
        return group._comm_grid(G, xs, cs)

    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1000)
    monkeypatch.setattr("sinklab.engel._comm_grid", counted_grid)
    several = set()
    for group_id, G in corpus:
        for targets, want in zip((None, [G.n - 1]), whole[group_id]):
            del walked[:]
            assert np.array_equal(sinks(G, targets), want), group_id
            directions = coset_directions(G, G.elements() if targets is None else targets)
            if G.n == 1:  # the identity is the only target
                assert walked == [], group_id
                continue
            assert np.concatenate(walked).tolist() == directions, group_id
            if len(directions) >= 16:
                assert len(walked) > 2, group_id
                several.add(group_id)
    assert {"S4", "A5"} <= several


def test_identity_rows_make_no_walk(corpus, monkeypatch):
    """The sinks of the identity alone are rows of {1}, as [1, x] = 1, equal to window_sinks's row
    of 1 on every corpus group; like the sinks of no element, they make no step grid and read or
    make no coset minima, and they are read-only."""
    oracle = {group_id: window_sinks(G)[0] for group_id, G in corpus}
    made = []
    monkeypatch.setattr(engel, "_comm_grid", lambda *args: made.append("step grid"))
    monkeypatch.setattr(engel, "_coset_minima", lambda *args: made.append("coset minima"))
    monkeypatch.setattr(group.GroupTable, "commutator_cosets", property(lambda G: made.append("commutator cosets")))
    for group_id, G in corpus:
        rows, none = sinks(G, [0]), sinks(G, [])
        assert np.array_equal(rows, oracle[group_id][None, :]), group_id
        assert none.shape == (0, G.n) and not rows.flags.writeable and not none.flags.writeable, group_id
    assert made == []


def test_coset_directions_past_oracle_cap():
    """Past ORACLE_CAP, where few cosets are walked, the sinks of the gamma_2
    class minima and of all class minima equal the landing route's over all
    n directions."""
    for spec in (
        FamilySpec("inversion_extension", (3, 5)),
        FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (12,))),
        FamilySpec("frobenius", (43, 7, 4)),
    ):
        G = build(spec)
        minima = G.class_labels == np.arange(G.n)
        for targets in (ElementSet(minima & gamma_values(G, 2).mask), ElementSet(minima)):
            assert np.array_equal(sinks(G, targets), landing_sinks(G, targets)), spec.describe()


def test_commutators_transients_bounded_by_blocks(monkeypatch):
    """G.commutators, made inside the first sinks call, peaks above what stays
    live within the 16 * BLOCK_ENTRIES bytes of transients that a table
    reserves, as its blocks are sized at _comm_grid's cost an entry."""
    G = build(FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (12,))))
    G.class_labels  # made and kept first: its own blocks are not measured here
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 14)
    tracemalloc.start()
    try:
        values = G.commutators
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - live <= 16 * group.BLOCK_ENTRIES
    assert len(values) == len({G.comm(x, g) for x in G.elements() for g in G.elements()})


def test_sink_transients_bounded_by_blocks(monkeypatch):
    """The walk's peak above what stays live is within the 16 * BLOCK_ENTRIES
    bytes of transients that a table reserves, though one n x n step grid of
    (D12)^2 would not fit in it."""
    G = build(FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (12,))))
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 14)
    assert G.n * G.n * G.table.itemsize > 16 * group.BLOCK_ENTRIES
    for targets in (np.flatnonzero(G.class_labels == np.arange(G.n)), None):
        tracemalloc.start()
        try:
            sink_of = sinks(G, targets)  # kept, so that live holds the result
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - live <= 16 * group.BLOCK_ENTRIES
        assert len(sink_of) == (G.n if targets is None else len(targets))


def test_left_engel_transients_bounded_by_blocks(monkeypatch):
    """left_engel_set sizes its direction blocks at a step grid row and its
    walkers' cost, so its peak above what stays live is within the 16 *
    BLOCK_ENTRIES bytes of transients that a table reserves."""
    G = build(FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (12,))))
    want = left_engel_set(G)  # also makes and keeps the class labels, whose own blocks are not measured here
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 14)
    tracemalloc.start()
    try:
        left = left_engel_set(G)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - live <= 16 * group.BLOCK_ENTRIES
    assert left == want


def test_right_engel_sink_transients_bounded_by_blocks(monkeypatch):
    """right_engel_sink's walkers and its coset minima stay within the 16 *
    BLOCK_ENTRIES bytes of transients that a table reserves, above what stays
    live (the report), on (D12)^2 at 1 << 14 entries."""
    G = build(FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (12,))))
    want = {g: right_engel_sink(G, g) for g in (1, G.n - 1)}  # makes and keeps the labels and the commutators
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1 << 14)
    for g, report in want.items():
        tracemalloc.start()
        try:
            got = right_engel_sink(G, g)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - live <= 16 * group.BLOCK_ENTRIES
        assert got.witnesses == report.witnesses and got.sink == report.sink


def test_left_engel_and_witness_walks_over_many_direction_blocks(corpus, monkeypatch):
    """With a small BLOCK_ENTRIES the left Engel walk and the witness walk
    each run in several direction blocks, and still equal the landing route's
    left Engel elements and the scalar tails' witnesses."""
    want = {group_id: (left_engel_set(G), {g: right_engel_sink(G, g) for g in (1 % G.n, G.n - 1)})
            for group_id, G in corpus}
    walks = []

    def counted_brent(advance, keys, cur):
        walks.append(len(cur))
        return brent(advance, keys, cur)

    brent = engel._brent
    monkeypatch.setattr(group, "BLOCK_ENTRIES", 1000)
    monkeypatch.setattr(engel, "_brent", counted_brent)
    several = set()
    for group_id, G in corpus:
        left, reports = want[group_id]
        del walks[:]
        assert left_engel_set(G) == left, group_id
        reps = np.flatnonzero(G.class_labels == np.arange(G.n))
        landed = set(reps[~landing(G, reps).any(axis=1)].tolist())  # every landing point is 1
        assert set(left) == {x for x in G.elements() if G.class_labels[x] in landed}, group_id
        left_blocks = len(walks)
        for g, report in reports.items():
            del walks[:]
            got = right_engel_sink(G, g)
            assert got.witnesses == report.witnesses == tail_witnesses(G, g), (group_id, g)
            if len(walks) > 1 and left_blocks > 1:
                several.add(group_id)
    assert {"S4", "A5"} <= several
