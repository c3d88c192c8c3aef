import math

import numpy as np
import pytest

from sinklab import verify
from sinklab.engel import gamma_values, right_engel_sink, sink_profile
from sinklab.errors import HypothesisFailed
from sinklab.families import FamilySpec, build
from sinklab.group import (
    ElementSet, GroupTable, centralizer, class_representatives, classes_meeting, direct_product, subgroup_closure,
    subgroup_table,
)
from sinklab.structure import is_nilpotent, nilpotent_residual
from sinklab.verify import (
    CSV_COLUMNS,
    CheckResult,
    check_m1_iff_nilpotent,
    check_orbit_lemma,
    check_sink_oracle,
    contrast_report,
    run_checks,
    scan_row,
)

from oracles import all_products_subgroup, commutator_tail, commute, component_sink_size, conj, element_order, relabel


def run_one(G, check, k=2):
    """The one result of run_checks with a single check on G, as from a permutation spec."""
    [result] = run_checks(G, check, k, None)
    return result


def test_heineken(s4, c12, ie32):
    for G in (s4, c12, ie32):
        assert run_one(G, "heineken").passed


def test_centralizer_power_s3_details(s3):
    g = s3.labels.index("(1 2 3)")
    report = right_engel_sink(s3, g)
    assert report.size_full == 2
    C = centralizer(s3, [g])
    assert len(C) == 3
    for h in C:
        h2 = s3.power(h, 2)  # m! = 2
        assert all(commute(s3, h2, z) for z in report.sink)
    assert run_one(s3, "centralizer_power").passed


def test_centralizer_power(q8, frob732, s4):
    for G in (q8, frob732, s4):
        assert run_one(G, "centralizer_power").passed


def test_orbit_lemma_pass_cases(ie31, ie32, frob732):
    for G, k in ((ie31, 3), (ie32, 2), (frob732, 2)):
        V = nilpotent_residual(G)
        result = check_orbit_lemma(G, V, G.generators[-1], k)
        assert result.passed
        assert "sink_equals_orbit_plus_identity" in result.stats


def test_orbit_lemma_equality_flag_values(ie31, frob732):
    res_ie = check_orbit_lemma(ie31, nilpotent_residual(ie31), ie31.generators[-1], 2)
    assert res_ie.stats["sink_equals_orbit_plus_identity"] == 1
    res_fr = check_orbit_lemma(frob732, nilpotent_residual(frob732), frob732.generators[-1], 2)
    assert res_fr.stats["sink_equals_orbit_plus_identity"] == 0


def test_orbit_lemma_hypothesis_failures(s4, ie31):
    with pytest.raises(HypothesisFailed):  # not a subgroup
        check_orbit_lemma(s4, ElementSet.of(s4.n, [0, 1, 2]), 1, 2)
    with pytest.raises(HypothesisFailed):  # S4 itself is not abelian
        check_orbit_lemma(s4, ElementSet.full(s4.n), 0, 2)
    T = nilpotent_residual(ie31)
    with pytest.raises(HypothesisFailed):  # direction inside T: [T, t] = 1 != T
        check_orbit_lemma(ie31, T, ie31.generators[0], 2)


def test_orbit_lemma_rejects_unnormalized_v(s4):
    sub = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)")])  # order 2, not normal
    with pytest.raises(HypothesisFailed):
        check_orbit_lemma(s4, sub, s4.labels.index("(1 2 3)"), 2)


def test_simple_product_gamma(a5):
    """Every element of the nonabelian simple group A5 is a weight-k value."""
    for k in (2, 3, 4):
        assert len(gamma_values(a5, k)) == a5.n


def test_m1_iff_nilpotent(d4, s3, corpus):
    r = run_one(d4, "m1_iff_nilpotent")
    assert r.passed and r.stats["m_full"] == 1 and r.stats["nilpotent"] == 1
    r = run_one(s3, "m1_iff_nilpotent")
    assert r.passed and r.stats["m_full"] == 2 and r.stats["nilpotent"] == 0
    c6 = build(FamilySpec("cyclic", (6,)))
    assert run_one(c6, "m1_iff_nilpotent", 3).passed


def test_m1_reads_sink_profile_from_class_minimum_rows(corpus, monkeypatch):
    """m_full and its least witness, read from the sinks of all class minima,
    equal sink_profile's, which walks the weight-k values' minima only, at
    k = 2 and 3 on every corpus group and on a relabelled one, whose class
    minima and so whose witnesses differ. A flipped nilpotency verdict fails
    every check, so each names its witness."""
    monkeypatch.setattr(verify, "is_nilpotent", lambda G: not is_nilpotent(G))
    big = max((G for _, G in corpus), key=lambda G: G.n)
    pi = np.array([0, *np.random.default_rng(7).permutation(np.arange(1, big.n))], dtype=big.table.dtype)
    for group_id, G in corpus + [("relabelled " + big.name, relabel(big, pi))]:
        reps = class_representatives(G)
        rows = verify.sinks(G, reps)
        for k in (2, 3):
            m_full, _, argmax = sink_profile(G, k)
            result = check_m1_iff_nilpotent(G, k, reps, rows)
            assert (result.stats["m_full"], result.counterexample["argmax"]) == (m_full, argmax), (group_id, k)


@pytest.mark.parametrize("family", (None, FamilySpec("inversion_extension", (3, 2))), ids=["S4", "ie32"])
def test_run_checks_makes_one_class_minimum_sink_pass(s4, monkeypatch, family):
    """`all` and heineken alone call sinks once on G's class minima; `all`
    also makes sink_oracle's call on all of G and, on the inversion
    extension, orbit_lemma's on V in <V, a>'s table. m1_iff_nilpotent alone
    calls it once, on the weight-k values' minima only."""
    G = s4 if family is None else build(family)
    reps = ElementSet.of(G.n, class_representatives(G))
    values = ElementSet(reps.mask & gamma_values(G, 3).mask)
    assert len(values) < len(reps)  # not vacuous: the weight-3 values miss a class
    calls = []

    def counting(H, elements=None):
        calls.append(("G" if H is G else "H", None if elements is None else ElementSet.of(H.n, elements)))
        return REAL_SINKS(H, elements)

    monkeypatch.setattr(verify, "sinks", counting)
    run_checks(G, "all", 3, family)
    orbit = [("G", nilpotent_residual(G))] if family else []  # <V, a> is all of G here
    assert calls == [("G", reps), ("G", None), *orbit]
    for check, targets in (("heineken", reps), ("m1_iff_nilpotent", values)):
        calls.clear()
        run_checks(G, check, 3, family)
        assert calls == [("G", targets)], check


@pytest.mark.parametrize("s", (1, 2, 3))
def test_component_sinks(s):
    assert component_sink_size(3, s) >= s


def test_sink_oracle(s3, q8, frob732, ie32):
    for G in (s3, q8, frob732, ie32):
        assert check_sink_oracle(G).passed


def test_sink_oracle_cap():
    G = build(FamilySpec("direct_power", (3,), base=FamilySpec("inversion_extension", (3, 1))))
    with pytest.raises(HypothesisFailed):
        check_sink_oracle(G)


def test_sink_oracle_names_a_dropped_sink_value(s3, monkeypatch):
    """A kernel that loses one value of one sink fails the oracle, which
    names that element and the lost value, with nothing found only by the kernel."""
    g = s3.labels.index("(1 2 3)")
    honest = verify.sinks
    dropped = int(np.flatnonzero(honest(s3, [g])[0]).max())

    def lossy(G, elements=None):
        out = honest(G, elements).copy()  # all of G, so row g is sink(g)
        out[g, dropped] = False
        return out

    monkeypatch.setattr(verify, "sinks", lossy)
    result = check_sink_oracle(s3)
    assert not result.passed
    assert result.counterexample == {"g": g, "oracle_only": [dropped], "sink_only": []}


def test_scan_row_s3(s3):
    row = scan_row(s3, "S3", 2)
    assert (row.n, row.k, row.m_full, row.m_nontrivial) == (6, 2, 2, 1)
    assert (row.fitting_index, row.residual_order, row.quotient_exponent) == (2, 3, 2)
    assert row.csv_values() == ["S3", "6", "2", "2", "1", "2", "3", "2"]


def test_scan_row_d4_s4(d4, s4):
    row = scan_row(d4, "D4", 2)
    assert row.m_full == 1 and row.fitting_index == 1
    row = scan_row(s4, "S4", 2)
    assert row.fitting_index == 6


def test_csv_columns_fixed():
    assert CSV_COLUMNS == (
        "group,n,k,mFull,mNontrivial,fittingIndex,residualOrder,quotientExponent"
    )


def test_contrast_report():
    rows = contrast_report(3, range(1, 4))
    assert [r.group for r in rows] == [f"inversion_extension_3_{r}" for r in (1, 2, 3)]
    for i, row in enumerate(rows, start=1):
        assert row.m_full == 2
        assert row.fitting_index == 2
        assert row.residual_order == 3**i


def test_centralizer_power_corpus_wide(corpus):
    for group_id, G in corpus:
        assert run_one(G, "centralizer_power").passed, group_id


def test_scan_row_invariants(corpus):
    for group_id, G in corpus:
        row = scan_row(G, group_id, 2)
        assert row.group == group_id and row.n == G.n
        assert row.m_full >= 1
        assert row.n % row.fitting_index == 0
        assert row.n % row.residual_order == 0


# Reference checkers: the element-by-element loops that check_heineken,
# check_centralizer_power and check_orbit_lemma replace. They read sinks,
# left_engel_set and gamma_values through the verify module, so a fault
# patched in there reaches both sides; centralizer comes from sinklab.group.


def ref_heineken(G):
    left_engel = verify.left_engel_set(G)
    right_engel = 0
    for g, sink in enumerate(verify.sinks(G)):
        if sink.sum() > 1:
            continue
        right_engel += 1
        if G.inv(g) not in left_engel:
            return CheckResult("heineken", False, {"g": g, "g_inverse": G.inv(g)})
    return CheckResult("heineken", True, stats={"right_engel_count": right_engel})


def ref_centralizer_power(G):
    sink_of = verify.sinks(G)
    checked = 0
    for g in G.elements():
        sink = np.flatnonzero(sink_of[g]).tolist()
        m = len(sink)
        for h in centralizer(G, [g]):
            hp = G.power(h, math.factorial(m) % element_order(G, h))
            for z in sink:
                checked += 1
                if not commute(G, hp, z):
                    ce = {"g": g, "h": h, "h_power": hp, "z": z, "m": m}
                    return CheckResult("centralizer_power", False, ce)
    return CheckResult("centralizer_power", True, stats={"pairs_checked": checked})


def ref_orbit_lemma(G, V, a, k):
    def fail(ce):
        return CheckResult("orbit_lemma", False, ce)

    mem = sorted(set(V))
    if not all_products_subgroup(G, V):
        raise HypothesisFailed("V is not a subgroup")
    if not all(commute(G, u, v) for u in mem for v in mem):
        raise HypothesisFailed("V is not abelian")
    if not all(conj(G, v, a) in V for v in mem):
        raise HypothesisFailed("a does not normalize V")
    if {G.comm(u, a) for u in mem} != set(V):
        raise HypothesisFailed("V != [V, a]")
    fixed = [v for v in mem if conj(G, v, a) == v]
    if fixed != [0]:
        return fail({"fixed_point": next(v for v in fixed if v != 0)})
    H, embed = subgroup_table(G, subgroup_closure(G, set(V) | {a}))
    local = {g: i for i, g in enumerate(embed)}
    values = verify.gamma_values(H, k)
    missing = [v for v in mem if local[v] not in values]
    if missing:
        return fail({"v_not_gamma_value": missing[0], "k": k})
    targets = sorted(local[v] for v in mem)
    sink_of = dict(zip(targets, verify.sinks(H, targets)))  # one row a target, ascending
    equality, max_orbit = 1, 0
    for v in mem:
        tail = commutator_tail(H, local[v], local[a])
        orbit = tail.preperiod + tail.cycle
        max_orbit = max(max_orbit, len(orbit))
        sink = set(np.flatnonzero(sink_of[local[v]]).tolist())
        if not all(z in sink for z in orbit):
            return fail({"v": v, "orbit_value_outside_sink": 1})
        if v != 0 and 0 in orbit:
            return fail({"v": v, "identity_in_orbit": 1})
        if sink != set(orbit) | {0}:
            equality = 0
    stats = {"v_count": len(mem), "k": k, "max_orbit": max_orbit}
    return CheckResult("orbit_lemma", True, stats={**stats, "sink_equals_orbit_plus_identity": equality})


def _sinks_spread_to_classes(G, elements=None):
    return np.array([classes_meeting(G, ElementSet(sink)).mask for sink in REAL_SINKS(G, elements)])


def _trivial_sinks(G, elements=None):
    return np.broadcast_to(ElementSet.trivial(G.n).mask, REAL_SINKS(G, elements).shape)


REAL_SINKS, REAL_FACTORIAL, REAL_POWER = verify.sinks, math.factorial, GroupTable.power
# Conjugation-invariant faults, each as (patches, the checks it makes fail on some corpus group).
FAULTS = {
    "none": ([], set()),
    "left_engel_set_is_center": ([(verify, "left_engel_set", lambda G: centralizer(G, ElementSet.full(G.n)))],
                                 {"heineken"}),
    "trivial_sinks": ([(verify, "sinks", _trivial_sinks)], {"heineken"}),
    "factorial_plus_one": ([(math, "factorial", lambda m: REAL_FACTORIAL(m) + 1)], {"centralizer_power"}),
    # No group fails; on A5, (m-1)! is 0 mod every element order but not mod m.
    "factorial_of_m_minus_one": ([(math, "factorial", lambda m: REAL_FACTORIAL(m - 1))], set()),
    "power_plus_one": ([(GroupTable, "power", lambda G, a, e: REAL_POWER(G, a, e + 1))], {"centralizer_power"}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_class_minimum_checkers_match_references(corpus, monkeypatch, fault):
    """Under each fault, the checkers on class minima return the same
    CheckResult, counterexample or stats, as the element-by-element
    references on every corpus group, and the fault fails the checks named."""
    patches, fails = FAULTS[fault]
    for target, name, value in patches:
        monkeypatch.setattr(target, name, value)
    failed = set()
    for group_id, G in corpus:
        for check, ref in (("heineken", ref_heineken), ("centralizer_power", ref_centralizer_power)):
            result = run_one(G, check)  # its class minima's sinks from the patched verify.sinks too
            assert result == ref(G), (fault, group_id)
            if not result.passed:
                failed.add(result.check)
    assert failed == fails


@pytest.mark.parametrize("fault", ("none", "no_gamma_values", "trivial_sinks", "sinks_spread_to_classes"))
def test_orbit_lemma_matches_reference(ie31, ie32, frob732, s4, monkeypatch, fault):
    """The orbit lemma on masks and gathers against the element loops, with
    faults that reach its gamma-value and sink failures or flip the equality flag."""
    patch = {
        "none": {},
        "no_gamma_values": {"gamma_values": lambda H, k: ElementSet.trivial(H.n)},
        "trivial_sinks": {"sinks": _trivial_sinks},
        "sinks_spread_to_classes": {"sinks": _sinks_spread_to_classes},
    }[fault]
    for name, value in patch.items():
        monkeypatch.setattr(verify, name, value)
    cases = [(G, nilpotent_residual(G), G.generators[-1], k) for G, k in ((ie31, 3), (ie32, 2), (frob732, 2))]
    F = direct_product(frob732, build(FamilySpec("cyclic", (2,))))  # (x, 0) has index 2x
    cases.append((F, ElementSet.of(F.n, [2 * v for v in nilpotent_residual(frob732)]), 2 * frob732.generators[-1], 2))
    for G, V, a, k in cases:  # in the last, <V, a> is frob732 x 1, not all of G
        result = check_orbit_lemma(G, V, a, k)
        assert result == ref_orbit_lemma(G, V, a, k), (fault, G.name)
        assert result.passed == (fault in ("none", "sinks_spread_to_classes"))


def test_orbit_lemma_hypotheses_match_reference(s4, ie31):
    bad_inputs = [
        (s4, ElementSet.of(s4.n, [0, 1, 2]), 1),
        (s4, ElementSet.full(s4.n), 0),
        (ie31, nilpotent_residual(ie31), ie31.generators[0]),
        (s4, subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)")]), s4.labels.index("(1 2 3)")),
    ]
    for G, V, a in bad_inputs:
        messages = []
        for check in (check_orbit_lemma, ref_orbit_lemma):
            with pytest.raises(HypothesisFailed) as exc:
                check(G, V, a, 2)
            messages.append(str(exc.value))
        assert messages[0] == messages[1], messages


M1_AT_2_AND_3 = [("heineken", None), ("centralizer_power", None), ("m1_iff_nilpotent", 2), ("m1_iff_nilpotent", 3)]


@pytest.mark.parametrize("family,plan", [
    (None, [*M1_AT_2_AND_3, ("sink_oracle", None)]),
    (FamilySpec("frobenius", (7, 3, 2)), [*M1_AT_2_AND_3, ("sink_oracle", None), ("orbit_lemma", 3)]),
    (FamilySpec("symmetric", (5,)), M1_AT_2_AND_3),
], ids=["S4", "frobenius_7_3_2", "S5"])
def test_run_checks_all_plan(s4, family, plan):
    """`all` runs m1_iff_nilpotent at k = 2 and 3, sink_oracle up to
    ORACLE_CAP (S5 has order 120), and orbit_lemma at the given k only on the
    inversion extensions and Frobenius groups; S4 is taken as if from a
    permutation spec, which has no family."""
    G = s4 if family is None else build(family)
    results = run_checks(G, "all", 3, family)
    assert [(r.check, r.stats.get("k")) for r in results] == plan
    assert all(r.passed for r in results)


def test_run_checks_rejects_an_unknown_check(s3):
    with pytest.raises(ValueError, match="unknown check 'engel'"):
        run_checks(s3, "engel", 2, None)
