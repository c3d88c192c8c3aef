"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from pathlib import Path

from sinklab.cli import main
from sinklab.engel import gamma_values
from sinklab.families import FamilySpec, build
from sinklab.group import subgroup_closure
from sinklab.structure import fitting_subgroup, left_engel_set, nilpotent_residual
from sinklab.verify import check_orbit_lemma, check_sink_oracle, contrast_report, run_checks

from oracles import component_sink_size, fitting_maximality_check, fitting_via_normal_closures

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_sink_oracle_equivalence(corpus):
    started = time.time()
    checked = 0
    for group_id, G in corpus:
        if G.n > 100:
            continue
        result = check_sink_oracle(G)
        assert result.passed, f"{group_id}: {result.counterexample}"
        checked += 1
    elapsed = time.time() - started
    report(1, checked > 0 and elapsed < 120, f"{checked} groups, {elapsed:.1f}s (< 120s)")


def test_criterion_2_heineken_suite(corpus):
    failures = [gid for gid, G in corpus if not run_checks(G, "heineken", 2, None)[0].passed]
    report(2, not failures, f"{len(corpus)} groups, failures: {failures}")


def test_criterion_3_centralizer_power_suite(corpus):
    checked = 0
    for group_id, G in corpus:
        if G.n > 100:
            continue
        [result] = run_checks(G, "centralizer_power", 2, None)
        assert result.passed, f"{group_id}: {result.counterexample}"
        checked += 1
    report(3, checked > 0, f"{checked} groups of order <= 100")


def test_criterion_4_baer_fitting_certification(corpus, s3, s4):
    for group_id, G in corpus:
        if G.n > 60:
            continue
        F = fitting_subgroup(G)
        assert set(F) == set(left_engel_set(G)), group_id
        assert fitting_maximality_check(G), group_id
        assert set(F) == set(fitting_via_normal_closures(G)), group_id
    F3 = fitting_subgroup(s3)
    a3 = subgroup_closure(s3, [s3.labels.index("(1 2 3)")])
    assert set(F3) == set(a3) and s3.n // len(F3) == 2
    F4 = fitting_subgroup(s4)
    v4 = subgroup_closure(s4, [s4.labels.index("(1 2)(3 4)"), s4.labels.index("(1 3)(2 4)")])
    assert set(F4) == set(v4) and s4.n // len(F4) == 6
    report(4, True, "Baer = maximality = closure cross-check; F(S3)=A3, F(S4)=V4")


def test_criterion_5_orbit_lemma_suite():
    flags = {}
    for spec, k in [
        (FamilySpec("inversion_extension", (3, 1)), 2),
        (FamilySpec("inversion_extension", (3, 2)), 2),
        (FamilySpec("inversion_extension", (3, 3)), 2),
        (FamilySpec("frobenius", (7, 3, 2)), 2),
        (FamilySpec("frobenius", (13, 3, 3)), 2),
    ]:
        G = build(spec)
        V = nilpotent_residual(G)
        result = check_orbit_lemma(G, V, G.generators[-1], k)
        assert result.passed, f"{spec.describe()}: {result.counterexample}"
        assert "sink_equals_orbit_plus_identity" in result.stats, spec.describe()
        flags[spec.describe()] = result.stats["sink_equals_orbit_plus_identity"]
    report(5, True, f"(a),(b),(c-weak) pass; equality flags recorded: {flags}")


def test_criterion_6_simple_product_gamma(a5):
    started = time.time()
    for k in (2, 3, 4):
        assert len(gamma_values(a5, k)) == a5.n, f"A5 at k={k}"
    a5sq = build(FamilySpec("direct_power", (2,), base=FamilySpec("alternating", (5,))))
    assert len(gamma_values(a5sq, 2)) == a5sq.n, "A5xA5 at k=2"
    elapsed = time.time() - started
    report(6, elapsed < 300, f"A5 k=2..4 and A5xA5 k=2 all full, {elapsed:.1f}s (< 300s)")


def test_criterion_7_contrast_family():
    rows = contrast_report(3, range(1, 5))
    for r, row in enumerate(rows, start=1):
        assert row.m_full == 2, f"rank {r}: mFull {row.m_full}"
        assert row.fitting_index == 2, f"rank {r}: fittingIndex {row.fitting_index}"
        assert row.residual_order == 3**r, f"rank {r}: residualOrder {row.residual_order}"
    report(7, True, "p=3, r=1..4: mFull=2, fittingIndex=2, residualOrder=3^r")


def test_criterion_8_m1_iff_nilpotent(corpus):
    for k in (2, 3):
        failures = [gid for gid, G in corpus if not run_checks(G, "m1_iff_nilpotent", k, None)[0].passed]
        assert not failures, f"k={k}: {failures}"
    report(8, True, f"{len(corpus)} groups at k=2 and k=3")


def test_criterion_9_component_sink_lower_bound():
    for s in (1, 2, 3):
        assert component_sink_size(3, s) >= s, f"s={s}"
    report(9, True, "p=3, s=1..3: sizeNontrivial(sink(w)) >= s")


def test_criterion_10_scan_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "scan1.csv", tmp_path / "scan2.csv"
    assert main(["scan", "--corpus", str(CORPUS_DIR), "-k", "2", "--out", str(out1)]) == 0
    assert main(["scan", "--corpus", str(CORPUS_DIR), "-k", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    report(10, identical, f"two corpus scans byte-identical ({out1.stat().st_size} bytes)")
