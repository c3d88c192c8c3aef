import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from sinklab import cli, group, verify
from sinklab.cli import build_parser, main, parse_element
from sinklab.report import canonical_json, check_payload
from sinklab.verify import ORACLE_CAP, CheckResult

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
DATA_DIR = Path(__file__).resolve().parent / "data"
SINK_BODIES = DATA_DIR / "sink_bodies.json"
VERIFY_BODIES = DATA_DIR / "verify_bodies.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spec_path(name):
    return str(CORPUS_DIR / f"{name}.grp")


def test_build_summary(capsys):
    code, out, _ = run(capsys, "build", spec_path("S4"))
    assert code == 0
    payload = json.loads(out)
    summary = payload["results"][0]
    assert summary["order"] == 24
    assert summary["exponent"] == 12
    assert summary["nilpotent"] is False
    assert summary["fitting_index"] == 6


def test_sink_by_cycle_notation(capsys):
    code, out, _ = run(capsys, "sink", spec_path("S3"), "--element", "(1 2 3)")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["sink"] == ["(1 2 3)", "e"]
    assert result["size_full"] == 2
    assert result["size_nontrivial"] == 1


def test_sink_by_index_and_word(capsys):
    code1, out1, _ = run(capsys, "sink", spec_path("Q8"), "--element", "1")
    code2, out2, _ = run(capsys, "sink", spec_path("Q8"), "--element", "g0")
    assert code1 == code2 == 0
    assert json.loads(out1)["results"] == json.loads(out2)["results"]


def test_sink_bodies_pinned(capsys):
    """Every element's `sink` result, witnesses included, equals the pinned body.

    Witnesses depend on index order (first direction, then depth), so this
    guards the witness rule as well as the sink itself.
    """
    pinned = json.loads(SINK_BODIES.read_text(encoding="utf-8"))
    for name, bodies in pinned.items():
        for index, body in enumerate(bodies):
            code, out, _ = run(capsys, "sink", spec_path(name), "--element", str(index))
            assert code == 0
            assert json.loads(out)["results"] == [body], (name, index)


def test_verify_bodies_pinned(capsys, tmp_path):
    """`verify --check all` bodies, timing aside, equal the pinned ones: every
    stat (pairs_checked, right_engel_count, max_orbit, the equality flag) and
    every verdict, on the corpus, on inversion_extension 3 5, 3 6 and 5 1,
    and on frobenius 7 3 4, 13 3 9 and 11 5 3."""
    pinned = json.loads(VERIFY_BODIES.read_text(encoding="utf-8"))
    for name, body in pinned.items():
        path = CORPUS_DIR / f"{name}.grp"
        if not path.exists():  # <family>_<p1>_<p2>[_<p3>]
            family = name.rstrip("0123456789_")
            params = name[len(family):].replace("_", " ")
            path = tmp_path / f"{name}.grp"
            path.write_text(f"name {name}\ngroup construct {family}{params}\n", encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path), "--check", "all")
        result = json.loads(out)
        result.pop("timing_ms")
        assert (code, result) == (0, body), name


def test_gamma_a5(capsys):
    code, out, _ = run(capsys, "gamma", spec_path("A5"), "-k", "2")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["size"] == 60
    assert result["values"] == sorted(result["values"])


def test_verify_single_check_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", spec_path("S4"), "--check", "heineken")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 1
    assert results[0]["check"] == "heineken"
    assert results[0]["passed"] is True


def test_verify_all_checks(capsys):
    code, out, _ = run(capsys, "verify", spec_path("frobenius_7_3_2"))
    assert code == 0
    results = json.loads(out)["results"]
    names = [r["check"] for r in results]
    assert names == [
        "heineken",
        "centralizer_power",
        "m1_iff_nilpotent",
        "m1_iff_nilpotent",
        "sink_oracle",
        "orbit_lemma",
    ]
    assert all(r["passed"] for r in results)


def test_verify_failed_check_exits_one(capsys, monkeypatch):
    def fake_check(G, reps, rows):
        return CheckResult("heineken", False, counterexample={"g": 1})

    monkeypatch.setattr(verify, "check_heineken", fake_check)
    code, out, _ = run(capsys, "verify", spec_path("S3"), "--check", "heineken")
    assert code == 1
    result = json.loads(out)["results"][0]
    assert result["passed"] is False
    assert result["counterexample"]["g"]["index"] == 1


def test_counterexample_labels_only_elements(s3):
    def counterexample(**ce):
        return check_payload(s3, CheckResult("check", False, counterexample=ce))["counterexample"]

    ce = counterexample(m_full=2, nilpotent=0, argmax=1)
    assert ce["m_full"] == 2 and ce["nilpotent"] == 0
    assert ce["argmax"] == {"index": 1, "label": s3.labels[1]}
    ce = counterexample(v=2, orbit_value_outside_sink=1)
    assert ce["orbit_value_outside_sink"] == 1 and ce["v"]["label"] == s3.labels[2]
    ce = counterexample(v_not_gamma_value=0, k=2)
    assert ce["k"] == 2 and ce["v_not_gamma_value"]["label"] == "e"
    assert counterexample(w=3, sink_nontrivial=1) == {"w": 3, "sink_nontrivial": 1}


def test_parse_error_exit_two_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("group perm\ndegree 3\ngen (1 2\n", encoding="utf-8")
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "line 3" in err


def test_cap_exceeded_exit_three(capsys, tmp_path):
    spec = tmp_path / "big.grp"
    spec.write_text("group construct symmetric 5\n", encoding="utf-8")
    code, _, err = run(capsys, "build", str(spec), "--cap", "100")
    assert code == 3
    assert "cap" in err.lower()


def test_perfbench_patch_targets_resolve():
    """perfbench/tracing.py wraps sinklab functions and GroupTable methods by
    name: with every module that sinklab.cli imports loaded, each of its
    three patches resolves every name it wraps, and leaving it restores them."""
    spec = importlib.util.spec_from_file_location("tracing", CORPUS_DIR.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def targets():
        named = {name: getattr(sys.modules[f"sinklab.{name.rsplit('.', 1)[0]}"], name.rsplit(".", 1)[1])
                 for name in (*tracing.SPANNED, "families.build")}
        return named, group.GroupTable.comm, group.GroupTable.comm_step

    before = targets()
    for install in (tracing.Tracer().installed, tracing.Counters().installed, tracing.Counters().build_peaks):
        with install():
            assert targets() != before
        assert targets() == before


@pytest.mark.parametrize("construct,mib", [("direct_power 2 dihedral 50", 255), ("symmetric 7", 113)])
def test_build_beyond_memory_exits_three_before_allocating(capsys, tmp_path, monkeypatch, construct, mib):
    """With a 100 MiB memory budget the order-10000 product (a 191 MiB table)
    and the closure of S7 (48 MiB, plus the block transients) fail with
    exit 3, naming the estimate, before their table is allocated."""
    spec = tmp_path / "big.grp"
    spec.write_text(f"group construct {construct}\n", encoding="utf-8")
    monkeypatch.setattr(group, "_memory_budget", lambda: 100 << 20)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "build", str(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert f"needs about {mib} MiB" in err
    assert peak < 8 << 20  # far below either table's bytes


def test_env_cap_flag_precedence(capsys, tmp_path, monkeypatch):
    spec = tmp_path / "c30.grp"
    spec.write_text("group construct cyclic 30\n", encoding="utf-8")
    monkeypatch.setenv("SINKLAB_CAP", "10")
    code, _, _ = run(capsys, "build", str(spec))
    assert code == 3
    code, out, _ = run(capsys, "build", str(spec), "--cap", "50")
    assert code == 0
    assert json.loads(out)["results"][0]["order"] == 30


def test_cap_below_one_is_bad_input(capsys, tmp_path, monkeypatch):
    """A --cap or SINKLAB_CAP below 1 exits 2 in build, scan and contrast, before any table is built."""
    spec = tmp_path / "c30.grp"
    spec.write_text("group construct cyclic 30\n", encoding="utf-8")
    built = []
    monkeypatch.setattr(group.GroupTable, "__post_init__", lambda G: built.append(G.n))
    for argv, message in [
        (("build", str(spec), "--cap", "0"), "--cap must be at least 1, got 0"),
        (("scan", "--corpus", str(CORPUS_DIR), "--cap", "-5"), "--cap must be at least 1, got -5"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n", argv
    monkeypatch.setenv("SINKLAB_CAP", "0")
    for argv in (("contrast",), ("build", str(spec))):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: SINKLAB_CAP must be at least 1, got 0\n"), argv
    assert built == []


def test_bad_element_exit_two(capsys):
    for element in ("(9 9)", "nonsense", "99", "g0^x", "g5"):
        code, _, err = run(capsys, "sink", spec_path("S3"), "--element", element)
        assert code == 2, element
        assert err


@pytest.mark.parametrize("name,message", [
    ("A4", "permutation (1 2) is not an element of this group"),
    ("symmetric_3_pow2", "cycle-notation addressing needs a permutation-built group"),
], ids=["not_an_element", "product"])
def test_cycle_notation_outside_the_group_exits_two(capsys, name, message):
    """A valid permutation that no element's perm equals, and cycle notation
    on a product, which has no perms, both exit 2 with no body."""
    code, out, err = run(capsys, "sink", spec_path(name), "--element", "(1 2)")
    assert (code, out) == (2, "")
    assert message in err


def test_element_word_addressing(s3):
    assert parse_element(s3, "e") == 0
    assert parse_element(s3, "0") == 0
    a, b = s3.generators
    assert parse_element(s3, "g0*g1") == s3.mul(a, b)
    assert parse_element(s3, "g0^-1") == s3.inv(a)
    assert parse_element(s3, "(1 3 2)") == s3.mul(a, a)


def test_sink_oracle_above_its_cap_exits_two(capsys, tmp_path):
    spec = tmp_path / "c101.grp"
    spec.write_text("group construct cyclic 101\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(spec), "--check", "sink_oracle")
    assert (code, out) == (2, "")
    assert f"capped at order {ORACLE_CAP}" in err


def test_orbit_lemma_alone_on_a_permutation_spec_exits_two(capsys):
    code, out, err = run(capsys, "verify", spec_path("C2xS3"), "--check", "orbit_lemma")
    assert (code, out) == (2, "")
    assert "error: HypothesisFailed: orbit_lemma needs a group constructed as inversion_extension or frobenius" in err


@pytest.mark.parametrize("argv,message", [
    (["scan", "--corpus", "/nonexistent", "-k", "2"], "corpus /nonexistent is not a directory"),
    (["build", "/nonexistent.grp"], "No such file or directory: '/nonexistent.grp'"),
    (["scan", "--corpus", str(CORPUS_DIR), "--out", "/nonexistent/x.csv"], "'/nonexistent/x.csv'"),
], ids=["corpus", "spec", "out"])
def test_missing_path_exits_two(capsys, argv, message):
    """A corpus that is not a directory, a spec that cannot be read and an
    --out that cannot be written exit 2 with an error naming the path."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_scan_out_not_writable_exits_before_any_build(capsys, monkeypatch):
    """scan opens --out before its loop, so an --out that cannot be written
    exits 2 with no group built."""
    built = []
    monkeypatch.setattr(cli, "build_spec", lambda *args: built.append(args))
    code, out, err = run(capsys, "scan", "--corpus", str(CORPUS_DIR), "--out", "/nonexistent/x.csv")
    assert (code, out, built) == (2, "", [])
    assert "'/nonexistent/x.csv'" in err


def test_json_body_is_streamed(capsys, monkeypatch, tmp_path):
    """The report goes to stdout in chunks, each far shorter than the body,
    which is its own canonical JSON."""
    spec = tmp_path / "d200.grp"
    spec.write_text("group construct dihedral 200\n", encoding="utf-8")
    largest = 0
    real_write = sys.stdout.write

    def write(text):
        nonlocal largest
        largest = max(largest, len(text))
        return real_write(text)

    monkeypatch.setattr(sys.stdout, "write", write)
    code, out, _ = run(capsys, "sink", str(spec), "--element", "1")
    assert code == 0
    assert out == canonical_json(json.loads(out))
    assert 0 < largest < len(out)


def test_scan_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "scan", "--corpus", str(CORPUS_DIR), "-k", "2", "--out", str(out1))[0] == 0
    assert run(capsys, "scan", "--corpus", str(CORPUS_DIR), "-k", "2", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text(encoding="utf-8").splitlines()[0]
    assert header == "group,n,k,mFull,mNontrivial,fittingIndex,residualOrder,quotientExponent"
    assert out1.read_bytes() == (DATA_DIR / "scan_k2.csv").read_bytes()


def test_scan_collects_build_errors(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.grp").write_text("group construct cyclic 3\n", encoding="utf-8")
    (corpus / "broken.grp").write_text("group construct frobenius 7 3 3\n", encoding="utf-8")
    code, out, err = run(capsys, "scan", "--corpus", str(corpus))
    assert code == 0
    assert "ok,3,2" in out
    assert "broken" in err


def test_scan_sorts_rows_and_names_the_broken_spec(capsys, tmp_path):
    """Rows come out sorted by group id, not in manifest order, and a spec
    that is rejected skips its group only, with one error line after the CSV."""
    for stem, construct in (("zzz", "dihedral 4"), ("broken", "frobenius 7 3 3"), ("aaa", "symmetric 3")):
        (tmp_path / f"{stem}.grp").write_text(f"group construct {construct}\n", encoding="utf-8")
    (tmp_path / "manifest.txt").write_text("zzz.grp\nbroken.grp\naaa.grp\n", encoding="utf-8")
    code, out, err = run(capsys, "scan", "--corpus", str(tmp_path))
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["aaa", "zzz"]
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: broken: SpecParseError")


def test_scan_errors_keep_corpus_order_and_display_names(capsys, tmp_path):
    """A group that fails after its spec parses is named by its display name;
    errors print in corpus order, whatever the rows' order."""
    (tmp_path / "a.grp").write_text("name BIG\ngroup construct cyclic 20000\n", encoding="utf-8")
    (tmp_path / "b.grp").write_text("group construct cyclic 4\n", encoding="utf-8")
    (tmp_path / "c.grp").write_text("group construct frobenius 7 3 3\n", encoding="utf-8")
    (tmp_path / "manifest.txt").write_text("c.grp\nb.grp\na.grp\n", encoding="utf-8")
    code, out, err = run(capsys, "scan", "--corpus", str(tmp_path))
    assert code == 0 and out.splitlines()[1:] == ["b,4,2,1,0,1,1,1"]
    assert [line.split(":")[1].strip() for line in err.splitlines()] == ["c", "BIG"]
    assert "CapExceeded" in err.splitlines()[1]


def test_scan_holds_one_table_at_a_time(capsys, tmp_path):
    """Each table is dropped once its row is made: the tracemalloc peak of a
    scan over dihedral 601..603 stays within that of dihedral 603 alone plus
    1 MiB (a table of order 1206 takes 2.8 MiB)."""
    def peak(*ns):
        corpus = tmp_path / "_".join(map(str, ns))
        corpus.mkdir()
        for n in ns:
            (corpus / f"D{n}.grp").write_text(f"group construct dihedral {n}\n", encoding="utf-8")
        tracemalloc.start()
        try:
            assert run(capsys, "scan", "--corpus", str(corpus))[0] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(601, 602, 603) <= peak(603) + (1 << 20)


def test_contrast_table(capsys):
    code, out, _ = run(capsys, "contrast", "-p", "3", "--ranks", "1..3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("inversion_extension_3_1,6,2,2,1,2,3,2")
    _, out, _ = run(capsys, "contrast", "-p", "3", "--ranks", "1..5")
    assert out == (DATA_DIR / "contrast_p3_1_5.csv").read_text(encoding="utf-8")


def test_contrast_builds_only_the_ranks_asked_for(capsys, monkeypatch):
    """--ranks 3..4 prints rows 3..4 of the 1..5 table and builds no lower rank."""
    built, real_build = [], verify.build

    def recording_build(spec, order_cap):
        built.append(spec.params)
        return real_build(spec, order_cap)

    monkeypatch.setattr(verify, "build", recording_build)
    code, out, _ = run(capsys, "contrast", "-p", "3", "--ranks", "3..4")
    assert code == 0 and built == [(3, 3), (3, 4)]
    lines = (DATA_DIR / "contrast_p3_1_5.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    assert out == "".join([lines[0], *lines[3:5]])


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", spec_path("S3"), "-k", "0"],
        ["verify", spec_path("S3"), "-k", "0"],
        ["scan", "--corpus", str(CORPUS_DIR), "-k", "0"],
    ],
    ids=["gamma", "verify", "scan"],
)
def test_weight_below_one_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "k must be at least 1" in captured.err
    assert captured.out == ""


def test_cached_parser_carries_no_state_between_calls(capsys, tmp_path):
    """main parses every call with the one parser of the process; no option
    of one call, nor a call that argparse rejects, leaks into the next."""
    assert build_parser() is build_parser()
    out = tmp_path / "k3.csv"
    assert run(capsys, "scan", "--corpus", str(CORPUS_DIR), "-k", "3", "--out", str(out)) == (0, "", "")
    assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[2] == "3"
    pinned = (DATA_DIR / "scan_k2.csv").read_text(encoding="utf-8")
    assert run(capsys, "scan", "--corpus", str(CORPUS_DIR), "-k", "2") == (0, pinned, "")

    with pytest.raises(SystemExit) as exc:
        main(["scan", "--corpus", str(CORPUS_DIR), "-k", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, text, _ = run(capsys, "gamma", spec_path("S3"), "-k", "2")
    assert code == 0 and json.loads(text)["results"][0]["values"] == ["(1 2 3)", "(1 3 2)", "e"]

    def checks(*argv):
        code, text, _ = run(capsys, "verify", spec_path("S4"), *argv)
        return code, [r["check"] for r in json.loads(text)["results"]]

    assert checks("--check", "heineken") == (0, ["heineken"])
    assert checks() == (0, ["heineken", "centralizer_power", "m1_iff_nilpotent", "m1_iff_nilpotent", "sink_oracle"])


def test_report_bodies_reproducible(capsys):
    _, out1, _ = run(capsys, "verify", spec_path("S3"), "--check", "heineken")
    _, out2, _ = run(capsys, "verify", spec_path("S3"), "--check", "heineken")
    body1, body2 = json.loads(out1), json.loads(out2)
    body1.pop("timing_ms"), body2.pop("timing_ms")
    assert json.dumps(body1, sort_keys=True) == json.dumps(body2, sort_keys=True)
