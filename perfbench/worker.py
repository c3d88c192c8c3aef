"""One run of one benchmark workload, in a fresh single-threaded process.

Started by run.py, which puts the repository's ``src`` on PYTHONPATH. Prints
one JSON object on its last stdout line. ``--mode setup`` stops once the
inputs are ready, so that run.py can time set-up several times in a run.

A workload is a list of short operations, each one call into sinklab. A run
repeats the whole list a fixed number of passes, set from ``--seconds`` and
the workload's pass time at the commit that defined this benchmark, so that
a faster or slower program is timed over as many samples. Only the calls into
sinklab are timed; every operation's output is then checked against the
outputs pinned in ``expected/``. An operation fails if it raises, exits
non-zero, prints an ``error:`` line on stderr, or returns other output.

Other load on a shared machine only ever slows an operation down. It comes
in spells of seconds to minutes, with quiet moments of a fraction of a second
between, so a run's wall_s is the sum over the operations of each one's
fastest time in the run. Operations are kept to about 30 ms or less,
because a longer one is seldom timed whole in a quiet moment: in one 10-run
set on a 2-vCPU VM, the run-to-run spread ((q3 - q1) / median) of a call's
fastest time was 0.21 for an 89 ms call, 0.15 for a 29 ms call and 0.07 to
0.09 for 5 to 11 ms calls. The median, quartiles and count of whole passes
are reported beside wall_s.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
SCRATCH = ROOT / ".perfbench"

import numpy as np  # noqa: E402

import sinklab  # noqa: E402
from sinklab import cli, engel, families  # noqa: E402
from sinklab.families import FamilySpec  # noqa: E402
from sinklab.group import GroupTable  # noqa: E402
from sinklab.specfile import parse_spec_file  # noqa: E402

from tracing import Counters, Tracer  # noqa: E402

SINK_PROFILE_GROUPS = (
    FamilySpec("alternating", (5,)),
    FamilySpec("symmetric", (5,)),
    FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (5,))),
    FamilySpec("inversion_extension", (7, 2)),
    FamilySpec("inversion_extension", (3, 4)),
    FamilySpec("direct_power", (3,), base=FamilySpec("symmetric", (3,))),
    FamilySpec("inversion_extension", (5, 3)),
)
BUILD_CAP_GROUPS = (
    FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (12,))),
    FamilySpec("direct_power", (3,), base=FamilySpec("symmetric", (3,))),
    FamilySpec("inversion_extension", (3, 5)),
    FamilySpec("inversion_extension", (5, 3)),
    FamilySpec("alternating", (6,)),
    FamilySpec("symmetric", (5,)),
)
CORPUS_CHUNK = 4  # corpus groups per scan call
# Built once per run, outside the timed passes (too long to time steadily):
# the largest table under the default order cap, which sets peak RSS.
CAP_BUILD = FamilySpec("direct_power", (2,), base=FamilySpec("dihedral", (50,)))
# Seconds per pass at the commit that defined this benchmark, on a shared
# 2-vCPU Xeon VM (2.1 GHz, Python 3.11, numpy 2.4) under its usual load.
PASS_SECONDS = {"sink_profile": 0.10, "build_cap": 0.08, "corpus_scan": 0.26}
MIN_PASSES = 3
# A run stops adding passes after this many times --seconds, so that a much
# slower program or machine still ends in time; it then has fewer samples.
MAX_MEASURE_FACTOR = 2


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed call into sinklab
    check: Callable[[object], bool]  # untimed comparison with the pinned output


@dataclass
class Workload:
    ops: list[Op]  # one pass, timed
    once: list[Op] = field(default_factory=list)  # run once per run, before the passes


def relabel(G: GroupTable, rng: random.Random) -> GroupTable:
    """Conjugate G's table by a random permutation pi fixing 0:
    T'[pi a, pi b] = pi T[a, b]. Sink sizes do not depend on the labelling."""
    rest = list(range(1, G.n))
    rng.shuffle(rest)
    pi = np.array([0] + rest, dtype=np.intp)
    table = np.empty_like(G.table)
    table[np.ix_(pi, pi)] = pi[G.table]
    inverse = np.empty_like(G.inverse)
    inverse[pi] = pi[G.inverse]
    order = np.argsort(pi)  # order[pi a] = a
    return GroupTable(
        n=G.n,
        table=table,
        inverse=inverse,
        labels=[G.labels[a] for a in order],
        generators=[int(pi[g]) for g in G.generators],
        perms=None if G.perms is None else [G.perms[a] for a in order],
        name=G.name,
    )


def sink_profile_ops(seed: int, pins: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for spec in SINK_PROFILE_GROUPS:
        G = families.build(spec)
        if seed != 0:
            G = relabel(G, rng)
        want = tuple(pins["sink_profile"][spec.describe()])
        ops.append(Op(
            spec.describe(),
            lambda G=G: engel.sink_profile(G, 2),
            lambda result, want=want: tuple(result[:2]) == want,
        ))
    return ops


def table_digest(G: GroupTable) -> dict:
    return {
        "order": G.n,
        "table_sha256": hashlib.sha256(np.ascontiguousarray(G.table)).hexdigest(),
        "inverse_sha256": hashlib.sha256(np.ascontiguousarray(G.inverse)).hexdigest(),
    }


def build_op(spec: FamilySpec, pins: dict) -> Op:
    want = pins["build_cap"][spec.describe()]
    return Op(spec.describe(), lambda: families.build(spec), lambda G: table_digest(G) == want)


def corpus_scan_ops() -> list[Op]:
    """``sinklab scan -k 2`` on the corpus, CORPUS_CHUNK groups per call,
    each call through a manifest of its own, so that each call is short.
    Each call must print the pinned CSV header and its groups' rows of the
    pinned whole-corpus CSV, in the same order."""
    header, *rows = (EXPECTED / "corpus_scan.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    entries = cli.load_corpus(ROOT / "corpus")
    names = {parse_spec_file(path).display_name(group_id) for group_id, path in entries}
    if names != {row.split(",", 1)[0] for row in rows}:
        raise ValueError("the corpus groups are not those of the pinned CSV")
    ops = []
    for lo in range(0, len(entries), CORPUS_CHUNK):
        chunk = entries[lo : lo + CORPUS_CHUNK]
        corpus_dir = SCRATCH / "corpus" / chunk[0][0]
        corpus_dir.mkdir(parents=True, exist_ok=True)
        manifest = "".join(os.path.relpath(path, corpus_dir) + "\n" for _, path in chunk)
        (corpus_dir / "manifest.txt").write_text(manifest, encoding="utf-8")
        mine = {parse_spec_file(path).display_name(group_id) for group_id, path in chunk}
        expected = header + "".join(row for row in rows if row.split(",", 1)[0] in mine)
        ops.append(scan_op(f"scan {chunk[0][0]}..{chunk[-1][0]}", ["scan", "--corpus", str(corpus_dir), "-k", "2"],
                           expected))
    return ops


def scan_op(label: str, argv: list[str], expected: str) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result) -> bool:
        code, out, err = result
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        for line in errors:
            print(f"{label}: {line}", file=sys.stderr)
        return code == 0 and not errors and out == expected

    return Op(label, run, check)


def setup(workload: str, seed: int) -> Workload:
    pins = json.loads((EXPECTED / "pins.json").read_text(encoding="utf-8"))
    if workload == "sink_profile":
        return Workload(sink_profile_ops(seed, pins))
    if workload == "build_cap":
        return Workload([build_op(spec, pins) for spec in BUILD_CAP_GROUPS], once=[build_op(CAP_BUILD, pins)])
    if workload == "corpus_scan":
        return Workload(corpus_scan_ops())
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def run_op(op: Op, tally: Tally, tracer: Tracer | None = None) -> float:
    """Time one operation, check its output, and return its wall time."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = tracer.call(f"op.{op.label}", op.run) if tracer else op.run()
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        tally.failed += 1
        return elapsed
    elapsed = time.perf_counter() - start
    if not op.check(result):
        print(f"output mismatch: {op.label}", file=sys.stderr)
        tally.failed += 1
    return elapsed


class Passes:
    """A run's fixed number of passes, cut short only past its deadline."""

    def __init__(self, workload: str, seconds: float):
        self.count = max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))
        self.deadline = time.monotonic() + MAX_MEASURE_FACTOR * seconds

    def __iter__(self):
        for i in range(self.count):
            if i and time.monotonic() > self.deadline:
                print(f"stopped after {i} of {self.count} passes at the time limit", file=sys.stderr)
                return
            yield i


def fastest_pass(passes: list[list[float]]) -> float:
    """Sum over the operations of each one's fastest time."""
    return sum(min(times) for times in zip(*passes))


def run_once(work: Workload, tally: Tally) -> list[float]:
    return [run_op(op, tally) for op in work.once]


def end_to_end(workload: str, work: Workload, seconds: float, tally: Tally) -> dict:
    once = run_once(work, tally)
    passes = [[run_op(op, tally) for op in work.ops] for _ in Passes(workload, seconds)]
    return {
        "wall_s": fastest_pass(passes),
        "walls": [sum(p) for p in passes],
        "op_fastest_s": {op.label: min(times) for op, times in zip(work.ops, zip(*passes))},
        "once_s": once,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload: str, seed: int, work: Workload, seconds: float, tally: Tally) -> dict:
    """Untraced and span-traced passes in turn, half of the run's passes each;
    then one counting pass (with tracemalloc on the once-per-run builds)."""
    plain: list[list[float]] = []
    spanned: list[list[float]] = []
    tracer = Tracer()
    for i in Passes(workload, seconds):
        if i % 2 == 0:
            plain.append([run_op(op, tally) for op in work.ops])
        else:
            with tracer.installed():
                spanned.append([run_op(op, tally, tracer) for op in work.ops])
    if not spanned:
        with tracer.installed():
            spanned.append([run_op(op, tally, tracer) for op in work.ops])

    counters = Counters()
    with counters.installed():
        for op in work.ops:
            run_op(op, tally)
    if work.once:
        tracemalloc.start()
        try:
            with counters.build_peaks():
                run_once(work, tally)
        finally:
            tracemalloc.stop()

    passes = len(spanned)
    metrics = {}
    for name, ns in tracer.self_ns.items():
        metrics[f"{name}.s"] = ns / 1e9 / passes
    for name, count in tracer.calls.items():
        metrics[f"{name}.calls"] = count / passes
    for name, count in tracer.work.items():
        metrics[name] = count / passes
    for name, count in counters.calls.items():
        metrics[f"{name}.calls"] = count
    metrics["group.build.peak_mb"] = counters.build_peak_bytes / 2**20
    traced_wall = statistics.fmean(sum(p) for p in spanned)
    plain_wall = fastest_pass(plain)
    # The tracer's own cost: spans per pass times the cost of one span,
    # measured on a no-op function. A difference of traced and untraced
    # walls would mostly measure the machine's slow spells.
    span_s = tracer.span_cost_s()
    spans_per_pass = sum(tracer.calls.values()) / passes
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = spans_per_pass * span_s / plain_wall

    SCRATCH.mkdir(exist_ok=True)
    spans_path = SCRATCH / f"spans-{workload}-seed{seed}.jsonl"
    with spans_path.open("w", encoding="utf-8") as fh:
        for name, begin_ns, end_ns, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start_ns": begin_ns, "end_ns": end_ns, "parent": parent}) + "\n")
    return {
        "layers": metrics,
        "plain_walls": [sum(p) for p in plain],
        "traced_walls": [sum(p) for p in spanned],
        "traced_over_plain_fastest": fastest_pass(spanned) / plain_wall - 1,
        "span_cost_s": span_s,
        "spans_per_pass": spans_per_pass,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    args = parser.parse_args(argv)

    work = setup(args.workload, args.seed)
    ready = time.monotonic()
    report = {
        "ready": ready,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "sinklab": sinklab.__version__,
    }
    if args.mode == "run":
        tally = Tally()
        if args.trace:
            report.update(traced(args.workload, args.seed, work, args.seconds, tally))
        else:
            report.update(end_to_end(args.workload, work, args.seconds, tally))
        report.update(attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
