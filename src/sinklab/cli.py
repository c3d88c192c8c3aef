"""Command-line front end; one argparse parser per process serves every main call.
verify.run_checks decides what `verify` runs; report.write_json streams each body.

Exit codes: 0 success, 1 at least one check failed, 2 bad input: a spec parse
error (naming its line), an order cap below 1, a path not read or written, or
a check whose hypotheses fail (HypothesisFailed); 3 order cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext
from functools import cache
from pathlib import Path

from .engel import gamma_values, right_engel_sink
from .errors import CapExceeded, IndexOutOfRange, SinklabError, SpecParseError
from .group import DEFAULT_ORDER_CAP, GroupTable
from .perm import parse_cycles
from .report import check_payload, report_envelope, scan_csv, sink_payload, write_json
from .specfile import GroupSpec, build_spec, emit_spec, parse_spec_file
from .structure import fitting_subgroup, nilpotency_class
from .verify import CHECKS, contrast_report, run_checks, scan_row


class CliInputError(SinklabError):
    """Bad command-line input outside the spec files (exit code 2)."""


def _order_cap(args) -> int:
    cap, source, env = args.cap, "--cap", os.environ.get("SINKLAB_CAP")
    if cap is None and env:
        try:
            cap, source = int(env), "SINKLAB_CAP"
        except ValueError:
            raise CliInputError(f"SINKLAB_CAP must be an integer, got {env!r}") from None
    if cap is not None and cap < 1:  # bad input (exit 2), not an exceeded cap
        raise CliInputError(f"{source} must be at least 1, got {cap}")
    return DEFAULT_ORDER_CAP if cap is None else cap


def parse_element(G: GroupTable, text: str) -> int:
    """Resolve an element given as index, cycle notation, or generator word.

    Word syntax multiplies generator powers left to right: "g0*g1^-2".
    """
    s = text.strip()
    if not s:
        raise CliInputError("empty element")
    try:
        idx = int(s)
    except ValueError:
        idx = None
    if idx is not None:
        if not 0 <= idx < G.n:
            raise CliInputError(f"element index {idx} out of range 0..{G.n - 1}")
        return idx
    if s == "e":
        return 0
    if s.startswith("("):
        if G.perms is None:
            raise CliInputError("cycle-notation addressing needs a permutation-built group; use an index or a word")
        perm = parse_cycles(s, G.perms[0].degree)
        try:
            return G.perms.index(perm)
        except ValueError:
            raise CliInputError(f"permutation {s} is not an element of this group") from None
    result = 0
    for token in s.split("*"):
        token = token.strip()
        if not token.startswith("g"):
            raise CliInputError(f"bad word factor {token!r} (expected g<i> or g<i>^<e>)")
        body = token[1:]
        exp = 1
        if "^" in body:
            body, exp_text = body.split("^", 1)
            try:
                exp = int(exp_text)
            except ValueError:
                raise CliInputError(f"bad exponent in {token!r}") from None
            if exp == 0:
                raise CliInputError(f"zero exponent in {token!r}")
        try:
            pos = int(body)
        except ValueError:
            raise CliInputError(f"bad generator position in {token!r}") from None
        if not 0 <= pos < len(G.generators):
            raise IndexOutOfRange(f"generator g{pos} does not exist (group has {len(G.generators)})")
        result = G.mul(result, G.power(G.generators[pos], exp))
    return result


def _report(args, command: str, results) -> list[dict]:
    """Parse and build args.spec, compute results(spec, G) -> payloads, and
    write them to stdout in the report envelope, timed from start to payloads."""
    started = time.perf_counter()
    spec = parse_spec_file(args.spec)
    G = build_spec(spec, _order_cap(args))
    payloads = results(spec, G)
    write_json(report_envelope(command, emit_spec(spec), payloads, (time.perf_counter() - started) * 1e3), sys.stdout)
    return payloads


def cmd_build(args) -> int:
    def summary(spec: GroupSpec, G: GroupTable) -> list[dict]:
        F, cls = fitting_subgroup(G), nilpotency_class(G)
        return [{
            "group": spec.display_name(),
            "order": G.n,
            "exponent": G.exponent(),
            "nilpotent": cls is not None,
            "nilpotency_class": cls,
            "fitting_index": G.n // len(F),
        }]

    _report(args, "build", summary)
    return 0


def cmd_sink(args) -> int:
    _report(args, "sink", lambda spec, G: [sink_payload(G, right_engel_sink(G, parse_element(G, args.element)))])
    return 0


def cmd_gamma(args) -> int:
    def payload(spec: GroupSpec, G: GroupTable) -> list[dict]:
        values = gamma_values(G, args.k)
        return [{"k": args.k, "size": len(values), "values": sorted(G.labels[v] for v in values)}]

    _report(args, "gamma", payload)
    return 0


def cmd_verify(args) -> int:
    payloads = _report(
        args, "verify", lambda spec, G: [check_payload(G, r) for r in run_checks(G, args.check, args.k, spec.family)]
    )
    return 0 if all(p["passed"] for p in payloads) else 1


def load_corpus(corpus_dir: str | Path) -> list[tuple[str, Path]]:
    """(group id, spec path) pairs from a corpus directory.

    Uses manifest.txt (one spec filename per line, '#' comments) when
    present, otherwise every *.grp file in name order.
    """
    root = Path(corpus_dir)
    if not root.is_dir():
        raise CliInputError(f"corpus {root} is not a directory")
    manifest = root / "manifest.txt"
    if manifest.exists():
        names = []
        for raw in manifest.read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                names.append(line)
        paths = [root / name for name in names]
    else:
        paths = sorted(root.glob("*.grp"))
    out = []
    for path in paths:
        if not path.exists():
            raise CliInputError(f"corpus entry {path} does not exist")
        out.append((path.stem, path))
    return out


def _output(path_or_none):
    """The open --out file, or stdout (left open) when there is none."""
    return open(path_or_none, "w", encoding="utf-8", newline="\n") if path_or_none else nullcontext(sys.stdout)


def cmd_scan(args) -> int:
    cap, rows, errors, corpus = _order_cap(args), [], [], load_corpus(args.corpus)
    with _output(args.out) as out:  # opened before the first build: an --out not writable exits 2 at once
        for group_id, path in corpus:  # one table at a time: each goes once its row is made
            try:
                spec = parse_spec_file(path)
                group_id = spec.display_name(group_id)
                rows.append(scan_row(build_spec(spec, cap), group_id, args.k))
            except Exception as exc:  # a group's error skips that group only
                errors.append(f"error: {group_id}: {type(exc).__name__}: {exc}\n")
        out.write(scan_csv(sorted(rows, key=lambda row: row.group)))  # stable: equal names keep corpus order
    sys.stderr.write("".join(errors))
    return 0


def _parse_ranks(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise CliInputError(f"ranks must look like A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliInputError(f"ranks must be integers, got {text!r}") from None
    if not 1 <= lo <= hi:
        raise CliInputError(f"need 1 <= A <= B in ranks, got {text!r}")
    return lo, hi


def cmd_contrast(args) -> int:
    lo, hi = _parse_ranks(args.ranks)
    rows = contrast_report(args.p, range(lo, hi + 1), _order_cap(args))
    with _output(args.out) as out:
        out.write(scan_csv(rows))
    return 0


def weight(text: str) -> int:
    """Argument type for -k: a commutator weight, at least 1."""
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"k must be at least 1, got {k}")
    return k


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinklab",
        description="Engel sinks, gamma-k value sets, and Fitting structure of finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument("--cap", type=int, default=None, help="order cap (default: SINKLAB_CAP or 10000)")

    p = sub.add_parser("build", help="build a group and print a summary")
    p.add_argument("spec")
    add_cap(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("sink", help="minimal right Engel sink of an element")
    p.add_argument("spec")
    p.add_argument("--element", required=True, help="index, cycle notation, or word like g0*g1^-1")
    add_cap(p)
    p.set_defaults(func=cmd_sink)

    p = sub.add_parser("gamma", help="weight-k commutator value set")
    p.add_argument("spec")
    p.add_argument("-k", type=weight, required=True)
    add_cap(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("verify", help="run lemma checks against one group")
    p.add_argument("spec")
    p.add_argument("--check", default="all", choices=CHECKS + ("all",))
    p.add_argument("-k", type=weight, default=2, help="weight of orbit_lemma, and of m1_iff_nilpotent when checked "
                   "alone; --check all runs m1_iff_nilpotent at k = 2 and 3 (default 2)")
    add_cap(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="scan a corpus directory into a CSV table")
    p.add_argument("--corpus", required=True)
    p.add_argument("-k", type=weight, default=2)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    add_cap(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("contrast", help="inversion-extension contrast table")
    p.add_argument("-p", type=int, default=3, help="odd prime (default 3)")
    p.add_argument("--ranks", default="1..4", help="rank range A..B (default 1..4)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    add_cap(p)
    p.set_defaults(func=cmd_contrast)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (CliInputError, OSError) as exc:  # an OSError names its path: a spec not read, --out not written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SinklabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
