"""Deterministic report serialization: canonical JSON bodies and CSV tables.

Result bodies contain no timestamps and order every collection, so repeated
runs on the same input are byte-identical; wall-clock timing goes in a
separate field that comparisons ignore. write_json writes a body to its
stream chunk by chunk, never whole; canonical_json returns it as one string.
"""

from __future__ import annotations

import io
import json
from typing import Iterable, TextIO

from . import __version__
from .engel import SinkReport
from .group import GroupTable
from .verify import CSV_COLUMNS, CheckResult, ScanRow

# Counterexample keys whose values are element indices; only these get labels.
ELEMENT_KEYS = frozenset({"argmax", "g", "g_inverse", "h", "h_power", "v", "v_not_gamma_value", "z"})


def write_json(payload: dict, out: TextIO) -> None:
    """Write payload to out in the canonical format, chunk by chunk, never as one string."""
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def canonical_json(payload: dict) -> str:
    out = io.StringIO()
    write_json(payload, out)
    return out.getvalue()


def report_envelope(command: str, spec_echo: str, results, timing_ms: float) -> dict:
    return {
        "tool": {"name": "sinklab", "version": __version__},
        "command": command,
        "results": results,
        "spec": spec_echo,
        "timing_ms": round(timing_ms, 3),
    }


def sink_payload(G: GroupTable, report: SinkReport) -> dict:
    return {
        "element": G.labels[report.g],
        "element_index": report.g,
        "size_full": report.size_full,
        "size_nontrivial": report.size_nontrivial,
        "sink": sorted(G.labels[z] for z in report.sink),
        "witnesses": {
            G.labels[z]: {"direction": G.labels[x], "n": n}
            for z, (x, n) in sorted(report.witnesses.items())
        },
    }


def check_payload(G: GroupTable, result: CheckResult) -> dict:
    payload = {
        "check": result.check,
        "group": G.name or f"order{G.n}",
        "passed": result.passed,
        "stats": dict(sorted({**result.stats, "order": G.n}.items())),
    }
    if result.counterexample is None:
        payload["counterexample"] = None
    else:
        payload["counterexample"] = {
            key: {"index": value, "label": G.labels[value]} if key in ELEMENT_KEYS else value
            for key, value in sorted(result.counterexample.items())
        }
    return payload


def scan_csv(rows: Iterable[ScanRow]) -> str:
    lines = [CSV_COLUMNS]
    lines.extend(",".join(row.csv_values()) for row in rows)
    return "\n".join(lines) + "\n"
