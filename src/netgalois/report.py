"""Report assembly and canonical serialization.

Reports must be byte-identical across reruns with the same inputs and seed,
worker count included, so the canonical payload carries no wall-clock data;
timing goes to an optional sidecar file instead.
"""

from __future__ import annotations

import json

from . import __version__


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def make_report(command: str, instance_desc: dict | None, seed: int | None, **payload) -> dict:
    report = {
        "schema_version": 1,
        "tool": {"name": "netgalois", "version": __version__},
        "command": command,
        "seed": seed,
        "instance": instance_desc,
    }
    report.update(payload)
    return report


def write_report(path, report: dict) -> None:
    """Serialise before opening, so a failed serialisation leaves no file."""
    text = canonical_json(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_timings(path, timings: dict) -> None:
    write_report(path, {"schema_version": 1, "timings": timings})


def summarize_checks(checks: list[dict]) -> dict:
    failed = [c["id"] for c in checks if not c["holds"]]
    return {"total": len(checks), "passed": len(checks) - len(failed), "failed": failed}
