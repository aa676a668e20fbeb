"""Workload definitions and the output checks that decide pass or fail.

A workload is one instance plus the verification steps a user runs on it:
optionally the exhaustive axiom suite (`netgalois check-axioms`), then the
cyclic-over-D sweep (`netgalois sweep --jobs 1`), each ending in a canonical
report file.  The seed reaches `check_all` and `sweep_cyclic`; on an
exhaustive workload it only changes the report header, on `z49-chain` it
also picks the sampled rows and the conjugation pairs.
"""

from __future__ import annotations

import json

AXIOM_CONDITIONS = [str(i) for i in range(1, 13)] + ["1'", "2'", "3'", "4'"]

WORKLOADS = {
    "f7-paper": {
        "ring": (7, 1),
        "n": 2,
        "cap": 10_000_000,
        "axioms": True,
        "sample": None,
        "conjugation_samples": None,
        "expect": {
            "verdicts": 17,
            "count": 2016,
            "orders": [36, 72, 252, 252, 2016],
            "candidates": 4,
            "conjugation": "exhaustive",
        },
    },
    "f11-sweep": {
        "ring": (11, 1),
        "n": 2,
        "cap": 10_000_000,
        "axioms": False,
        "sample": None,
        "conjugation_samples": None,
        "expect": {
            "count": 13200,
            "orders": [100, 200, 1100, 1100, 13200],
            "conjugation": "exhaustive",
        },
    },
    "z49-chain": {
        "ring": (7, 2),
        "n": 2,
        "cap": 5_000_000,
        "axioms": False,
        "sample": 8,
        "conjugation_samples": 10_000,
        "expect": {
            "count": 8,
            "candidates": 9,
            "order_multiple_of": 1764,
            "order_divides": 4840416,
            "conjugation": 10_000,
            "max_rss_mb": 2048,
        },
    },
}


def _check_detail(detail: dict, expect: dict) -> list[str]:
    """Problems with one distinct subgroup's verification record."""
    problems = []
    checks = {c["id"]: c for c in detail["checks"]}
    failed = [cid for cid, c in checks.items() if not c["holds"]]
    if failed:
        problems.append(f"checks fail: {failed}")
    conj = checks.get("canonical_fixer_normal")
    if conj is None or conj["details"].get("samples") != expect["conjugation"]:
        problems.append("conjugation check missing or not run as configured")
    if "candidates" in expect:
        uniq = checks.get("dnet_uniqueness")
        if uniq is None or uniq["details"].get("candidates") != expect["candidates"]:
            problems.append("dnet_uniqueness candidate count differs")
    order = detail["order"]
    if "order_multiple_of" in expect and order % expect["order_multiple_of"]:
        problems.append(f"order {order} is not a multiple of |D|")
    if "order_divides" in expect and expect["order_divides"] % order:
        problems.append(f"order {order} does not divide |GL|")
    return problems


def check_axiom_report(report: dict, expect: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): one operation per verdict."""
    verdicts = report.get("verdicts", [])
    failed = sum(1 for v in verdicts if not (v["holds"] and v["exhaustive"]))
    problems = []
    seen = {(v["id"], v["mode"]) for v in verdicts}
    wanted = {(c, "as_stated") for c in AXIOM_CONDITIONS if c != "4"}
    wanted |= {("4", "weak"), ("4", "strong")}
    if seen != wanted:
        problems.append(f"verdict set differs: missing {sorted(wanted - seen)}")
    attempted = expect["verdicts"]
    failed += max(attempted - len(verdicts), 0)
    if failed:
        problems.append(f"{failed} verdicts do not hold exhaustively")
    return attempted, failed, problems


def check_sweep_report(report: dict, expect: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): one operation per sweep row."""
    attempted = expect["count"]
    rows = report.get("rows", [])
    details = report.get("subgroups", {})
    bad_subgroups = {}
    for fp, detail in details.items():
        found = _check_detail(detail, expect)
        if found:
            bad_subgroups[fp] = found
    failed = sum(1 for r in rows if not r["holds"] or r["subgroup"] in bad_subgroups)
    failed += max(attempted - len(rows), 0)
    problems = [f"subgroup {fp}: {p}" for fp, ps in sorted(bad_subgroups.items()) for p in ps]
    if report.get("count") != attempted or len(rows) != attempted:
        problems.append(f"row count {report.get('count')} != {attempted}")
    if report.get("all_hold") is not True:
        problems.append("all_hold is not true")
    if "orders" in expect:
        orders = sorted(d["order"] for d in details.values())
        if orders != expect["orders"]:
            problems.append(f"subgroup orders {orders} != {expect['orders']}")
    if failed:
        problems.append(f"{failed} rows fail")
    return attempted, failed, problems


def check_reports(workload: str, paths: dict) -> tuple[int, int, list[str]]:
    """Check every report one pass wrote; missing reports fail every
    operation they would have carried."""
    expect = WORKLOADS[workload]["expect"]
    attempted = failed = 0
    problems: list[str] = []
    kinds = (["axioms"] if WORKLOADS[workload]["axioms"] else []) + ["sweep"]
    for kind in kinds:
        checker = check_axiom_report if kind == "axioms" else check_sweep_report
        path = paths.get(kind)
        if path is None:
            n = expect["verdicts"] if kind == "axioms" else expect["count"]
            attempted += n
            failed += n
            problems.append(f"{kind} report missing")
            continue
        with open(path, encoding="utf-8") as fh:
            a, f, p = checker(json.load(fh), expect)
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems
