"""Acceptance criteria, one test per criterion, each printing a pass/fail
line and enforcing its stated runtime budget.

The heavy sweeps run end-to-end through the installed CLI in subprocesses,
which keeps their memory accounting honest and exercises the reports exactly
as a user would produce them.  Report files are written into one shared
directory so the determinism criterion can rerun and byte-compare them.
"""

import json
import subprocess
import sys
import time
from math import gcd

import numpy as np
import pytest

from netgalois.glnr import Instance, enumerate_dnets, gl_order, non_dnet_fixture
from netgalois.groups import fixer
from netgalois.lattice import pentagon
from netgalois.nets import (
    canonical_sublattice,
    enumerate_net_collections,
    net_fixer,
    transvection_ideals,
)
from netgalois.rings import RingSpec, mat_mul

ARTIFACTS = {}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance")
    for name, spec in {
        "f7n2.json": {"ring": {"kind": "prime_field", "p": 7, "k": 1}, "n": 2},
        "z4n2.json": {"ring": {"kind": "chain", "p": 2, "k": 2}, "n": 2},
        "f2n2.json": {"ring": {"kind": "prime_field", "p": 2, "k": 1}, "n": 2},
        "z49n2.json": {"ring": {"kind": "chain", "p": 7, "k": 2}, "n": 2},
    }.items():
        (path / name).write_text(json.dumps({"schema_version": 1, **spec}))
    return path


def run_cli(args, timeout=1500):
    proc = subprocess.run(
        [sys.executable, "-m", "netgalois.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def report_line(criterion, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance criterion {criterion}: {status} ({elapsed:.1f}s, budget {budget}s)")
    assert ok, f"criterion {criterion} failed"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_instance_counts():
    start = time.monotonic()
    f7 = Instance(RingSpec(7, 1), 2)
    z4 = Instance(RingSpec(2, 2), 2)

    def divisor_formula(m):
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        return sum(gcd(a, b) for a in divisors for b in divisors)

    ok = (
        len(f7.lattice) == 10 == divisor_formula(7)
        and len(z4.lattice) == 15 == divisor_formula(4)
        and len(f7.gl()) == 2016 == (7**2 - 1) * (7**2 - 7)
        and len(f7.diagonal()) == 36
        and len(z4.gl()) == 96 == gl_order(z4.ring, 2)
    )
    report_line(1, ok, time.monotonic() - start, 5)


def test_criterion_2_support_calculus():
    start = time.monotonic()
    instances = [
        Instance(RingSpec(7, 1), 2),
        Instance(RingSpec(2, 2), 2),
        Instance(RingSpec(2, 1), 2),
        Instance(RingSpec(7, 2), 2),
    ]
    rng = np.random.default_rng(20260809)
    failures = 0
    for inst in instances:
        lat, frame = inst.lattice, inst.frame
        for x in range(len(lat)):
            if frame.support(x) != frame.support_brute(x):
                failures += 1
        # zero-meet exchange identity on 1000 random quadruples
        quads = rng.integers(0, len(lat), size=(1000, 4))
        for x, y, z, t in quads.tolist():
            if lat.meet(lat.join(x, z), lat.join(y, t)) == lat.bottom:
                lhs = lat.meet(lat.join(x, y), lat.join(z, t))
                rhs = lat.join(lat.meet(x, z), lat.meet(y, t))
                if lhs != rhs:
                    failures += 1
        # gathered-meet identity on 1000 random tuples of length <= 4
        for _ in range(1000):
            s = int(rng.integers(2, 5))
            xs = rng.integers(0, len(lat), size=s).tolist()
            x = int(rng.integers(0, len(lat)))
            hats = [lat.join_many(xs[:i] + xs[i + 1 :]) for i in range(s)]
            lhs = lat.join_many(lat.meet(lat.join(x, hats[i]), xs[i]) for i in range(s))
            rhs = lat.meet(
                lat.join_many(xs), lat.meet_many(lat.join(x, hats[i]) for i in range(s))
            )
            if lhs != rhs:
                failures += 1
    report_line(2, failures == 0, time.monotonic() - start, 30)


def test_criterion_3_axiom_suite(workdir):
    start = time.monotonic()
    out = str(workdir / "axioms-f7.json")
    proc = run_cli(
        ["check-axioms", "--instance", str(workdir / "f7n2.json"),
         "--conditions", "1-12,1',2',3',4'",
         "--mode", "exhaustive", "--report-only", "--out", out]
    )
    ok = proc.returncode == 0
    report = json.loads(open(out).read())
    ids_seen = set()
    for verdict in report["verdicts"]:
        if verdict["mode"] == "strong":
            continue  # ambiguous conditions are asserted on the weak reading
        ok = ok and verdict["holds"] and verdict["exhaustive"]
        ids_seen.add(verdict["id"])
    ok = ok and ids_seen == {str(i) for i in range(1, 13)} | {"1'", "2'", "3'", "4'"}
    ARTIFACTS["axioms-f7"] = out
    report_line(3, ok, time.monotonic() - start, 300)


def test_criterion_4_net_enumeration(workdir):
    start = time.monotonic()
    f7 = Instance(RingSpec(7, 1), 2)
    valid = enumerate_net_collections(f7)
    ok = len(valid) == 4
    orders = []
    for net in valid:
        # net_fixer verifies the generator-closure equality internally and
        # raises on mismatch; recompute the direct fixer for the comparison
        fx = net_fixer(f7, net)
        direct = fixer(f7, canonical_sublattice(f7, net).members)
        ok = ok and np.array_equal(fx.codes, direct.codes)
        ok = ok and transvection_ideals(f7, fx) == net
        orders.append(len(fx))
    ok = ok and sorted(orders) == [36, 252, 252, 2016]
    out = str(workdir / "nets-f7.json")
    proc = run_cli(["nets", "--instance", str(workdir / "f7n2.json"), "--out", out])
    ok = ok and proc.returncode == 0
    ARTIFACTS["nets-f7"] = out
    report_line(4, ok, time.monotonic() - start, 120)


def test_criterion_5_full_sweep(workdir):
    start = time.monotonic()
    out = str(workdir / "sweep-f7-jobs1.json")
    proc = run_cli(
        ["sweep", "--instance", str(workdir / "f7n2.json"), "--family", "cyclic-over-D",
         "--seed", "0", "--jobs", "1", "--out", out]
    )
    ok = proc.returncode == 0
    report = json.loads(open(out).read())
    ok = ok and report["count"] == 2016 and report["all_hold"] is True
    required = {
        "canonical_fixer_normal",
        "canonical_fixer_inside",
        "inside_normalizer",
        "finite_index",
        "canonical_inside_stable_span",
        "dnet_uniqueness",
        "net_uniqueness",
        "unique_fixer_class",
        "same_transvections",
        "rank_one_unique_sublattice",
    }
    for detail in report["subgroups"].values():
        seen = {c["id"] for c in detail["checks"] if c["holds"]}
        ok = ok and required <= seen
        conj = next(c for c in detail["checks"] if c["id"] == "canonical_fixer_normal")
        ok = ok and conj["details"]["samples"] == "exhaustive"
        uniq = next(c for c in detail["checks"] if c["id"] == "dnet_uniqueness")
        ok = ok and uniq["details"]["candidates"] == 4
    orders = sorted(d["order"] for d in report["subgroups"].values())
    ok = ok and orders == [36, 72, 252, 252, 2016]
    ARTIFACTS["sweep-f7"] = out
    report_line(5, ok, time.monotonic() - start, 900)


def test_criterion_6_chain_ring_case(workdir, run_measured):
    start = time.monotonic()
    z49 = Instance(RingSpec(7, 2), 2)
    ok = z49.frame.m == 2 and len(z49.lattice) == 75
    ok = ok and len(enumerate_dnets(z49)) == 9
    del z49

    cond_out = str(workdir / "axioms-z49.json")
    proc, axioms_mb = run_measured(
        ["check-axioms", "--instance", str(workdir / "z49n2.json"), "--conditions", "7-10",
         "--mode", "sampled", "--samples", "3", "--seed", "1", "--out", cond_out]
    )
    ok = ok and proc.returncode == 0
    cond_report = json.loads(open(cond_out).read())
    ok = ok and all(v["holds"] for v in cond_report["verdicts"])
    ARTIFACTS["axioms-z49"] = cond_out

    out = str(workdir / "sweep-z49-jobs1.json")
    proc, sweep_mb = run_measured(
        ["sweep", "--instance", str(workdir / "z49n2.json"), "--family", "cyclic-over-D",
         "--sample", "50", "--seed", "20260809", "--jobs", "1", "--cap", "5000000",
         "--conjugation-samples", "10000", "--out", out]
    )
    ok = ok and proc.returncode == 0
    report = json.loads(open(out).read())
    ok = ok and report["count"] == 50 and report["all_hold"] is True
    for detail in report["subgroups"].values():
        uniq = next(c for c in detail["checks"] if c["id"] == "dnet_uniqueness")
        ok = ok and uniq["holds"] and uniq["details"]["candidates"] == 9
    peak_child_mb = max(axioms_mb, sweep_mb)
    print(f"\n  criterion 6 peak child RSS: {peak_child_mb} MB")
    ok = ok and peak_child_mb < 2048
    ARTIFACTS["sweep-z49"] = out
    report_line(6, ok, time.monotonic() - start, 1200)


def test_criterion_7_negative_controls(workdir):
    start = time.monotonic()
    n5 = pentagon()
    modular, witness = n5.is_modular()
    ok = not modular and n5.modularity_witness_fails(witness)

    f7n3 = Instance(RingSpec(7, 1), 3)
    bad, (a, b) = non_dnet_fixture(f7n3)
    from netgalois.glnr import entrywise_member

    ok = ok and not bad.is_valid()
    ok = ok and entrywise_member(f7n3, bad, a) and entrywise_member(f7n3, bad, b)
    ok = ok and not entrywise_member(f7n3, bad, mat_mul(a, b, f7n3.modulus))

    out = str(workdir / "axioms-f2.json")
    proc = run_cli(
        ["check-axioms", "--instance", str(workdir / "f2n2.json"), "--report-only", "--out", out]
    )
    report = json.loads(open(out).read())
    ok = ok and proc.returncode == 0
    ok = ok and any(not v["holds"] for v in report["verdicts"])
    report_line(7, ok, time.monotonic() - start, 120)


def test_criterion_8_determinism(workdir):
    start = time.monotonic()
    ok = True

    # instance-count builds rerun byte-identically
    for spec in ("f7n2.json", "z4n2.json"):
        first = str(workdir / f"build-{spec}")
        second = str(workdir / f"build-rerun-{spec}")
        for out in (first, second):
            proc = run_cli(["build", "--instance", str(workdir / spec), "--out", out])
            ok = ok and proc.returncode == 0
        ok = ok and open(first, "rb").read() == open(second, "rb").read()

    # criteria 3-4 artifacts: rerunning the producing command reproduces bytes
    rerun = str(workdir / "axioms-f7-rerun.json")
    proc = run_cli(
        ["check-axioms", "--instance", str(workdir / "f7n2.json"),
         "--conditions", "1-12,1',2',3',4'",
         "--mode", "exhaustive", "--report-only", "--out", rerun]
    )
    ok = ok and proc.returncode == 0
    ok = ok and open(rerun, "rb").read() == open(ARTIFACTS["axioms-f7"], "rb").read()

    rerun = str(workdir / "nets-f7-rerun.json")
    proc = run_cli(["nets", "--instance", str(workdir / "f7n2.json"), "--out", rerun])
    ok = ok and proc.returncode == 0
    ok = ok and open(rerun, "rb").read() == open(ARTIFACTS["nets-f7"], "rb").read()

    # the sweeps rerun on the maximal worker pool must be byte-identical
    rerun = str(workdir / "sweep-f7-jobsmax.json")
    proc = run_cli(
        ["sweep", "--instance", str(workdir / "f7n2.json"), "--family", "cyclic-over-D",
         "--seed", "0", "--jobs", "max", "--out", rerun]
    )
    ok = ok and proc.returncode == 0
    ok = ok and open(rerun, "rb").read() == open(ARTIFACTS["sweep-f7"], "rb").read()

    rerun = str(workdir / "sweep-z49-jobsmax.json")
    proc = run_cli(
        ["sweep", "--instance", str(workdir / "z49n2.json"), "--family", "cyclic-over-D",
         "--sample", "50", "--seed", "20260809", "--jobs", "max", "--cap", "5000000",
         "--conjugation-samples", "10000", "--out", rerun]
    )
    ok = ok and proc.returncode == 0
    ok = ok and open(rerun, "rb").read() == open(ARTIFACTS["sweep-z49"], "rb").read()

    rerun = str(workdir / "axioms-z49-rerun.json")
    proc = run_cli(
        ["check-axioms", "--instance", str(workdir / "z49n2.json"), "--conditions", "7-10",
         "--mode", "sampled", "--samples", "3", "--seed", "1", "--out", rerun]
    )
    ok = ok and proc.returncode == 0
    ok = ok and open(rerun, "rb").read() == open(ARTIFACTS["axioms-z49"], "rb").read()

    report_line(8, ok, time.monotonic() - start, 1800)
