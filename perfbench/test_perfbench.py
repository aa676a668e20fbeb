"""Self-tests of the benchmark: tracer bookkeeping, alias rebinding, output
checks, the determinism reference, the refusal to run without sources, and
span coverage.

    python3 -m pytest -q perfbench/test_perfbench.py

The coverage tests run one traced pass per workload (about 25 s for
f7-paper, 70 s for z49-chain, 90 s for f11-sweep).
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYER_MAP, PER_LAYER, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, check_sweep_report  # noqa: E402

GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_outer_again(False)

    def recursive(again):
        if again:
            traced_outer_again(False)

    traced_inner = tracer.wrap(inner, "toy.inner")
    traced_outer = tracer.wrap(outer, "toy.outer")
    traced_outer_again = tracer.wrap(recursive, "toy.recursive")
    traced_outer()
    traced_outer_again(True)

    names, start, end, parent = tracer.arrays()
    assert list(names) == ["toy.outer", "toy.inner", "toy.recursive", "toy.recursive", "toy.recursive"]
    assert list(parent) == [-1, 0, 0, -1, 3]
    assert list(tracer.outer) == [1, 1, 1, 1, 0]
    dur = end - start
    self_outer = dur[0] - dur[1] - dur[2]
    assert 0.005 < self_outer < dur[0] - 0.015


def test_install_rebinds_every_alias_and_uninstall_restores():
    import netgalois
    from netgalois import axioms, glnr, groups, nets, sweep

    originals = {
        "sweep.coset_closure": sweep.coset_closure,
        "axioms.coset_closure": axioms.coset_closure,
        "groups.coset_closure": groups.coset_closure,
        "sweep.verify_sandwich": sweep.verify_sandwich,
        "nets.net_fixer": nets.net_fixer,
        "sweep.net_fixer": sweep.net_fixer,
    }
    act_batch = glnr.Instance.act_batch
    tracer = Tracer()
    tracer.install(netgalois)
    try:
        assert sweep.coset_closure is axioms.coset_closure is groups.coset_closure
        assert sweep.coset_closure is not originals["groups.coset_closure"]
        assert sweep.verify_sandwich is glnr.verify_sandwich
        assert sweep.verify_sandwich is not originals["sweep.verify_sandwich"]
        assert sweep.net_fixer is nets.net_fixer is not originals["nets.net_fixer"]
        assert glnr.Instance.act_batch is not act_batch
    finally:
        tracer.uninstall()
    assert glnr.Instance.act_batch is act_batch
    assert sweep.coset_closure is originals["sweep.coset_closure"]
    assert axioms.coset_closure is originals["axioms.coset_closure"]


def test_layer_map_names_traced_functions():
    spans = {span for _, _, span in TRACED}
    for name, unit, moves, workloads in LAYER_MAP:
        assert name.split(".")[0] in {"rings", "lattice", "frame", "glnr", "groups", "nets",
                                      "axioms", "sweep", "report"}
        assert set(moves.split(",")) <= {"setup_s", "verify_s", "total_s", "rows_per_s"}
        assert set(workloads) <= set(WORKLOADS)
        assert any(w in GATED for w in workloads), name
        if name.endswith((".calls", ".s", ".self_s")) and not name.startswith("axioms.cond_"):
            stem = name.rsplit(".", 1)[0]
            assert stem in spans or stem.startswith("sweep.row_s"), name
    assert len({n for n, _ in PER_LAYER}) == len(PER_LAYER)


def test_benchmark_json_lists_the_emitted_metrics():
    from run import END_TO_END, TRACE_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER + TRACE_METRICS
    assert set(GATED) <= set(WORKLOADS)


def _sweep_report(orders=(36, 72, 252, 252, 2016), rows=2016):
    details = {
        f"fp{k}": {
            "order": order,
            "checks": [
                {"id": "canonical_fixer_normal", "holds": True, "details": {"samples": "exhaustive"}},
                {"id": "dnet_uniqueness", "holds": True, "details": {"candidates": 4}},
            ],
        }
        for k, order in enumerate(orders)
    }
    return {
        "count": rows,
        "all_hold": True,
        "rows": [{"g": g, "subgroup": f"fp{g % len(orders)}", "holds": True} for g in range(rows)],
        "subgroups": details,
    }


def test_sweep_checks_count_failed_rows():
    expect = WORKLOADS["f7-paper"]["expect"]
    assert check_sweep_report(_sweep_report(), expect) == (2016, 0, [])

    bad = _sweep_report()
    bad["rows"][3]["holds"] = False
    bad["all_hold"] = False
    attempted, failed, problems = check_sweep_report(bad, expect)
    assert (attempted, failed) == (2016, 1) and problems

    wrong = copy.deepcopy(_sweep_report())
    wrong["subgroups"]["fp1"]["checks"][1]["details"]["candidates"] = 3
    attempted, failed, problems = check_sweep_report(wrong, expect)
    assert failed == sum(1 for r in wrong["rows"] if r["subgroup"] == "fp1")

    short = _sweep_report(orders=(36, 72, 252, 2016))
    assert check_sweep_report(short, expect)[2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", GATED[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_determinism_reference_is_per_code(tmp_path):
    from run import check_determinism, code_digest

    report = tmp_path / "sweep.json"
    report.write_text("{}\n")
    passes = [{"reports": {"sweep": str(report)}}] * 2
    known: dict = {}
    assert check_determinism("f7-paper", 1, passes, known) == []
    assert list(known) == ["f7-paper seed=1 sweep"]
    report.write_text("{ }\n")
    assert check_determinism("f7-paper", 1, passes, known)
    assert check_determinism("f7-paper", 2, passes, known) == []
    assert len(code_digest()) == 64


def test_host_speed_normalises_cpu_time():
    from passes import HostSpeed, reference_work

    speed = HostSpeed()
    try:
        start = speed.now()
        for _ in range(200):
            reference_work()
        elapsed = speed.now() - start
    finally:
        speed.stop()
    # 200 reference pieces take 200 reference times, up to the samples' noise
    assert 0.5 * 200 * HostSpeed.REFERENCE_S < elapsed < 2 * 200 * HostSpeed.REFERENCE_S
    assert speed.samples >= 2


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_span_coverage(workload, tmp_path):
    """Every per-layer metric is emitted, and each one mapped to this
    workload records work there; a renamed function or a missed rebinding
    would otherwise read as zero."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "passes.py"), "--workload", workload, "--seed", "7",
         "--out-dir", str(tmp_path), "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["error"] is None, result["error"]
    layers = result["layers"]
    assert set(layers) == {name for name, _ in PER_LAYER}
    silent = [
        name for name, _, _, workloads in LAYER_MAP
        if workload in workloads and not layers[name] > 0
    ]
    assert not silent, f"no work recorded on {workload}: {silent}"
    assert (tmp_path / "spans.npz").is_file()
