import hashlib
import json
import os
import pathlib
import shlex

import numpy as np
import pytest

from netgalois import cli, report
from netgalois.cli import build_parser, main
from netgalois.lattice import pentagon


@pytest.fixture()
def f7_spec(tmp_path):
    path = tmp_path / "f7n2.json"
    path.write_text(json.dumps({"schema_version": 1, "ring": {"kind": "prime_field", "p": 7, "k": 1}, "n": 2}))
    return str(path)


@pytest.fixture()
def f2_spec(tmp_path):
    path = tmp_path / "f2n2.json"
    path.write_text(json.dumps({"ring": {"p": 2, "k": 1}, "n": 2}))
    return str(path)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_build_writes_report_and_lattice(f7_spec, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    lat_out = str(tmp_path / "lattice.json")
    dot_out = str(tmp_path / "hasse.dot")
    rc = main(["build", "--instance", f7_spec, "--out", out, "--lattice-out", lat_out, "--dot-out", dot_out])
    assert rc == 0
    report = read(out)
    assert report["lattice"]["n_elements"] == 10
    assert report["lattice"]["modular"] is True
    assert report["tool"]["name"] == "netgalois"
    lat = read(lat_out)
    assert lat["n_elements"] == 10 and len(lat["meet"]) == 10
    assert "digraph" in open(dot_out).read()


def test_support_subcommand(f7_spec, tmp_path, capsys):
    rc = main(["support", "--instance", f7_spec, "--element", "1,1;0,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "support(1,1;0,0)" in out
    rc = main(["support", "--instance", f7_spec, "--element", "nonsense"])
    assert rc == 2


def test_check_axioms_exhaustive_and_report_only(f7_spec, f2_spec, tmp_path):
    out = str(tmp_path / "verdicts.json")
    rc = main([
        "check-axioms", "--instance", f7_spec, "--conditions", "1-3,7,12",
        "--mode", "exhaustive", "--out", out,
    ])
    assert rc == 0
    report = read(out)
    assert report["all_hold"] is True
    assert [v["id"] for v in report["verdicts"]] == ["1", "2", "3", "7", "12"]

    # the small field fails conditions, so the asserted run exits 1 ...
    out2 = str(tmp_path / "f2.json")
    rc = main(["check-axioms", "--instance", f2_spec, "--conditions", "12", "--out", out2])
    assert rc == 1
    # ... and report-only mode exits 0 with the verdicts still recorded
    rc = main(["check-axioms", "--instance", f2_spec, "--conditions", "12", "--report-only", "--out", out2])
    assert rc == 0
    assert read(out2)["verdicts"][0]["holds"] is False


def test_check_axioms_default_mode_is_exhaustive_above_ten_thousand(tmp_path):
    """|GL(2, 11)| = 13 200: the default run quantifies over all of GL."""
    spec = tmp_path / "f11n2.json"
    spec.write_text(json.dumps({"ring": {"p": 11, "k": 1}, "n": 2}))
    out = tmp_path / "verdicts.json"
    assert main(["check-axioms", "--instance", str(spec), "--conditions", "3,11", "--out", str(out)]) == 0
    report = read(out)
    assert report["mode"] == "exhaustive"
    assert [(v["exhaustive"], v["samples"]) for v in report["verdicts"]] == [(True, None)] * 2


def test_replay_subcommand(f2_spec, f7_spec, tmp_path):
    out = str(tmp_path / "f2-verdicts.json")
    assert main(["check-axioms", "--instance", f2_spec, "--report-only", "--out", out]) == 0
    rc = main(["replay", "--report", out, "--instance", f2_spec])
    assert rc == 0
    # a clean report has nothing to replay and also exits 0
    clean = str(tmp_path / "clean.json")
    assert main(["check-axioms", "--instance", f7_spec, "--conditions", "1,2", "--out", clean]) == 0
    assert main(["replay", "--report", clean, "--instance", f7_spec]) == 0


def test_replay_modularity_witness(tmp_path):
    n5 = pentagon()
    ok, witness = n5.is_modular()
    assert not ok
    report = {
        "schema_version": 1,
        "checks": [
            {
                "id": "modularity",
                "holds": False,
                "witness": {"kind": "modularity", "lattice": "pentagon", "triple": list(witness)},
            }
        ],
    }
    path = tmp_path / "pent.json"
    path.write_text(json.dumps(report))
    assert main(["replay", "--report", str(path)]) == 0


def test_sigma_and_sandwich_subcommands(f7_spec, tmp_path):
    sub_path = str(tmp_path / "borel.json")
    with open(sub_path, "w") as fh:
        json.dump(
            {
                "schema_version": 1,
                "generators": [
                    [[3, 0], [0, 1]],
                    [[1, 0], [0, 3]],
                    [[1, 0], [1, 1]],
                ],
            },
            fh,
        )
    out = str(tmp_path / "sigma.json")
    rc = main(["sigma", "--instance", f7_spec, "--subgroup", sub_path, "--out", out])
    assert rc == 0
    report = read(out)
    assert report["subgroup_order"] == 252
    assert report["canonical_fixer_order"] == 252

    out = str(tmp_path / "sandwich.json")
    rc = main(["sandwich", "--instance", f7_spec, "--subgroup", sub_path, "--out", out])
    assert rc == 0
    report = read(out)
    assert report["summary"]["failed"] == []
    assert report["subgroup_order"] == 252

    # a subgroup missing the diagonal part is rejected as input, also when a
    # sandwich report's failed checks are replayed on its generators
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"schema_version": 1, "generators": [[[1, 0], [1, 1]]]}, fh)
    for command in ("sandwich", "sigma"):
        assert main([command, "--instance", f7_spec, "--subgroup", bad]) == 2
    report["checks"][0]["holds"] = False
    report["subgroup_generators"] = [[[1, 0], [1, 1]]]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(report))
    assert main(["replay", "--report", str(forged), "--instance", f7_spec]) == 2
    report["subgroup_generators"] = [[[3, 0], [0, 1]], [[1, 0], [0, 3]], [[1, 0], [1, 1]]]
    forged.write_text(json.dumps(report))
    assert main(["replay", "--report", str(forged), "--instance", f7_spec]) == 1


@pytest.mark.parametrize(
    "generator",
    [
        [[1, 2], [3]],
        [[1, 0], [0, "a"]],
        [[3.7, 0], [0, 1]],
        [[1, 0], [1.2, 1]],
        [[1, 0], [0, 3.0]],
        [[True, 0], [0, 1]],
    ],
    ids=["ragged", "text", "float", "float-off-diagonal", "integral-float", "boolean"],
)
def test_malformed_subgroup_file_is_an_input_error(f7_spec, tmp_path, capsys, generator):
    sub_path = tmp_path / "bad.json"
    gens = [[[3, 0], [0, 1]], generator]
    sub_path.write_text(json.dumps({"schema_version": 1, "generators": gens}))
    for command in ("sandwich", "sigma"):
        assert main([command, "--instance", f7_spec, "--subgroup", str(sub_path)]) == 2
        assert repr(generator) in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '"x"',
        '{"ring": {"p": 7}, "n": "two"}',
        '{"ring": {"p": 7}, "n": null}',
        '{"ring": {"p": 7}, "n": 2, "atoms": 5}',
        '{"ring": {"p": 7}, "n": 2.5}',
        '{"ring": {"p": 7.9}, "n": 2}',
        '{"ring": {"p": 7}, "n',
        None,
    ],
    ids=["list", "text", "n-text", "n-null", "atoms-number", "n-float", "p-float", "truncated", "missing"],
)
def test_malformed_instance_file_is_an_input_error(tmp_path, capsys, text):
    """A malformed or missing instance file exits 2 with an input error and
    writes no report: not a traceback (exit 1, a verification failure), and
    no float is truncated into a valid instance."""
    spec = tmp_path / "bad.json"
    if text is not None:
        spec.write_text(text)
    out = tmp_path / "report.json"
    assert main(["build", "--instance", str(spec), "--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p, k", [(2**61 - 1, 1), (2, 10**9)], ids=["mersenne-61", "k-1e9"])
def test_oversized_ring_is_refused_at_once(tmp_path, run_measured, p, k):
    """`build` on a ring whose matrix codes overflow int64 exits 2 with an
    input error in a fresh process well inside 10 s: no primality test over
    a 61-bit p, no power p^k with k = 10^9."""
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"ring": {"p": p, "k": k}, "n": 2}))
    out = tmp_path / "report.json"
    proc, _ = run_measured(["build", "--instance", str(spec), "--out", str(out)], timeout=10)
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert not out.exists()


def test_nets_and_classes_subcommands(f7_spec, tmp_path):
    out = str(tmp_path / "nets.json")
    assert main(["nets", "--instance", f7_spec, "--out", out]) == 0
    report = read(out)
    assert report["count"] == 4 and report["dnet_candidates"] == 4
    assert sorted(r["fixer_order"] for r in report["nets"]) == [36, 252, 252, 2016]

    out = str(tmp_path / "classes.json")
    assert main(["classes", "--instance", f7_spec, "--out", out]) == 0
    report = read(out)
    assert sorted(c["class_size"] for c in report["classes"]) == [1, 3, 4, 4]
    # the full-group class demonstrates a canonical member that is not minimal
    full = next(c for c in report["classes"] if c["fixer_order"] == 2016)
    assert full["canonical"] and not full["canonical_is_minimal"]


def test_sweep_subcommand_sampled(f7_spec, tmp_path):
    out = str(tmp_path / "sweep.json")
    rc = main([
        "sweep", "--instance", f7_spec, "--family", "cyclic-over-D",
        "--sample", "12", "--seed", "5", "--jobs", "1", "--out", out,
    ])
    assert rc == 0
    report = read(out)
    assert report["count"] == 12 and report["all_hold"] is True
    rc = main(["sweep", "--instance", f7_spec, "--family", "bogus", "--out", out])
    assert rc == 2


def test_sweep_jobs_determinism(f7_spec, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    base = ["sweep", "--instance", f7_spec, "--sample", "10", "--seed", "9"]
    assert main(base + ["--jobs", "1", "--out", a]) == 0
    assert main(base + ["--jobs", "max", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_f11_exhaustive_sweep_any_jobs(tmp_path):
    spec = tmp_path / "f11n2.json"
    spec.write_text(json.dumps({"ring": {"p": 11, "k": 1}, "n": 2}))
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    base = ["sweep", "--instance", str(spec), "--family", "cyclic-over-D"]
    assert main(base + ["--jobs", "1", "--out", a]) == 0
    assert main(base + ["--jobs", "2", "--out", b]) == 0
    report = read(a)
    assert report["count"] == len(report["rows"]) == 13200 and report["all_hold"] is True
    details = report["subgroups"].values()
    assert sorted(d["order"] for d in details) == [100, 200, 1100, 1100, 13200]
    normal = [c for d in details for c in d["checks"] if c["id"] == "canonical_fixer_normal"]
    assert len(normal) == 5 and all(c["details"]["samples"] == "exhaustive" for c in normal)
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.fixture(scope="module")
def z9_sweep(tmp_path_factory):
    """(spec path, report path) of the exhaustive Z/9 sweep, one job, seed 5."""
    tmp = tmp_path_factory.mktemp("z9")
    spec = tmp / "z9n2.json"
    spec.write_text(json.dumps({"ring": {"p": 3, "k": 2}, "n": 2}))
    out = tmp / "jobs1.json"
    base = ["sweep", "--instance", str(spec), "--seed", "5", "--jobs", "1", "--out", str(out)]
    assert main(base) == 1  # outside the hypotheses: some subgroups fail
    return str(spec), out


def test_z9_sweep_reports_do_not_depend_on_jobs(z9_sweep, tmp_path):
    spec, one = z9_sweep
    for jobs in ("2", "3"):
        out = tmp_path / f"jobs{jobs}.json"
        base = ["sweep", "--instance", spec, "--seed", "5", "--jobs", jobs, "--out", str(out)]
        assert main(base) == 1
        assert out.read_bytes() == one.read_bytes()


def test_sweep_starts_no_more_workers_than_representatives(f7_spec, tmp_path, monkeypatch):
    """F7 has 11 representatives, so `--jobs 64` opens a pool of 11 workers,
    and the report is the one-job report.  The pool maps in this process."""
    from types import SimpleNamespace

    from netgalois import sweep

    opened = []

    class InProcessPool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return [fn(chunk) for chunk in chunks]

    context = SimpleNamespace(Pool=InProcessPool)
    monkeypatch.setattr(sweep, "mp", SimpleNamespace(get_context=lambda method: context))
    one, many = str(tmp_path / "one.json"), str(tmp_path / "many.json")
    base = ["sweep", "--instance", f7_spec]
    assert main(base + ["--jobs", "1", "--out", one]) == 0
    assert main(base + ["--jobs", "64", "--out", many]) == 0
    assert opened == [11]
    assert open(one, "rb").read() == open(many, "rb").read()


def test_seed_and_jobs_out_of_range_exit_2(f7_spec):
    """A negative seed, which numpy's generators reject, and fewer than one
    worker are refused when the arguments are parsed."""
    for args in (
        ["check-axioms", "--seed", "-1"],
        ["check-axioms", "--mode", "sampled", "--seed", "-1"],
        ["sweep", "--sample", "3", "--seed", "-5"],
        ["sweep", "--jobs", "0"],
        ["sweep", "--jobs", "-2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--instance", f7_spec])
        assert exc.value.code == 2, args


def test_sweep_verifies_once_per_double_coset(f7_spec, tmp_path, monkeypatch):
    from netgalois import sweep

    calls = {"verify_one": 0, "double_coset_key": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sweep, name, counted(name, getattr(sweep, name)))
    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--instance", f7_spec, "--jobs", "1", "--out", out]) == 0
    assert read(out)["count"] == 2016
    assert calls == {"verify_one": 11, "double_coset_key": 1}


def test_replay_sweep_rows_checks_their_subgroup(z9_sweep, tmp_path, capsys):
    spec, report = z9_sweep
    capsys.readouterr()
    assert main(["replay", "--report", str(report), "--instance", spec]) == 0
    assert "replayed 1800 failure witnesses: 1800 reproduced" in capsys.readouterr().out

    # a failing row whose g closes to another failing subgroup is not
    # reproduced, though that subgroup fails the same checks
    data = read(report)
    failing = [r for r in data["rows"] if not r["holds"]]
    row = failing[0]
    row["g"] = next(r["g"] for r in failing if r["subgroup"] != row["subgroup"])
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(data))
    assert main(["replay", "--report", str(swapped), "--instance", spec]) == 1
    assert "replayed 1800 failure witnesses: 1799 reproduced" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["x", [1]])
def test_replay_reads_no_seed(f2_spec, tmp_path, capsys, seed):
    """Replay re-verifies each failing subgroup with exact checks only, so a
    report's seed, even one that is not an integer, changes nothing."""
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--instance", f2_spec, "--out", str(out)]) == 1
    data = read(out)
    data["seed"] = seed
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["replay", "--report", str(out), "--instance", f2_spec]) == 0
    assert "replayed 5 failure witnesses: 5 reproduced" in capsys.readouterr().out


def test_canonical_report_bytes_are_pinned(f7_spec, z9_sweep, tmp_path):
    """SHA-256s of the canonical reports, witnesses of the failing Z/9 runs
    included; any change to them is a change of report bytes."""
    z9_spec, z9_sweep_report = z9_sweep
    runs = [
        (["check-axioms", "--instance", f7_spec, "--seed", "7"], 0,
         "787f8179ff4e2c57a9c34f38d77b272d97cfa7d8e69c1e50febd7d847fe5e254"),
        (["sweep", "--instance", f7_spec, "--seed", "7", "--jobs", "1"], 0,
         "93603744a0d60788f65fbcf50723f270b2688ccbf2fa286aa0fb1466c021cadb"),
        (["check-axioms", "--instance", z9_spec, "--seed", "3"], 1,
         "169f01bd202e8e8f5f79e3e2d89164e06f721f8d5e81715902080545227ad671"),
    ]
    for k, (args, rc, digest) in enumerate(runs):
        out = tmp_path / f"report{k}.json"
        assert main(args + ["--out", str(out)]) == rc
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
    assert hashlib.sha256(z9_sweep_report.read_bytes()).hexdigest() == (
        "33183bd1783e7d3373af28967c0053afe71a53f41f219bdaf70855a43ff26a60"
    )


@pytest.mark.parametrize(
    "p, n, extra, digest",
    [
        (2, 2, [], "ca20968a0846f8ac8882ed960109e3fcea7f5681706ec0778a37cc5bd8773892"),
        (3, 2, [], "d0e9b89616146fcf3267f80b9c1728c58919f612da1c975ce1fd51b7f8ae2a71"),
        (3, 3, ["--sample", "40"], "7d69926b8e73861e39538f60d5e96bcb18dc409b6290999f118ac6f59e3563d7"),
    ],
    ids=["f2", "f3", "f3n3-sample40"],
)
def test_failing_sweep_report_bytes_are_pinned(tmp_path, p, n, extra, digest):
    """SHA-256s of sweeps whose subgroups fail sandwich and class checks,
    witnesses included: F2 fails `unique_fixer_class` three times; F3 and
    F3 rank 3 fail both upper sandwich checks, both uniqueness checks, the
    stable-span checks, `unique_fixer_class` and `rank_one_unique_sublattice`."""
    spec = tmp_path / "instance.json"
    spec.write_text(json.dumps({"ring": {"p": p, "k": 1}, "n": n}))
    out = tmp_path / "report.json"
    args = ["sweep", "--instance", str(spec), "--seed", "5", "--jobs", "1", *extra]
    assert main(args + ["--out", str(out)]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, rc, digest",
    [
        (["check-axioms", "--mode", "sampled", "--samples", "50", "--report-only"], 0,
         "d53da8e7a0bc54135186279a9536782984e0ef7a49fdd2a6eb1103a1ab6b5a71"),
        (["sweep", "--sample", "12", "--conjugation-samples", "5", "--jobs", "1"], 1,
         "d6d0279ac58016ebd453f0be4aa145f3e0d15763aaa768af83265d6356754151"),
    ],
    ids=["z9-axioms-sampled", "z9-sweep-conjugation-samples"],
)
def test_sampled_report_bytes_are_pinned(tmp_path, args, rc, digest):
    """SHA-256s of Z/9 reports, seed 3, whose bytes show the draws: the
    failing condition 11 names drawn codes, and four failing sampled
    normality checks name drawn (f, s) pairs, besides the 12 drawn rows."""
    spec = tmp_path / "z9n2.json"
    spec.write_text(json.dumps({"ring": {"p": 3, "k": 2}, "n": 2}))
    out = tmp_path / "report.json"
    assert main([args[0], "--instance", str(spec), "--seed", "3", *args[1:], "--out", str(out)]) == rc
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.slow
def test_canonical_report_bytes_are_pinned_on_z49(tmp_path):
    """SHA-256 of the sampled Z/49 sweep: 8 rows, 10 000 conjugation pairs."""
    spec = tmp_path / "z49n2.json"
    spec.write_text(json.dumps({"ring": {"p": 7, "k": 2}, "n": 2}))
    out = tmp_path / "report.json"
    args = ["sweep", "--instance", str(spec), "--sample", "8", "--conjugation-samples", "10000"]
    assert main(args + ["--seed", "7", "--jobs", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "557424fd901f8149152e03e9b538f4e0c228863d1f1ed8393396fc8af60e3877"
    )


@pytest.mark.slow
def test_canonical_report_bytes_are_pinned_on_z49_seed_11(tmp_path):
    """SHA-256 of the sampled Z/49 sweep with seed 11, whose rows close to
    other subgroups than seed 7's."""
    spec = tmp_path / "z49n2.json"
    spec.write_text(json.dumps({"ring": {"p": 7, "k": 2}, "n": 2}))
    out = tmp_path / "report.json"
    args = ["sweep", "--instance", str(spec), "--sample", "8", "--conjugation-samples", "10000"]
    assert main(args + ["--seed", "11", "--jobs", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "97809ec97785f0cd802865a35438f88efdab45a4ecdc96c802667edf98ad9f56"
    )


@pytest.mark.parametrize(
    "p, k, n, command, digest",
    [
        (2, 2, 2, "classes", "486a88642923db7d78cf27d48e1111f696f9cbad92123751521a5533ded8a74a"),
        (2, 2, 2, "nets", "92b56e0931ab625a09241e3dfc323da8e9741d43935dd4e6e14fb8abe86f9eaa"),
        (3, 1, 3, "classes", "6e5dcabad2e23767e0515d55b9e4e30347d84bd32e322078575caa7d4d376406"),
        (3, 1, 3, "nets", "15606893c30a935a63e25912e54eeb209d155ffebe65b3b800ff6842e8ba6a8a"),
    ],
    ids=["z4-classes", "z4-nets", "f3n3-classes", "f3n3-nets"],
)
def test_class_and_net_report_bytes_are_pinned(tmp_path, p, k, n, command, digest):
    """SHA-256s of the fixer-class and net-collection reports: the class
    grouping, its order and each class's fixer order, and the valid nets."""
    spec = tmp_path / "instance.json"
    spec.write_text(json.dumps({"ring": {"p": p, "k": k}, "n": n}))
    out = tmp_path / "report.json"
    assert main([command, "--instance", str(spec), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "g", [10**30, 0, True, 3.0, None], ids=["beyond-int64", "zero", "true", "float", "missing"]
)
def test_replay_rejects_sweep_rows_naming_no_gl_element(f7_spec, tmp_path, g):
    """A failing sweep row's g must be a JSON integer coding a GL element:
    10^30 is no overflow, 0 (the zero matrix) and true are no GL codes."""
    row = {"holds": False, "order": 36, "subgroup": "0" * 16}
    if g is not None:
        row["g"] = g
    report = tmp_path / "sweep.json"
    report.write_text(json.dumps({"rows": [row], "subgroups": {}}))
    assert main(["replay", "--report", str(report), "--instance", f7_spec]) == 2


def test_replay_rejects_reports_that_are_not_objects(f7_spec, tmp_path):
    report = tmp_path / "list.json"
    report.write_text("[]")
    assert main(["replay", "--report", str(report), "--instance", f7_spec]) == 2
    report.write_text(json.dumps({"rows": ["row"]}))
    assert main(["replay", "--report", str(report), "--instance", f7_spec]) == 2


@pytest.mark.parametrize(
    "subgroups", [None, {}, {"other": {"checks": []}}, "fp", {"fp": {"checks": "none"}}],
    ids=["missing", "empty", "other-fingerprint", "text", "checks-text"],
)
def test_replay_rejects_failing_rows_without_their_subgroup_checks(f7_spec, tmp_path, subgroups):
    """A failing sweep row whose g closes to its subgroup needs that
    subgroup's checks in the report: without them the replay is an input
    error (exit 2), not a crash."""
    from netgalois.glnr import Instance
    from netgalois.groups import coset_closure

    inst = Instance.from_json(read(f7_spec))
    g = int(inst.gl().codes[100])
    fp = coset_closure(inst, inst.diagonal(), [g]).fingerprint()
    if isinstance(subgroups, dict) and "fp" in subgroups:
        subgroups = {fp: subgroups["fp"]}
    data = {"rows": [{"g": g, "holds": False, "order": 36, "subgroup": fp}]}
    if subgroups is not None:
        data["subgroups"] = subgroups
    report = tmp_path / "sweep.json"
    report.write_text(json.dumps(data))
    assert main(["replay", "--report", str(report), "--instance", f7_spec]) == 2


@pytest.mark.slow
def test_z49_sweep_report_does_not_depend_on_jobs(tmp_path):
    """The sampled Z/49 sweep writes the same bytes with one worker and two."""
    spec = tmp_path / "z49n2.json"
    spec.write_text(json.dumps({"ring": {"p": 7, "k": 2}, "n": 2}))
    args = ["sweep", "--instance", str(spec), "--sample", "8", "--conjugation-samples", "10000"]
    outs = []
    for jobs in ("1", "2"):
        outs.append(tmp_path / f"jobs{jobs}.json")
        assert main(args + ["--seed", "7", "--jobs", jobs, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("t, reproduced", [(None, False)])
def test_replay_condition_10_witness_with_any_code(f7_spec, tmp_path, t, reproduced):
    """The witness claims t, a transvection of value y, lies outside <D, a>:
    a member of D does not."""
    a = 1 + 7 + 3 * 7**3  # [[1, 1], [0, 3]]
    if t is None:
        t = 2 + 3 * 7**3  # diag(2, 3)
    witness = {
        "condition": "10", "mode": "as_stated", "i": 0, "j": 1, "xs": [], "as": [a], "y": 0, "t": t
    }
    report = tmp_path / "cond10.json"
    report.write_text(json.dumps({"verdicts": [{"id": "10", "holds": False, "witness": witness}]}))
    rc = main(["replay", "--report", str(report), "--instance", f7_spec])
    assert rc == (0 if reproduced else 1)


@pytest.mark.parametrize("y", [0, 1])
def test_replay_condition_10_needs_t_in_the_transvection_set(f7_spec, tmp_path, y):
    """The swap matrix lies outside <D, a> but in no transvection set, so it
    reproduces no failure, whatever value y the witness claims."""
    a = 1 + 7 + 3 * 7**3  # [[1, 1], [0, 3]]
    swap = 7 + 7**2  # [[0, 1], [1, 0]]
    witness = {"condition": "10", "i": 0, "j": 1, "xs": [1], "as": [a], "y": y, "t": swap}
    report = write_witness_report(tmp_path / "cond10.json", witness)
    assert main(["replay", "--report", report, "--instance", f7_spec]) == 1


def write_witness_report(path, witness):
    verdict = {"id": witness["condition"], "holds": False, "witness": {"mode": "as_stated", **witness}}
    path.write_text(json.dumps({"verdicts": [verdict]}))
    return str(path)


F7_IDENTITY = 1 + 7**3


@pytest.mark.parametrize(
    "witness",
    [
        {"condition": "6", "f": 10**30, "g": F7_IDENTITY, "i": 0, "j": 1, "x": 1},
        {"condition": "6", "f": F7_IDENTITY + 7**4, "g": F7_IDENTITY, "i": 0, "j": 1, "x": 1},
        {"condition": "11", "a": 10**30, "i": 0, "j": 1, "x": 1},
        *(
            {"condition": "10", "i": 0, "j": 1, "xs": [], "as": [1 + 7 + 3 * 7**3], "y": 0, "t": t}
            for t in (99999999999, 10**30, -5, 0, 7**4)
        ),
    ],
    ids=[
        "cond6-beyond-int64", "cond6-beyond-code-range", "cond11-beyond-int64",
        "cond10-t-beyond-code-range", "cond10-t-beyond-int64", "cond10-t-negative",
        "cond10-t-singular", "cond10-t-at-code-range",
    ],
)
def test_replay_rejects_witness_codes_outside_gl(f7_spec, tmp_path, witness):
    """A witness matrix code naming no GL element is an input error, not an
    overflow, not its residue mod 7^4 (the identity here) and not a member
    outside every closure."""
    report = write_witness_report(tmp_path / "witness.json", witness)
    assert main(["replay", "--report", report, "--instance", f7_spec]) == 2


COND6 = {"condition": "6", "f": F7_IDENTITY, "g": F7_IDENTITY, "i": 0, "j": 1, "x": 1}
COND9 = {"condition": "9", "i": 0, "j": 1, "x": 1, "w": 2}
COND11 = {"condition": "11", "a": F7_IDENTITY, "i": 0, "j": 1, "x": 1}
COND3 = {"condition": "3", "a": F7_IDENTITY, "i": 0}
COND10 = {"condition": "10", "i": 0, "j": 1, "xs": [], "as": [F7_IDENTITY], "y": 0, "t": F7_IDENTITY}


def _edit(witness, **fields):
    """The witness with these fields set, or dropped where the value is None."""
    out = {**witness, **fields}
    return {k: v for k, v in out.items() if v is not None}


@pytest.mark.parametrize(
    "witness",
    [
        _edit(COND6, x=None),
        _edit(COND6, i=5),
        _edit(COND6, j=-1),
        _edit(COND6, x=10),
        _edit(COND6, f=None),
        _edit(COND9, w=None),
        _edit(COND9, w=10),
        _edit(COND9, j=2),
        _edit(COND9, i=True, j=0),
        _edit(COND11, i=None),
        _edit(COND11, x=1.0),
        _edit(COND11, j=7),
        _edit(COND3, i=None),
        _edit(COND3, i=2),
        _edit(COND10, **{"as": None}),
        _edit(COND10, **{"as": F7_IDENTITY}),
        _edit(COND10, t=None),
        _edit(COND10, y=None),
        _edit(COND10, xs=[10]),
        _edit(COND10, xs=1),
    ],
    ids=[
        "cond6-no-x", "cond6-i-5", "cond6-j-negative", "cond6-x-past-lattice", "cond6-no-f",
        "cond9-no-w", "cond9-w-past-lattice", "cond9-j-2", "cond9-i-true",
        "cond11-no-i", "cond11-x-float", "cond11-j-7", "cond3-no-i", "cond3-i-2",
        "cond10-no-as", "cond10-as-not-a-list", "cond10-no-t", "cond10-no-y",
        "cond10-xs-past-lattice", "cond10-xs-not-a-list",
    ],
)
def test_replay_rejects_witness_indices_out_of_range(f7_spec, tmp_path, witness):
    """A witness's i and j name atoms (range(2) on F7) and its x and w name
    lattice elements (range(10)); a condition-10 witness needs its lists of
    lattice indices xs and codes as, and its integer t and y: anything else
    is an input error, not a KeyError, a TypeError or an IndexError."""
    report = write_witness_report(tmp_path / "witness.json", witness)
    assert main(["replay", "--report", report, "--instance", f7_spec]) == 2


def test_replay_reads_valid_witness_codes(f7_spec, tmp_path):
    """Z/9's condition-11 witness (seed 3) still reproduces; an F7 condition-6
    witness naming the identity twice replays and shows no failure."""
    z9_spec = tmp_path / "z9n2.json"
    z9_spec.write_text(json.dumps({"ring": {"p": 3, "k": 2}, "n": 2}))
    cond11 = {"condition": "11", "a": 821, "h": 731, "i": 0, "j": 1, "t": 0, "x": 5}
    report = write_witness_report(tmp_path / "cond11.json", cond11)
    assert main(["replay", "--report", report, "--instance", str(z9_spec)]) == 0
    cond6 = {"condition": "6", "f": F7_IDENTITY, "g": F7_IDENTITY, "i": 0, "j": 1, "x": 1}
    report = write_witness_report(tmp_path / "cond6.json", cond6)
    assert main(["replay", "--report", report, "--instance", f7_spec]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["check-axioms", "--mode", "sampled", "--samples", "0"],
        ["check-axioms", "--mode", "sampled", "--samples", "-5"],
        ["sweep", "--conjugation-samples", "0"],
        ["sweep", "--conjugation-samples", "-1"],
        ["sandwich", "--subgroup", "unread.json", "--conjugation-samples", "0"],
    ],
    ids=["samples-0", "samples-negative", "sweep-0", "sweep-negative", "sandwich-0"],
)
def test_sample_counts_below_one_exit_2(f7_spec, args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--instance", f7_spec])
    assert exc.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


def test_check_axioms_samples_needs_sampled_mode(f2_spec, tmp_path, capsys):
    """`--samples` without `--mode sampled` exits 2 and writes no report;
    `--mode sampled` without `--samples` draws 200 outer elements."""
    out = tmp_path / "verdicts.json"
    args = ["check-axioms", "--instance", f2_spec, "--conditions", "3", "--out", str(out)]
    assert main(args + ["--samples", "25"]) == 2
    assert "--mode sampled" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--mode", "sampled", "--seed", "5"]) == 0
    assert [(v["exhaustive"], v["samples"]) for v in read(out)["verdicts"]] == [(False, 200)]


@pytest.mark.parametrize("spec", ["a-b", "1'-2", "5-3", "0-2", "1-13", ",", " , "])
def test_check_axioms_rejects_malformed_or_empty_condition_lists(spec, f2_spec, tmp_path, capsys):
    """A range that is not ascending numbered ids, or a list naming no
    condition, exits 2 with a message and writes no report."""
    out = tmp_path / "verdicts.json"
    args = ["check-axioms", "--instance", f2_spec, "--conditions", spec, "--out", str(out)]
    assert main(args) == 2
    assert "condition" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "p, k, n, digest",
    [
        (7, 2, 2, "0881ef24095383f1593b7e983b02fd0265cd83c28b1e9f7a954ff59264a65bed"),
        (2, 2, 3, "2af067df5573c19a4a7e851757196ebea0fb1fe7f668fbb43451fa17ba735315"),
        pytest.param(
            2, 3, 3, "9f697b54c8f25d97d371a404ae182434798dbd50851f8df3dcca7b58ecf8a247",
            marks=pytest.mark.slow,
        ),
    ],
    ids=["z49", "z4n3", "z8n3"],
)
def test_lattice_bytes_are_pinned(tmp_path, p, k, n, digest):
    """SHA-256s of `build --lattice-out`: labels, meet and join tables."""
    spec = tmp_path / "instance.json"
    spec.write_text(json.dumps({"ring": {"p": p, "k": k}, "n": n}))
    lat_out = tmp_path / "lattice.json"
    args = ["build", "--instance", str(spec), "--out", str(tmp_path / "report.json")]
    assert main(args + ["--lattice-out", str(lat_out)]) == 0
    assert hashlib.sha256(lat_out.read_bytes()).hexdigest() == digest


def test_cap_option(f7_spec, tmp_path, capsys):
    """`--cap` bounds every subcommand that closes or enumerates groups (|GL| =
    2016 on F7), and `build` and `support`, which do neither, reject it."""
    sub_path = str(tmp_path / "gl.json")
    with open(sub_path, "w") as fh:
        json.dump(
            {"schema_version": 1, "generators": [[[3, 0], [0, 1]], [[1, 0], [1, 1]], [[1, 1], [0, 1]]]},
            fh,
        )
    assert main(["sigma", "--instance", f7_spec, "--subgroup", sub_path, "--cap", "10"]) == 3
    for command in (["check-axioms"], ["classes"], ["sweep", "--jobs", "1"], ["nets"]):
        assert main(command + ["--instance", f7_spec, "--cap", "100"]) == 3, command
        assert "cap exhausted" in capsys.readouterr().err
    for command in (["build"], ["support", "--element", "1,1;0,0"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--instance", f7_spec, "--cap", "5"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sigma", "--instance", f7_spec, "--subgroup", sub_path, "--cap", "not-a-number"])
    assert exc.value.code == 2


def test_cap_is_the_users_in_every_group_subcommand(tmp_path, capsys):
    """|GL(3, F7)| = 33784128: sigma, sandwich, nets and replay refuse it
    under the user's cap, before they enumerate anything."""
    spec = tmp_path / "f7n3.json"
    spec.write_text(json.dumps({"ring": {"p": 7, "k": 1}, "n": 3}))
    gens = [[[3, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]]
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"schema_version": 1, "generators": gens}))
    failed = {"id": "sandwich_upper", "holds": False, "witness": None, "details": {}}
    sandwich = tmp_path / "sandwich.json"
    sandwich.write_text(
        json.dumps({"command": "sandwich", "seed": 0, "subgroup_generators": gens, "checks": [failed]})
    )
    for command in (
        ["sigma", "--subgroup", str(sub)],
        ["sandwich", "--subgroup", str(sub)],
        ["nets"],
        ["replay", "--report", str(sandwich)],
    ):
        assert main(command + ["--instance", str(spec), "--cap", "20000000"]) == 3, command
        assert "exceeds cap 20000000" in capsys.readouterr().err, command


def test_base_sublattice_past_the_class_bound_is_a_cap(tmp_path, capsys):
    """On Z/4 rank 3 the base sublattice has 79 elements, past the 32 whose
    sublattices are enumerated into fixer classes: `classes`, `sweep` and
    `sandwich` exit 3 and write no report."""
    spec = tmp_path / "z4n3.json"
    spec.write_text(json.dumps({"ring": {"p": 2, "k": 2}, "n": 3}))
    sub = tmp_path / "d.json"
    gens = [[[3, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 3, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 3]]]
    sub.write_text(json.dumps({"schema_version": 1, "generators": gens}))
    for command in (["classes"], ["sweep", "--sample", "2"], ["sandwich", "--subgroup", str(sub)]):
        out = tmp_path / "report.json"
        assert main(command + ["--instance", str(spec), "--out", str(out)]) == 3, command
        assert "79 elements exceeds bound 32" in capsys.readouterr().err, command
        assert not out.exists(), command


def readme_cli_lines() -> list[str]:
    """The `netgalois ...` lines of README's CLI block."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text[text.index("## CLI") :].split("```")[3]
    return [line for line in block.splitlines() if line.startswith("netgalois ")]


def test_readme_cli_lines_parse():
    """Every documented command line parses, optional parts (in brackets)
    included: a documented flag the parser no longer has would exit 2."""
    lines = readme_cli_lines()
    assert len(lines) == 9
    parser = build_parser()
    for line in lines:
        args = shlex.split(line.replace("[", " ").replace("]", " "))[1:]
        assert callable(parser.parse_args(args).func), line


def test_failed_serialisation_leaves_no_report(f7_spec, tmp_path, monkeypatch, capsys):
    """Reports and timing sidecars are serialised before their file opens
    (the CLI exits 3 on the MemoryError), and a value json cannot write
    raises json's TypeError."""

    def fail(obj):
        raise MemoryError("serialisation failed")

    monkeypatch.setattr(report, "canonical_json", fail)
    out = tmp_path / "nets.json"
    assert main(["nets", "--instance", f7_spec, "--out", str(out)]) == 3
    assert "out of memory: serialisation failed" in capsys.readouterr().err
    with pytest.raises(MemoryError):
        report.write_timings(str(out) + ".timings.json", {"nets_seconds": 1.0})
    monkeypatch.undo()
    with pytest.raises(TypeError, match="Object of type int64 is not JSON serializable"):
        report.write_report(out, {"rows": [{"g": 1}, {"g": np.int64(2)}]})
    assert list(tmp_path.iterdir()) == [tmp_path / "f7n2.json"]


def test_out_of_memory_exits_3_and_writes_no_report(f7_spec, tmp_path, monkeypatch, capsys):
    """A MemoryError is no verification failure (exit 1): the CLI exits 3,
    names it on stderr and writes no report."""

    def fail(instance):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(cli, "enumerate_net_collections", fail)
    out = tmp_path / "nets.json"
    assert main(["nets", "--instance", f7_spec, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "out of memory: Unable to allocate 8.00 GiB\n"
    assert not out.exists()


def test_reports_are_byte_deterministic(f7_spec, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for out in (a, b):
        assert main(["check-axioms", "--instance", f7_spec, "--conditions", "1-3", "--out", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_timing_sidecar_optional(f7_spec, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["build", "--instance", f7_spec, "--out", out, "--with-timings"]) == 0
    assert os.path.exists(out + ".timings.json")
