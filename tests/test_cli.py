import hashlib
import json
import os

import pytest

from netgalois.cli import main
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

    # a subgroup missing the diagonal part is rejected as input
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"schema_version": 1, "generators": [[[1, 0], [1, 1]]]}, fh)
    assert main(["sandwich", "--instance", f7_spec, "--subgroup", bad]) == 2


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


@pytest.mark.parametrize(
    "t, reproduced",
    [(99999999999, True), (10**30, True), (-5, True), (0, True), (7**4, True), (None, False)],
)
def test_replay_condition_10_witness_with_any_code(f7_spec, tmp_path, t, reproduced):
    """The witness claims t lies outside <D, a>: codes outside GL, even
    outside the code range, are outside it; a member of D is not."""
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
    ],
    ids=["cond6-beyond-int64", "cond6-beyond-code-range", "cond11-beyond-int64"],
)
def test_replay_rejects_witness_codes_outside_gl(f7_spec, tmp_path, witness):
    """A witness matrix code naming no GL element is an input error, not an
    overflow and not its residue mod 7^4 (the identity here)."""
    report = write_witness_report(tmp_path / "witness.json", witness)
    assert main(["replay", "--report", report, "--instance", f7_spec]) == 2


COND6 = {"condition": "6", "f": F7_IDENTITY, "g": F7_IDENTITY, "i": 0, "j": 1, "x": 1}
COND9 = {"condition": "9", "i": 0, "j": 1, "x": 1, "w": 2}
COND11 = {"condition": "11", "a": F7_IDENTITY, "i": 0, "j": 1, "x": 1}
COND3 = {"condition": "3", "a": F7_IDENTITY, "i": 0}
COND10 = {"condition": "10", "i": 0, "j": 1, "xs": [], "as": [F7_IDENTITY], "y": 0, "t": 5}


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
    ],
    ids=[
        "cond6-no-x", "cond6-i-5", "cond6-j-negative", "cond6-x-past-lattice", "cond6-no-f",
        "cond9-no-w", "cond9-w-past-lattice", "cond9-j-2", "cond9-i-true",
        "cond11-no-i", "cond11-x-float", "cond11-j-7", "cond3-no-i", "cond3-i-2",
        "cond10-no-as", "cond10-as-not-a-list", "cond10-no-t",
    ],
)
def test_replay_rejects_witness_indices_out_of_range(f7_spec, tmp_path, witness):
    """A witness's i and j name atoms (range(2) on F7) and its x and w name
    lattice elements (range(10)); a condition-10 witness needs its list of
    codes and its integer t: anything else is an input error, not a
    KeyError, a TypeError or an IndexError."""
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
