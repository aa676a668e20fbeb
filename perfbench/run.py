"""Verification benchmark for netgalois.

    python3 perfbench/run.py --workload f7-paper --seed 1 --seconds 30 --trace 0

Runs measured passes of one workload (see workloads.py), each in a fresh
interpreter with one worker, until --seconds have passed (at least one pass).
The timings are CPU seconds normalised to a reference host speed (see
passes.HostSpeed).
Every report a pass writes is checked for correctness and its SHA-256 must
match the other passes of the run and any earlier correct run of the same
workload and seed, with the same sources, in this checkout.  With --trace 1 one untraced pass is followed by
one traced pass, and the per-layer metrics of the traced pass are printed,
with the tracing overhead.

Human-readable lines go to stderr; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Exits 2
without a result when the netgalois sources or the workload are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
HASH_FILE = HERE / ".state" / "report_sha256.json"
TIME_LIMIT_S = 170.0
# One thread per pass: the timings are built from the CPU time of the pass's
# main thread (see passes.HostSpeed), which must do all the work.
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, check_reports  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("total_s", "s"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_pass(workload: str, seed: int, out_dir: pathlib.Path, trace: bool, timeout: float) -> dict:
    """One pass in a child interpreter; a crash or timeout becomes an error."""
    cmd = [
        sys.executable,
        str(HERE / "passes.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--out-dir",
        str(out_dir),
    ] + (["--trace"] if trace else [])
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREAD},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {timeout:.0f}s", "reports": {}, "wall_s": timeout}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"pass exited {proc.returncode} without a result", "reports": {}}
    result["wall_s"] = time.monotonic() - t0
    return result


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def code_digest() -> str:
    """SHA-256 of the library sources and the workload definitions, so that
    report digests are compared only between runs of the same code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "netgalois").rglob("*.py"))
    for path in files + [HERE / "workloads.py", HERE / "passes.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_determinism(workload: str, seed: int, passes: list[dict], known: dict) -> list[str]:
    """Reports of one seed must be byte-identical across passes and runs.
    `known` maps report keys to digests; reports not seen before are added."""
    problems = []
    for p in passes:
        for kind, path in sorted(p["reports"].items()):
            key = f"{workload} seed={seed} {kind}"
            digest = sha256(path)
            if known.setdefault(key, digest) != digest:
                problems.append(f"{kind} report differs from an earlier one of seed {seed}")
    return problems


def end_to_end(passes: list[dict]) -> dict:
    setup = statistics.median(p["setup_s"] for p in passes)
    verify = statistics.median(p["verify_s"] for p in passes)
    return {
        "setup_s": setup,
        "verify_s": verify,
        "total_s": setup + verify,
        "rows_per_s": statistics.median(p["rows"] / p["sweep_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "netgalois" / "__init__.py").is_file():
        log(f"netgalois sources not found under {ROOT / 'src'}")
        return 2
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
        return 2

    import numpy

    log(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )
    begin = time.monotonic()
    out_root = OUT_DIR / args.workload
    shutil.rmtree(out_root, ignore_errors=True)

    passes: list[dict] = []
    while True:
        elapsed = time.monotonic() - begin
        if passes:
            room = TIME_LIMIT_S - elapsed
            if args.trace or elapsed >= args.seconds or room < 1.2 * passes[-1]["wall_s"]:
                break
        p = run_pass(
            args.workload, args.seed, out_root / f"pass{len(passes)}", False,
            TIME_LIMIT_S - elapsed,
        )
        passes.append(p)
        if p.get("error"):
            break
    traced = None
    if args.trace and not passes[-1].get("error"):
        elapsed = time.monotonic() - begin
        traced = run_pass(
            args.workload, args.seed, out_root / "traced", True, TIME_LIMIT_S - elapsed
        )

    attempted = failed = 0
    problems: list[str] = []
    everything = passes + ([traced] if traced else [])
    for k, p in enumerate(everything):
        a, f, found = check_reports(args.workload, p["reports"])
        attempted += a
        failed += f
        if p.get("error"):
            problems.append(f"pass {k}: {p['error'].strip().splitlines()[-1]}")
            log(p["error"])
        problems += [f"pass {k}: {x}" for x in found]
        rss_cap = WORKLOADS[args.workload]["expect"].get("max_rss_mb")
        if rss_cap and p.get("peak_rss_mb", 0) > rss_cap:
            problems.append(f"pass {k}: peak RSS {p['peak_rss_mb']:.0f} MB over {rss_cap} MB")
    state = json.loads(HASH_FILE.read_text()) if HASH_FILE.is_file() else {}
    known = state.setdefault(code_digest(), {})
    problems += check_determinism(args.workload, args.seed, everything, known)

    ok = [p for p in passes if not p.get("error")]
    if args.trace:
        if traced is None or traced.get("error"):
            metrics_raw = {}
        else:
            metrics_raw = dict(traced["layers"])
            plain = end_to_end(ok)["total_s"]
            with_trace = end_to_end([traced])["total_s"]
            metrics_raw["trace.overhead_s"] = with_trace - plain
            metrics_raw["trace.overhead_ratio"] = (with_trace - plain) / plain
        wanted = PER_LAYER + TRACE_METRICS
    else:
        metrics_raw = end_to_end(ok) if ok else {}
        wanted = END_TO_END
    if len(metrics_raw) < len(wanted):
        problems.append("no successful pass to measure")
    correct = not problems and failed == 0
    if correct:  # only a correct run may set the reference digests
        HASH_FILE.parent.mkdir(exist_ok=True)
        HASH_FILE.write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")

    metrics = {
        name: {"value": metrics_raw.get(name, 0), "unit": unit} for name, unit in wanted
    }
    for p in everything:
        log(f"pass: wall {p['wall_s']:.2f}s, {p.get('speed_samples')} speed samples")
        for kind in ("", "_cpu", "_wall"):
            log("  " + " ".join(f"{s}{kind}_s={p.get(f'{s}{kind}_s')}" for s in ("setup", "verify", "sweep")))
    for name, m in metrics.items():
        log(f"{name} = {m['value']} {m['unit']}")
    log(f"fail_frac = {failed / attempted if attempted else 1.0} ({failed} of {attempted})")
    for msg in problems:
        log(f"PROBLEM: {msg}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
