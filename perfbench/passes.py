"""One measured pass of a workload, run in a fresh interpreter.

    python3 perfbench/passes.py --workload f7-paper --seed 1 --out-dir DIR [--trace]

Imports netgalois from `src/` without installing it, sets the instance up
once (a cold set-up, as a CLI user waits for it), then runs the
verification steps in the order `cmd_check_axioms` and `cmd_sweep` use them
and writes each canonical report into DIR.  Prints one JSON line with the
timings (host-speed-normalised, see HostSpeed, with plain CPU and wall time
beside them), report paths and peak RSS; with --trace also the per-layer
metrics, and the spans go to DIR.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import signal
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import netgalois  # noqa: E402
from netgalois import axioms, cli, glnr, report, rings, sweep  # noqa: E402
from workloads import AXIOM_CONDITIONS, WORKLOADS  # noqa: E402


def set_up(spec: dict):
    instance = glnr.Instance(rings.RingSpec(*spec["ring"]), spec["n"])
    instance.gl(cap=spec["cap"])
    sweep.prewarm(instance, cap=spec["cap"])
    return instance


def write(path: pathlib.Path, rep: dict) -> str:
    report.write_report(path, cli.jsonable(rep))
    return str(path)


def reference_work() -> int:
    """A fixed piece of pure-Python work, 1-2 ms, whose CPU time
    gauges how fast the host runs this process at the moment."""
    acc = 0
    table = {}
    for i in range(8000):
        acc = (acc + i * 2654435761) % 1000003
        table[i & 255] = acc
    return acc + len(table)


class HostSpeed:
    """Host-speed-normalised CPU time of this process's main thread.

    A shared host runs the same code at speeds that drift by tens of
    percent within seconds (other tenants on the same cores and caches), and
    CPU time does not remove that.  So every PERIOD_S of CPU time a profiling
    signal runs `reference_work` and times it.  The CPU time since the last
    sample, minus the samples' own, is scaled by REFERENCE_S over that
    sample's time: it is the time the work would take on a host where
    `reference_work` takes REFERENCE_S.  `now()` takes a sample too, so that
    every interval read is covered.  The times are the main thread's CPU
    time: a pass runs one thread, and the process-wide CPU clock advances
    only in ticks while the profiling timer is armed.
    """

    PERIOD_S = 0.05
    REFERENCE_S = 0.0015

    def __init__(self) -> None:
        self.normalised = 0.0
        self.samples = 0
        self.sample_cpu = 0.0
        self._busy = False
        self._last = time.thread_time()
        signal.signal(signal.SIGPROF, lambda *_: self._sample())
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.thread_time()
        reference_work()
        t1 = time.thread_time()
        self.normalised += (t0 - self._last) * self.REFERENCE_S / max(t1 - t0, 1e-6)
        self.samples += 1
        self.sample_cpu += t1 - t0
        self._last = t1
        self._busy = False

    def now(self) -> float:
        self._sample()
        return self.normalised


class Clock:
    """Times one phase of a pass three ways: host-speed-normalised CPU time
    (the measured value, see HostSpeed), plain CPU time and wall time."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.norm = speed.now()
        self.cpu = time.thread_time()
        self.wall = time.perf_counter()

    def stop(self, result: dict, name: str) -> None:
        result[name] = self.speed.now() - self.norm
        result[name.replace("_s", "_cpu_s")] = time.thread_time() - self.cpu
        result[name.replace("_s", "_wall_s")] = time.perf_counter() - self.wall


def run_pass(
    workload: str, seed: int, out_dir: pathlib.Path, result: dict, speed: HostSpeed
) -> None:
    spec = WORKLOADS[workload]

    t_setup = Clock(speed)
    instance = set_up(spec)
    t_setup.stop(result, "setup_s")

    desc = instance.describe()
    t_verify = Clock(speed)
    if spec["axioms"]:
        verdicts = axioms.check_all(instance, conditions=list(AXIOM_CONDITIONS), seed=seed)
        rep = report.make_report(
            "check-axioms",
            desc,
            seed,
            report_only=False,
            mode="exhaustive",
            verdicts=[v.to_record() for v in verdicts],
            all_hold=all(v.holds for v in verdicts),
        )
        result["reports"]["axioms"] = write(out_dir / "axioms.json", rep)
    t_sweep = Clock(speed)
    payload = sweep.sweep_cyclic(
        instance,
        family="cyclic-over-D",
        sample=spec["sample"],
        seed=seed,
        jobs=1,
        cap=spec["cap"],
        conjugation_samples=spec["conjugation_samples"],
    )
    t_sweep.stop(result, "sweep_s")
    result["rows"] = payload["count"]
    rep = report.make_report("sweep", desc, seed, **payload)
    result["reports"]["sweep"] = write(out_dir / "sweep.json", rep)
    t_verify.stop(result, "verify_s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(netgalois)

    result = {"reports": {}, "error": None}
    speed = HostSpeed()
    try:
        run_pass(args.workload, args.seed, out_dir, result, speed)
    except Exception:  # reported to the parent, which fails the pass's operations
        result["error"] = traceback.format_exc()
    speed.stop()
    result["speed_samples"] = speed.samples
    result["speed_sample_cpu_s"] = speed.sample_cpu
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.save(out_dir / "spans.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
