"""Command-line entry point.

Subcommands build instances, run the axiom checkers, compute supports and
transvection ideals, verify the sandwich description for one subgroup or a
whole family sweep, enumerate net collections and equivalence classes, and
replay recorded failure witnesses.

Exit codes: 0 all asserted checks pass, 1 verification failure, 2 bad
input/usage, 3 |GL| or another enumeration exceeds its cap.  Exits 0 and 1
write the report, whose bytes depend only on inputs and seed; exits 2 and 3
write none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .axioms import CONDITION_IDS, PRIME_IDS, check_all, replay_witness
from .errors import CapExceeded, InputError
from .glnr import DEFAULT_GL_CAP, Instance, bridge_to_dnet, enumerate_dnets, verify_sandwich
from .groups import Subgroup, close_subgroup, coset_closure, double_coset_key, gl_code_list
from .lattice import FiniteLattice, pentagon
from .nets import (
    CLASS_BOUND,
    all_fixer_classes,
    canonical_sublattice,
    enumerate_net_collections,
    net_fixer,
    transvection_ideals,
)
from .report import canonical_json, make_report, summarize_checks, write_report, write_timings
from .sweep import derived_seed, sweep_cyclic

AXIOM_SAMPLES = 200  # outer elements `check-axioms --mode sampled` draws by default


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so reports serialize cleanly."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _load_instance(args) -> Instance:
    """The instance, with GL enumerated under `--cap` where the subcommand has it:
    every group the subcommands relate lies in GL, so this is the only cap check."""
    instance = Instance.from_json(_load_json(args.instance))
    if "cap" in args:
        instance.gl(cap=args.cap)
    return instance


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from exc


def _emit(args, report: dict, timings: dict | None = None) -> None:
    report = jsonable(report)
    if args.out:
        write_report(args.out, report)
        if getattr(args, "with_timings", False) and timings is not None:
            write_timings(args.out + ".timings.json", timings)
    else:
        sys.stdout.write(canonical_json(report))


# -- subcommands --------------------------------------------------------------


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    instance = _load_instance(args)
    lat = instance.lattice
    if args.lattice_out:
        write_report(args.lattice_out, lat.to_json())
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(lat.to_dot())
    modular, witness = lat.is_modular()
    ok_bool, atoms = instance.frame.l0.is_boolean()
    report = make_report(
        "build",
        instance.describe(),
        None,
        lattice={
            "n_elements": len(lat),
            "modular": modular,
            "modularity_witness": witness,
            "atom_labels": [lat.labels[a] for a in instance.atoms],
            "atom_height": instance.frame.m,
            "frame_boolean": ok_bool,
            "componentwise_span_size": len(instance.frame.lbar0),
            "base_sublattice_size": len(instance.l0_prime().members),
        },
    )
    _emit(args, report, {"build_seconds": time.perf_counter() - t0})
    print(
        f"built Z/{instance.modulus} rank {instance.n}: {len(lat)} submodules, "
        f"atom height {instance.frame.m}, modular={modular}"
    )
    return 0 if modular else 1


def cmd_support(args) -> int:
    instance = _load_instance(args)
    x = instance.element_by_label(args.element)
    sup = instance.frame.support(x)
    labels = instance.lattice.labels
    parts = [labels[p] for p in sup.parts]
    report = make_report(
        "support",
        instance.describe(),
        None,
        element=args.element,
        support=parts,
        componentwise=bool(instance.frame.lbar0_membership(x)[0]),
    )
    _emit(args, report)
    print(f"support({args.element}) = ({', '.join(parts)})")
    return 0


def _parse_conditions(spec: str) -> list[str]:
    """Condition ids from a comma list of ids and ascending ranges lo-hi of
    numbered conditions; a malformed range or an empty list is an `InputError`."""
    out: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part and not part.endswith("'"):
            lo, hi = (p.strip() for p in part.split("-", 1))
            if not {lo, hi} <= set(CONDITION_IDS) or int(lo) > int(hi):
                raise InputError(f"condition range {part!r} needs ascending ids in 1-12")
            out.extend(str(i) for i in range(int(lo), int(hi) + 1))
        elif part in CONDITION_IDS or part in PRIME_IDS:
            out.append(part)
        else:
            raise InputError(f"unknown condition {part!r}")
    if not out:
        raise InputError(f"--conditions {spec!r} names no condition")
    return out


def cmd_check_axioms(args) -> int:
    if args.mode == "exhaustive" and args.samples is not None:
        raise InputError("--samples draws outer elements for --mode sampled only")
    instance = _load_instance(args)
    conditions = _parse_conditions(args.conditions) if args.conditions else None
    samples = None
    if args.mode == "sampled":
        samples = AXIOM_SAMPLES if args.samples is None else args.samples
    verdicts = check_all(instance, conditions=conditions, seed=args.seed, samples=samples)
    records = [v.to_record() for v in verdicts]
    all_hold = all(v.holds for v in verdicts)
    report = make_report(
        "check-axioms",
        instance.describe(),
        args.seed,
        report_only=bool(args.report_only),
        mode=args.mode,
        verdicts=records,
        all_hold=all_hold,
    )
    timings = {v.id + "/" + v.mode: v.elapsed for v in verdicts}
    _emit(args, report, timings)
    for v in verdicts:
        scope = "exhaustive" if v.exhaustive else f"sampled({v.samples})"
        print(f"condition {v.id:>3} [{v.mode}] {scope}: {'holds' if v.holds else 'FAILS'}")
    if args.report_only:
        return 0
    return 0 if all_hold else 1


def cmd_sigma(args) -> int:
    instance = _load_instance(args)
    subgroup = Subgroup.from_json(instance, _load_json(args.subgroup))
    sigma = transvection_ideals(instance, subgroup)
    k_handle = canonical_sublattice(instance, sigma)
    gk = net_fixer(instance, sigma)
    labels = instance.lattice.labels
    report = make_report(
        "sigma",
        instance.describe(),
        None,
        subgroup_order=len(subgroup),
        sigma=sigma.to_json()["tau"],
        dnet=bridge_to_dnet(instance, sigma).levels.tolist(),
        canonical_sublattice=[labels[x] for x in k_handle.members],
        canonical_fixer_order=len(gk),
    )
    _emit(args, report)
    print(f"|F| = {len(subgroup)}, |G(K)| = {len(gk)}, index {len(subgroup)//len(gk)}")
    return 0


def cmd_sandwich(args) -> int:
    t0 = time.perf_counter()
    instance = _load_instance(args)
    subgroup = Subgroup.from_json(instance, _load_json(args.subgroup))
    checks = verify_sandwich(
        instance, subgroup, seed=args.seed, conjugation_samples=args.conjugation_samples
    )
    summary = summarize_checks(checks)
    report = make_report(
        "sandwich",
        instance.describe(),
        args.seed,
        subgroup_order=len(subgroup),
        subgroup_generators=[
            instance.mat_of_code(c).tolist() for c in subgroup.generator_codes
        ],
        checks=checks,
        summary=summary,
    )
    _emit(args, report, {"verify_seconds": time.perf_counter() - t0})
    for c in checks:
        print(f"  {c['id']}: {'pass' if c['holds'] else 'FAIL'}")
    return 0 if not summary["failed"] else 1


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    instance = _load_instance(args)
    payload = sweep_cyclic(
        instance,
        family=args.family,
        sample=args.sample,
        seed=args.seed,
        jobs=args.jobs,
        conjugation_samples=args.conjugation_samples,
    )
    report = make_report("sweep", instance.describe(), args.seed, **payload)
    _emit(args, report, {"sweep_seconds": time.perf_counter() - t0})
    print(
        f"swept {payload['count']} subgroups "
        f"({len(payload['subgroups'])} distinct): "
        f"{'all hold' if payload['all_hold'] else 'FAILURES PRESENT'}"
    )
    return 0 if payload["all_hold"] else 1


def cmd_nets(args) -> int:
    instance = _load_instance(args)
    valid = enumerate_net_collections(instance)
    labels = instance.lattice.labels
    rows = []
    for net in valid:
        fx = net_fixer(instance, net)
        rows.append(
            {
                "tau": [[labels[x] for x in row] for row in net.tau.tolist()],
                "dnet": bridge_to_dnet(instance, net).levels.tolist(),
                "fixer_order": len(fx),
                "canonical_sublattice": [
                    labels[x] for x in canonical_sublattice(instance, net).members
                ],
            }
        )
    report = make_report(
        "nets",
        instance.describe(),
        None,
        count=len(valid),
        dnet_candidates=len(enumerate_dnets(instance)),
        nets=rows,
    )
    _emit(args, report)
    print(f"{len(valid)} valid net collections; fixer orders {sorted(r['fixer_order'] for r in rows)}")
    return 0


def cmd_classes(args) -> int:
    instance = _load_instance(args)
    classes = all_fixer_classes(instance, bound=args.bound)
    # K(net) lies in the class of its fixer, the net fixer
    nets = enumerate_net_collections(instance)
    canonical = {canonical_sublattice(instance, net).members for net in nets}
    labels = instance.lattice.labels
    rows = []
    for cls in sorted(classes, key=lambda c: len(c.common_fixer)):
        members = sorted(cls.representatives, key=lambda h: (len(h.members), h.members))
        sizes = [len(h.members) for h in members]
        maximal = members[-1]
        minimal_size = min(sizes)
        canon = [h for h in members if h.members in canonical]
        rows.append(
            {
                "fixer_order": len(cls.common_fixer),
                "class_size": len(members),
                "members": [[labels[x] for x in h.members] for h in members],
                "maximal": [labels[x] for x in maximal.members],
                "canonical": [[labels[x] for x in h.members] for h in canon],
                "canonical_is_minimal": bool(
                    canon and len(canon[0].members) == minimal_size
                ),
            }
        )
    report = make_report("classes", instance.describe(), None, classes=rows)
    _emit(args, report)
    for r in rows:
        tag = ""
        if r["canonical"] and not r["canonical_is_minimal"]:
            tag = "  <- canonical member is not minimal in its class"
        print(f"fixer order {r['fixer_order']:>8}: {r['class_size']} sublattices{tag}")
    return 0


def cmd_replay(args) -> int:
    data = _load_json(args.report)
    if not isinstance(data, dict):
        raise InputError(f"report {args.report} is not a JSON object")
    instance = _load_instance(args) if args.instance else None
    reproduced, missing, total = 0, 0, 0

    def try_replay(witness) -> bool | None:
        if not isinstance(witness, dict):
            return None
        if witness.get("kind") == "modularity":
            lat = (
                pentagon()
                if witness.get("lattice") == "pentagon"
                else FiniteLattice.from_json(witness["lattice"])
            )
            return lat.modularity_witness_fails(tuple(witness["triple"]))
        if "condition" in witness:
            if instance is None:
                raise InputError("condition witnesses need --instance")
            return replay_witness(instance, witness)
        return None

    def reverify_subgroup(subgroup, seed, failed_ids) -> bool:
        again = verify_sandwich(instance, subgroup, seed=seed)
        return failed_ids <= {c["id"] for c in again if not c["holds"]}

    pools = []
    if isinstance(data.get("verdicts"), list):
        pools.extend(v for v in data["verdicts"] if not v.get("holds", True))
    if isinstance(data.get("checks"), list):
        failed_ids = {c["id"] for c in data["checks"] if not c.get("holds", True)}
        if failed_ids and data.get("subgroup_generators"):
            if instance is None:
                raise InputError("subgroup check witnesses need --instance")
            gens = [instance.code_of_mat(np.asarray(g)) for g in data["subgroup_generators"]]
            subgroup = close_subgroup(instance, gens)
            total += 1
            if reverify_subgroup(subgroup, data.get("seed") or 0, failed_ids):
                reproduced += 1
        else:
            pools.extend(c for c in data["checks"] if not c.get("holds", True))
    rows = data["rows"] if isinstance(data.get("rows"), list) else []
    if not all(isinstance(r, dict) for r in rows):
        raise InputError("every sweep row must be a JSON object")
    failing = [r for r in rows if not r.get("holds", True)]
    if failing:
        if instance is None:
            raise InputError("sweep rows need --instance")
        # <D, g> depends only on D g D: one closure per key, one re-verification
        # per subgroup, and a row only counts when its g closes to its subgroup
        codes = gl_code_list(instance, [r.get("g") for r in failing])
        keys = double_coset_key(instance, codes).tolist()
        closures, again = {}, {}
        for row, code, key in zip(failing, codes, keys):
            if key not in closures:
                closures[key] = coset_closure(instance, instance.diagonal(), [code])
            fp = closures[key].fingerprint()
            total += 1
            if fp != row.get("subgroup"):
                continue
            if fp not in again:
                subgroups = data.get("subgroups")
                detail = subgroups.get(fp) if isinstance(subgroups, dict) else None
                checks = detail.get("checks") if isinstance(detail, dict) else None
                if not isinstance(checks, list) or not all(isinstance(c, dict) for c in checks):
                    raise InputError(f"the report lists no checks for subgroup {fp}")
                failed_ids = {c.get("id") for c in checks if not c.get("holds", True)}
                seed = derived_seed(data.get("seed") or 0, fp)
                again[fp] = reverify_subgroup(closures[key], seed, failed_ids)
            reproduced += again[fp]
    for rec in pools:
        outcome = try_replay(rec.get("witness"))
        total += 1
        if outcome is None:
            missing += 1
        elif outcome:
            reproduced += 1
    print(f"replayed {total} failure witnesses: {reproduced} reproduced, {missing} not replayable")
    if total == 0:
        print("report contains no failures to replay")
        return 0
    return 0 if reproduced == total - missing and missing < total else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgalois",
        description=__doc__.split("\n\n")[0] if __doc__ else None,
    )
    parser.add_argument("--version", action="version", version=f"netgalois {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, cap=True):
        p.add_argument("--instance", required=True, help="instance spec JSON (ring + rank)")
        p.add_argument("--out", help="write the report JSON here instead of stdout")
        if cap:
            p.add_argument(
                "--cap", type=int, default=DEFAULT_GL_CAP, help="largest |GL| to enumerate"
            )
        p.add_argument(
            "--with-timings",
            action="store_true",
            help="also write a (non-deterministic) timing sidecar next to --out",
        )
        if seed:
            p.add_argument(
                "--seed", type=_nonnegative_int, default=0, help="seed for sampled modes"
            )

    p = sub.add_parser("build", help="build an instance and summarise its lattice")
    common(p, cap=False)
    p.add_argument("--lattice-out", help="export the lattice tables as JSON")
    p.add_argument("--dot-out", help="export the Hasse diagram in DOT format")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("support", help="support tuple of one lattice element")
    common(p, cap=False)
    p.add_argument("--element", required=True, help="canonical element label")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("check-axioms", help="run the condition checkers")
    common(p, seed=True)
    p.add_argument("--conditions", help="e.g. 1-12 or 1,2,7 or 1'-style ids")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument(
        "--samples",
        type=_positive_int,
        help=f"outer elements drawn by --mode sampled (default {AXIOM_SAMPLES})",
    )
    p.add_argument(
        "--report-only",
        action="store_true",
        help="emit verdicts without asserting them (exit 0 regardless)",
    )
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("sigma", help="transvection ideals of a subgroup")
    common(p)
    p.add_argument("--subgroup", required=True, help="subgroup generators JSON")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("sandwich", help="verify the sandwich description for one subgroup")
    common(p, seed=True)
    p.add_argument("--subgroup", required=True, help="subgroup generators JSON")
    p.add_argument("--conjugation-samples", type=_positive_int, default=None)
    p.set_defaults(func=cmd_sandwich)

    p = sub.add_parser("sweep", help="verify every subgroup of a generation family")
    common(p, seed=True)
    p.add_argument("--family", default="cyclic-over-D")
    p.add_argument("--sample", type=int, default=None, help="sample this many extra elements")
    p.add_argument("--jobs", type=_jobs_arg, default=None, help="worker processes (or 'max')")
    p.add_argument("--conjugation-samples", type=_positive_int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nets", help="enumerate valid net collections")
    common(p)
    p.set_defaults(func=cmd_nets)

    p = sub.add_parser("classes", help="equivalence classes of sublattices by fixer")
    common(p)
    p.add_argument("--bound", type=int, default=CLASS_BOUND)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("replay", help="re-run the failure witnesses of a report")
    p.add_argument("--report", required=True)
    p.add_argument("--instance", help="instance spec JSON, for condition witnesses")
    p.add_argument("--cap", type=int, default=DEFAULT_GL_CAP, help="largest |GL| to enumerate")
    p.set_defaults(func=cmd_replay)

    return parser


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return count


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"{value} is not a non-negative integer")
    return number


def _jobs_arg(value: str) -> int:
    if value == "max":
        return os.cpu_count() or 1
    return _positive_int(value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
