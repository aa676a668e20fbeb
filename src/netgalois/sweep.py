"""Family sweeps: run the whole verification bundle over every subgroup
generated by the frame stabiliser plus one extra group element.

Distinct extra elements mostly generate the same handful of subgroups, so
closures are cached by double coset of the extra element and verifications
by subgroup fingerprint.  While GL has at most PERM_TABLE_LIMIT elements,
the first row's `double_coset_key` labels all of GL in one pass (one orbit
of D a D per double coset) and every row looks its label up; above it each
row enumerates its own D a D.  The exhaustive normality check conjugates
by one element per left coset of the canonical fixer.  Worker processes
fork after the parent prewarms the shared caches; results are merged in
extra-element order and per-check randomness is seeded from the subgroup
fingerprint, so reports are byte-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np

from .errors import InputError
from .glnr import enumerate_dnets, verified_net_subgroup, verify_sandwich
from .groups import coset_closure, double_coset_key, transvection_table
from .nets import (
    _sublattice_fixers,
    enumerate_net_collections,
    net_fixer,
)

FAMILIES = ("cyclic-over-D",)


def derived_seed(seed: int, fingerprint: str) -> int:
    return (int(seed) * 1_000_003 + int(fingerprint[:12], 16)) % (2**62)


def prewarm(instance, *, include_classes: bool = True, class_bound: int = 32, cap: int) -> None:
    """Populate every instance-wide cache the per-subgroup work will touch,
    so forked workers inherit them copy-on-write."""
    instance.gl(cap=cap)
    instance.diagonal()
    instance.l0_prime()
    for i in range(instance.n):
        for j in range(instance.n):
            if i != j:
                transvection_table(instance, i, j)
    for net in enumerate_net_collections(instance):
        net_fixer(instance, net, cap=cap)
    for dnet in enumerate_dnets(instance):
        verified_net_subgroup(instance, dnet, cap=cap)
    if include_classes:
        _sublattice_fixers(instance, bound=class_bound)


def verify_one(instance, g_code: int, opts: dict, closure_cache: dict, detail_cache: dict):
    """Row for one extra element; heavy work deduplicated through the caches."""
    dc_key = double_coset_key(instance, g_code)
    subgroup = closure_cache.get(dc_key)
    if subgroup is None:
        subgroup = coset_closure(instance, instance.diagonal(), [g_code], cap=opts["cap"])
        closure_cache[dc_key] = subgroup
    fp = subgroup.fingerprint()
    if fp not in detail_cache:
        checks = verify_sandwich(
            instance,
            subgroup,
            cap=opts["cap"],
            seed=derived_seed(opts["seed"], fp),
            conjugation_samples=opts["conjugation_samples"],
            include_classes=opts["include_classes"],
            class_bound=opts["class_bound"],
        )
        detail_cache[fp] = {"order": len(subgroup), "checks": checks}
    detail = detail_cache[fp]
    failed = [c["id"] for c in detail["checks"] if not c["holds"]]
    return (
        {"g": int(g_code), "order": detail["order"], "subgroup": fp, "holds": not failed},
        fp,
    )


_WORKER = {}


def _worker_chunk(codes):
    instance = _WORKER["instance"]
    opts = _WORKER["opts"]
    closure_cache: dict = {}
    detail_cache: dict = {}
    rows = []
    for code in codes:
        row, _ = verify_one(instance, code, opts, closure_cache, detail_cache)
        rows.append(row)
    return rows, detail_cache


def sweep_cyclic(
    instance,
    *,
    family: str = "cyclic-over-D",
    sample: int | None = None,
    seed: int = 0,
    jobs: int | None = None,
    cap: int = 10_000_000,
    conjugation_samples: int | None = None,
    include_classes: bool = True,
    class_bound: int = 32,
) -> dict:
    """Sweep payload: one row per extra element plus per-subgroup details."""
    if family not in FAMILIES:
        raise InputError(f"unknown sweep family {family!r}; known: {FAMILIES}")
    g = instance.gl(cap=cap)
    codes = g.codes
    if sample is not None:
        if not 0 < sample <= codes.size:
            raise InputError(f"sample size {sample} outside 1..{codes.size}")
        rng = np.random.default_rng(seed)
        codes = np.sort(rng.choice(codes, size=sample, replace=False))
    codes = [int(c) for c in codes.tolist()]

    opts = {
        "cap": cap,
        "seed": seed,
        "conjugation_samples": conjugation_samples,
        "include_classes": include_classes,
        "class_bound": class_bound,
    }
    prewarm(instance, include_classes=include_classes, class_bound=class_bound, cap=cap)

    jobs = jobs or os.cpu_count() or 1
    if jobs <= 1 or len(codes) < 4:
        closure_cache: dict = {}
        detail_cache: dict = {}
        rows = [verify_one(instance, c, opts, closure_cache, detail_cache)[0] for c in codes]
        details = detail_cache
    else:
        _WORKER["instance"] = instance
        _WORKER["opts"] = opts
        chunks = [codes[i::jobs] for i in range(jobs)]
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=jobs) as pool:
            results = pool.map(_worker_chunk, chunks)
        _WORKER.clear()
        by_g = {}
        details = {}
        for rows_part, detail_part in results:
            for row in rows_part:
                by_g[row["g"]] = row
            # verification is deterministic per fingerprint, so duplicates agree
            details.update(detail_part)
        rows = [by_g[c] for c in codes]

    return {
        "family": family,
        "sampled": sample,
        "count": len(rows),
        "all_hold": all(r["holds"] for r in rows),
        "rows": rows,
        "subgroups": {fp: detail for fp, detail in sorted(details.items())},
    }
