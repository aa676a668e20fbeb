"""Family sweeps: run the whole verification bundle over every subgroup
generated by the frame stabiliser plus one extra group element.

<D, g> depends only on the double coset D g D, so a sweep runs in four stages:
1. label every row with `double_coset_key`, in one batched call;
2. pick one representative per key: its first row in code order;
3. close <D, rep> once per representative (`verify_one`) and verify each new
   subgroup fingerprint once; the exhaustive normality check conjugates the
   canonical fixer's generators by one element per right coset fD of D in
   the subgroup;
4. emit the rows from the tables key -> fingerprint -> detail.
Worker processes fork after the parent prewarms the shared caches and take
representatives round-robin.  Each fingerprint keeps the detail of its
earliest representative in row order, which is what one process computes,
and per-check randomness is seeded from the fingerprint, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np

from .errors import InputError
from .glnr import DEFAULT_GL_CAP, enumerate_dnets, verified_net_subgroup, verify_sandwich
from .groups import coset_closure, double_coset_key, transvection_table
from .nets import _fixer_classes, enumerate_net_collections, net_fixer

FAMILIES = ("cyclic-over-D",)


def derived_seed(seed: int, fingerprint: str) -> int:
    return (int(seed) * 1_000_003 + int(fingerprint[:12], 16)) % (2**62)


def prewarm(instance, *, cap: int) -> None:
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
        net_fixer(instance, net)
    for dnet in enumerate_dnets(instance):
        verified_net_subgroup(instance, dnet)
    _fixer_classes(instance)


def verify_one(instance, g_code: int, opts: dict, details: dict) -> str:
    """Fingerprint of <D, g>; verifies it into `details` when it is new there."""
    subgroup = coset_closure(instance, instance.diagonal(), [g_code])
    fp = subgroup.fingerprint()
    if fp not in details:
        checks = verify_sandwich(
            instance,
            subgroup,
            seed=derived_seed(opts["seed"], fp),
            conjugation_samples=opts["conjugation_samples"],
        )
        details[fp] = {"order": len(subgroup), "checks": checks}
    return fp


_WORKER = {}


def _worker_chunk(reps):
    details: dict = {}
    fps = [verify_one(_WORKER["instance"], rep, _WORKER["opts"], details) for rep in reps]
    return fps, details


def sweep_cyclic(
    instance,
    *,
    family: str = "cyclic-over-D",
    sample: int | None = None,
    seed: int = 0,
    jobs: int | None = None,
    cap: int = DEFAULT_GL_CAP,
    conjugation_samples: int | None = None,
) -> dict:
    """Sweep payload: one row per extra element plus per-subgroup details."""
    if family not in FAMILIES:
        raise InputError(f"unknown sweep family {family!r}; known: {FAMILIES}")
    instance.gl(cap=cap)
    codes = instance.gl_codes
    if sample is not None:
        if not 0 < sample <= codes.size:
            raise InputError(f"sample size {sample} outside 1..{codes.size}")
        rng = np.random.default_rng(seed)
        codes = np.sort(rng.choice(codes, size=sample, replace=False))
    codes = [int(c) for c in codes.tolist()]

    opts = {"seed": seed, "conjugation_samples": conjugation_samples}
    prewarm(instance, cap=cap)

    keys = double_coset_key(instance, codes)
    _, firsts, label = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(firsts)  # labels by first row
    reps = [codes[i] for i in firsts[order].tolist()]

    # no more workers than representatives: a worker without one would idle
    jobs = 1 if len(reps) < 4 else min(len(reps), max(1, jobs or os.cpu_count() or 1))
    _WORKER.update(instance=instance, opts=opts)
    try:
        if jobs == 1:
            results = [_worker_chunk(reps)]
        else:
            with mp.get_context("fork").Pool(processes=jobs) as pool:
                results = pool.map(_worker_chunk, [reps[i::jobs] for i in range(jobs)])
    finally:
        _WORKER.clear()
    # worker r % jobs verified representative r; its detail for fp comes from
    # its earliest representative of fp, so the first one in representative
    # order is the detail one job computes
    fps = [results[r % jobs][0][r // jobs] for r in range(len(reps))]
    details = {}
    for r, fp in enumerate(fps):
        details.setdefault(fp, results[r % jobs][1][fp])
    per_label = {}
    for k, fp in zip(order.tolist(), fps):
        holds = all(c["holds"] for c in details[fp]["checks"])
        per_label[k] = {"order": details[fp]["order"], "subgroup": fp, "holds": holds}
    rows = [{"g": code, **per_label[k]} for code, k in zip(codes, label.tolist())]

    return {
        "family": family,
        "sampled": sample,
        "count": len(rows),
        "all_hold": all(r["holds"] for r in rows),
        "rows": rows,
        "subgroups": {fp: detail for fp, detail in sorted(details.items())},
    }
