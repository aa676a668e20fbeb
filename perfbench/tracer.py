"""Span tracing of the netgalois layers from outside the library.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (name, start, end, parent) in memory.  Functions are rebound in every
`netgalois.*` module namespace that holds them, because several modules bind
names with `from .x import y`; methods are replaced on their class.  Some
wrappers also add counts derived from argument and result shapes (matrices
multiplied, conjugated pairs, cosets visited, report bytes).

`Tracer.layer_metrics()` turns the spans into the per-layer metrics named in
`PER_LAYER`: call counts, inclusive time (`.s`, nested calls of the same name
counted once), self time (`.self_s`, duration minus the time covered by child
spans) and the derived counts.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name).  The span name is the metric prefix.
TRACED = [
    ("rings", "mat_mul", "rings.mat_mul"),
    ("rings", "pack_matrices", "rings.pack_matrices"),
    ("rings", "pack_vectors", "rings.pack_vectors"),
    ("rings", "howell_form", "rings.howell_form"),
    ("rings", "det_batch", "rings.det_batch"),
    ("lattice", "FiniteLattice.enumerate_sublattices", "lattice.enumerate_sublattices"),
    ("frame", "Frame.support", "frame.support"),
    ("glnr", "Instance.__init__", "glnr.Instance.init"),
    ("glnr", "Instance.gl", "glnr.Instance.gl"),
    ("glnr", "Instance.act_batch", "glnr.Instance.act_batch"),
    ("glnr", "Instance.perm", "glnr.Instance.perm"),
    ("glnr", "verified_net_subgroup", "glnr.verified_net_subgroup"),
    ("glnr", "verify_sandwich", "glnr.verify_sandwich"),
    ("groups", "conjugation_closure_check", "groups.conjugation_closure_check"),
    ("groups", "conjugate_codes", "groups.conjugate_codes"),
    ("groups", "Subgroup.contains_many", "groups.Subgroup.contains_many"),
    ("groups", "double_coset_key", "groups.double_coset_key"),
    ("groups", "coset_closure", "groups.coset_closure"),
    ("groups", "Subgroup.fingerprint", "groups.Subgroup.fingerprint"),
    ("groups", "Subgroup.gl_mask", "groups.Subgroup.gl_mask"),
    ("groups", "same_transvections", "groups.same_transvections"),
    ("groups", "normalizes", "groups.normalizes"),
    ("groups", "is_normal_in", "groups.is_normal_in"),
    ("groups", "transvection_table", "groups.transvection_table"),
    ("groups", "fixer", "groups.fixer"),
    ("groups", "fixes_mask", "groups.fixes_mask"),
    ("nets", "verify_intermediate_subgroup", "nets.verify_intermediate_subgroup"),
    ("nets", "transvection_ideals", "nets.transvection_ideals"),
    ("nets", "stable_lbar0", "nets.stable_lbar0"),
    ("nets", "all_fixer_classes", "nets.all_fixer_classes"),
    ("nets", "fixer_class", "nets.fixer_class"),
    ("nets", "net_fixer", "nets.net_fixer"),
    ("nets", "enumerate_net_collections", "nets.enumerate_net_collections"),
    ("nets", "is_net_collection", "nets.is_net_collection"),
    ("axioms", "check_all", "axioms.check_all"),
    ("axioms", "check_condition", "axioms.check_condition"),
    ("sweep", "prewarm", "sweep.prewarm"),
    ("sweep", "sweep_cyclic", "sweep.sweep_cyclic"),
    ("sweep", "verify_one", "sweep.verify_one"),
    ("report", "canonical_json", "report.canonical_json"),
]

# The seventeen verdicts of the exhaustive axiom suite, as metric stems.
AXIOM_VERDICTS = (
    [f"cond_{i}" for i in (1, 2, 3)]
    + ["cond_4_weak", "cond_4_strong"]
    + [f"cond_{i}" for i in range(5, 13)]
    + [f"cond_{i}p" for i in range(1, 5)]
)

# Every per-layer metric the traced run emits, with the end-to-end metric it
# should move and the workloads where it should move it.  Entries the layer
# map puts on f11-sweep also name f7-paper, whose sweep runs the same code
# and which BENCHMARK.json lists (f11-sweep is not in it, see README.md).
# This list is the single source of the layer -> metric -> workload map.
F7, F11, Z49 = "f7-paper", "f11-sweep", "z49-chain"
LAYER_MAP = [
    ("rings.mat_mul.calls", "count", "rows_per_s", (F11, F7)),
    ("rings.mat_mul.s", "s", "rows_per_s", (F11, F7)),
    ("rings.mat_mul.mats", "count", "rows_per_s", (F11, F7)),
    ("rings.mat_mul.bytes", "bytes", "rows_per_s", (F11, F7)),
    ("rings.pack_matrices.s", "s", "rows_per_s", (F11, F7)),
    ("rings.pack_vectors.s", "s", "rows_per_s", (F11, F7)),
    ("rings.howell_form.calls", "count", "setup_s", (Z49,)),
    ("rings.howell_form.s", "s", "setup_s", (Z49,)),
    ("rings.det_batch.s", "s", "setup_s", (Z49,)),
    ("lattice.enumerate_sublattices.s", "s", "setup_s", (Z49,)),
    ("frame.support.calls", "count", "setup_s", (Z49,)),
    ("frame.support.s", "s", "setup_s", (Z49,)),
    ("glnr.Instance.init_s", "s", "setup_s", (Z49,)),
    ("glnr.Instance.gl.s", "s", "setup_s", (Z49,)),
    ("glnr.verified_net_subgroup.s", "s", "setup_s", (Z49,)),
    ("glnr.Instance.act_batch.calls", "count", "setup_s,verify_s", (Z49,)),
    ("glnr.Instance.act_batch.s", "s", "setup_s,verify_s", (Z49,)),
    ("glnr.Instance.perm.calls", "count", "verify_s", (F7,)),
    ("glnr.Instance.perm.s", "s", "verify_s", (F7,)),
    ("glnr.verify_sandwich.calls", "count", "verify_s", (F7, F11, Z49)),
    ("glnr.verify_sandwich.self_s", "s", "verify_s", (F7, F11, Z49)),
    ("groups.conjugation_closure_check.calls", "count", "rows_per_s", (F11, F7)),
    ("groups.conjugation_closure_check.s", "s", "rows_per_s", (F11, F7)),
    ("groups.conjugation_closure_check.pairs", "count", "rows_per_s", (F11, F7)),
    ("groups.conjugate_codes.s", "s", "rows_per_s", (F11, F7)),
    ("groups.Subgroup.contains_many.calls", "count", "rows_per_s", (F11, F7)),
    ("groups.Subgroup.contains_many.s", "s", "rows_per_s", (F11, F7)),
    ("groups.double_coset_key.calls", "count", "rows_per_s,verify_s", (F11, F7)),
    ("groups.double_coset_key.s", "s", "rows_per_s,verify_s", (F11, F7)),
    ("groups.coset_closure.calls", "count", "rows_per_s,verify_s", (Z49, F7)),
    ("groups.coset_closure.s", "s", "rows_per_s,verify_s", (Z49, F7)),
    ("groups.coset_closure.cosets", "count", "rows_per_s,verify_s", (Z49, F7)),
    ("groups.Subgroup.fingerprint.calls", "count", "verify_s", (Z49,)),
    ("groups.Subgroup.fingerprint.s", "s", "verify_s", (Z49,)),
    ("groups.Subgroup.gl_mask.s", "s", "verify_s", (Z49,)),
    ("groups.same_transvections.s", "s", "verify_s", (Z49,)),
    ("groups.normalizes.calls", "count", "verify_s", (Z49,)),
    ("groups.normalizes.s", "s", "verify_s", (Z49,)),
    ("groups.is_normal_in.s", "s", "verify_s", (Z49,)),
    ("groups.transvection_table.s", "s", "setup_s", (Z49,)),
    ("groups.fixer.s", "s", "setup_s", (Z49,)),
    ("groups.fixes_mask.s", "s", "setup_s", (Z49,)),
    ("nets.verify_intermediate_subgroup.calls", "count", "verify_s", (Z49,)),
    ("nets.verify_intermediate_subgroup.self_s", "s", "verify_s", (Z49,)),
    ("nets.transvection_ideals.s", "s", "verify_s", (Z49,)),
    ("nets.stable_lbar0.s", "s", "verify_s", (Z49,)),
    ("nets.all_fixer_classes.s", "s", "verify_s", (Z49,)),
    ("nets.fixer_class.s", "s", "verify_s", (Z49,)),
    ("nets.net_fixer.calls", "count", "setup_s", (Z49,)),
    ("nets.net_fixer.s", "s", "setup_s", (Z49,)),
    ("nets.enumerate_net_collections.s", "s", "setup_s", (Z49,)),
    ("nets.enumerate_net_collections.valid_ratio", "ratio", "setup_s", (Z49,)),
    ("axioms.check_condition.s", "s", "verify_s", (F7,)),
    *[(f"axioms.{stem}.s", "s", "verify_s", (F7,)) for stem in AXIOM_VERDICTS],
    ("sweep.prewarm.s", "s", "setup_s", (Z49,)),
    ("sweep.verify_one.calls", "count", "rows_per_s", (Z49, F7)),
    ("sweep.row_s.p50", "s", "rows_per_s", (Z49, F7)),
    ("sweep.row_s.p99", "s", "rows_per_s", (F7,)),
    ("sweep.row_s.max", "s", "rows_per_s", (Z49, F7)),
    ("sweep.row_s.samples", "count", "rows_per_s", (Z49, F7)),
    ("sweep.distinct_subgroups", "count", "rows_per_s", (Z49, F11, F7)),
    ("sweep.distinct_double_cosets", "count", "rows_per_s", (Z49, F11, F7)),
    ("sweep.closures_per_subgroup", "ratio", "rows_per_s", (Z49, F11, F7)),
    ("sweep.verifications_per_subgroup", "ratio", "rows_per_s", (Z49, F11, F7)),
    ("report.canonical_json.s", "s", "verify_s", (F11, F7)),
    ("report.bytes", "bytes", "verify_s", (F11, F7)),
]
PER_LAYER = [(name, unit) for name, unit, _, _ in LAYER_MAP]


def _count_mat_mul(counts, args, kwargs, result, dur):
    a, b = np.asarray(args[0]), np.asarray(args[1])
    counts["rings.mat_mul.mats"] += int(np.prod(result.shape[:-2], dtype=np.int64))
    counts["rings.mat_mul.bytes"] += a.nbytes + b.nbytes + result.nbytes


def _count_conjugation(counts, args, kwargs, result, dur):
    subgroup, ambient = args[1], args[2]
    samples = args[4] if len(args) > 4 else kwargs.get("samples")
    if samples is not None:
        counts["groups.conjugation_closure_check.pairs"] += int(samples)
        return
    holds, witness = result
    if holds:
        f_count = len(ambient)
    else:  # the exhaustive loop stops at the first failing f
        f_count = int(np.searchsorted(ambient.codes, witness[0])) + 1
    counts["groups.conjugation_closure_check.pairs"] += f_count * len(subgroup)


def _count_cosets(counts, args, kwargs, result, dur):
    seed = args[1]
    counts["groups.coset_closure.cosets"] += len(result) // max(len(seed), 1)


def _count_report(counts, args, kwargs, result, dur):
    counts["report.bytes"] += len(result.encode("utf-8"))


def _count_nets(counts, args, kwargs, result, dur):
    counts.setdefault("_net_enumerations", []).append(len(result))


def _count_sweep(counts, args, kwargs, result, dur):
    counts["sweep.distinct_subgroups"] += len(result["subgroups"])


def _count_verdict(counts, args, kwargs, result, dur):
    stem = "cond_" + result.id.replace("'", "p")
    if result.mode != "as_stated":
        stem += "_" + result.mode
    counts[f"axioms.{stem}.s"] += dur


COUNTERS = {
    "rings.mat_mul": _count_mat_mul,
    "groups.conjugation_closure_check": _count_conjugation,
    "groups.coset_closure": _count_cosets,
    "report.canonical_json": _count_report,
    "axioms.check_condition": _count_verdict,
    "nets.enumerate_net_collections": _count_nets,
    "sweep.sweep_cyclic": _count_sweep,
}


def _resolve(owner, path):
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # one entry per span, in call order; compact arrays keep millions of
        # spans affordable
        self.span_names: list[str] = []
        self.name_id = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.outer = array("b")  # 0 when nested in a call of the same function
        self.counts: dict = {}
        self._stack: list[int] = [-1]
        self._patched: list[tuple] = []

    def wrap(self, fn, name, counter=None):
        name_id = len(self.span_names)
        self.span_names.append(name)
        ids, starts, ends, parents, outer, stack = (
            self.name_id, self.starts, self.ends, self.parents, self.outer, self._stack
        )
        counts = self.counts
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            outer.append(depth[0] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[0] += 1
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                depth[0] -= 1
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result, t1 - t0)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every entry of TRACED; rebinds all aliases in the package."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.counts.update({name: 0 for name, _ in PER_LAYER if name not in self.counts})
        for module_name, path, span in TRACED:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, span, COUNTERS.get(span))
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"traced function {module_name}.{path} is bound nowhere")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ----------------------------------------------------------

    def arrays(self):
        """(names, start, end, parent) as arrays, one entry per span."""
        names = np.array(self.span_names, dtype=object)[np.frombuffer(self.name_id, dtype=np.int32)]
        return (
            names,
            np.frombuffer(self.starts, dtype=np.float64),
            np.frombuffer(self.ends, dtype=np.float64),
            np.frombuffer(self.parents, dtype=np.int64),
        )

    def save(self, path) -> None:
        """Write every span: name table, name index, start, end, parent."""
        np.savez_compressed(
            path,
            names=np.array(self.span_names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
        )

    def layer_metrics(self) -> dict:
        _, start, end, parent = self.arrays()
        dur = end - start
        n = dur.size
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)

        out = {k: v for k, v in self.counts.items() if not k.startswith("_")}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        order = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[order], np.arange(len(self.span_names) + 1))
        by_name = {
            name: order[bounds[k] : bounds[k + 1]]
            for k, name in enumerate(self.span_names)
            if bounds[k + 1] > bounds[k]
        }
        for name, idx in by_name.items():
            out[f"{name}.calls"] = int(idx.size)
            out[f"{name}.s"] = float(dur[idx][outer[idx]].sum())
            out[f"{name}.self_s"] = float(self_time[idx].sum())
        out["glnr.Instance.init_s"] = out.get("glnr.Instance.init.s", 0.0)

        # valid nets over membership checks, on the enumerations that ran
        # (a cached enumeration makes no is_net_collection call)
        empty = np.zeros(0, dtype=np.int64)
        checks = by_name.get("nets.is_net_collection", empty)
        enum_spans = by_name.get("nets.enumerate_net_collections", empty)
        checked = set(parent[checks].tolist())
        lengths = self.counts.get("_net_enumerations", [])
        valid = sum(k for i, k in zip(enum_spans.tolist(), lengths) if i in checked)
        out["nets.enumerate_net_collections.valid_ratio"] = (
            valid / checks.size if checks.size else 0.0
        )

        rows = by_name.get("sweep.verify_one", empty)
        row_s = np.sort(dur[rows])
        out["sweep.row_s.samples"] = int(row_s.size)
        if row_s.size:
            out["sweep.row_s.p50"] = float(np.percentile(row_s, 50))
            out["sweep.row_s.p99"] = float(np.percentile(row_s, 99))
            out["sweep.row_s.max"] = float(row_s[-1])
        in_row = np.zeros(n + 1, dtype=bool)  # the extra slot answers parent -1
        in_row[rows] = True
        closures = int(in_row[parent[by_name.get("groups.coset_closure", empty)]].sum())
        verifications = int(in_row[parent[by_name.get("glnr.verify_sandwich", empty)]].sum())
        distinct = out.get("sweep.distinct_subgroups", 0)
        out["sweep.distinct_double_cosets"] = closures
        out["sweep.closures_per_subgroup"] = closures / distinct if distinct else 0.0
        out["sweep.verifications_per_subgroup"] = verifications / distinct if distinct else 0.0

        return {name: out.get(name, 0) for name, _ in PER_LAYER}
