"""Executable checkers for the instance hypotheses.

Twelve numbered conditions govern the general setting; four primed ones the
rank-one (all atoms of height 1) specialisation.  Every checker returns a
verdict carrying holds/fails, a replayable witness for failures, a sample
witness for the existential conditions, and whether the quantifiers ran
exhaustively or over a seeded sample.  Condition 4 has two quantifier
readings (the inner choice may or may not depend on the outer group
element); both are checked, downstream verification relies only on the weak
one.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .groups import (
    axis_subgroup,
    coset_closure,
    double_coset_key,
    fix_mask,
    fixer,
    intern_subgroup,
    transvection_table,
    transvections,
)

EXHAUSTIVE_GROUP_LIMIT = 10_000
DEFAULT_SAMPLES = 200

CONDITION_IDS = [str(i) for i in range(1, 13)]
PRIME_IDS = ["1'", "2'", "3'", "4'"]


@dataclass
class ConditionVerdict:
    id: str
    mode: str  # quantifier reading: "as_stated", "weak", or "strong"
    holds: bool
    witness: dict | None = None
    found: dict | None = None
    exhaustive: bool = True
    samples: int | None = None
    elapsed: float = 0.0
    details: dict = field(default_factory=dict)

    def to_record(self, with_elapsed: bool = False) -> dict:
        rec = {
            "id": self.id,
            "mode": self.mode,
            "holds": self.holds,
            "witness": self.witness,
            "found": self.found,
            "exhaustive": self.exhaustive,
            "samples": self.samples,
            "details": self.details,
        }
        if with_elapsed:
            rec["elapsed"] = self.elapsed
        return rec


class _Ctx:
    """Shared per-instance precomputations for the condition checkers."""

    def __init__(self, instance):
        self.instance = instance
        self.lat = instance.lattice
        self.frame = instance.frame
        self.n = instance.n
        self.g = instance.gl()
        self.diag = instance.diagonal()
        self.atoms = instance.atoms
        self.support = instance.support_table

    def axis(self, i):
        key = ("axis_subgroup", i)
        if key not in self.instance._caches:
            self.instance._caches[key] = axis_subgroup(self.instance, i)
        return self.instance._caches[key]

    def rows(self, positions) -> np.ndarray:
        """Lattice permutations of the GL elements at these positions, one row
        each: perm_table rows, or code_rows above PERM_TABLE_LIMIT."""
        table = self.instance.perm_table()
        if table is not None:
            return table[positions]
        return self.code_rows(self.instance.gl_codes[positions])

    def code_rows(self, codes) -> np.ndarray:
        """Lattice permutations of any matrix codes, through act_batch."""
        return np.stack([self.instance.act_batch(codes, x) for x in range(len(self.lat))], axis=1)

    def atom_image_support(self, i, j):
        """[g(e_i)]_j for every group element, read through the atom's image column."""
        return self.support[self.instance.gl_image(self.atoms[i]), j]

    def closure_with(self, codes_tuple):
        """<D, listed elements>, cached by the double-coset keys."""
        return self.closure_of_keys(double_coset_key(self.instance, codes_tuple).tolist())

    def closure_of_keys(self, keys):
        """<D, a_1, ...> for any a_k with these double-coset keys.

        A key is the code of some d a d' (d, d' in D), and <D, a> = <D, d a d'>:
        each lies in the group the other generates with D.
        """
        key = ("closure_with", tuple(sorted(keys)))
        if key not in self.instance._caches:
            closure = coset_closure(self.instance, self.diag, list(key[1]))
            self.instance._caches[key] = intern_subgroup(self.instance, closure)
        return self.instance._caches[key]


# -- individual conditions ----------------------------------------------------


def _cond_1(ctx, mode, rng, samples):
    l0 = ctx.frame.l0
    ok = l0.bottom == ctx.lat.bottom and l0.top == ctx.lat.top
    wit = None if ok else {"l0_bottom": int(l0.bottom), "l0_top": int(l0.top)}
    return ok, wit, None, True, None


def _cond_2(ctx, mode, rng, samples):
    dims = {int(ctx.lat.dimension(a)) for a in ctx.atoms}
    ok = len(dims) == 1
    return ok, None if ok else {"atom_heights": sorted(dims)}, {"m": ctx.frame.m}, True, None


def _iter_group(ctx, rng, samples):
    """GL positions of the outer elements: all of them, or a seeded sample."""
    if samples is None:
        return np.arange(len(ctx.g)), True
    return rng.choice(len(ctx.g), size=samples, replace=True), False


def _coded_rows(ctx, positions):
    """(code, permutation row) of the GL elements at these positions, in order."""
    return list(zip(ctx.instance.gl_codes[positions].tolist(), ctx.rows(positions)))


def _cond_3(ctx, mode, rng, samples):
    pos, exhaustive = _iter_group(ctx, rng, samples)
    outer = _coded_rows(ctx, pos)
    found = None
    for i in range(ctx.n):
        e_i = ctx.atoms[i]
        hi_perms = _coded_rows(ctx, np.flatnonzero(ctx.axis(i).gl_mask()))
        downset = ctx.frame.atom_downsets[i]
        for a_code, pa in outer:
            if int(ctx.support[pa[e_i], i]) != e_i:
                continue
            hit = None
            for h_code, ph in hi_perms:
                if all(
                    int(ctx.support[ph[pa[x]], i]) == x and int(ctx.support[pa[ph[x]], i]) == x
                    for x in downset
                ):
                    hit = h_code
                    break
            if hit is None:
                return False, {"i": i, "a": a_code}, found, exhaustive, samples
            if found is None:
                found = {"i": i, "a": a_code, "h": hit}
    return True, None, found, exhaustive, samples


def _cond_4(ctx, mode, rng, samples):
    """mode 'weak': the witness may depend on the outer element; 'strong': one
    witness per (t, i) works for all of them."""
    pos, exhaustive = _iter_group(ctx, rng, samples)
    lbar_fixer = fixer(ctx.instance, ctx.frame.lbar0).gl_mask()
    rows = ctx.rows(pos)
    # a^-1 undoes a on vectors, hence on submodules: its row is the inverse permutation
    outer = list(zip(ctx.instance.gl_codes[pos].tolist(), rows, np.argsort(rows, axis=1)))
    found = None
    for t in range(ctx.n):
        ht_perms = _coded_rows(ctx, np.flatnonzero(ctx.axis(t).gl_mask() & lbar_fixer))
        for i in range(ctx.n):
            downset = ctx.frame.atom_downsets[i]
            rs = [r for r in range(ctx.n) if r != i]

            def h_works(ph, pa, painv):
                for x in downset:
                    lhs_elt = pa[ph[painv[x]]]
                    rhs_elt = pa[ctx.support[painv[x], t]]
                    for r in rs:
                        if ctx.support[lhs_elt, r] != ctx.support[rhs_elt, r]:
                            return False
                return True

            if mode == "strong":
                ok_h = None
                for h_code, ph in ht_perms:
                    if all(h_works(ph, pa, painv) for _, pa, painv in outer):
                        ok_h = h_code
                        break
                if ok_h is None:
                    return False, {"t": t, "i": i}, found, exhaustive, samples
                if found is None:
                    found = {"t": t, "i": i, "h": ok_h}
            else:
                for a, pa, painv in outer:
                    hit = next((hc for hc, ph in ht_perms if h_works(ph, pa, painv)), None)
                    if hit is None:
                        return False, {"t": t, "i": i, "a": a}, found, exhaustive, samples
                    if found is None:
                        found = {"t": t, "i": i, "a": a, "h": hit}
    return True, None, found, exhaustive, samples


def _cond_5(ctx, mode, rng, samples):
    pos, exhaustive = _iter_group(ctx, rng, samples)
    outer = _coded_rows(ctx, pos)
    inst = ctx.instance
    found = None
    for i in range(ctx.n):
        e_i = ctx.atoms[i]
        # t with t(e_s) = e_s for s != i, grouped by the image w = t(e_i)
        keep = np.ones(len(ctx.g), dtype=bool)
        for s in range(ctx.n):
            if s != i:
                keep &= fix_mask(inst, ctx.atoms[s])
        w_vals = inst.gl_image(e_i)
        w_to_t = {}
        for idx in np.nonzero(keep)[0].tolist():
            w_to_t.setdefault(int(w_vals[idx]), int(ctx.instance.gl_codes[idx]))
        for u in ctx.frame.lbar0:
            if not ctx.lat.leq(e_i, u):
                continue
            allowed = [
                (w, t_code)
                for w, t_code in sorted(w_to_t.items())
                if all(
                    ctx.lat.leq(int(ctx.support[w, j]), int(ctx.support[u, j]))
                    for j in range(ctx.n)
                )
            ]
            for g_code, pg in outer:
                if int(ctx.support[pg[u], i]) != e_i:
                    continue
                hit = next(
                    ((w, t_code) for w, t_code in allowed if int(ctx.support[pg[w], i]) == e_i),
                    None,
                )
                if hit is None:
                    return (
                        False,
                        {"i": i, "u": int(u), "g": g_code},
                        found,
                        exhaustive,
                        samples,
                    )
                if found is None:
                    found = {"i": i, "u": int(u), "g": g_code, "t": hit[1]}
    return True, None, found, exhaustive, samples


def _first_order_violation(lat, a, b):
    """First (f, g) in row-major order with a[f] <= a[g] but not b[f] <= b[g],
    else None; the same pair as argwhere over the |G| x |G| table.

    Both tests read only the pairs (a[f], b[f]) and (a[g], b[g]), so a table
    over the distinct pairs decides every (f, g): f is the first element whose
    pair has a violating row, g the first element of any pair in that row.
    """
    size = len(lat)
    key = np.asarray(a, dtype=np.int64) * size + np.asarray(b, dtype=np.int64)
    uniq, first, cls = np.unique(key, return_index=True, return_inverse=True)
    ca, cb = uniq // size, uniq % size
    meet = lat.meet_table
    viol = (meet[ca[:, None], ca] == ca[:, None]) & (meet[cb[:, None], cb] != cb[:, None])
    bad = viol.any(axis=1)[cls]
    if not bool(bad.any()):
        return None
    f = int(np.argmax(bad))
    return f, int(first[viol[cls[f]]].min())


def _cond_6(ctx, mode, rng, samples):
    inst = ctx.instance
    l0p = set(inst.l0_prime().members)
    if samples is not None:
        idx = rng.integers(0, len(ctx.g), size=(samples, 2))
        frows, grows = ctx.rows(idx[:, 0]), ctx.rows(idx[:, 1])
    for i in range(ctx.n):
        for j in range(ctx.n):
            if i == j:
                continue
            sij = ctx.atom_image_support(i, j)
            xs = [x for x in ctx.frame.atom_downsets[i] if x in l0p]
            if samples is None:
                for x in xs:
                    sx = ctx.support[inst.gl_image(x), j]
                    hit = _first_order_violation(ctx.lat, sij, sx)
                    if hit is not None:
                        f_idx, g_idx = hit
                        return (
                            False,
                            {
                                "i": i,
                                "j": j,
                                "x": int(x),
                                "f": int(ctx.instance.gl_codes[f_idx]),
                                "g": int(ctx.instance.gl_codes[g_idx]),
                            },
                            None,
                            True,
                            None,
                        )
            else:
                for f_i, g_i, pf, pg in zip(*idx.T.tolist(), frows, grows):
                    if not ctx.lat.leq(int(sij[f_i]), int(sij[g_i])):
                        continue
                    for x in xs:
                        if not ctx.lat.leq(
                            int(ctx.support[pf[x], j]), int(ctx.support[pg[x], j])
                        ):
                            return (
                                False,
                                {
                                    "i": i,
                                    "j": j,
                                    "x": int(x),
                                    "f": int(ctx.instance.gl_codes[f_i]),
                                    "g": int(ctx.instance.gl_codes[g_i]),
                                },
                                None,
                                False,
                                samples,
                            )
    return True, None, None, samples is None, samples


def _realisable(ctx, i, j):
    table = transvection_table(ctx.instance, i, j)
    return [int(x) for x in np.unique(table[table >= 0]).tolist()]


def _cond_7(ctx, mode, rng, samples):
    for j in range(ctx.n):
        for i in range(ctx.n):
            if i == j:
                continue
            real = _realisable(ctx, i, j)
            for u in ctx.frame.atom_downsets[j]:
                below = [y for y in real if ctx.lat.leq(y, u)]
                if ctx.lat.join_many(below) != u:
                    return False, {"i": i, "j": j, "u": int(u)}, None, True, None
    return True, None, None, True, None


def _cond_8(ctx, mode, rng, samples):
    inst = ctx.instance
    pos, exhaustive = _iter_group(ctx, rng, samples)
    found = None
    for i in range(ctx.n):
        for j in range(ctx.n):
            if i == j:
                continue
            us = [u for u in ctx.frame.atom_downsets[i]]
            sig_cols = [ctx.support[inst.gl_image(u), j].astype(np.int64) for u in us]
            sig = np.zeros(len(ctx.g), dtype=np.int64)
            for col in sig_cols:
                sig = sig * len(ctx.lat) + col
            table = transvection_table(inst, i, j)
            sig_sets: dict[int, set] = {}
            for x in _realisable(ctx, i, j):
                sig_sets[x] = set(sig[table == x].tolist())
            sij = ctx.atom_image_support(i, j)
            for gi in pos.tolist():
                code = int(ctx.instance.gl_codes[gi])
                x = int(sij[gi])
                if int(sig[gi]) not in sig_sets.get(x, set()):
                    return False, {"i": i, "j": j, "f": code}, found, exhaustive, samples
                if found is None:
                    match = transvections(inst, i, j, x)
                    found = {"i": i, "j": j, "f": code, "g": int(match[0])}
    return True, None, found, exhaustive, samples


def _cond_9_targets(ctx, i, j):
    """Elements of height m supported exactly on (atom_i full, x at j)."""
    out = []
    dims = ctx.lat.dimensions()
    for w in range(len(ctx.lat)):
        if int(dims[w]) != ctx.frame.m:
            continue
        st = ctx.support[w]
        if int(st[i]) != ctx.atoms[i]:
            continue
        if any(int(st[kk]) != ctx.lat.bottom for kk in range(ctx.n) if kk not in (i, j)):
            continue
        out.append((w, int(st[j])))
    return out


def _cond_9(ctx, mode, rng, samples):
    inst = ctx.instance
    found = None
    for i in range(ctx.n):
        for j in range(ctx.n):
            if i == j:
                continue
            real = set(_realisable(ctx, i, j))
            targets = _cond_9_targets(ctx, i, j)
            if samples is not None and len(targets) > samples:
                pick = rng.choice(len(targets), size=samples, replace=False)
                targets = [targets[int(t)] for t in pick]
            for w, x in targets:
                if x not in real:
                    continue
                t_codes = transvections(inst, i, j, x)
                imgs = inst.act_batch(t_codes, w)
                hits = np.nonzero(imgs == ctx.atoms[i])[0]
                if hits.size == 0:
                    return (
                        False,
                        {"i": i, "j": j, "w": int(w), "x": int(x)},
                        found,
                        samples is None,
                        samples,
                    )
                if found is None:
                    found = {"i": i, "j": j, "w": int(w), "t": int(t_codes[hits[0]])}
    return True, None, found, samples is None, samples


def _cond_10(ctx, mode, rng, samples):
    inst = ctx.instance
    max_tuple = 2
    for i in range(ctx.n):
        for j in range(ctx.n):
            if i == j:
                continue
            real = _realisable(ctx, i, j)
            reps: dict[int, list[int]] = {}
            key_of: dict[int, int] = {}
            for x in real:
                codes = transvections(inst, i, j, x)
                if samples is not None:
                    # sampled profile: a few members per value, no dedup pass
                    pick = rng.choice(codes.size, size=min(3, codes.size), replace=False)
                    codes = np.sort(codes[pick])
                keys = double_coset_key(inst, codes)
                key_of.update(zip(codes.tolist(), keys.tolist()))
                if samples is None:
                    # one representative per double coset; the generated
                    # closure <D, a> only depends on those, so this is exact
                    codes = codes[np.unique(keys, return_index=True)[1]]
                reps[x] = sorted(codes.tolist())
            for s in range(1, max_tuple + 1):
                for xs in itertools.product(real, repeat=s):
                    bound = ctx.lat.join_many(xs)
                    ys = [y for y in real if ctx.lat.leq(y, bound)]
                    for a_tuple in itertools.product(*(reps[x] for x in xs)):
                        closure = ctx.closure_of_keys([key_of[a] for a in a_tuple])
                        for y in ys:
                            t_codes = transvections(inst, i, j, y)
                            ok = closure.contains_many(t_codes)
                            if not bool(np.all(ok)):
                                return (
                                    False,
                                    {
                                        "i": i,
                                        "j": j,
                                        "xs": [int(x) for x in xs],
                                        "as": [int(a) for a in a_tuple],
                                        "y": int(y),
                                        "t": int(t_codes[np.argmin(ok)]),
                                    },
                                    None,
                                    samples is None,
                                    samples,
                                )
    return True, None, None, samples is None, samples


def _cond_11(ctx, mode, rng, samples):
    """One array program over outer elements a, axis rows (t, h) and pairs (i, j)."""
    pos, exhaustive = _iter_group(ctx, rng, samples)
    pairs = [(i, j) for i in range(ctx.n) for j in range(ctx.n) if i != j]
    ii, jj = [i for i, _ in pairs], [j for _, j in pairs]
    pa = ctx.rows(pos)
    # a^-1 undoes a on vectors, hence on submodules: its row is the inverse permutation
    painv_atoms = np.argsort(pa, axis=1)[:, list(ctx.atoms)]
    cols, xs = [], []
    for t in range(ctx.n):
        h_pos = np.flatnonzero(ctx.axis(t).gl_mask())
        ph = ctx.rows(h_pos)
        # x reads h only through its row: equal rows give equal x, keep the first
        first = np.sort(np.unique(ph, axis=0, return_index=True)[1])
        cols += [(t, int(ctx.instance.gl_codes[h_pos[f]])) for f in first]
        img = ph[first][:, painv_atoms].transpose(1, 0, 2)  # [a, h, i] = h(a^-1 e_i)
        img = np.take_along_axis(pa, img.reshape(len(pos), -1), axis=1).reshape(img.shape)
        xs.append(ctx.support[img[:, :, ii], jj])  # [a, h, (i, j)] = x
    xs = np.concatenate(xs, axis=1)
    a_codes = ctx.instance.gl_codes[pos]
    # <D, a> = <D, d a d'>, each lying in the other's group with D: one closure per label
    keys, firsts, label = np.unique(
        double_coset_key(ctx.instance, a_codes), return_index=True, return_inverse=True
    )
    tables = [transvection_table(ctx.instance, i, j) for i, j in pairs]
    fails = np.zeros(xs.shape, dtype=bool)
    for k in np.argsort(firsts):
        # a failure before this label's first use already is the first failure
        if fails.any() and firsts[k] > np.argmax(fails.any(axis=(1, 2))):
            break
        inside = ctx.closure_of_keys([int(keys[k])]).gl_mask()
        meets = np.zeros((len(pairs), len(ctx.lat)), dtype=bool)
        for p, table in enumerate(tables):
            # T(i, j, x) = {g : table[g] = x}: the closure meets it iff a member has table x
            meets[p, table[inside & (table >= 0)]] = True
        mine = label == k
        fails[mine] = ~meets[np.arange(len(pairs)), xs[mine]]
    if not fails.any():
        return True, None, None, exhaustive, samples
    # C order of [a, (t, h), (i, j)] is the nested loop order: argmax is the first failure
    a, col, p = np.unravel_index(int(np.argmax(fails)), fails.shape)
    t, h = cols[col]
    witness = {
        "a": int(a_codes[a]), "t": t, "h": h, "i": ii[p], "j": jj[p], "x": int(xs[a, col, p])
    }
    return False, witness, None, exhaustive, samples


def _cond_12(ctx, mode, rng, samples):
    l0p = ctx.instance.l0_prime()
    outside = [x for x in l0p.members if not ctx.frame.in_lbar0(x)]
    return (
        not outside,
        {"elements": outside[:4]} if outside else None,
        None,
        True,
        None,
    )


def _prime_1(ctx, mode, rng, samples):
    dims = ctx.lat.dimensions()
    atoms_l = [x for x in range(len(ctx.lat)) if int(dims[x]) == 1]
    found = None
    for i in range(ctx.n):
        e_i = ctx.atoms[i]
        targets = [
            x
            for x in atoms_l
            if x != e_i and int(ctx.support[x, i]) == e_i
        ]
        hit = None
        for h_code, ph in _coded_rows(ctx, np.flatnonzero(ctx.axis(i).gl_mask())):
            if all(ph[x] != x for x in targets):
                hit = h_code
                break
        if hit is None:
            return False, {"i": i}, found, True, None
        if found is None:
            found = {"i": i, "h": hit}
    return True, None, found, True, None


def _prime_2(ctx, mode, rng, samples):
    dims = ctx.lat.dimensions()
    atoms_l = [x for x in range(len(ctx.lat)) if int(dims[x]) == 1]
    orbits = {}
    for x in atoms_l:
        key = tuple(int(v) for v in ctx.support[x])
        orbits.setdefault(key, []).append(x)
    diag_perms = ctx.rows(np.flatnonzero(ctx.diag.gl_mask()))
    for key, members in orbits.items():
        base = members[0]
        reach = set(diag_perms[:, base].tolist())
        missing = [y for y in members if y not in reach]
        if missing:
            return False, {"x": base, "y": missing[0]}, None, True, None
    return True, None, None, True, None


def _prime_3(ctx, mode, rng, samples):
    for i in range(ctx.n):
        for j in range(ctx.n):
            if i == j:
                continue
            if transvections(ctx.instance, i, j, ctx.atoms[j]).size == 0:
                return False, {"i": i, "j": j}, None, True, None
    return True, None, None, True, None


_CHECKERS = {
    "1": _cond_1,
    "2": _cond_2,
    "3": _cond_3,
    "4": _cond_4,
    "5": _cond_5,
    "6": _cond_6,
    "7": _cond_7,
    "8": _cond_8,
    "9": _cond_9,
    "10": _cond_10,
    "11": _cond_11,
    "12": _cond_12,
    "1'": _prime_1,
    "2'": _prime_2,
    "3'": _prime_3,
    "4'": _cond_11,
}

AMBIGUOUS = {"4": ("weak", "strong")}


def check_condition(
    instance,
    cond_id: str,
    mode: str | None = None,
    seed: int = 0,
    samples: int | None = None,
) -> ConditionVerdict:
    """Run one condition; samples=None means exhaustive quantification."""
    checker = _CHECKERS.get(cond_id)
    if checker is None:
        raise InputError(f"unknown condition id {cond_id!r}")
    if mode is None:
        mode = AMBIGUOUS.get(cond_id, ("as_stated",))[0]
    ctx = _Ctx(instance)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    holds, witness, found, exhaustive, used = checker(ctx, mode, rng, samples)
    elapsed = time.perf_counter() - start
    if witness is not None:
        witness = {"condition": cond_id, "mode": mode, **witness}
    return ConditionVerdict(
        id=cond_id,
        mode=mode,
        holds=holds,
        witness=witness,
        found=found,
        exhaustive=exhaustive,
        samples=used,
        elapsed=elapsed,
    )


def check_all(
    instance,
    conditions: list[str] | None = None,
    seed: int = 0,
    samples: int | None = None,
    include_rank_one: bool | None = None,
) -> list[ConditionVerdict]:
    """Ordered verdicts for the requested conditions, both readings where
    ambiguous.  `samples=None` picks exhaustive mode when the group is small
    enough, otherwise a default seeded sample."""
    if conditions is None:
        conditions = list(CONDITION_IDS)
        if include_rank_one is None:
            include_rank_one = (
                instance.frame.m == 1
                and instance.frame.l0.members == instance.l0_prime().members
            )
        if include_rank_one:
            conditions = conditions + list(PRIME_IDS)
    if samples is None and len(instance.gl()) > EXHAUSTIVE_GROUP_LIMIT:
        samples = DEFAULT_SAMPLES
    out = []
    for cid in conditions:
        for mode in AMBIGUOUS.get(cid, ("as_stated",)):
            out.append(check_condition(instance, cid, mode=mode, seed=seed, samples=samples))
    return out


def replay_witness(instance, witness: dict) -> bool:
    """True iff the recorded witness still demonstrates the failure."""
    cid = witness.get("condition")
    mode = witness.get("mode", "as_stated")
    if cid not in _CHECKERS:
        raise InputError(f"witness references unknown condition {cid!r}")
    ctx = _Ctx(instance)
    return _REPLAYERS[cid](ctx, mode, witness)


def _replay_cond_3(ctx, mode, w):
    i, a_code = w["i"], w["a"]
    pa = ctx.code_rows([a_code])[0]
    e_i = ctx.atoms[i]
    if int(ctx.support[pa[e_i], i]) != e_i:
        return False
    for ph in ctx.rows(np.flatnonzero(ctx.axis(i).gl_mask())):
        if all(
            int(ctx.support[ph[pa[x]], i]) == x and int(ctx.support[pa[ph[x]], i]) == x
            for x in ctx.frame.atom_downsets[i]
        ):
            return False
    return True


def _replay_cond_6(ctx, mode, w):
    pf, pg = ctx.code_rows([w["f"], w["g"]])
    i, j, x = w["i"], w["j"], w["x"]
    if not ctx.lat.leq(
        int(ctx.support[pf[ctx.atoms[i]], j]), int(ctx.support[pg[ctx.atoms[i]], j])
    ):
        return False
    return not ctx.lat.leq(int(ctx.support[pf[x], j]), int(ctx.support[pg[x], j]))


def _replay_cond_9(ctx, mode, w):
    i, j, x, welt = w["i"], w["j"], w["x"], w["w"]
    inst = ctx.instance
    t_codes = transvections(inst, i, j, x)
    if t_codes.size == 0:
        return False
    imgs = inst.act_batch(t_codes, welt)
    return not bool(np.any(imgs == ctx.atoms[i]))


def _replay_cond_10(ctx, mode, w):
    closure = ctx.closure_with(tuple(w["as"]))
    return not closure.contains(w["t"])


def _replay_cond_11(ctx, mode, w):
    closure = ctx.closure_with((w["a"],))
    t_codes = transvections(ctx.instance, w["i"], w["j"], w["x"])
    if t_codes.size == 0:
        return True
    return not bool(np.any(closure.contains_many(t_codes)))


def _replay_generic(ctx, mode, w):
    cid = w["condition"]
    verdict = check_condition(ctx.instance, cid, mode=mode, samples=None)
    return not verdict.holds


_REPLAYERS = {cid: _replay_generic for cid in _CHECKERS}
_REPLAYERS.update(
    {
        "3": _replay_cond_3,
        "6": _replay_cond_6,
        "9": _replay_cond_9,
        "10": _replay_cond_10,
        "11": _replay_cond_11,
        "4'": _replay_cond_11,
    }
)
