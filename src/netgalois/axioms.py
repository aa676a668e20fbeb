"""Executable checkers for the instance hypotheses.

Twelve numbered conditions govern the general setting; four primed ones the
rank-one (all atoms of height 1) specialisation.  Every checker returns
(holds, witness, found): a replayable witness for failures and a sample
witness for the existential conditions.  `check_condition` makes the verdict
and labels it sampled exactly when a sample count is given and the condition
is in `SAMPLED`, the conditions whose checkers read it.  Condition 4 has two
quantifier readings (the inner choice may or may not depend on the outer
group element); both are checked, downstream verification relies only on the
weak one.

Conditions 3, 4, 5 and 11 (with 4') quantify over an outer element a of GL
and are array programs: a table of which inner candidates work for which a,
gathered from the lattice permutations of the outer elements and the axis
candidates (`Instance.perm`, one row per code), read in the loop order with
argmax.  Axis candidates h enter only through their rows, so one h per
distinct row, the first, stands for all (`_distinct_rows`).

Every exhaustive quantifier over GL, in these and in conditions 6 and 8,
takes one element per right coset aD, its smallest code (`_iter_group`,
`right_cosets`).  D fixes L0' pointwise (the atoms, the hats, everything
below an atom, the componentwise span), so (ad)(x) = a(x) there, and each
verdict is constant on every coset aD:
- 3: it reads a at the elements below e_i, and h(x) = x there;
- 4: the axis candidates lie in D, and D is abelian, so (ad)h(ad)^-1 =
  aha^-1; d fixes every [y]_t, so (ad)[(ad)^-1 x]_t = a[a^-1 x]_t;
- 5: u lies in the span, and d permutes the allowed images w = t(e_i), as
  dt fixes the other atoms and [dw]_j = [w]_j;
- 6 and 8: they read only images of L0' elements;
- 11 and 4': x = [aha^-1 e_i]_j as in 4, and <D, ad> = <D, a>.
The representatives ascend and each is its coset's smallest code, so the
first element of the loop over GL that fails or passes is the
representative of the first such coset: witnesses and found records are
those of the all-GL loop.  Sampled mode draws its outer elements from all of
GL, and conditions 6 and 8 read the drawn elements' cosets.  Transvection
sets are read per coset the same way (`transvection_table`).
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
    coset_fix_mask,
    coset_image,
    coset_labels,
    double_coset_key,
    gl_code_list,
    instance_cache,
    right_cosets,
    transvection_table,
    transvections,
)
from .rings import distinct

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

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "mode": self.mode,
            "holds": self.holds,
            "witness": self.witness,
            "found": self.found,
            "exhaustive": self.exhaustive,
            "samples": self.samples,
            "details": self.details,
        }


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

    def witness_indices(self, w, names) -> list[int]:
        """A witness's index fields: i and j name atoms, x, y and w lattice elements."""
        values = [w.get(name) for name in names]
        bounds = [self.n if name in "ij" else len(self.lat) for name in names]
        if any(type(v) is not int or not 0 <= v < b for v, b in zip(values, bounds)):
            raise InputError(f"witness fields {names} = {values} are not indices below {bounds}")
        return values

    def atom_image_support(self, i, j):
        """[g(e_i)]_j for each right coset gD, off the atom's coset column."""
        return self.support[coset_image(self.instance, self.atoms[i]), j]

    def closure_with(self, codes_tuple):
        """<D, listed elements>, cached by the double-coset keys."""
        return self.closure_of_keys(double_coset_key(self.instance, codes_tuple).tolist())

    def closure_of_keys(self, keys):
        return _key_closure(self.instance, tuple(sorted(keys)))


@instance_cache
def _key_closure(instance, keys):
    """<D, a_1, ...> for any a_k with these sorted double-coset keys.

    A key is the code of some d a d' (d, d' in D), and <D, a> = <D, d a d'>:
    each lies in the group the other generates with D.
    """
    return coset_closure(instance, instance.diagonal(), list(keys))


# -- individual conditions ----------------------------------------------------


def _cond_1(ctx, mode, rng, samples):
    l0 = ctx.frame.l0
    ok = l0.bottom == ctx.lat.bottom and l0.top == ctx.lat.top
    wit = None if ok else {"l0_bottom": int(l0.bottom), "l0_top": int(l0.top)}
    return ok, wit, None


def _cond_2(ctx, mode, rng, samples):
    dims = {int(ctx.lat.dimension(a)) for a in ctx.atoms}
    ok = len(dims) == 1
    return ok, None if ok else {"atom_heights": sorted(dims)}, {"m": ctx.frame.m}


def _iter_group(ctx, rng, samples):
    """Codes of the outer elements: the right-coset representatives, one per
    coset aD (see the module docstring), or a seeded sample of all of GL."""
    if samples is None:
        return right_cosets(ctx.instance)[1]
    return ctx.instance.gl_codes[rng.choice(len(ctx.g), size=samples, replace=True)]


def _distinct_rows(ctx, codes):
    """Sorted codes and permutation rows of the members of a member set, one
    per distinct row, in code order: a test that reads h only through its
    row first holds at the first member of some row, so this keeps the
    first h."""
    rows = ctx.instance.perm(codes)
    first = np.sort(np.unique(rows, axis=0, return_index=True)[1])
    return codes[first], rows[first]


def _first_hits(works):
    """Column of the first True in each row of works[a, h], -1 for none."""
    hits = np.argmax(np.column_stack([works, np.ones(len(works), dtype=bool)]), axis=1)
    return np.where(hits < works.shape[1], hits, -1)


def _first_outcomes(active, hits):
    """(first failure, first pass before it) over the outer elements in loop
    order, each an index or None: an active element fails with no hit and
    passes with one."""
    bad, good = active & (hits < 0), active & (hits >= 0)
    fail = int(np.argmax(bad)) if bad.any() else None
    passed = int(np.argmax(good)) if good.any() else None
    if passed is not None and fail is not None and passed > fail:
        passed = None
    return fail, passed


def _cond_3(ctx, mode, rng, samples):
    a_codes = _iter_group(ctx, rng, samples)
    pa = ctx.instance.perm(a_codes)
    found = None
    for i in range(ctx.n):
        e_i, down = ctx.atoms[i], np.array(ctx.frame.atom_downsets[i])
        h_codes, ph = _distinct_rows(ctx, axis_subgroup(ctx.instance, i))
        ha = ph[:, pa[:, down]].transpose(1, 0, 2)  # [a, h, x] = h(a(x))
        ah = pa[:, ph[:, down]]  # [a, h, x] = a(h(x))
        works = np.all((ctx.support[ha, i] == down) & (ctx.support[ah, i] == down), axis=2)
        hits = _first_hits(works)
        fail, passed = _first_outcomes(ctx.support[pa[:, e_i], i] == e_i, hits)
        if found is None and passed is not None:
            found = {"i": i, "a": int(a_codes[passed]), "h": int(h_codes[hits[passed]])}
        if fail is not None:
            return False, {"i": i, "a": int(a_codes[fail])}, found
    return True, None, found


def _cond_4(ctx, mode, rng, samples):
    """mode 'weak': the witness may depend on the outer element; 'strong': one
    witness per (t, i) works for all of them.

    The inner h range over the axis candidates, which lie in D, and D fixes
    every element of the componentwise span: each is a join of ideal
    multiples of atoms, which unit scalings fix.  So every candidate fixes
    the span, as the condition asks, with no test."""
    a_codes = _iter_group(ctx, rng, samples)
    pa = ctx.instance.perm(a_codes)
    # a^-1 undoes a on vectors, hence on submodules: its row is the inverse permutation
    painv = np.argsort(pa, axis=1)
    found = None
    for t in range(ctx.n):
        h_codes, ph = _distinct_rows(ctx, axis_subgroup(ctx.instance, t))
        for i in range(ctx.n):
            down = ctx.frame.atom_downsets[i]
            others = ctx.support[:, [r for r in range(ctx.n) if r != i]]
            pre = painv[:, down]  # [a, x] = a^-1(x)
            lhs = ph[:, pre].transpose(1, 0, 2).reshape(len(a_codes), -1)
            lhs = np.take_along_axis(pa, lhs, axis=1).reshape(len(a_codes), len(ph), len(down))
            rhs = np.take_along_axis(pa, ctx.support[pre, t], axis=1)
            # works[a, h]: a h a^-1 x and a [a^-1 x]_t agree off atom i, for every x below e_i
            works = np.all(others[lhs] == others[rhs][:, None], axis=(2, 3))
            if mode == "strong":
                every = works.all(axis=0)
                if not every.any():
                    return False, {"t": t, "i": i}, found
                if found is None:
                    found = {"t": t, "i": i, "h": int(h_codes[np.argmax(every)])}
                continue
            hits = _first_hits(works)
            fail, passed = _first_outcomes(np.ones(len(a_codes), dtype=bool), hits)
            if found is None and passed is not None:
                found = {"t": t, "i": i, "a": int(a_codes[passed]), "h": int(h_codes[hits[passed]])}
            if fail is not None:
                return False, {"t": t, "i": i, "a": int(a_codes[fail])}, found
    return True, None, found


def _cond_5(ctx, mode, rng, samples):
    inst = ctx.instance
    g_codes = _iter_group(ctx, rng, samples)
    pg = inst.perm(g_codes)
    meet, reps = ctx.lat.meet_table, right_cosets(inst)[1]
    found = None
    for i in range(ctx.n):
        e_i = ctx.atoms[i]
        # t with t(e_s) = e_s for s != i, the first one per image w = t(e_i);
        # atoms lie in L0', so the t are the cosets fixing the others, and a
        # w's first t is the smallest code of its first coset
        t = np.flatnonzero(coset_fix_mask(inst, np.delete(ctx.atoms, i)))
        ws, first = np.unique(coset_image(inst, e_i)[t], return_index=True)
        t_codes = reps[t[first]]
        back = ctx.support[pg[:, ws], i] == e_i  # [g, w]: [g(w)]_i = e_i
        for u in ctx.frame.lbar0:
            if not ctx.lat.leq(e_i, u):
                continue
            # the w with [w]_j <= [u]_j for every j
            allowed = np.all(meet[ctx.support[ws], ctx.support[u]] == ctx.support[ws], axis=1)
            hits = _first_hits(back[:, allowed])
            fail, passed = _first_outcomes(ctx.support[pg[:, u], i] == e_i, hits)
            if found is None and passed is not None:
                t_code = t_codes[allowed][hits[passed]]
                found = {"i": i, "u": int(u), "g": int(g_codes[passed]), "t": int(t_code)}
            if fail is not None:
                witness = {"i": i, "u": int(u), "g": int(g_codes[fail])}
                return False, witness, found
    return True, None, found


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
    """Loop order (i, j, x, f, g) over pairs of cosets, or (i, j, pair, x)
    over the drawn pairs."""
    inst = ctx.instance
    l0p = set(inst.l0_prime().members)
    reps, meet = right_cosets(inst)[1], ctx.lat.meet_table
    if samples is not None:
        drawn = inst.gl_codes[rng.integers(0, len(ctx.g), size=(samples, 2))]
        f_c, g_c = coset_labels(inst, drawn.T)

    def failure(i, j, x, f, g):
        return False, {"i": i, "j": j, "x": int(x), "f": int(f), "g": int(g)}, None

    for i, j in itertools.permutations(range(ctx.n), 2):
        sij = ctx.atom_image_support(i, j)
        xs = [x for x in ctx.frame.atom_downsets[i] if x in l0p]
        sxs = np.stack([ctx.support[coset_image(inst, x), j] for x in xs], axis=1)
        if samples is None:
            for x, sx in zip(xs, sxs.T):
                hit = _first_order_violation(ctx.lat, sij, sx)
                if hit is not None:
                    return failure(i, j, x, *reps[list(hit)])
            continue
        # viol[k, x]: pair k has [f(e_i)]_j <= [g(e_i)]_j but not [f(x)]_j <= [g(x)]_j
        hyp = meet[sij[f_c], sij[g_c]] == sij[f_c]
        viol = hyp[:, None] & (meet[sxs[f_c], sxs[g_c]] != sxs[f_c])
        if viol.any():
            k, col = np.unravel_index(int(np.argmax(viol)), viol.shape)
            return failure(i, j, xs[col], *drawn[k])
    return True, None, None


def _realisable(ctx, i, j):
    table = transvection_table(ctx.instance, i, j)
    return distinct(table[table >= 0]).tolist()


def _cond_7(ctx, mode, rng, samples):
    for j, i in itertools.permutations(range(ctx.n), 2):
        real = _realisable(ctx, i, j)
        for u in ctx.frame.atom_downsets[j]:
            below = [y for y in real if ctx.lat.leq(y, u)]
            if ctx.lat.join_many(below) != u:
                return False, {"i": i, "j": j, "u": int(u)}, None
    return True, None, None


def _cond_8(ctx, mode, rng, samples):
    """f's signature ([f(u)]_j, u below e_i) is some transvection's of value
    x = [f(e_i)]_j: e_i is below itself, so the signature fixes x."""
    inst = ctx.instance
    reps = right_cosets(inst)[1]
    f_codes = _iter_group(ctx, rng, samples)
    f_c = coset_labels(inst, f_codes)
    found = None
    for i, j in itertools.permutations(range(ctx.n), 2):
        sig = np.zeros(reps.size, dtype=np.int64)
        for u in ctx.frame.atom_downsets[i]:
            sig = sig * len(ctx.lat) + ctx.support[coset_image(inst, u), j]
        table = transvection_table(inst, i, j)
        fails = ~np.isin(sig[f_c], sig[table >= 0])
        if found is None and not fails[0]:
            x = ctx.atom_image_support(i, j)[f_c[0]]
            found = {"i": i, "j": j, "f": int(f_codes[0]), "g": int(reps[np.argmax(table == x)])}
        if fails.any():
            return False, {"i": i, "j": j, "f": int(f_codes[np.argmax(fails)])}, found
    return True, None, found


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
    for i, j in itertools.permutations(range(ctx.n), 2):
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
                return False, {"i": i, "j": j, "w": int(w), "x": int(x)}, found
            if found is None:
                found = {"i": i, "j": j, "w": int(w), "t": int(t_codes[hits[0]])}
    return True, None, found


def _cond_10(ctx, mode, rng, samples):
    inst = ctx.instance
    coset_reps = right_cosets(inst)[1]
    max_tuple = 2
    for i, j in itertools.permutations(range(ctx.n), 2):
        real = _realisable(ctx, i, j)
        table = transvection_table(inst, i, j)
        reps: dict[int, list[int]] = {}
        key_of: dict[int, int] = {}
        for x in real:
            if samples is None:
                # D a D contains a D, so the key is constant on each
                # right coset: its smallest code stands for it
                codes = coset_reps[table == x]
            else:
                # sampled profile: a few members per value, no dedup pass
                codes = transvections(inst, i, j, x)
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
                    outside = ~closure.coset_mask()
                    for y in ys:
                        # the first transvection outside: its first coset's smallest code
                        missing = (table == y) & outside
                        if bool(np.any(missing)):
                            return False, {
                                "i": i,
                                "j": j,
                                "xs": [int(x) for x in xs],
                                "as": [int(a) for a in a_tuple],
                                "y": int(y),
                                "t": int(coset_reps[np.argmax(missing)]),
                            }, None
    return True, None, None


def _cond_11(ctx, mode, rng, samples):
    """One array program over outer elements a, axis rows (t, h) and pairs (i, j)."""
    pairs = [(i, j) for i in range(ctx.n) for j in range(ctx.n) if i != j]
    ii, jj = [i for i, _ in pairs], [j for _, j in pairs]
    a_codes = _iter_group(ctx, rng, samples)
    pa = ctx.instance.perm(a_codes)
    # a^-1 undoes a on vectors, hence on submodules: its row is the inverse permutation
    painv_atoms = np.argsort(pa, axis=1)[:, list(ctx.atoms)]
    cols, xs = [], []
    for t in range(ctx.n):
        h_codes, ph = _distinct_rows(ctx, axis_subgroup(ctx.instance, t))
        cols += [(t, h) for h in h_codes.tolist()]
        img = ph[:, painv_atoms].transpose(1, 0, 2)  # [a, h, i] = h(a^-1 e_i)
        img = np.take_along_axis(pa, img.reshape(len(a_codes), -1), axis=1).reshape(img.shape)
        xs.append(ctx.support[img[:, :, ii], jj])  # [a, h, (i, j)] = x
    xs = np.concatenate(xs, axis=1)
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
        cosets = ctx.closure_of_keys([int(keys[k])]).coset_mask()
        meets = np.zeros((len(pairs), len(ctx.lat)), dtype=bool)
        for p, table in enumerate(tables):
            # T(i, j, x) = the cosets of value x: the closure meets it iff it holds one
            met = table[cosets]
            meets[p, met[met >= 0]] = True
        mine = label == k
        fails[mine] = ~meets[np.arange(len(pairs)), xs[mine]]
    if not fails.any():
        return True, None, None
    # C order of [a, (t, h), (i, j)] is the nested loop order: argmax is the first failure
    a, col, p = np.unravel_index(int(np.argmax(fails)), fails.shape)
    t, h = cols[col]
    witness = {
        "a": int(a_codes[a]), "t": t, "h": h, "i": ii[p], "j": jj[p], "x": int(xs[a, col, p])
    }
    return False, witness, None


def _cond_12(ctx, mode, rng, samples):
    l0p = ctx.instance.l0_prime()
    outside = [x for x in l0p.members if not ctx.frame.in_lbar0(x)]
    return not outside, {"elements": outside[:4]} if outside else None, None


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
        h_codes, ph = _distinct_rows(ctx, axis_subgroup(ctx.instance, i))
        moves = np.all(ph[:, targets] != targets, axis=1)
        if not moves.any():
            return False, {"i": i}, found
        if found is None:
            found = {"i": i, "h": int(h_codes[np.argmax(moves)])}
    return True, None, found


def _prime_2(ctx, mode, rng, samples):
    dims = ctx.lat.dimensions()
    atoms_l = [x for x in range(len(ctx.lat)) if int(dims[x]) == 1]
    orbits = {}
    for x in atoms_l:
        key = tuple(int(v) for v in ctx.support[x])
        orbits.setdefault(key, []).append(x)
    diag_perms = ctx.instance.perm(ctx.diag.codes)
    for key, members in orbits.items():
        base = members[0]
        reach = set(diag_perms[:, base].tolist())
        missing = [y for y in members if y not in reach]
        if missing:
            return False, {"x": base, "y": missing[0]}, None
    return True, None, None


def _prime_3(ctx, mode, rng, samples):
    for i, j in itertools.permutations(range(ctx.n), 2):
        if not bool(np.any(transvection_table(ctx.instance, i, j) == ctx.atoms[j])):
            return False, {"i": i, "j": j}, None
    return True, None, None


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
# the conditions whose checkers read `samples`; the others check lattice
# tables or transvection sets in full
SAMPLED = {"3", "4", "5", "6", "8", "9", "10", "11", "4'"}


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
    used = samples if cond_id in SAMPLED else None
    ctx = _Ctx(instance)
    rng = None if samples is None else np.random.default_rng(seed)
    start = time.perf_counter()
    holds, witness, found = checker(ctx, mode, rng, samples)
    elapsed = time.perf_counter() - start
    if witness is not None:
        witness = {"condition": cond_id, "mode": mode, **witness}
    return ConditionVerdict(
        id=cond_id,
        mode=mode,
        holds=holds,
        witness=witness,
        found=found,
        exhaustive=used is None,
        samples=used,
        elapsed=elapsed,
    )


def check_all(
    instance,
    conditions: list[str] | None = None,
    seed: int = 0,
    samples: int | None = None,
) -> list[ConditionVerdict]:
    """Ordered verdicts for the requested conditions, both readings where
    ambiguous; `samples=None` is exhaustive on every instance."""
    if conditions is None:
        conditions = list(CONDITION_IDS)
        if instance.frame.m == 1 and instance.frame.l0.members == instance.l0_prime().members:
            conditions = conditions + list(PRIME_IDS)
    out = []
    for cid in conditions:
        for mode in AMBIGUOUS.get(cid, ("as_stated",)):
            out.append(check_condition(instance, cid, mode, seed, samples))
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
    (i,) = ctx.witness_indices(w, "i")
    pa = ctx.instance.perm(gl_code_list(ctx.instance, [w.get("a")]))[0]
    e_i = ctx.atoms[i]
    if int(ctx.support[pa[e_i], i]) != e_i:
        return False
    for ph in ctx.instance.perm(axis_subgroup(ctx.instance, i)):
        if all(
            int(ctx.support[ph[pa[x]], i]) == x and int(ctx.support[pa[ph[x]], i]) == x
            for x in ctx.frame.atom_downsets[i]
        ):
            return False
    return True


def _replay_cond_6(ctx, mode, w):
    i, j, x = ctx.witness_indices(w, "ijx")
    pf, pg = ctx.instance.perm(gl_code_list(ctx.instance, [w.get("f"), w.get("g")]))
    if not ctx.lat.leq(
        int(ctx.support[pf[ctx.atoms[i]], j]), int(ctx.support[pg[ctx.atoms[i]], j])
    ):
        return False
    return not ctx.lat.leq(int(ctx.support[pf[x], j]), int(ctx.support[pg[x], j]))


def _replay_cond_9(ctx, mode, w):
    i, j, x, welt = ctx.witness_indices(w, "ijxw")
    inst = ctx.instance
    t_codes = transvections(inst, i, j, x)
    if t_codes.size == 0:
        return False
    imgs = inst.act_batch(t_codes, welt)
    return not bool(np.any(imgs == ctx.atoms[i]))


def _replay_cond_10(ctx, mode, w):
    """t is a transvection of value y for (i, j), y lies below the join of
    the xs, and t lies outside <D, as>."""
    i, j, y = ctx.witness_indices(w, "ijy")
    xs, a_codes = w.get("xs"), w.get("as")
    if not isinstance(xs, list) or not isinstance(a_codes, list):
        raise InputError(f"witness fields 'xs' = {xs!r}, 'as' = {a_codes!r} need lists")
    if any(type(x) is not int or not 0 <= x < len(ctx.lat) for x in xs):
        raise InputError(f"witness field 'xs' = {xs} needs lattice indices")
    t = gl_code_list(ctx.instance, [w.get("t")])
    if transvection_table(ctx.instance, i, j)[coset_labels(ctx.instance, t)[0]] != y:
        return False
    if not ctx.lat.leq(y, ctx.lat.join_many(xs)):
        return False
    return not ctx.closure_with(gl_code_list(ctx.instance, a_codes)).contains(t[0])


def _replay_cond_11(ctx, mode, w):
    i, j, x = ctx.witness_indices(w, "ijx")
    closure = ctx.closure_with(gl_code_list(ctx.instance, [w.get("a")]))
    held = transvection_table(ctx.instance, i, j) == x
    return not bool(np.any(held & closure.coset_mask()))


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
