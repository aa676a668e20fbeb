"""Matrix subgroups acting on the lattice: closure, fixers, fixed sublattices,
transvection sets, the Galois maps, and normalizers.

Subgroups are explicit: a sorted array of packed matrix codes.  Target orders
stay below a few million, so full enumeration beats stabiliser chains and is
exactly reproducible; all set iterations run in canonical code order.  The
matrix group acts non-faithfully (scalar-like units act trivially), and
fixers absorb that kernel automatically.  Every fixer is an AND of per-element
GL fix masks (`fix_mask`), each computed once per instance and cached.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import rings
from .errors import CapExceeded, InputError
from .lattice import SublatticeHandle

DEFAULT_CLOSURE_CAP = 10_000_000
_BFS_CHUNK = 1 << 18


class Subgroup:
    """Explicit member set (sorted packed codes) with generator provenance."""

    def __init__(self, instance, codes, generator_codes=(), closed=False):
        self.instance = instance
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and np.any(codes[1:] <= codes[:-1]):
            codes = np.unique(codes)
        self.codes = codes
        self.generator_codes = tuple(int(c) for c in generator_codes)
        self.closed = closed
        self._mats = None
        self._gl_mask = None
        self._fingerprint = None

    def __len__(self):
        return int(self.codes.size)

    def contains(self, code: int) -> bool:
        i = np.searchsorted(self.codes, code)
        return i < self.codes.size and self.codes[i] == code

    def contains_many(self, codes: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.codes, codes)
        idx = np.minimum(idx, self.codes.size - 1)
        return self.codes[idx] == codes

    def mats(self) -> np.ndarray:
        if self._mats is None:
            # entries < modulus <= a few hundred; int16 keeps big caches small
            self._mats = rings.unpack_matrices(
                self.codes, self.instance.modulus, self.instance.n, dtype=np.int16
            )
        return self._mats

    def gl_mask(self) -> np.ndarray:
        """Membership mask aligned with the ambient GL code order (cached)."""
        if self._gl_mask is None:
            self._gl_mask = self.contains_many(self.instance.gl().codes)
        return self._gl_mask

    def generator_mats(self) -> list[np.ndarray]:
        return [self.instance.mat_of_code(c) for c in self.generator_codes]

    def is_subset_of(self, other: "Subgroup") -> bool:
        return bool(np.all(other.contains_many(self.codes)))

    def __eq__(self, other):
        return isinstance(other, Subgroup) and np.array_equal(self.codes, other.codes)

    def __hash__(self):
        return hash(self.codes.tobytes())

    def fingerprint(self) -> str:
        """Stable across processes; used to deduplicate sweep work.

        Computed once: `intern_subgroup` only swaps `codes` for an equal array.
        Hashes the array's own buffer, the same bytes as `codes.tobytes()`
        without the copy.
        """
        if self._fingerprint is None:
            buf = np.ascontiguousarray(self.codes)
            self._fingerprint = hashlib.sha1(buf).hexdigest()[:16]
        return self._fingerprint

    def __repr__(self):
        return f"Subgroup(order={len(self)})"

    def to_json(self) -> dict:
        gens = self.generator_codes or tuple(int(c) for c in generating_subset(self))
        return {
            "schema_version": 1,
            "generators": [self.instance.mat_of_code(c).tolist() for c in gens],
        }

    @staticmethod
    def from_json(instance, obj: dict, cap: int = DEFAULT_CLOSURE_CAP) -> "Subgroup":
        version = obj.get("schema_version", 1)
        if version != 1:
            raise InputError(f"unsupported subgroup schema version {version}")
        gens = obj.get("generators")
        if not isinstance(gens, list) or not gens:
            raise InputError("subgroup file needs a nonempty 'generators' list")
        codes = []
        for g in gens:
            mat = np.asarray(g, dtype=np.int64) % instance.modulus
            if mat.shape != (instance.n, instance.n):
                raise InputError(f"generator shape {mat.shape} does not match n={instance.n}")
            if not instance.ring.is_unit(int(rings.det_batch(mat, instance.modulus))):
                raise InputError(f"generator {g} is not invertible")
            codes.append(instance.code_of_mat(mat))
        return close_subgroup(instance, codes, cap=cap)


def intern_subgroup(instance, subgroup: Subgroup) -> Subgroup:
    """Share code/matrix storage between equal subgroups held in caches.

    The returned object keeps its own generator provenance; only the big
    arrays are pooled, keyed by content fingerprint.
    """
    pool = instance._caches.setdefault("subgroup_pool", {})
    fp = subgroup.fingerprint()
    base = pool.get(fp)
    if base is None:
        pool[fp] = subgroup
        return subgroup
    if base is not subgroup:
        subgroup.codes = base.codes
        if base._mats is not None:
            subgroup._mats = base._mats
        elif subgroup._mats is not None:
            base._mats = subgroup._mats
        if base._gl_mask is not None:
            subgroup._gl_mask = base._gl_mask
        elif subgroup._gl_mask is not None:
            base._gl_mask = subgroup._gl_mask
    return subgroup


def close_subgroup(instance, generator_codes, cap: int = DEFAULT_CLOSURE_CAP) -> Subgroup:
    """Breadth-first product closure of the generators (plus identity).

    In a finite ambient group, closure under products alone already yields
    the subgroup, inverses included.
    """
    m = instance.modulus
    gen_codes = sorted(set(int(c) for c in generator_codes))
    ident = instance.code_of_mat(instance.identity)
    members = np.unique(np.array([ident] + gen_codes, dtype=np.int64))
    if not gen_codes:
        return Subgroup(instance, members, generator_codes=(), closed=True)
    gens = np.stack([instance.mat_of_code(c) for c in gen_codes])
    frontier = rings.unpack_matrices(members, m, instance.n)
    while frontier.shape[0]:
        new_codes = []
        for start in range(0, frontier.shape[0], _BFS_CHUNK):
            block = frontier[start : start + _BFS_CHUNK]
            prods = rings.mat_mul(block[:, None], gens[None, :], m)
            new_codes.append(np.unique(rings.pack_matrices(prods, m)))
        cand = np.unique(np.concatenate(new_codes))
        idx = np.searchsorted(members, cand)
        idx = np.minimum(idx, members.size - 1)
        fresh = cand[members[idx] != cand]
        if not fresh.size:
            break
        members = np.union1d(members, fresh)
        if members.size > cap:
            raise CapExceeded(
                f"subgroup closure passed cap {cap}", int(members.size)
            )
        frontier = rings.unpack_matrices(fresh, m, instance.n)
    return Subgroup(instance, members, generator_codes=tuple(gen_codes), closed=True)


def coset_closure(instance, seed: Subgroup, extra_codes, cap: int = DEFAULT_CLOSURE_CAP) -> Subgroup:
    """Closure of <seed, extras> by BFS on left cosets of the seed subgroup.

    Far fewer rounds than element-level BFS when the seed is large; each
    visited coset contributes its full code block, so the member set is exact.
    """
    m = instance.modulus
    if not seed.closed:
        raise InputError("coset closure needs a closed seed subgroup")
    extra_codes = sorted(set(int(c) for c in extra_codes))
    right_gens = [instance.mat_of_code(c) for c in (list(seed.generator_codes) + extra_codes)]
    if not right_gens:
        return seed
    seed_mats = seed.mats()
    ident = instance.identity
    first = rings.pack_matrices(rings.mat_mul(seed_mats, ident, m), m)
    reps = {int(first.min()): ident}
    blocks = [first]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gam in right_gens:
                y = rings.mat_mul(x, gam, m)
                codes = rings.pack_matrices(rings.mat_mul(seed_mats, y, m), m)
                key = int(codes.min())
                if key not in reps:
                    reps[key] = y
                    blocks.append(codes)
                    nxt.append(y)
                    if len(reps) * len(seed) > cap:
                        raise CapExceeded(
                            f"coset closure passed cap {cap}", len(reps) * len(seed)
                        )
        frontier = nxt
    codes = np.sort(np.concatenate(blocks))
    gens = tuple(seed.generator_codes) + tuple(extra_codes)
    return intern_subgroup(instance, Subgroup(instance, codes, generator_codes=gens, closed=True))


def generating_subset(subgroup: Subgroup, cap: int = DEFAULT_CLOSURE_CAP) -> list[int]:
    """Small generating set found greedily; exact by construction."""
    if subgroup.generator_codes:
        return list(subgroup.generator_codes)
    gens: list[int] = []
    current = close_subgroup(subgroup.instance, gens, cap=cap)
    while len(current) < len(subgroup):
        missing = subgroup.codes[~current.contains_many(subgroup.codes)]
        gens.append(int(missing[0]))
        current = close_subgroup(subgroup.instance, gens, cap=cap)
    if not current.is_subset_of(subgroup):
        raise InputError("member set is not closed; cannot extract generators")
    return gens


# -- fixers and fixed sublattices -------------------------------------------


def fixes_mask(instance, mats: np.ndarray, x: int) -> np.ndarray:
    """Boolean mask: which matrices fix lattice element x.

    A matrix fixes x iff it maps a generating set of x into x (equality then
    follows from invertibility on a finite module).
    """
    rows = instance.basis_rows[x]
    mask = np.ones(mats.shape[0], dtype=bool)
    for row in rows:
        codes = rings.pack_vectors(rings.mat_vec(mats, row, instance.modulus), instance.modulus)
        mask &= instance.membership[x][codes]
    return mask


def fix_mask(instance, x: int) -> np.ndarray:
    """Mask over GL (aligned with `gl().codes`) of the matrices fixing x.

    Computed once per lattice element and cached: every fixer and every
    "g fixes x" test over GL reads it.  `act_batch(g, x) == x` and
    `fixes_mask` both state g(x) = x, and g(x) <= x forces equality for an
    invertible g on a finite module, so one kernel serves both.
    """
    masks = instance._caches.setdefault("fix_masks", {})
    x = int(x)
    mask = masks.get(x)
    if mask is None:
        mask = masks[x] = fixes_mask(instance, instance.gl().mats(), x)
    return mask


def fixer(instance, elements) -> Subgroup:
    """All GL matrices fixing every listed element: an AND of `fix_mask`s."""
    g = instance.gl()
    mask = np.ones(len(g), dtype=bool)
    for x in set(int(e) for e in elements):
        mask &= fix_mask(instance, x)
    return intern_subgroup(instance, Subgroup(instance, g.codes[mask], closed=True))


def fixed_lattice(instance, subgroup: Subgroup) -> SublatticeHandle:
    """Elements fixed by the whole subgroup (equivalently by its generators)."""
    lat = instance.lattice
    if subgroup.generator_codes:
        fixed = set(range(len(lat)))
        for c in subgroup.generator_codes:
            perm = instance.perm(instance.mat_of_code(c))
            fixed &= {x for x in fixed if perm[x] == x}
        members = fixed
    else:
        mats = subgroup.mats()
        members = {
            x for x in range(len(lat)) if bool(np.all(fixes_mask(instance, mats, x)))
        }
    return SublatticeHandle(lat, members)


def galois_phi(instance, members) -> Subgroup:
    """Lattice side -> group side of the correspondence: the fixer of M."""
    l0p = set(instance.l0_prime().members)
    members = set(int(x) for x in members)
    if not members <= l0p:
        raise InputError("phi is defined on member sets of the stabiliser-fixed sublattice")
    return fixer(instance, members)


def galois_psi(instance, subgroup: Subgroup) -> SublatticeHandle:
    """Group side -> lattice side: fixed points inside the base sublattice."""
    if not fixer_contains_stabiliser(instance, subgroup):
        raise InputError("psi is defined on subgroups containing the frame stabiliser")
    fixed = fixed_lattice(instance, subgroup)
    members = set(fixed.members) & set(instance.l0_prime().members)
    return SublatticeHandle(instance.lattice, members)


def fixer_contains_stabiliser(instance, subgroup: Subgroup) -> bool:
    return instance.diagonal().is_subset_of(subgroup)


# -- distinguished member sets ----------------------------------------------


def axis_subgroup(instance, i: int) -> Subgroup:
    """Frame-stabiliser members fixing every element supported away from atom i."""
    lat = instance.lattice
    away = [
        x
        for x in range(len(lat))
        if int(instance.support_table[x, i]) == lat.bottom
    ]
    diag = instance.diagonal()
    keep = []
    for code in diag.codes.tolist():
        perm = instance.perm(instance.mat_of_code(code))
        if all(perm[x] == x for x in away):
            keep.append(code)
    return Subgroup(instance, np.array(keep, dtype=np.int64), closed=False)


def classify_transvection(instance, mat: np.ndarray, i: int, j: int):
    """The x with mat in the transvection set for (i, j), or None.

    Clauses: fixes everything below the other atoms, preserves the i-support
    of everything below atom i, and sends atom i to something supported by
    atom i at i, x at j, nothing elsewhere.
    """
    if i == j:
        raise InputError("transvections need i != j")
    lat = instance.lattice
    perm = instance.perm(np.asarray(mat, dtype=np.int64))
    frame = instance.frame
    for s in range(instance.n):
        if s == i:
            continue
        for xs in frame.atom_downsets[s]:
            if perm[xs] != xs:
                return None
    for xi in frame.atom_downsets[i]:
        if int(instance.support_table[perm[xi], i]) != xi:
            return None
    st = instance.support_table[perm[frame.atoms[i]]]
    for kk in range(instance.n):
        if kk == i:
            if int(st[kk]) != frame.atoms[i]:
                return None
        elif kk != j and int(st[kk]) != lat.bottom:
            return None
    return int(st[j])


def transvection_table(instance, i: int, j: int) -> np.ndarray:
    """Per GL member, the x of its transvection class for (i, j), else -1.

    Cached; this is the exact full filter, the elementary family is only a
    cross-check.
    """
    key = ("transvection_table", i, j)
    cached = instance._caches.get(key)
    if cached is not None:
        return cached
    if i == j:
        raise InputError("transvections need i != j")
    g = instance.gl()
    mats = g.mats()
    lat = instance.lattice
    frame = instance.frame
    ok = np.ones(len(g), dtype=bool)
    for s in range(instance.n):
        if s == i:
            continue
        for xs in frame.atom_downsets[s]:
            if xs == lat.bottom:
                continue
            ok &= fix_mask(instance, xs)
    for xi in frame.atom_downsets[i]:
        if xi == lat.bottom:
            continue
        img = instance.act_batch(mats, xi)
        ok &= instance.support_table[img, i] == xi
    img_ei = instance.act_batch(mats, frame.atoms[i])
    st = instance.support_table[img_ei]
    for kk in range(instance.n):
        if kk == i:
            ok &= st[:, kk] == frame.atoms[i]
        elif kk != j:
            ok &= st[:, kk] == lat.bottom
    out = np.full(len(g), -1, dtype=np.int32)
    out[ok] = st[ok, j]
    instance._caches[key] = out
    return out


def transvections(instance, i: int, j: int, x: int) -> np.ndarray:
    """Sorted codes of the full transvection set for (i, j) at x (may be empty)."""
    table = transvection_table(instance, i, j)
    return instance.gl().codes[table == int(x)]


def same_transvections(instance, f1: Subgroup, f2: Subgroup) -> bool:
    """Whether two subgroups meet every transvection set identically."""
    m1 = f1.gl_mask()
    m2 = f2.gl_mask()
    for i in range(instance.n):
        for j in range(instance.n):
            if i == j:
                continue
            table = transvection_table(instance, i, j)
            if bool(np.any((m1 ^ m2) & (table >= 0))):
                return False
    return True


# -- normalizers and conjugation --------------------------------------------


def conjugate_codes(instance, f_mat: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Codes of f^-1 s f for a batch of s."""
    m = instance.modulus
    f_inv = instance.inv(f_mat)
    return rings.pack_matrices(
        rings.mat_mul(rings.mat_mul(f_inv[None, :, :], mats, m), f_mat[None, :, :], m), m
    )


def normalizes(instance, f_code: int, subgroup: Subgroup, gens: list[int] | None = None) -> bool:
    """Whether one matrix conjugates the subgroup onto itself.

    Checking a generating set suffices: conjugation is an automorphism, and
    containment of a finite subgroup of equal order forces equality.
    """
    f = instance.mat_of_code(f_code)
    gen_codes = gens if gens is not None else generating_subset(subgroup)
    mats = np.stack([instance.mat_of_code(c) for c in gen_codes])
    return bool(np.all(subgroup.contains_many(conjugate_codes(instance, f, mats))))


def normalizer(instance, subgroup: Subgroup, ambient: Subgroup) -> Subgroup:
    """All ambient elements conjugating the subgroup onto itself."""
    if not subgroup.is_subset_of(ambient):
        raise InputError("normalizer expects the subgroup inside the ambient group")
    m = instance.modulus
    gens = generating_subset(subgroup)
    amb_mats = ambient.mats()
    amb_inv = rings.inv_batch(amb_mats, instance.ring)
    mask = np.ones(len(ambient), dtype=bool)
    for c in gens:
        gm = instance.mat_of_code(c)
        conj = rings.mat_mul(rings.mat_mul(amb_inv, gm[None, :, :], m), amb_mats, m)
        mask &= subgroup.contains_many(rings.pack_matrices(conj, m))
    return Subgroup(instance, ambient.codes[mask], closed=True)


def is_normal_in(instance, subgroup: Subgroup, ambient: Subgroup):
    """(normal?, witness) where the witness is a failing (f, s) code pair.

    Containment and conjugation run on the subgroup's generators when it
    carries a verified generating set, else on the whole member set (batched).
    """
    gens_s = list(subgroup.generator_codes)
    if gens_s:
        outside = [c for c in gens_s if not ambient.contains(c)]
        if outside:
            return False, (None, int(outside[0]))
        probe_codes = np.array(gens_s, dtype=np.int64)
    else:
        if not subgroup.is_subset_of(ambient):
            missing = subgroup.codes[~ambient.contains_many(subgroup.codes)]
            return False, (None, int(missing[0]))
        probe_codes = subgroup.codes
    probe_mats = rings.unpack_matrices(probe_codes, instance.modulus, instance.n)
    gens_f = ambient.generator_codes or generating_subset(ambient)
    for fc in gens_f:
        codes = conjugate_codes(instance, instance.mat_of_code(fc), probe_mats)
        bad = ~subgroup.contains_many(codes)
        if bool(np.any(bad)):
            return False, (int(fc), int(probe_codes[np.argmax(bad)]))
    return True, None


def double_coset_key(instance, code: int) -> int:
    """min packed code over D a D; closures <D, a> depend only on this."""
    d_mats = instance.diagonal().mats()
    a = instance.mat_of_code(code)
    m = instance.modulus
    left = rings.mat_mul(d_mats, a[None, :, :], m)
    best = None
    for start in range(0, left.shape[0], 128):
        prods = rings.mat_mul(left[start : start + 128, None], d_mats[None, :], m)
        low = int(rings.pack_matrices(prods, m).min())
        best = low if best is None else min(best, low)
    return best


def double_coset_labels(instance, codes) -> np.ndarray:
    """double_coset_key of every listed code, one pass over D a D per double coset.

    Each pass labels every listed code inside D a D: double cosets partition
    GL, so b lies in D a D exactly when D b D = D a D and their keys agree.
    """
    uniq, back = np.unique(np.asarray(codes, dtype=np.int64), return_inverse=True)
    labels = np.full(uniq.size, -1, dtype=np.int64)
    d_mats = instance.diagonal().mats()
    m = instance.modulus
    for k in range(uniq.size):
        if labels[k] >= 0:
            continue
        left = rings.mat_mul(d_mats, instance.mat_of_code(int(uniq[k]))[None, :, :], m)
        best, inside = int(uniq[k]), np.zeros(uniq.size, dtype=bool)
        for start in range(0, left.shape[0], 128):
            prods = rings.mat_mul(left[start : start + 128, None], d_mats[None, :], m)
            orbit = rings.pack_matrices(prods, m).ravel()
            best = min(best, int(orbit.min()))
            idx = np.minimum(np.searchsorted(uniq, orbit), uniq.size - 1)
            inside[idx[uniq[idx] == orbit]] = True
        labels[inside] = best
    return labels[back]


def conjugation_closure_check(instance, subgroup: Subgroup, ambient: Subgroup, rng=None, samples=None):
    """Explicit check that f^-1 s f stays in the subgroup.

    Exhaustive over all (f, s) pairs unless a sample count is given; returns
    (holds, witness codes).
    """
    sub_mats = subgroup.mats()
    if samples is None:
        for f_code in ambient.codes.tolist():
            codes = conjugate_codes(instance, instance.mat_of_code(f_code), sub_mats)
            bad = ~subgroup.contains_many(codes)
            if bool(np.any(bad)):
                return False, (int(f_code), int(subgroup.codes[np.argmax(bad)]))
        return True, None
    m = instance.modulus
    fs = rng.choice(ambient.codes, size=samples, replace=True)
    ss = rng.choice(subgroup.codes, size=samples, replace=True)
    f_mats = rings.unpack_matrices(fs, m, instance.n)
    s_mats = rings.unpack_matrices(ss, m, instance.n)
    f_inv = rings.inv_batch(f_mats, instance.ring)
    conj = rings.pack_matrices(
        rings.mat_mul(rings.mat_mul(f_inv, s_mats, m), f_mats, m), m
    )
    bad = ~subgroup.contains_many(conj)
    if bool(np.any(bad)):
        k = int(np.argmax(bad))
        return False, (int(fs[k]), int(ss[k]))
    return True, None
