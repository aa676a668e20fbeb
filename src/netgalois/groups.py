"""Matrix subgroups acting on the lattice: closure, fixers, fixed sublattices,
transvection sets, the Galois maps, and normalizers.

Subgroups are explicit: a sorted array of packed matrix codes.  Target orders
stay below a few million, so full enumeration beats stabiliser chains and is
exactly reproducible; all set iterations run in canonical code order.  The
matrix group acts non-faithfully (scalar-like units act trivially), and
fixers absorb that kernel automatically.  Every fixer is an AND of per-element
GL fix masks (`fix_mask`), each computed once per instance and cached.  Every
closure is one BFS on the cosets of a seed subgroup (`coset_closure`) that
steps a whole frontier per round in batched products; `close_subgroup` runs
it over the trivial subgroup.
"""

from __future__ import annotations

import hashlib
import itertools

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
    """Closure of the generators (plus identity): `coset_closure` over the
    trivial subgroup, whose cosets are single elements."""
    trivial = Subgroup(instance, [instance.code_of_mat(instance.identity)], closed=True)
    return coset_closure(instance, trivial, generator_codes, cap=cap)


def coset_closure(instance, seed: Subgroup, extra_codes, cap: int = DEFAULT_CLOSURE_CAP) -> Subgroup:
    """Closure of <seed, extras> by BFS on the cosets S y of the seed S.

    The generators of <seed, extras> act on these cosets from the right, so
    the BFS from S reaches every coset.  Each round steps the whole frontier:
    a candidate's key is the smallest code of S y, computed in chunks of at
    most _BFS_CHUNK products, and a key not visited before adds its coset's
    full code block, so the member set is exact.  In a finite group closure
    under products already yields the subgroup, inverses included.
    """
    m, n = instance.modulus, instance.n
    if not seed.closed:
        raise InputError("coset closure needs a closed seed subgroup")
    extra_codes = sorted(set(int(c) for c in extra_codes))
    gen_codes = list(seed.generator_codes) + extra_codes
    if not gen_codes:
        return seed
    gens = rings.unpack_matrices(np.array(gen_codes, dtype=np.int64), m, n)
    seed_mats = seed.mats()
    step = max(1, _BFS_CHUNK // len(seed))
    keys, blocks, fresh = seed.codes[:1], [seed.codes], [instance.identity[None]]
    while fresh:
        frontier = rings.mat_mul(np.concatenate(fresh)[:, None], gens[None], m).reshape(-1, n, n)
        fresh = []
        for start in range(0, frontier.shape[0], step):
            ys = frontier[start : start + step]
            codes = rings.pack_matrices(rings.mat_mul(seed_mats[None], ys[:, None], m), m)
            new, first = np.unique(codes.min(axis=1), return_index=True)
            unseen = ~np.isin(new, keys, assume_unique=True)
            if unseen.any():
                keys = np.union1d(keys, new[unseen])
                first = first[unseen]
                blocks.append(codes[first].ravel())
                fresh.append(ys[first])
                if keys.size * len(seed) > cap:
                    raise CapExceeded(f"coset closure passed cap {cap}", keys.size * len(seed))
    codes = np.sort(np.concatenate(blocks))
    return Subgroup(instance, codes, generator_codes=gen_codes, closed=True)


def generating_subset(subgroup: Subgroup, cap: int = DEFAULT_CLOSURE_CAP) -> list[int]:
    """Small generating set found greedily; exact by construction.

    Each new generator is the smallest member outside the closure so far,
    and the closure grows by one `coset_closure` step over the previous one.
    """
    if subgroup.generator_codes:
        return list(subgroup.generator_codes)
    gens: list[int] = []
    current = close_subgroup(subgroup.instance, gens, cap=cap)
    while len(current) < len(subgroup):
        missing = subgroup.codes[~current.contains_many(subgroup.codes)]
        gens.append(int(missing[0]))
        current = coset_closure(subgroup.instance, current, gens[-1:], cap=cap)
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


def atom_image_supports(instance, i: int) -> np.ndarray:
    """Support rows of every GL member's image of atom i, cached."""
    key = ("atom_image_supports", i)
    cached = instance._caches.get(key)
    if cached is None:
        img = instance.act_batch(instance.gl().mats(), instance.atoms[i])
        cached = instance.support_table[img]
        instance._caches[key] = cached
    return cached


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
    # for xi = e_i the support clause is the st[:, i] == e_i test below
    for xi in frame.atom_downsets[i]:
        if xi in (lat.bottom, frame.atoms[i]):
            continue
        img = instance.act_batch(mats, xi)
        ok &= instance.support_table[img, i] == xi
    st = atom_image_supports(instance, i)
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


def conjugate_codes(instance, f_mats: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Codes of f^-1 s f for a batch of s, by one f or by a batch of f
    aligned with the s (numpy broadcasting)."""
    m = instance.modulus
    f_inv = rings.inv_batch(f_mats, instance.ring)
    return rings.pack_matrices(rings.mat_mul(rings.mat_mul(f_inv, mats, m), f_mats, m), m)


def normalizes(instance, f_code: int, subgroup: Subgroup, gens: list[int] | None = None) -> bool:
    """Whether one matrix conjugates the subgroup onto itself.

    Checking a generating set suffices: conjugation is an automorphism, and
    containment of a finite subgroup of equal order forces equality.
    """
    f = instance.mat_of_code(f_code)
    gen_codes = gens if gens is not None else generating_subset(subgroup)
    mats = rings.unpack_matrices(np.array(gen_codes, dtype=np.int64), instance.modulus, instance.n)
    return bool(np.all(subgroup.contains_many(conjugate_codes(instance, f, mats))))


def normalizer(instance, subgroup: Subgroup, ambient: Subgroup) -> Subgroup:
    """All ambient elements conjugating the subgroup onto itself."""
    if not subgroup.is_subset_of(ambient):
        raise InputError("normalizer expects the subgroup inside the ambient group")
    amb_mats = ambient.mats()
    mask = np.ones(len(ambient), dtype=bool)
    for c in generating_subset(subgroup):
        mask &= subgroup.contains_many(conjugate_codes(instance, amb_mats, instance.mat_of_code(c)))
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


def double_coset_key(instance, codes) -> np.ndarray:
    """Smallest code over D a D for each code a of a batch; <D, a> depends only on it.

    Codes pack rows least-significant-first, so row i of a fills its own
    digits at weight m^(i n), and d in D scales row i by d_i: the minimum over
    D a is sum_i m^(i n) rowmin[rowcode(a_i)], with rowmin[v] the smallest
    code of u v over units u.  On the right a d' = (uI) a (u^-1 d') with
    u = d'_0 and uI in D, so the right scalings with d'_0 = 1 reach every
    D a d': the key is the smallest left minimum over those |units|^(n-1).
    """
    m, n = instance.modulus, instance.n
    tables = instance._caches.get("double_coset_tables")
    if tables is None:
        units = np.array(instance.ring.units(), dtype=np.int64)
        rows = rings.unpack_vectors(np.arange(m**n, dtype=np.int64), m, n)
        rowmin = rings.pack_vectors(units[:, None, None] * rows % m, m).min(axis=0)
        scalings = np.array(
            [(1,) + u for u in itertools.product(units.tolist(), repeat=n - 1)], dtype=np.int64
        )
        tables = instance._caches["double_coset_tables"] = (rowmin, scalings)
    rowmin, scalings = tables
    codes = np.asarray(codes, dtype=np.int64)
    keys = np.empty(codes.size, dtype=np.int64)
    weights = m ** (n * np.arange(n, dtype=np.int64))
    step = max(1, _BFS_CHUNK // len(scalings))
    for start in range(0, codes.size, step):
        mats = rings.unpack_matrices(codes[start : start + step], m, n)
        scaled = mats[:, None] * scalings[None, :, None, :] % m
        keys[start : start + step] = (rowmin[rings.pack_vectors(scaled, m)] @ weights).min(axis=1)
    return keys


def conjugation_closure_check(instance, subgroup: Subgroup, ambient: Subgroup, rng=None, samples=None):
    """Explicit check that f^-1 s f stays in the subgroup.

    Exhaustive over all (f, s) pairs, one f per left coset of the subgroup,
    unless a sample count is given; returns (holds, witness codes).
    """
    sub_mats = subgroup.mats()
    m = instance.modulus
    if samples is None:
        # (fg)^-1 s (fg) = g^-1 (f^-1 s f) g, so for g in G, f^-1 s f and
        # (fg)^-1 s (fg) lie in G together (even when G is not inside F):
        # one f per left coset fG decides the whole coset.  Ascending order
        # reaches each coset at its smallest code, so no f before the first
        # failing one fails and the witness is the all-f loop's.
        amb = ambient.codes
        seen = np.zeros(amb.size, dtype=bool)
        for k in range(amb.size):
            if seen[k]:
                continue
            f_code = int(amb[k])
            f_mat = instance.mat_of_code(f_code)
            coset = rings.pack_matrices(rings.mat_mul(f_mat[None, :, :], sub_mats, m), m)
            idx = np.minimum(np.searchsorted(amb, coset), amb.size - 1)
            seen[idx[amb[idx] == coset]] = True
            codes = conjugate_codes(instance, f_mat, sub_mats)
            bad = ~subgroup.contains_many(codes)
            if bool(np.any(bad)):
                return False, (f_code, int(subgroup.codes[np.argmax(bad)]))
        return True, None
    fs = rng.choice(ambient.codes, size=samples, replace=True)
    ss = rng.choice(subgroup.codes, size=samples, replace=True)
    f_mats = rings.unpack_matrices(fs, m, instance.n)
    s_mats = rings.unpack_matrices(ss, m, instance.n)
    bad = ~subgroup.contains_many(conjugate_codes(instance, f_mats, s_mats))
    if bool(np.any(bad)):
        k = int(np.argmax(bad))
        return False, (int(fs[k]), int(ss[k]))
    return True, None
