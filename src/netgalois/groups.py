"""Matrix subgroups acting on the lattice: closure, fixers, fixed sublattices,
transvection sets, the Galois maps, and normality.

Subgroups are explicit: a boolean mask over GL positions (`Instance.gl_codes`,
ascending), read off as codes on demand.  Target orders stay below a few
million, so full enumeration beats stabiliser chains and is exactly
reproducible; all set iterations run in canonical code order.  The matrix
group acts non-faithfully (scalar-like units act trivially), and fixers
absorb that kernel automatically.  Every GL-wide question about where g
sends a lattice element x reads x's `Instance.gl_image` column: a fix mask
(`fix_mask`) is that column compared with x, every fixer is an AND of fix
masks, and the transvection tables gather per-element support tables by the
columns.  Smaller batches of codes (generators, members of a subgroup) go
through `fixes_mask`, or through `Instance.perm` where whole lattice
permutations are read (`axis_subgroup`, `classify_transvection`).  Every
closure is one BFS on the cosets of the row scalings inside a seed subgroup
(`coset_closure`), by table lookups on the row codes and no matrix product:
D scales rows, and a matrix acting on the right acts on each row alone.
`close_subgroup` runs it over the trivial subgroup, and `double_coset_key`
reads the same row-scale table.  The one normality routine is `normalizes`:
every f of a call against chunks of the s, one broadcast product per chunk,
read for the first failing (f, s).  `is_normal_in` and the exhaustive
`conjugation_closure_check` (one f per right coset of the subgroup) call it;
only the sampled check conjugates aligned (f, s) pairs of its own.
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
    """Member set as a boolean mask over GL (aligned with `Instance.gl_codes`),
    with generator provenance."""

    def __init__(self, instance, mask, generator_codes=(), closed=False):
        if mask.dtype != bool or mask.shape != instance.gl_codes.shape:
            raise InputError("a subgroup is a boolean mask over the GL positions")
        self.instance = instance
        self._mask = mask
        self._order = int(np.count_nonzero(mask))
        self.generator_codes = tuple(int(c) for c in generator_codes)
        self.closed = closed
        # key and fingerprint; `intern_subgroup` shares one record between equal subgroups
        self._identity = {}

    def __len__(self):
        return self._order

    @property
    def codes(self) -> np.ndarray:
        """Member codes, ascending (GL positions follow code order)."""
        return self.instance.gl_codes[self._mask]

    def contains(self, code: int) -> bool:
        return bool(self.contains_many([code])[0])

    def contains_many(self, codes) -> np.ndarray:
        pos = self.instance.positions(codes)
        return (pos >= 0) & self._mask[pos]

    def gl_mask(self) -> np.ndarray:
        """The member mask over GL positions."""
        return self._mask

    def is_subset_of(self, other: "Subgroup") -> bool:
        return not bool(np.any(self._mask & ~other._mask))

    def __eq__(self, other):
        if not isinstance(other, Subgroup) or self._order != other._order:
            return False
        return self._mask is other._mask or np.array_equal(self._mask, other._mask)

    def __hash__(self):
        return hash(self.key())

    def key(self) -> bytes:
        """In-process content key: the SHA-1 digest of the packed member mask.

        Computed once per member set: `intern_subgroup` swaps the mask for an
        equal one and shares the record holding the key.
        """
        if "key" not in self._identity:
            self._identity["key"] = hashlib.sha1(np.packbits(self._mask)).digest()
        return self._identity["key"]

    def fingerprint(self) -> str:
        """Stable across processes; names subgroups in sweep reports.

        Computed once per pooled member set, like `key`.  Hashes the ascending
        int64 member codes.
        """
        if "fingerprint" not in self._identity:
            self._identity["fingerprint"] = hashlib.sha1(self.codes).hexdigest()[:16]
        return self._identity["fingerprint"]

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
            # JSON integers only: floats, booleans and text are not truncated or cast
            try:
                mat = np.asarray(g)
                entries = np.asarray(g, dtype=object).ravel()
            except ValueError as exc:
                raise InputError(f"generator {g!r} is not an integer matrix") from exc
            if mat.dtype.kind != "i" or any(isinstance(e, bool) for e in entries):
                raise InputError(f"generator {g!r} is not an integer matrix")
            mat = mat % instance.modulus
            if mat.shape != (instance.n, instance.n):
                raise InputError(f"generator shape {mat.shape} does not match n={instance.n}")
            if not instance.ring.is_unit(int(rings.det_batch(mat, instance.modulus))):
                raise InputError(f"generator {g} is not invertible")
            codes.append(instance.code_of_mat(mat))
        return close_subgroup(instance, codes, cap=cap)


def intern_subgroup(instance, subgroup: Subgroup) -> Subgroup:
    """Share the mask and identity between equal subgroups held in caches.

    The returned object keeps its own generator provenance; the GL mask and
    the record of key and fingerprint are pooled, keyed by `Subgroup.key`, so
    each pooled member set is fingerprinted once.
    """
    pool = instance._caches.setdefault("subgroup_pool", {})
    key = subgroup.key()
    base = pool.get(key)
    if base is None:
        pool[key] = subgroup
        return subgroup
    if base is not subgroup:
        subgroup._mask = base._mask
        if "fingerprint" in subgroup._identity:
            base._identity.setdefault("fingerprint", subgroup._identity["fingerprint"])
        subgroup._identity = base._identity
    return subgroup


def close_subgroup(instance, generator_codes, cap: int = DEFAULT_CLOSURE_CAP) -> Subgroup:
    """Closure of the generators (plus identity): `coset_closure` over the
    trivial subgroup, whose cosets are single elements."""
    identity = instance.mask_of(instance.diagonal_codes([1] * instance.n))
    trivial = Subgroup(instance, identity, closed=True)
    return coset_closure(instance, trivial, generator_codes, cap=cap)


def gl_code_list(instance, codes) -> list[int]:
    """The codes as ints, each an integer (not a bool) naming a GL element
    through `Instance.positions`; any other entry is an `InputError`."""
    codes = list(codes)
    ints = [c if type(c) is not bool and isinstance(c, (int, np.integer)) else -1 for c in codes]
    for code, pos in zip(codes, instance.positions(np.array(ints, dtype=object)).tolist()):
        if pos < 0:
            raise InputError(f"code {code!r} names no element of GL")
    return [int(c) for c in ints]


def row_products(instance, codes) -> np.ndarray:
    """Entry [k, v] is the row code of v g_k, for the matrix g_k of each code
    and each of the m^n row codes v.  Cached per code."""
    tables = instance._caches.setdefault("row_products", {})
    new = [c for c in dict.fromkeys(codes) if c not in tables]
    if new:
        tables.update(zip(new, _row_product_tables(instance, new)))
    return np.stack([tables[c] for c in codes])


def _row_product_tables(instance, codes) -> np.ndarray:
    """`row_products` of the codes, uncached."""
    m, n = instance.modulus, instance.n
    rows = rings.unpack_vectors(np.arange(m**n, dtype=np.int64), m, n)
    mats = rings.unpack_matrices(np.array(codes, dtype=np.int64), m, n)
    return rings.pack_vectors(rows @ mats % m, m)


def row_scale_table(instance) -> np.ndarray:
    """Entry [k, v] is the row code of u_k v, u_k the k-th unit: the row
    products of the scalar matrices u_k I."""
    scalars = [[u] * instance.n for u in instance.ring.units()]
    return row_products(instance, instance.diagonal_codes(scalars).tolist())


def scalar_coset_key(instance, codes) -> np.ndarray:
    """Smallest code of the scalar coset {u a : u a unit of R} of each GL code a.

    Row i of u a is u a_i, at weight m^(i n), so the top row n - 1 orders
    the coset first.  A row of an invertible matrix over the local ring has
    a unit entry, so u a_(n-1) = u' a_(n-1) only for u = u': the unit with
    the smallest top row (read off `row_scale_table`) is unique, and the key
    is u a for that unit.
    """
    scale = row_scale_table(instance)
    digits = instance.row_digits(codes)
    best = scale.argmin(axis=0)[digits[-1]]
    weights = instance.modulus ** (instance.n * np.arange(instance.n, dtype=np.int64))
    return sum(w * scale[best, d] for w, d in zip(weights.tolist(), digits))


def coset_closure(instance, seed: Subgroup, extra_codes, cap: int = DEFAULT_CLOSURE_CAP) -> Subgroup:
    """Closure of <seed, extras> by BFS on the cosets T y of the row scalings
    T in the seed, by table lookups on row codes: no matrix is multiplied.

    Row i of y is its digit y_i in base m^n (`Instance.row_digits`), and
    T = T_0 x ... x T_(n-1), T_i the units u with diag(1, .., u at i, .., 1)
    in the seed.  Three exact facts: (y g)_i = y_i g, row i of a product
    being row i of y times g, so y -> y g is n gathers from g's
    `row_products` table; t in T scales row i by t_i, so T y is the outer
    sum over i of m^(i n) scale[T_i, y_i] (`row_scale_table`); row i fills
    its own digits, so min(T y) = sum_i m^(i n) rowmin_i[y_i], rowmin_i[v]
    the smallest scale[T_i, v], and this key, itself a member, names the
    coset before it is expanded.  The BFS starts from the seed's cosets (its
    members equal to their key).  y -> y g permutes the cosets, so a step of
    distinct cosets by one generator gives distinct keys: the reached ones
    are dropped, the rest scattered in before the next step.  Closure under
    products yields the subgroup, inverses included, in a finite group.
    """
    if not seed.closed:
        raise InputError("coset closure needs a closed seed subgroup")
    extra_codes = sorted(set(gl_code_list(instance, extra_codes)))
    gen_codes = list(seed.generator_codes) + extra_codes
    if not gen_codes:
        return seed
    m, n = instance.modulus, instance.n
    weights, rows = m ** (n * np.arange(n, dtype=np.int64)), np.arange(n)[:, None]
    # T_i: the seed's mask at diag(1, .., u at i, .., 1), u over the units
    units = np.array(instance.ring.units(), dtype=np.int64)[:, None]
    scalings = instance.diagonal_codes(np.where(np.eye(n, dtype=bool)[:, None], units, 1))
    scale, in_t = row_scale_table(instance), seed.gl_mask()[instance.positions(scalings)]
    order = int(np.prod(in_t.sum(axis=1)))
    rowmin = np.stack([scale[t].min(axis=0) for t in in_t])
    parts = [w * scale[t] for w, t in zip(weights.tolist(), in_t)]
    # steps[k, i, v]: row i of the key of T y g_k, for the row code v of y_i
    steps = rowmin[rows[None], row_products(instance, gen_codes)[:, None]]

    # the members reached, by code: a coset is scattered in with no GL index
    reached, members = np.zeros(m ** (n * n), dtype=bool), seed.codes
    reached[members] = True
    digits = np.stack(instance.row_digits(members))
    frontier = digits[:, weights @ rowmin[rows, digits] == members]
    cosets, chunk = frontier.shape[1], max(1, _BFS_CHUNK // order)
    while frontier.shape[1]:
        fresh = []
        for start in range(0, frontier.shape[1], chunk):
            block = frontier[:, start : start + chunk]
            for step in steps:
                keys = step[rows, block]
                keys = keys[:, ~reached[weights @ keys]]
                if not keys.size:
                    continue
                reached[_coset_codes(parts, keys)] = True
                fresh.append(keys)
                cosets += keys.shape[1]
                if cosets * order > cap:
                    raise CapExceeded(f"coset closure passed cap {cap}", cosets * order)
        frontier = np.concatenate(fresh, axis=1) if fresh else frontier[:, :0]
    return Subgroup(instance, reached[instance.gl_codes], generator_codes=gen_codes, closed=True)


def _coset_codes(parts, keys) -> np.ndarray:
    """Codes of T y, one row per key y (a column of row codes): the outer sum
    over i of parts[i][:, y_i], the codes of T_i y_i weighted by m^(i n)."""
    codes = parts[0][:, keys[0]].T
    for part, row in zip(parts[1:], keys[1:]):
        codes = (codes[:, :, None] + part[:, row].T[:, None, :]).reshape(len(codes), -1)
    return codes


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
        missing = np.argmax(subgroup.gl_mask() & ~current.gl_mask())
        gens.append(int(subgroup.instance.gl_codes[missing]))
        current = coset_closure(subgroup.instance, current, gens[-1:], cap=cap)
    if not current.is_subset_of(subgroup):
        raise InputError("member set is not closed; cannot extract generators")
    return gens


# -- fixers and fixed sublattices -------------------------------------------


def fixes_mask(instance, codes, x: int) -> np.ndarray:
    """Boolean mask: which matrices of a batch of codes fix lattice element x."""
    return instance.act_batch(codes, x) == x


def fix_mask(instance, x: int) -> np.ndarray:
    """Mask over GL (aligned with `gl_codes`) of the matrices fixing x.

    Read off the element's `gl_image` column once and cached: fixers AND
    these masks many times over.
    """
    masks = instance._caches.setdefault("fix_masks", {})
    x = int(x)
    mask = masks.get(x)
    if mask is None:
        mask = masks[x] = instance.gl_image(x) == x
    return mask


def fixer(instance, elements) -> Subgroup:
    """All GL matrices fixing every listed element: an AND of `fix_mask`s."""
    mask = np.ones(len(instance.gl()), dtype=bool)
    for x in set(int(e) for e in elements):
        mask &= fix_mask(instance, x)
    return intern_subgroup(instance, Subgroup(instance, mask, closed=True))


def fixed_lattice(instance, subgroup: Subgroup) -> SublatticeHandle:
    """Elements fixed by the whole subgroup, tested on its generators when it
    has them (fixing the generators is fixing the group they generate)."""
    if subgroup.generator_codes:
        return fixed_by(instance, np.array(subgroup.generator_codes, dtype=np.int64))
    return fixed_by(instance, subgroup.codes)


def fixed_by(instance, codes) -> SublatticeHandle:
    """Elements fixed by every matrix of a batch of codes."""
    lat = instance.lattice
    members = [x for x in range(len(lat)) if bool(np.all(fixes_mask(instance, codes, x)))]
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
    away = np.flatnonzero(instance.support_table[:, i] == instance.lattice.bottom)
    codes = instance.diagonal().codes
    keep = np.all(instance.perm(codes)[:, away] == away, axis=1)
    return Subgroup(instance, instance.mask_of(codes[keep]), closed=False)


def classify_transvection(instance, mat: np.ndarray, i: int, j: int):
    """The x with mat in the transvection set for (i, j), or None.

    Clauses: fixes everything below the other atoms, preserves the i-support
    of everything below atom i, and sends atom i to something supported by
    atom i at i, x at j, nothing elsewhere.
    """
    if i == j:
        raise InputError("transvections need i != j")
    lat = instance.lattice
    perm = instance.perm([instance.code_of_mat(mat)])[0]
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
    lat = instance.lattice
    frame = instance.frame
    support = instance.support_table
    e_i = frame.atoms[i]
    ok = np.ones(len(g), dtype=bool)
    for s in range(instance.n):
        if s == i:
            continue
        for xs in frame.atom_downsets[s]:
            if xs == lat.bottom:
                continue
            ok &= fix_mask(instance, xs)
    # each support clause is a table over the lattice, gathered by the image
    # column; for xi = e_i it is the atom_ok test below
    for xi in frame.atom_downsets[i]:
        if xi in (lat.bottom, e_i):
            continue
        ok &= (support[:, i] == xi)[instance.gl_image(xi)]
    others = np.delete(support, [i, j], axis=1)
    atom_ok = (support[:, i] == e_i) & np.all(others == lat.bottom, axis=1)
    img = instance.gl_image(e_i)
    ok &= atom_ok[img]
    out = np.full(len(g), -1, dtype=np.int32)
    out[ok] = support[img[ok], j]
    instance._caches[key] = out
    return out


def transvections(instance, i: int, j: int, x: int) -> np.ndarray:
    """Sorted codes of the full transvection set for (i, j) at x (may be empty)."""
    table = transvection_table(instance, i, j)
    return instance.gl_codes[table == int(x)]


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


# -- normality and conjugation ----------------------------------------------


def conjugate_codes(instance, f_mats: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Codes of f^-1 s f for a batch of s, by one f or by a batch of f
    broadcast against the s (numpy broadcasting)."""
    m = instance.modulus
    f_inv = rings.inv_batch(f_mats, instance.ring)
    return rings.pack_matrices(rings.mat_mul(rings.mat_mul(f_inv, mats, m), f_mats, m), m)


def normalizes(instance, f_codes, subgroup: Subgroup, gens=None):
    """(holds, witness): whether every f conjugates every s of `gens` into
    the subgroup, and else the first failing (f, s) in f-major order.

    `gens` defaults to a generating set of the subgroup: conjugation is an
    automorphism, and containment of a finite subgroup of equal order forces
    equality.  All f go through one broadcast `conjugate_codes` per chunk of
    s, of at most `_BFS_CHUNK // len(f_codes)` codes.  A failure at f_k
    leaves only f_0 .. f_(k-1) to test on the later chunks.
    """
    m, n = instance.modulus, instance.n
    f_codes = np.asarray(f_codes, dtype=np.int64)
    s_codes = np.asarray(generating_subset(subgroup) if gens is None else gens, dtype=np.int64)
    f_mats = rings.unpack_matrices(f_codes, m, n)[:, None]
    chunk, witness = max(1, _BFS_CHUNK // max(1, f_codes.size)), None
    for start in range(0, s_codes.size, chunk):
        block = s_codes[start : start + chunk]
        s_mats = rings.unpack_matrices(block, m, n)[None]
        bad = ~subgroup.contains_many(conjugate_codes(instance, f_mats, s_mats))
        if bool(np.any(bad)):
            k, j = divmod(int(np.argmax(bad)), block.size)
            witness = (int(f_codes[k]), int(block[j]))
            if not k:
                break
            f_codes, f_mats = f_codes[:k], f_mats[:k]
    return witness is None, witness


def is_normal_in(instance, subgroup: Subgroup, ambient: Subgroup):
    """(normal?, witness) where the witness is a failing (f, s) code pair.

    Containment and conjugation run on the subgroup's generators when it
    carries a verified generating set, else on the whole member set.
    """
    gens_s = subgroup.generator_codes
    probe_codes = np.array(gens_s, dtype=np.int64) if gens_s else subgroup.codes
    outside = probe_codes[~ambient.contains_many(probe_codes)]
    if outside.size:
        return False, (None, int(outside[0]))
    gens_f = ambient.generator_codes or generating_subset(ambient)
    return normalizes(instance, gens_f, subgroup, probe_codes)


def double_coset_key(instance, codes) -> np.ndarray:
    """Smallest code over D a D for each code a of a batch; <D, a> depends only on it.

    Row i of a fills its own digits at weight m^(i n), and d in D scales row
    i by d_i: the minimum over D a is sum_i m^(i n) rowmin[a_i], with
    rowmin[v] the smallest code of u v over units u (`row_scale_table`).  On
    the right a d' = (uI) a (u^-1 d') with u = d'_0 and uI in D, so the right
    scalings with d'_0 = 1 reach every D a d'; row i of a d' is a_i d'.  So
    the key is the smallest left minimum over those |units|^(n-1) scalings,
    with tables[s] = rowmin[row code of v d'_s].
    """
    m, n = instance.modulus, instance.n
    tables = instance._caches.get("double_coset_tables")
    if tables is None:
        right = itertools.product(instance.ring.units(), repeat=n - 1)
        scalings = instance.diagonal_codes([(1,) + d for d in right]).tolist()
        tables = row_scale_table(instance).min(axis=0)[row_products(instance, scalings)]
        instance._caches["double_coset_tables"] = tables
    codes = np.asarray(codes, dtype=np.int64)
    keys = np.empty(codes.size, dtype=np.int64)
    step = max(1, _BFS_CHUNK // len(tables))
    for start in range(0, codes.size, step):
        digits = instance.row_digits(codes[start : start + step])
        left = sum(m ** (i * n) * tables[:, d] for i, d in enumerate(digits))
        keys[start : start + step] = left.min(axis=0)
    return keys


def conjugation_closure_check(instance, subgroup: Subgroup, ambient: Subgroup, rng=None, samples=None):
    """Explicit check that f^-1 s f stays in the subgroup.

    Exhaustive over all (f, s) pairs, one f per right coset G f of the
    subgroup G, unless a sample count is given; returns (holds, witness codes).
    """
    m, n = instance.modulus, instance.n
    if samples is None:
        # (g f)^-1 s (g f) = f^-1 (g^-1 s g) f for g in G, and s -> g^-1 s g
        # permutes G: every f of a right coset G f conjugates G onto the same
        # set (even when G is not inside F), so one f per coset decides it.
        # Ascending order reaches each coset at its smallest code, so no f
        # before the first failing one fails and the witness is the all-f
        # loop's.  Row i of g f is g_i f, so G f is marked by gathers from
        # f's row-product table on G's row digits; the table is not cached,
        # as no later call reads a representative's table.
        s_codes, weights = subgroup.codes, m ** (n * np.arange(n, dtype=np.int64))
        seen = np.zeros(m ** (n * n), dtype=bool)
        for f_code in _unseen_codes(instance, ambient.gl_mask(), seen):
            holds, witness = normalizes(instance, [f_code], subgroup, s_codes)
            if not holds:
                return False, witness
            table = _row_product_tables(instance, [f_code])[0]
            for start in range(0, s_codes.size, _BFS_CHUNK):
                digits = np.stack(instance.row_digits(s_codes[start : start + _BFS_CHUNK]))
                seen[weights @ table[digits]] = True
        return True, None
    fs = rng.choice(ambient.codes, size=samples, replace=True)
    ss = rng.choice(subgroup.codes, size=samples, replace=True)
    f_mats = rings.unpack_matrices(fs, m, n)
    s_mats = rings.unpack_matrices(ss, m, n)
    bad = ~subgroup.contains_many(conjugate_codes(instance, f_mats, s_mats))
    if bool(np.any(bad)):
        k = int(np.argmax(bad))
        return False, (int(fs[k]), int(ss[k]))
    return True, None


def _unseen_codes(instance, inside, seen):
    """The GL codes at the `inside` positions, ascending, less the codes
    marked in `seen`, which is read as each position is reached.

    Each search doubles its window until the window holds a hit, so the scan
    stays linear in |GL| and lists no positions.
    """
    codes, pos, width = instance.gl_codes, 0, 1
    while pos < codes.size:
        window = slice(pos, pos + width)
        free = inside[window] & ~seen[codes[window]]
        if bool(np.any(free)):
            pos += int(np.argmax(free))
            yield int(codes[pos])
            pos, width = pos + 1, 1
        else:
            pos, width = pos + width, 2 * width
