"""Matrix subgroups acting on the lattice: closure, fixers, fixed sublattices,
transvection sets, the Galois maps, and normality.

Subgroups are explicit member sets, read off as codes on demand.  Target
orders stay below a few million, so full enumeration beats stabiliser chains
and is exactly reproducible; all set iterations run in canonical code order.
The matrix group acts non-faithfully (scalar-like units act trivially), and
fixers absorb that kernel automatically.  The objects of the correspondence
are the subgroups between the frame stabiliser D and GL (<D, g>, fixers of
elements of the base sublattice L0', the net subgroups, GL), so each is a
union of right cosets gD: a `Subgroup` is a boolean mask over the |GL|/|D|
coset labels of `right_cosets` (2 744 on Z/49, against 4 840 416 GL
elements), the cosets numbered in code order.  GL and the labels come from
one pass over the code grid (`enumerate_gl`): over the local ring Z/p^k,
g d for d in D scales column k of g by the unit d_k, a column with no unit
entry puts det g in pR, and scaling columns by units multiplies det g by a
unit, so whether g is invertible, and its coset gD, depend only on the
tuple of its columns' classes up to units (`_column_classes`).  Membership
reads a code's label off its columns (`coset_labels`), with no index over
the code grid; a GL-sized mask or code list is expanded from the labels
only where a GL-aligned result is read (`Subgroup.gl_mask`, `codes`,
`fingerprint`, `transvections`).  GL's codes are held in the narrowest
unsigned dtype below m^(n^2); every reader that computes with codes widens
them to int64 first (`row_digits`, `coset_labels`, `unpack_vectors`), and
`fingerprint` hashes int64 blocks.  D fixes every element of L0', so
(g d)(x) = g(x) there: where all of GL sends an L0' element is read once per
right coset off its `coset_image` column, and fixers (of L0' elements only),
fixed sublattices (a subgroup containing D fixes only L0' elements) and
transvection sets are per-coset tables (`coset_fix_mask`, `fixed_lattice`,
`transvection_table`).  Smaller batches of codes (generators, members of a
subgroup) go through `fixes_mask`, or through `Instance.perm` where whole
lattice permutations are read (`axis_subgroup`, `classify_transvection`).
Every closure of the program is `coset_closure`: an orbit on the right
cosets of D under left multiplication by the generators, by table lookups.
Only `close_subgroup`, which reads generator lists from subgroup files, runs
a plain element BFS over the code grid, and it refuses a closure that misses
D.  D a D is the union of the cosets d a D, so `double_coset_key` reads the
first coset of each orbit under D's generators.
The one normality routine is `normalizes`: every f of a call against chunks
of the s, one broadcast product per chunk, read for the first failing
(f, s).  Against a whole subgroup it decides on the subgroup's generators
and lists the members only for a failing f.  `is_normal_in` and the
exhaustive `conjugation_closure_check` call it, the latter with one f per
right coset fD of D in the ambient group (D normalises the subgroup, so the
verdict is constant on fD); only the sampled check conjugates aligned
(f, s) pairs of its own.  Instance-wide tables live in
`Instance._caches`, read only here: the `instance_cache` memo, the subgroup
pool and the row-product tables.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools

import numpy as np

from . import rings
from .errors import InputError
from .lattice import SublatticeHandle

_BFS_CHUNK = 1 << 18
_GATHER_CHUNK = 1 << 16


def instance_cache(fn):
    """Memoise fn(instance, *args) in `instance._caches` under
    (fn.__qualname__, *args): one entry per instance and argument tuple,
    filled on first use (or by `sweep.prewarm` before workers fork)."""
    name = fn.__qualname__

    @functools.wraps(fn)
    def cached(instance, *args):
        key = (name, *args)
        out = instance._caches.get(key)
        if out is None:
            out = instance._caches[key] = fn(instance, *args)
        return out

    return cached


class Subgroup:
    """A subgroup F with D <= F <= GL, and its generator provenance.

    F is the union of its right cosets gD, held as a boolean mask over the
    `right_cosets` labels (`coset_mask`); `gl_mask`, `codes`, `codes_at` and
    `fingerprint` expand it by one label gather on demand.
    """

    def __init__(self, instance, cosets, generator_codes=()):
        per_coset = instance.ring.unit_count**instance.n
        if cosets.dtype != bool or cosets.shape != (instance.gl_codes.size // per_coset,):
            raise InputError("a subgroup is a boolean mask over the right cosets of D")
        self.instance = instance
        self._cosets = cosets
        self._order = int(np.count_nonzero(cosets)) * per_coset
        self.generator_codes = tuple(int(c) for c in generator_codes)
        # key and fingerprint; `intern_subgroup` shares one record between equal subgroups
        self._identity = {}

    def with_generators(self, generator_codes) -> "Subgroup":
        """This member set with a verified generating set attached, sharing
        the member mask and the record of key and fingerprint."""
        out = copy.copy(self)
        out.generator_codes = tuple(int(c) for c in generator_codes)
        return out

    def __len__(self):
        return self._order

    @property
    def codes(self) -> np.ndarray:
        """Member codes, ascending (GL positions follow code order), in
        `gl_codes`' narrow unsigned dtype."""
        if self._order == self.instance.gl_codes.size:
            return self.instance.gl_codes
        return self.instance.gl_codes[self.gl_mask()]

    def codes_at(self, ranks) -> np.ndarray:
        """`codes[ranks]`, found through per-block member counts of the mask
        so that no list of all member codes is built."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if self._order == self.instance.gl_codes.size:  # all of GL: ranks are positions
            return self.instance.gl_codes[ranks]
        mask = self.gl_mask()
        starts = np.arange(0, mask.size, _BFS_CHUNK).tolist()
        ends = np.cumsum([np.count_nonzero(mask[s : s + _BFS_CHUNK]) for s in starts])
        blocks = np.searchsorted(ends, ranks, side="right")
        picks = np.empty_like(ranks)
        for b in rings.distinct(blocks).tolist():
            members = np.flatnonzero(mask[starts[b] : starts[b] + _BFS_CHUNK])
            drawn = blocks == b
            picks[drawn] = starts[b] + members[ranks[drawn] - ends[b] + members.size]
        return self.instance.gl_codes[picks]

    def contains(self, code: int) -> bool:
        return bool(self.contains_many([code])[0])

    def contains_many(self, codes) -> np.ndarray:
        """Which codes name members: each one's label, read off its columns."""
        labels = coset_labels(self.instance, codes)
        return (labels >= 0) & self._cosets[labels]

    def coset_mask(self) -> np.ndarray:
        """The member mask over the right cosets of D."""
        return self._cosets

    def gl_mask(self) -> np.ndarray:
        """The member mask over GL positions, the coset mask expanded by label."""
        return _gl_mask_of(self.instance, self._cosets)

    def is_subset_of(self, other: "Subgroup") -> bool:
        return not bool(np.any(self._cosets & ~other._cosets))

    def __eq__(self, other):
        if not isinstance(other, Subgroup) or self._order != other._order:
            return False
        return self._cosets is other._cosets or np.array_equal(self._cosets, other._cosets)

    def __hash__(self):
        return hash(self.key())

    def key(self) -> bytes:
        """In-process content key: the SHA-1 digest of the packed coset mask.

        Computed once per member set: `intern_subgroup` swaps the mask for an
        equal one and shares the record holding the key.
        """
        if "key" not in self._identity:
            self._identity["key"] = hashlib.sha1(np.packbits(self._cosets)).digest()
        return self._identity["key"]

    def fingerprint(self) -> str:
        """Stable across processes; names subgroups in sweep reports.

        Computed once per pooled member set, like `key`.  Hashes the ascending
        member codes as int64, fed a `_GATHER_CHUNK` block at a time so that
        no int64 copy of a narrow member list is built.
        """
        if "fingerprint" not in self._identity:
            codes, digest = self.codes, hashlib.sha1()
            for start in range(0, codes.size, _GATHER_CHUNK):
                digest.update(codes[start : start + _GATHER_CHUNK].astype(np.int64))
            self._identity["fingerprint"] = digest.hexdigest()[:16]
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
    def from_json(instance, obj: dict) -> "Subgroup":
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
        return close_subgroup(instance, codes)


def intern_subgroup(instance, subgroup: Subgroup) -> Subgroup:
    """Share the coset mask and identity between equal subgroups held in
    caches.

    The returned object keeps its own generator provenance; the mask and the
    record of key and fingerprint are pooled, keyed by `Subgroup.key`, so
    each pooled member set is fingerprinted once.
    """
    # keyed by the subgroup's content, not by arguments: no `instance_cache`
    pool = instance._caches.setdefault("subgroup_pool", {})
    key = subgroup.key()
    base = pool.get(key)
    if base is None:
        pool[key] = subgroup
        return subgroup
    if base is not subgroup:
        subgroup._cosets = base._cosets
        if "fingerprint" in subgroup._identity:
            base._identity.setdefault("fingerprint", subgroup._identity["fingerprint"])
        subgroup._identity = base._identity
    return subgroup


def close_subgroup(instance, generator_codes) -> Subgroup:
    """<generators> by element BFS over the code grid from the identity, the
    generators as `Subgroup.generator_codes` (sorted, without repeats).

    Row i of y g is row i of y times g, so y -> y g is n gathers from g's
    `row_products` table on y's row codes (`Instance.row_digits`), a chunk
    of `_BFS_CHUNK` codes at a time; closure under products is the subgroup
    in a finite group.  A closure that misses D's generators is no object of
    the correspondence and is an `InputError`; one that holds them holds D,
    so it is the union of its right cosets gD, read at their smallest codes.
    """
    gens = sorted(set(gl_code_list(instance, generator_codes)))
    m, n = instance.modulus, instance.n
    weights = m ** (n * np.arange(n, dtype=np.int64))
    tables = row_products(instance, gens) if gens else []
    identity = instance.diagonal_codes([1] * n)
    reached = np.zeros(m ** (n * n), dtype=bool)
    reached[identity] = True
    frontier = np.array([identity], dtype=np.int64)
    while frontier.size:
        fresh = []
        for start in range(0, frontier.size, _BFS_CHUNK):
            digits = np.stack(instance.row_digits(frontier[start : start + _BFS_CHUNK]))
            for table in tables:
                codes = weights @ table[digits]
                codes = rings.distinct(codes[~reached[codes]])
                reached[codes] = True
                fresh.append(codes)
        frontier = np.concatenate(fresh) if fresh else frontier[:0]
    if not bool(np.all(reached[instance.diagonal_generator_codes()])):
        raise InputError("the subgroup must contain every invertible diagonal matrix")
    return Subgroup(instance, reached[right_cosets(instance)[1]], generator_codes=gens)


def gl_code_list(instance, codes) -> list[int]:
    """The codes as ints, each an integer (not a bool) naming a GL element
    through `coset_labels`; any other entry is an `InputError`."""
    codes = list(codes)
    ints = [c if type(c) is not bool and isinstance(c, (int, np.integer)) else -1 for c in codes]
    for code, label in zip(codes, coset_labels(instance, np.array(ints, dtype=object)).tolist()):
        if label < 0:
            raise InputError(f"code {code!r} names no element of GL")
    return [int(c) for c in ints]


def row_products(instance, codes) -> np.ndarray:
    """Entry [k, v] is the row code of v g_k, for the matrix g_k of each code
    and each of the m^n row codes v.  Cached per code by hand, not by
    `instance_cache`: the codes not yet held are built in one batch."""
    tables = instance._caches.setdefault("row_products", {})
    new = [c for c in dict.fromkeys(codes) if c not in tables]
    if new:
        m, n = instance.modulus, instance.n
        rows = rings.unpack_vectors(np.arange(m**n, dtype=np.int64), m, n)
        mats = rings.unpack_matrices(np.array(new, dtype=np.int64), m, n)
        tables.update(zip(new, rings.pack_vectors(rows @ mats % m, m)))
    return np.stack([tables[c] for c in codes])


@instance_cache
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


def coset_closure(instance, seed: Subgroup, extra_codes) -> Subgroup:
    """Closure of <seed, extras>, the seed given by its generators (or of
    order 1): an orbit on the right cosets of D (`_coset_orbit`).  Closure
    under products yields the subgroup, inverses included, in a finite
    group."""
    if len(seed) > 1 and not seed.generator_codes:
        raise InputError("coset closure needs a seed given by its generators")
    extra_codes = sorted(set(gl_code_list(instance, extra_codes)))
    gen_codes = list(seed.generator_codes) + extra_codes
    if not gen_codes:
        return seed
    cosets = _coset_orbit(instance, seed.coset_mask(), gen_codes)
    return Subgroup(instance, cosets, generator_codes=gen_codes)


def _coset_orbit(instance, cosets, gen_codes) -> np.ndarray:
    """The right cosets of D reached from the marked ones by left
    multiplication with the generators, as a mask over the labels.

    For H containing D and s in H, s (h D) = (s h) D, so the cosets of H
    are the orbit of the seed's cosets under the seed's generators and the
    extras.  Each round steps the whole frontier by every generator at once,
    a gather from `_left_tables` on each column, reads the cosets off the
    columns (`column_labels`), and sends one product per fresh coset on.
    No matrix is multiplied and no GL-sized array is built.
    """
    n, tables = instance.n, _left_tables(instance, gen_codes)
    marked = cosets.copy()
    # the columns of one member per marked coset
    frontier = np.stack(_columns(instance, right_cosets(instance)[1][cosets]))
    while frontier.shape[1]:
        rows = tables[:, frontier].transpose(1, 0, 2).reshape(n, -1)  # [i, (k, f)]
        reached, first = np.unique(column_labels(instance, rows), return_index=True)
        fresh = ~marked[reached]
        marked[reached[fresh]] = True
        frontier = rows[:, first[fresh]]
    return marked


def _left_tables(instance, gen_codes) -> np.ndarray:
    """Entry [k, v]: the code of the column s_k v, for each generator s_k and
    each of the m^n column codes v.  (s v)^T = v^T s^T, so this is the
    `row_products` table of s^T, whose row i is column i of s, at weight
    m^(n i); column i of s h is s times column i of h."""
    n, columns = instance.n, np.stack(_columns(instance, gen_codes))
    return row_products(instance, (instance.modulus ** (n * np.arange(n)) @ columns).tolist())


def generating_subset(subgroup: Subgroup) -> list[int]:
    """Small generating set found greedily; exact by construction.

    Starts from D's generators, then adds the smallest member outside the
    closure so far, the representative of the first missing right coset of
    D (`right_cosets`: the cosets ascend by their smallest codes), and grows
    the closure by one `coset_closure` step over the previous one.
    """
    if subgroup.generator_codes:
        return list(subgroup.generator_codes)
    instance = subgroup.instance
    current, reps = instance.diagonal(), right_cosets(instance)[1]
    while len(current) < len(subgroup):
        missing = np.argmax(subgroup.coset_mask() & ~current.coset_mask())
        current = coset_closure(instance, current, [int(reps[missing])])
    if not current.is_subset_of(subgroup):
        raise InputError("member set is not closed; cannot extract generators")
    return list(current.generator_codes)


# -- fixers and fixed sublattices -------------------------------------------


def fixes_mask(instance, codes, x: int) -> np.ndarray:
    """Boolean mask: which matrices of a batch of codes fix lattice element x."""
    return instance.act_batch(codes, x) == x


def enumerate_gl(instance, order: int) -> np.ndarray:
    """The GL codes ascending, in the narrowest unsigned dtype below
    m^(n^2), from one pass over the code grid that also memoises the
    `right_cosets` labels, with the lift count `order` checked first.  A
    code is its top row's code times m^(n(n-1)) plus its lower rows' code,
    so a chunk of top rows at a time, each column's code is a broadcast sum
    of a top part and a lower part, and `column_labels` reads the labels.
    """
    m, n = instance.modulus, instance.n
    reps = _column_classes(instance)[2]
    if reps.size * instance.ring.unit_count**n != order:  # |units|^n codes per coset
        raise RuntimeError(f"GL enumeration found {reps.size} cosets, lift count says {order}")
    low = m ** (n * (n - 1))
    lows = _columns(instance, np.arange(low, dtype=np.int64))
    tops = _columns(instance, np.arange(m**n, dtype=np.int64) * low)
    codes = np.empty(order, dtype=np.min_scalar_type(m ** (n * n) - 1))
    label = np.empty(order, dtype=np.min_scalar_type(reps.size - 1))
    pos, step = 0, max(1, _GATHER_CHUNK // low)
    for start in range(0, m**n, step):
        cols = [(top[start : start + step, None] + lo).ravel() for top, lo in zip(tops, lows)]
        labels = column_labels(instance, cols)
        found = np.flatnonzero(labels >= 0)
        end = pos + found.size
        codes[pos:end], label[pos:end] = found + start * low, labels[found]
        pos = end
    instance._caches[("right_cosets",)] = label, reps
    return codes


@instance_cache
def _column_classes(instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cls, table, reps): the class of each of the m^n column codes, the
    `right_cosets` label of each tuple of classes (column 0 first) or -1,
    and the smallest code of each right coset gD, ascending.

    A class is a unimodular column up to units, named by its smallest unit
    multiple (`row_scale_table`); other columns read a spare class.  One
    `det_batch` over the class tuples, each column at its smallest unit
    multiple, decides them (module docstring), and that matrix is its
    coset's smallest code: entry (r, k) weighs m^(r n + k), so columns fill
    disjoint digits and compare as their own codes (row r at m^r).
    """
    m, n, p = instance.modulus, instance.n, instance.ring.p
    vecs = rings.unpack_vectors(np.arange(m**n, dtype=np.int64), m, n)
    unimodular = np.any(vecs % p != 0, axis=1)
    heads, classes = np.unique(row_scale_table(instance).min(0)[unimodular], return_inverse=True)
    cls = np.full(m**n, heads.size)
    cls[unimodular] = classes
    mats = vecs[heads[np.indices((heads.size,) * n).reshape(n, -1)]].transpose(1, 2, 0)  # [t, r, k]
    codes, invertible = rings.pack_matrices(mats, m), rings.det_batch(mats, m) % p != 0
    reps = np.sort(codes[invertible])
    table = np.full((heads.size + 1,) * n, -1, dtype=np.int32)
    ranks = np.where(invertible, np.searchsorted(reps, codes), -1)
    table[(slice(-1),) * n] = ranks.reshape((heads.size,) * n)
    return cls, table, reps


def column_labels(instance, columns) -> np.ndarray:
    """The `right_cosets` label of the matrices with these column codes,
    column 0 first, or -1 where singular: a gather from `_column_classes`."""
    cls, table, _ = _column_classes(instance)
    return table[tuple(cls[col] for col in columns)]


def _columns(instance, codes) -> list[np.ndarray]:
    """Column codes of each matrix code, column 0 first: entry (r, k), digit
    r n + k of the code and digit k of row r's code, weighs m^r in column
    k's code, so column k sums one gather per row from `_column_parts`."""
    parts, rows = _column_parts(instance), instance.row_digits(codes)
    return [functools.reduce(np.add, [part[row] for part, row in zip(col, rows)]) for col in parts]


@instance_cache
def _column_parts(instance) -> np.ndarray:
    """Entry [k, r, v]: m^r times entry k of the row with code v, what row r
    adds to column k's code."""
    m, n = instance.modulus, instance.n
    entries = rings.unpack_vectors(np.arange(m**n, dtype=np.int64), m, n)  # [v, k]
    return entries.T[:, None, :] * m ** np.arange(n, dtype=np.int64)[None, :, None]


def right_cosets(instance) -> tuple[np.ndarray, np.ndarray]:
    """(label, reps): reps the smallest code of each right coset gD,
    ascending, so the first marked coset holds the smallest marked code, and
    label each GL position's coset, an index into reps in the smallest dtype.

    g d scales column k of g by the unit d_k, so gD depends only on g's
    columns' classes up to units; `enumerate_gl` labels every code as it lists
    GL.  D fixes every element of L0', so (g d)(x) = g(x) there, and a
    predicate on the images of L0' elements is constant on each coset.
    """
    instance.gl()
    return instance._caches[("right_cosets",)]


def coset_labels(instance, codes) -> np.ndarray:
    """The `right_cosets` label of each code, read off its columns, or -1
    off GL: any integer outside [0, m^(n^2)), even beyond int64 in an object
    array, reads code 0, the singular zero matrix."""
    codes = np.asarray(codes)
    inside = (codes >= 0) & (codes < instance.modulus ** (instance.n**2))
    codes = np.where(inside, codes, 0).astype(np.int64, copy=False)
    return column_labels(instance, _columns(instance, codes))


def _gl_mask_of(instance, cosets) -> np.ndarray:
    """The GL mask of the marked right cosets of D: the coset mask read at
    every position's label, a block at a time, so the indices numpy widens
    for the gather stay small."""
    label = right_cosets(instance)[0]
    mask = np.empty(label.size, dtype=bool)
    for start in range(0, label.size, _GATHER_CHUNK):
        block = slice(start, start + _GATHER_CHUNK)
        np.take(cosets, label[block], out=mask[block])
    return mask


@instance_cache
def coset_image(instance, x: int) -> np.ndarray:
    """g(x) for the smallest code g of each right coset gD, for x in L0', in
    the lattice dtype: every member of the coset sends x there
    (`right_cosets`)."""
    if x not in instance.l0_prime():
        raise InputError("coset images are defined on the stabiliser-fixed sublattice")
    reps = right_cosets(instance)[1]
    return instance.act_batch(reps, x).astype(np.min_scalar_type(len(instance.lattice) - 1))


def coset_fix_mask(instance, members) -> np.ndarray:
    """Which right cosets of D fix every listed element of L0'."""
    mask = np.ones(len(right_cosets(instance)[1]), dtype=bool)
    for x in set(int(e) for e in members):
        mask &= coset_image(instance, x) == x
    return mask


def fixer(instance, elements) -> Subgroup:
    """All GL matrices fixing every listed element, each of L0': their
    `coset_fix_mask`, which contains D.  Any other element is an
    `InputError` (`coset_image`)."""
    return intern_subgroup(instance, Subgroup(instance, coset_fix_mask(instance, elements)))


def fixed_lattice(instance, subgroup: Subgroup) -> SublatticeHandle:
    """Elements fixed by the whole subgroup.  It contains D, so they lie in
    L0', where every member of a right coset gD sends x to g(x): x is fixed
    when its `coset_image` is x on every marked coset."""
    cosets = subgroup.coset_mask()
    members = [
        x for x in instance.l0_prime().members if bool(np.all(coset_image(instance, x)[cosets] == x))
    ]
    return SublatticeHandle(instance.lattice, members)


def fixed_by(instance, codes) -> SublatticeHandle:
    """Elements fixed by every matrix of a batch of codes."""
    lat = instance.lattice
    members = [x for x in range(len(lat)) if bool(np.all(fixes_mask(instance, codes, x)))]
    return SublatticeHandle(lat, members)


def galois_phi(instance, members) -> Subgroup:
    """Lattice side -> group side of the correspondence: the fixer of M, a
    member set of L0' (`fixer` refuses any other)."""
    return fixer(instance, members)


def galois_psi(instance, subgroup: Subgroup) -> SublatticeHandle:
    """Group side -> lattice side: the fixed points, all inside the base
    sublattice (`fixed_lattice`)."""
    if not fixer_contains_stabiliser(instance, subgroup):
        raise InputError("psi is defined on subgroups containing the frame stabiliser")
    return fixed_lattice(instance, subgroup)


def fixer_contains_stabiliser(instance, subgroup: Subgroup) -> bool:
    return instance.diagonal().is_subset_of(subgroup)


# -- distinguished member sets ----------------------------------------------


@instance_cache
def axis_subgroup(instance, i: int) -> np.ndarray:
    """Sorted codes, in `gl_codes`' dtype, of the frame-stabiliser members
    fixing every element supported away from atom i."""
    away = np.flatnonzero(instance.support_table[:, i] == instance.lattice.bottom)
    codes = instance.diagonal().codes
    return codes[np.all(instance.perm(codes)[:, away] == away, axis=1)]


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


@instance_cache
def transvection_table(instance, i: int, j: int) -> np.ndarray:
    """Entry [c]: the x of the (i, j) transvection class of the right coset
    c of D, or -1 where it holds no transvection (49 of 2 744 on Z/49 do).

    Every clause reads an element below an atom, inside L0', so it is
    decided per coset on the `coset_image` columns.  This is the exact full
    filter, the elementary family is only a cross-check.
    """
    if i == j:
        raise InputError("transvections need i != j")
    lat = instance.lattice
    frame = instance.frame
    support = instance.support_table
    e_i = frame.atoms[i]
    ok = coset_fix_mask(
        instance, [xs for s in range(instance.n) if s != i for xs in frame.atom_downsets[s]]
    )
    # each support clause is a table over the lattice, gathered by the coset
    # column; for xi = e_i it is the atom_ok test below
    for xi in frame.atom_downsets[i]:
        if xi in (lat.bottom, e_i):
            continue
        ok &= (support[:, i] == xi)[coset_image(instance, xi)]
    others = np.delete(support, [i, j], axis=1)
    atom_ok = (support[:, i] == e_i) & np.all(others == lat.bottom, axis=1)
    img = coset_image(instance, e_i)
    ok &= atom_ok[img]
    return np.where(ok, support[img, j], -1)


def transvections(instance, i: int, j: int, x: int) -> np.ndarray:
    """Sorted codes of the full transvection set for (i, j) at x (may be
    empty): its right cosets of D expanded by label."""
    marked = transvection_table(instance, i, j) == int(x)
    return instance.gl_codes[_gl_mask_of(instance, marked)]


def same_transvections(instance, f1: Subgroup, f2: Subgroup) -> bool:
    """Whether two subgroups that contain D meet every transvection set
    identically: transvection sets are unions of right cosets of D, so one
    XOR of the coset masks, read on the cosets that hold a transvection."""
    pairs = itertools.permutations(range(instance.n), 2)
    held = np.any([transvection_table(instance, i, j) >= 0 for i, j in pairs], axis=0)
    return not bool(np.any((f1.coset_mask() ^ f2.coset_mask()) & held))


# -- normality and conjugation ----------------------------------------------


def conjugate_codes(instance, f_mats: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Codes of f^-1 s f for a batch of s, by one f or by a batch of f
    broadcast against the s (numpy broadcasting)."""
    m = instance.modulus
    f_inv = rings.inv_batch(f_mats, instance.ring)
    return rings.pack_matrices(rings.mat_mul(rings.mat_mul(f_inv, mats, m), f_mats, m), m)


def normalizes(instance, f_codes, subgroup: Subgroup, gens=None):
    """(holds, witness): whether every f conjugates every s of `gens` into
    the subgroup G, and else the first failing (f, s) in f-major order.

    Without `gens` the s are all of G in code order.  Conjugation is an
    automorphism, and containment of a finite subgroup of equal order forces
    equality, so an f conjugates G into G when it does so on a generating set:
    the verdict and the failing f are read on `generating_subset(G)`, and only
    that f is conjugated against G's member codes for its first failing s.
    All f go through one broadcast `conjugate_codes` per chunk of s, of at
    most `_BFS_CHUNK // len(f_codes)` codes.  A failure at f_k leaves only
    f_0 .. f_(k-1) to test on the later chunks.
    """
    if gens is None:
        holds, witness = normalizes(instance, f_codes, subgroup, generating_subset(subgroup))
        return (True, None) if holds else normalizes(instance, witness[:1], subgroup, subgroup.codes)
    m, n = instance.modulus, instance.n
    f_codes = np.asarray(f_codes, dtype=np.int64)
    s_codes = np.asarray(gens, dtype=np.int64)
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
    """(normal?, witness) where the witness is a failing (f, s) code pair, or
    (None, s) for a member s outside the ambient group.

    With a verified generating set, containment and conjugation run on the
    subgroup's generators.  Without one, containment reads the coset masks
    (both contain D, so the first marked coset outside the ambient group
    holds the smallest member outside it), and conjugation runs against the
    whole subgroup (`normalizes`).
    """
    gens_s = subgroup.generator_codes
    if gens_s:
        outside = np.array(gens_s, dtype=np.int64)[~ambient.contains_many(gens_s)]
    else:
        outside = right_cosets(instance)[1][subgroup.coset_mask() & ~ambient.coset_mask()]
    if outside.size:
        return False, (None, int(outside[0]))
    gens_f = ambient.generator_codes or generating_subset(ambient)
    return normalizes(instance, gens_f, subgroup, gens_s or None)


def double_coset_key(instance, codes) -> np.ndarray:
    """Smallest code over D a D for each GL code a of a batch; <D, a> depends
    only on it.

    D a D is the union of the right cosets d a D over d in D, the orbit of
    a D under left multiplication by D, so its smallest code is the smallest
    code of the orbit's first coset (`_double_coset_first`; the reps ascend).
    The labels are read a chunk of codes at a time.
    """
    codes = np.asarray(codes, dtype=np.int64)
    reps, first = right_cosets(instance)[1], _double_coset_first(instance)
    keys = np.empty(codes.size, dtype=np.int64)
    for start in range(0, codes.size, _BFS_CHUNK):
        block = slice(start, start + _BFS_CHUNK)
        keys[block] = reps[first[coset_labels(instance, codes[block])]]
    return keys


@instance_cache
def _double_coset_first(instance) -> np.ndarray:
    """Entry [c]: the first right coset of D in the orbit of coset c under
    left multiplication by D.  Every coset takes the smallest label among
    itself and its images under D's generators (read off `_left_tables`, as
    `_coset_orbit` steps), until no label falls: D is finite, so each
    generator's inverse is a power of it and the steps reach the orbit."""
    reps = right_cosets(instance)[1]
    columns = np.stack(_columns(instance, reps))
    tables = _left_tables(instance, instance.diagonal_generator_codes())
    steps = np.stack([column_labels(instance, table[columns]) for table in tables])
    first = np.arange(reps.size)
    while True:
        lower = np.minimum(first, first[steps].min(axis=0))
        if np.array_equal(lower, first):
            return first
        first = lower


def conjugation_closure_check(instance, subgroup: Subgroup, ambient: Subgroup, rng=None, samples=None):
    """Explicit check that f^-1 s f stays in the subgroup.

    Exhaustive over all (f, s) pairs, one f per right coset fD of D in the
    ambient group F, unless a sample count is given; returns (holds, witness
    codes).
    """
    m, n = instance.modulus, instance.n
    if samples is None:
        # (f d)^-1 G (f d) = d^-1 (f^-1 G f) d, and d in D <= G normalises G,
        # so the verdict is constant on each right coset fD of D in F and one
        # f per coset decides it.  The reps ascend and each is its coset's
        # smallest code, so the first failing one is the all-f loop's first
        # failing f, and `normalizes` reads its first failing s.
        return normalizes(instance, right_cosets(instance)[1][ambient.coset_mask()], subgroup)
    # rng.choice(codes) draws codes[rng.choice(len(codes))]: the same draws;
    # equal member sets are expanded by one `codes_at` read of both draws
    f_ranks = rng.choice(len(ambient), size=samples, replace=True)
    s_ranks = rng.choice(len(subgroup), size=samples, replace=True)
    if subgroup == ambient:
        fs, ss = np.split(ambient.codes_at(np.concatenate([f_ranks, s_ranks])), [samples])
    else:
        fs, ss = ambient.codes_at(f_ranks), subgroup.codes_at(s_ranks)
    f_mats = rings.unpack_matrices(fs, m, n)
    s_mats = rings.unpack_matrices(ss, m, n)
    bad = ~subgroup.contains_many(conjugate_codes(instance, f_mats, s_mats))
    if bool(np.any(bad)):
        k = int(np.argmax(bad))
        return False, (int(fs[k]), int(ss[k]))
    return True, None

