"""Concrete instances: the submodule lattice of R^n over a finite chain ring,
matrices acting on it, and the ideal-matrix (D-net) side of net collections.

Vectors are rows; a matrix g sends a row v to v @ g.T (the row form of the
column action).  A submodule is identified with the canonical Howell form of
its row span, and its lattice index is recovered from that form's label, so
matrix images never rely on positional bookkeeping.

The module also fixes, empirically at build time, which off-diagonal slot of
an elementary matrix realises a transvection moving atom i into atom j: the
candidate matrices are classified through the membership predicate rather
than by assuming a convention.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import rings
from .errors import CapExceeded, InputError
from .frame import Frame
from .groups import (
    Subgroup,
    classify_transvection,
    coset_closure,
    fixed_by,
    generating_subset,
    intern_subgroup,
    normalizes,
)
from .lattice import FiniteLattice
from .nets import NetCollection, net_fixer, transvection_ideals, verify_intermediate_subgroup
from .rings import RingSpec

DEFAULT_GROUP_CAP = 10_000_000
DEFAULT_LATTICE_CAP = 2_000
# GL-wide passes over codes (act_batch, net_subgroup) work through this many
# codes at a time, so their temporaries stay small and are reused instead of
# being page-faulted in afresh for every GL-sized batch
ACT_CHUNK = 1 << 14


def gl_order(ring: RingSpec, n: int) -> int:
    """|GL(n, Z/p^k)| by the standard lift count from the residue field."""
    p, k = ring.p, ring.k
    field_part = 1
    for i in range(n):
        field_part *= p**n - p**i
    return field_part * p ** ((k - 1) * n * n)


def lattice_tables(membership: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Meet and join tables of a family of submodules given by member sets.

    One boolean row over the vectors per submodule, rows in ascending size.
    One product counts |a ∩ b| for every pair, and a <= b iff |a ∩ b| = |a|.
    The meet is the largest common lower bound, the join the smallest common
    upper bound; a pair without one falls back to the last (meet) or first
    (join) row, which fails the certificates below.
    """
    counts = membership.astype(np.float64)
    inter = (counts @ counts.T).astype(np.int64)  # exact: counts stay below 2^53
    sizes = np.diag(inter)
    below = inter == sizes[:, None]  # below[c, a]: c <= a
    down = np.ascontiguousarray(below.T[:, ::-1])  # down[a, last - c]: c <= a
    last = sizes.size - 1
    meet, join = np.empty_like(inter), np.empty_like(inter)
    for a in range(sizes.size):
        meet[a] = last - np.argmax(down & down[a], axis=1)
        join[a] = np.argmax(below & below[a], axis=1)
    # a lower bound lies in a ∩ b, an upper bound over a + b of size |a| |b| / |a ∩ b|
    # (second isomorphism theorem): equal sizes make the bound that set itself
    if np.any(sizes[meet] != inter):
        raise RuntimeError("the submodule enumeration is not closed under intersections")
    if np.any(sizes[join] * inter != np.outer(sizes, sizes)):
        raise RuntimeError("the submodule enumeration is not closed under sums")
    return meet, join


class Instance:
    """A built instance: ring, rank, submodule lattice, frame, and caches."""

    def __init__(self, ring: RingSpec, n: int, lattice_cap: int = DEFAULT_LATTICE_CAP):
        if n < 2:
            raise InputError("instances need rank n >= 2")
        self.ring = ring
        self.n = n
        self.modulus = ring.modulus
        self._build_lattice(lattice_cap)
        self.frame = Frame(self.lattice, [self.cyclic_index[self._unit_vec_code(i)] for i in range(n)])
        self.support_table = np.array(
            [self.frame.support(x).parts for x in range(len(self.lattice))], dtype=np.int32
        )
        self._caches: dict = {}
        self._gl = None
        self._diag = None
        self._slot_convention = None

    # -- construction -------------------------------------------------------

    def _unit_vec_code(self, i: int) -> int:
        return self.modulus**i

    def _build_lattice(self, cap: int):
        ring, n, m = self.ring, self.n, self.modulus
        vec_total = m**n
        all_vecs = rings.unpack_vectors(np.arange(vec_total), m, n)

        # cyclic submodules first; every submodule is a join of those
        forms: dict[bytes, np.ndarray] = {}
        vec_form_key = {}
        cyclic_rep_vecs = []
        for code in range(vec_total):
            form = rings.howell_form(all_vecs[code][None, :], ring)
            key = form.tobytes()
            if key not in forms:
                forms[key] = form
                cyclic_rep_vecs.append(all_vecs[code])
            vec_form_key[code] = key

        # close under joins with cyclic generators, all in canonical-form algebra
        frontier = list(forms)
        while frontier:
            new = []
            for key in frontier:
                base = forms[key]
                for v in cyclic_rep_vecs:
                    joined = rings.howell_form(np.vstack([base, v[None, :]]), ring)
                    jkey = joined.tobytes()
                    if jkey not in forms:
                        forms[jkey] = joined
                        new.append(jkey)
                        if len(forms) > cap:
                            raise CapExceeded(
                                f"submodule lattice exceeds {cap} elements", len(forms)
                            )
            frontier = new

        span_of = {key: rings.span_codes(form, ring) for key, form in forms.items()}
        labels = {key: self._label_of_form(form) for key, form in forms.items()}
        ordered = sorted(forms, key=lambda k: (span_of[k].size, labels[k]))
        index = {key: i for i, key in enumerate(ordered)}
        nelt = len(ordered)

        self.basis_rows = [forms[key][np.any(forms[key], axis=1)] for key in ordered]
        self.cyclic_index = np.full(vec_total, -1, dtype=np.int32)
        for code in range(vec_total):
            self.cyclic_index[code] = index[vec_form_key[code]]

        self.membership = np.zeros((nelt, vec_total), dtype=bool)
        for i, key in enumerate(ordered):
            self.membership[i, span_of[key]] = True

        # act_batch's tables: entry [r, j, w] is m^j (r . w mod m), for basis
        # row r of the element and the m^n row codes w
        weights, code_dtype = m ** np.arange(n), np.min_scalar_type(vec_total - 1)
        self.row_tables = [
            ((rows @ all_vecs.T % m)[:, None] * weights[:, None]).astype(code_dtype)
            for rows in self.basis_rows
        ]

        # meets and joins read off the member sets, each certified by its size
        meet, join = lattice_tables(self.membership)
        self.lattice = FiniteLattice(meet, join, [labels[k] for k in ordered])

    def _label_of_form(self, form: np.ndarray) -> str:
        return ";".join(",".join(str(int(x)) for x in row) for row in form[: self.n])

    # -- basic data ---------------------------------------------------------

    @property
    def atoms(self) -> tuple:
        return self.frame.atoms

    def describe(self) -> dict:
        return {"ring": self.ring.to_json(), "n": self.n}

    def to_json(self) -> dict:
        # frame atoms ride along so downstream tools can address elements by
        # canonical label without rebuilding anything
        return {
            "schema_version": 1,
            **self.describe(),
            "atoms": [self.lattice.labels[a] for a in self.atoms],
        }

    @staticmethod
    def from_json(obj: dict, **kwargs) -> "Instance":
        version = obj.get("schema_version", 1)
        if version != 1:
            raise InputError(f"unsupported instance schema version {version}")
        if "ring" not in obj or "n" not in obj:
            raise InputError("instance file needs 'ring' and 'n'")
        instance = Instance(RingSpec.from_json(obj["ring"]), int(obj["n"]), **kwargs)
        declared = obj.get("atoms")
        if declared is not None:
            built = [instance.lattice.labels[a] for a in instance.atoms]
            if list(declared) != built:
                raise InputError(f"declared frame atoms {declared} do not match {built}")
        return instance

    @staticmethod
    def load(path, **kwargs) -> "Instance":
        with open(path, "r", encoding="utf-8") as fh:
            return Instance.from_json(json.load(fh), **kwargs)

    def element_by_label(self, label: str) -> int:
        idx = self.lattice.label_index.get(label)
        if idx is None:
            raise InputError(f"no lattice element labelled {label!r}")
        return idx

    # -- the action ---------------------------------------------------------

    def act(self, mat: np.ndarray, x: int) -> int:
        """Index of the image submodule of x under one matrix."""
        return int(self.act_batch(self.code_of_mat(mat), x)[0])

    def act_batch(self, codes, x: int) -> np.ndarray:
        """Image indices of element x under each matrix of a batch of codes.

        Table lookup over the m^n row codes g_j of g (`row_digits`).  For a
        basis row r of x, (r g^T)_j = r . g_j, and a vector's code
        is sum_j m^j v_j, so code(r g^T) = sum_j m^j (r . g_j mod m): n
        gathers from `row_tables[x]`.  g(x) is the join of the cyclic
        submodules of the image rows.
        """
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        tables = self.row_tables[x]
        out = np.full(codes.size, x, dtype=np.int64)
        for start in range(0, codes.size if len(tables) else 0, ACT_CHUNK):
            digits = self.row_digits(codes[start : start + ACT_CHUNK])
            acc = out[start : start + ACT_CHUNK]
            for k, table in enumerate(tables):
                img = table[0][digits[0]]
                for j in range(1, self.n):
                    img += table[j][digits[j]]
                cyclic = self.cyclic_index[img]
                acc[:] = cyclic if k == 0 else self.lattice.join_table[acc, cyclic]
        return out

    def row_digits(self, codes) -> list[np.ndarray]:
        """Row codes of each matrix code, row 0 first: a code packs its matrix
        row-major in base m, so its digit i in base m^n is the code of row i."""
        rest, base, digits = np.asarray(codes, dtype=np.int64), self.modulus**self.n, []
        for _ in range(self.n):
            rest, digit = np.divmod(rest, base)
            digits.append(digit)
        return digits

    def gl_image(self, x: int) -> np.ndarray:
        """Lattice index of g(x) for every g in GL, aligned with `gl_codes`.

        One `act_batch` pass over `gl_codes` per element, cached: every
        GL-wide question about where g sends x reads this column, and a
        predicate on g(x) becomes a table over the lattice gathered by it.
        """
        images = self._caches.setdefault("gl_images", {})
        x = int(x)
        col = images.get(x)
        if col is None:
            self.gl()
            dtype = np.min_scalar_type(len(self.lattice) - 1)
            col = images[x] = self.act_batch(self.gl_codes, x).astype(dtype)
        return col

    def perm(self, codes) -> np.ndarray:
        """Lattice permutations of a batch of codes, one row each: entry
        [k, x] is the index of g_k(x), one `act_batch` pass per element."""
        dtype = np.min_scalar_type(len(self.lattice) - 1)
        elements = range(len(self.lattice))
        return np.stack([self.act_batch(codes, x).astype(dtype) for x in elements], axis=1)

    def mat_of_code(self, code: int) -> np.ndarray:
        return rings.unpack_matrices(np.int64(code), self.modulus, self.n)

    def code_of_mat(self, mat: np.ndarray) -> int:
        return int(rings.pack_matrices(np.asarray(mat) % self.modulus, self.modulus))

    def inv(self, mat: np.ndarray) -> np.ndarray:
        return rings.inv_single(np.asarray(mat, dtype=np.int64), self.ring)

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.n, dtype=np.int64)

    # -- groups -------------------------------------------------------------

    def gl(self, cap: int = DEFAULT_GROUP_CAP):
        """The whole group; also fills `gl_codes` (ascending) and the `positions` index."""
        if self._gl is None:
            expected = gl_order(self.ring, self.n)
            if expected > cap:
                raise CapExceeded(
                    f"|GL({self.n}, Z/{self.modulus})| = {expected} exceeds cap {cap}"
                )
            m, n = self.modulus, self.n
            total = m ** (n * n)
            keep = []
            for start in range(0, total, 1 << 20):
                codes = np.arange(start, min(start + (1 << 20), total), dtype=np.int64)
                mats = rings.unpack_matrices(codes, m, n)
                dets = rings.det_batch(mats, m)
                keep.append(codes[dets % self.ring.p != 0])
            codes = np.concatenate(keep)
            if codes.size != expected:
                raise RuntimeError(
                    f"GL enumeration found {codes.size} matrices, lift count says {expected}"
                )
            self.gl_codes = codes
            self._gl_index = np.full(total, -1, dtype=np.int32)
            self._gl_index[codes] = np.arange(codes.size, dtype=np.int32)
            self._gl = intern_subgroup(
                self, Subgroup(self, np.ones(codes.size, dtype=bool), closed=True)
            )
        return self._gl

    def positions(self, codes) -> np.ndarray:
        """GL position of each code; -1 for any other integer, as codes outside
        [0, m^(n^2)) (even beyond int64) read entry 0, the singular zero matrix."""
        self.gl()
        codes = np.asarray(codes)
        inside = (codes >= 0) & (codes < self._gl_index.size)
        return self._gl_index[np.where(inside, codes, 0).astype(np.int64, copy=False)]

    def mask_of(self, codes) -> np.ndarray:
        """Mask over GL positions of the GL codes among `codes` (-1 lands in a spare slot)."""
        mask = np.zeros(len(self.gl()) + 1, dtype=bool)
        mask[self.positions(codes)] = True
        return mask[:-1]

    def diagonal_codes(self, entries) -> np.ndarray:
        """Codes of diag(e) for the rows e of `entries`: e_i is digit i n + i."""
        return np.dot(entries, self.modulus ** ((self.n + 1) * np.arange(self.n, dtype=np.int64)))

    def diagonal(self):
        """The group of invertible diagonal matrices (the frame stabiliser)."""
        if self._diag is None:
            codes = self.diagonal_codes(list(itertools.product(self.ring.units(), repeat=self.n)))
            gens = tuple(self.diagonal_generator_codes())
            self._diag = Subgroup(self, self.mask_of(codes), generator_codes=gens, closed=True)
        return self._diag

    def diagonal_generator_codes(self) -> list[int]:
        """diag(1, .., r at i, .., 1) for each i, r a generator of the units."""
        eye = np.eye(self.n, dtype=bool)
        return self.diagonal_codes(np.where(eye, self._unit_group_generator(), 1)).tolist()

    def _unit_group_generator(self) -> int:
        target = self.ring.unit_count
        for g in self.ring.units():
            x, order = g, 1
            while x != 1:
                x = x * g % self.modulus
                order += 1
            if order == target:
                return g
        # (Z/2)* and friends are trivial
        return 1

    def l0_prime(self):
        """Sublattice of elements fixed by the whole frame stabiliser, tested on
        its generators, so lattice-only work never enumerates GL."""
        if "l0_prime" not in self._caches:
            codes = np.array(self.diagonal_generator_codes(), dtype=np.int64)
            self._caches["l0_prime"] = fixed_by(self, codes)
        return self._caches["l0_prime"]

    # -- elementary transvections -------------------------------------------

    def slot_convention(self) -> str:
        """Which slot of identity-plus-one-entry realises a move of atom i into atom j.

        Decided by the membership predicate on a unit-parameter candidate,
        never assumed; "ji" means entry at (j, i).
        """
        if self._slot_convention is None:
            i, j = 0, 1
            for conv in ("ji", "ij"):
                mat = np.eye(self.n, dtype=np.int64)
                if conv == "ji":
                    mat[j, i] = 1
                else:
                    mat[i, j] = 1
                x = classify_transvection(self, mat, i, j)
                if x is not None and x != self.lattice.bottom:
                    self._slot_convention = conv
                    break
            else:
                raise RuntimeError("no elementary slot realises a transvection; convention bug")
        return self._slot_convention

    def elementary(self, i: int, j: int, xi: int) -> np.ndarray:
        """Identity plus xi in the single slot making it move atom i into atom j."""
        if i == j:
            raise InputError("elementary transvections need i != j")
        mat = np.eye(self.n, dtype=np.int64)
        if self.slot_convention() == "ji":
            mat[j, i] = xi % self.modulus
        else:
            mat[i, j] = xi % self.modulus
        return mat

    def ideal_element(self, level: int, atom: int) -> int:
        """Lattice index of p^level * e_atom."""
        gen = self.ring.ideal_generator(level)
        vec = np.zeros(self.n, dtype=np.int64)
        vec[atom] = gen
        return int(self.cyclic_index[rings.pack_vectors(vec, self.modulus)])

    def ideal_level_of(self, x: int, atom: int) -> int:
        """Chain position of an element below atom `atom` (0 = full atom, k = zero)."""
        for level in range(self.ring.k + 1):
            if self.ideal_element(level, atom) == x:
                return level
        raise InputError(f"element {x} is not an ideal multiple of atom {atom}")


@dataclass(frozen=True)
class Ideal:
    """Principal ideal (p^level) of the chain ring."""

    ring: RingSpec
    level: int

    @property
    def generator(self) -> int:
        return self.ring.ideal_generator(self.level)

    def contains(self, a: int) -> bool:
        return self.ring.valuation(a) >= self.level


class DNet:
    """Square matrix of ideals with full diagonal satisfying the closure law
    sigma_ir * sigma_rj <= sigma_ij (levels: a_ir + a_rj >= a_ij)."""

    def __init__(self, ring: RingSpec, levels):
        self.ring = ring
        self.levels = np.asarray(levels, dtype=np.int64)
        n = self.levels.shape[0]
        if self.levels.shape != (n, n):
            raise InputError("D-net level matrix must be square")
        if np.any((self.levels < 0) | (self.levels > ring.k)):
            raise InputError(f"D-net levels must lie in 0..{ring.k}")

    @property
    def n(self) -> int:
        return self.levels.shape[0]

    def ideal(self, i: int, j: int) -> Ideal:
        return Ideal(self.ring, int(self.levels[i, j]))

    def law_violation(self):
        """None if the D-net law holds, else a witness triple (i, r, j)."""
        n = self.n
        if np.any(np.diag(self.levels) != 0):
            i = int(np.nonzero(np.diag(self.levels))[0][0])
            return (i, i, i)
        for i in range(n):
            for r in range(n):
                for j in range(n):
                    if min(self.ring.k, int(self.levels[i, r] + self.levels[r, j])) < int(
                        self.levels[i, j]
                    ):
                        return (i, r, j)
        return None

    def is_valid(self) -> bool:
        return self.law_violation() is None

    def __eq__(self, other):
        return isinstance(other, DNet) and np.array_equal(self.levels, other.levels)

    def __hash__(self):
        return hash((self.ring, self.levels.tobytes()))

    def __repr__(self):
        return f"DNet({self.levels.tolist()})"

    def to_json(self) -> dict:
        return {"schema_version": 1, "sigma": self.levels.tolist()}

    @staticmethod
    def from_json(ring: RingSpec, obj: dict) -> "DNet":
        version = obj.get("schema_version", 1)
        if version != 1:
            raise InputError(f"unsupported net schema version {version}")
        if "sigma" not in obj:
            raise InputError("D-net file needs 'sigma'")
        return DNet(ring, obj["sigma"])


def enumerate_dnets(instance: Instance) -> list[DNet]:
    """All valid D-nets of the instance's order, off-diagonal levels free."""
    n, k = instance.n, instance.ring.k
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for combo in itertools.product(range(k + 1), repeat=len(slots)):
        levels = np.zeros((n, n), dtype=np.int64)
        for (i, j), lev in zip(slots, combo):
            levels[i, j] = lev
        net = DNet(instance.ring, levels)
        if net.is_valid():
            out.append(net)
    return out


def net_subgroup(instance: Instance, dnet: DNet, cap: int = DEFAULT_GROUP_CAP):
    """Invertible matrices whose (i, j) entry lies in the prescribed ideal.

    Entry (i, j) is base-m digit i n + j of the code, and p^lev divides m, so
    it lies in (p^lev) iff code // m^(i n + j) is divisible by p^lev.
    """
    g = instance.gl(cap=cap)
    m, n, p = instance.modulus, instance.n, instance.ring.p
    mask = np.ones(len(g), dtype=bool)
    for start in range(0, len(g), ACT_CHUNK):
        block = instance.gl_codes[start : start + ACT_CHUNK]
        for i, j in itertools.permutations(range(n), 2):
            lev = int(dnet.levels[i, j])
            if lev:
                mask[start : start + ACT_CHUNK] &= block // m ** (i * n + j) % p**lev == 0
    return Subgroup(instance, mask, closed=True)


def net_subgroup_generators(instance: Instance, dnet: DNet) -> list[int]:
    """Diagonal generators plus one elementary per nonzero prescribed ideal.

    Candidate generating set for the entrywise net subgroup; closure equality
    is verified where used, never assumed.
    """
    gens = list(instance.diagonal_generator_codes())
    for i in range(instance.n):
        for j in range(instance.n):
            if i == j:
                continue
            lev = int(dnet.levels[i, j])
            if lev < instance.ring.k:
                mat = np.eye(instance.n, dtype=np.int64)
                mat[i, j] = instance.ring.ideal_generator(lev)
                gens.append(instance.code_of_mat(mat))
    return gens


def bridge_to_dnet(instance: Instance, net) -> DNet:
    """Net collection in the lattice -> ideal matrix, transposing indices.

    The transposition happens here and only here.
    """
    n = instance.n
    levels = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            levels[j, i] = instance.ideal_level_of(int(net.tau[i][j]), j)
    return DNet(instance.ring, levels)


def bridge_to_collection(instance: Instance, dnet: DNet):
    n = instance.n
    tau = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        tau[i, i] = instance.atoms[i]
        for j in range(n):
            if i != j:
                tau[i, j] = instance.ideal_element(int(dnet.levels[j, i]), j)
    return NetCollection(instance, tau)


def non_dnet_fixture(instance: Instance):
    """An order-3 ideal matrix violating the closure law, with a witness pair
    of member matrices whose product leaves the entrywise set."""
    if instance.n != 3:
        raise InputError("the negative fixture is built for n = 3")
    k = instance.ring.k
    levels = np.zeros((3, 3), dtype=np.int64)
    levels[0, 2] = k  # sigma_01 * sigma_12 = R not inside sigma_02 = 0
    bad = DNet(instance.ring, levels)
    a = np.eye(3, dtype=np.int64)
    a[0, 1] = 1
    b = np.eye(3, dtype=np.int64)
    b[1, 2] = 1
    return bad, (a, b)


def entrywise_member(instance: Instance, dnet: DNet, mat: np.ndarray) -> bool:
    p = instance.ring.p
    for i in range(instance.n):
        for j in range(instance.n):
            if i == j:
                continue
            lev = int(dnet.levels[i, j])
            if lev and mat[i, j] % p**lev != 0:
                return False
    return int(rings.det_batch(mat, instance.modulus)) % p != 0


def verified_net_subgroup(instance: Instance, dnet: DNet, cap: int = DEFAULT_GROUP_CAP):
    """Entrywise net subgroup with a verified generating set attached.

    The closure of the diagonal generators plus one elementary per nonzero
    prescribed ideal must reproduce the entrywise set exactly; cached.
    """
    key = ("net_subgroup", dnet.levels.tobytes())
    cached = instance._caches.get(key)
    if cached is not None:
        return cached
    entrywise = net_subgroup(instance, dnet, cap=cap)
    gens = net_subgroup_generators(instance, dnet)
    closure = coset_closure(instance, instance.diagonal(), gens, cap=cap)
    if closure != entrywise:
        raise RuntimeError("generator closure does not reproduce the entrywise net subgroup")
    result = intern_subgroup(
        instance, Subgroup(instance, entrywise.gl_mask(), generator_codes=tuple(gens), closed=True)
    )
    instance._caches[key] = result
    return result


def verify_sandwich(
    instance: Instance,
    subgroup,
    *,
    cap: int = DEFAULT_GROUP_CAP,
    seed: int = 0,
    conjugation_samples: int | None = None,
    include_classes: bool = True,
    class_bound: int = 32,
) -> list[dict]:
    """Per-subgroup verification on the matrix side.

    Computes the transvection ideals of the subgroup, bridges them to an
    ideal matrix, and checks: the ideal-matrix closure law, agreement of the
    entrywise net subgroup with the canonical-sublattice fixer, the inclusion
    chain net subgroup <= F <= its normalizer, uniqueness of that ideal
    matrix among all candidates, and the bridge round trip.  The lattice-side
    theorem bundle is appended.
    """
    checks: list[dict] = []

    def record(check_id, holds, witness=None, **details):
        checks.append({"id": check_id, "holds": bool(holds), "witness": witness, "details": details})

    sigma = transvection_ideals(instance, subgroup)
    dnet = bridge_to_dnet(instance, sigma)
    record("dnet_law", dnet.is_valid(), dnet.law_violation(), levels=dnet.levels.tolist())

    back = bridge_to_collection(instance, dnet)
    record("bridge_roundtrip", back == sigma)

    g_sigma = verified_net_subgroup(instance, dnet, cap=cap)
    gk = net_fixer(instance, sigma, cap=cap)
    record("net_subgroup_matches_fixer", g_sigma == gk, None, order=len(g_sigma))

    # generating sets below are closure-verified, so generator membership is
    # an exact containment test
    record(
        "sandwich_lower",
        all(subgroup.contains(c) for c in g_sigma.generator_codes),
    )
    gens_f = subgroup.generator_codes or tuple(generating_subset(subgroup))
    outside = [
        fc for fc in gens_f if not normalizes(instance, [fc], g_sigma, g_sigma.generator_codes)[0]
    ]
    record("sandwich_upper", not outside, outside or None)

    passing = []
    for cand in enumerate_dnets(instance):
        gs = verified_net_subgroup(instance, cand, cap=cap)
        if not all(subgroup.contains(c) for c in gs.generator_codes):
            continue
        if normalizes(instance, gens_f, gs, gs.generator_codes)[0]:
            passing.append(cand)
    record(
        "dnet_uniqueness",
        len(passing) == 1 and passing[0] == dnet,
        [c.levels.tolist() for c in passing] if len(passing) != 1 else None,
        candidates=len(enumerate_dnets(instance)),
    )

    checks.extend(
        verify_intermediate_subgroup(
            instance,
            subgroup,
            seed=seed,
            conjugation_samples=conjugation_samples,
            include_classes=include_classes,
            class_bound=class_bound,
            cap=cap,
        )
    )
    return checks
