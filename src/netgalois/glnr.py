"""Concrete instances: the submodule lattice of R^n over a finite chain ring,
matrices acting on it, and the ideal-matrix (D-net) side of net collections.

Vectors are rows; a matrix g sends a row v to v @ g.T (the row form of the
column action).  A submodule is identified with the canonical Howell form of
its row span, and its lattice index is recovered from that form's label, so
matrix images never rely on positional bookkeeping.

The module also fixes, empirically on first use, which off-diagonal slot of
an elementary matrix realises a transvection moving atom i into atom j: the
candidate matrices are classified through the membership predicate rather
than by assuming a convention.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import rings
from .errors import CapExceeded, InputError
from .frame import Frame
from .groups import (
    Subgroup,
    classify_transvection,
    coset_closure,
    d_label,
    enumerate_gl,
    fixed_by,
    generating_subset,
    instance_cache,
    right_cosets,
)
from .lattice import FiniteLattice
from .nets import (
    NetCollection,
    net_fixer,
    record,
    sandwich,
    transvection_ideals,
    verify_intermediate_subgroup,
)
from .rings import RingSpec

DEFAULT_LATTICE_CAP = 2_000
DEFAULT_GL_CAP = 10_000_000  # the largest |GL| that `Instance.gl` enumerates by default
# act_batch's GL-wide passes over codes work through this many codes at a
# time, so their temporaries stay small and are reused instead of being
# page-faulted in afresh for every GL-sized batch
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

    def __init__(self, ring: RingSpec, n: int):
        if n < 2:
            raise InputError("instances need rank n >= 2")
        rings.check_code_size(ring.modulus, n * n, f"GL({n}, Z/{ring.modulus})")
        self.ring = ring
        self.n = n
        self.modulus = ring.modulus
        self._build_lattice()
        self.frame = Frame(self.lattice, [self.cyclic_index[self.modulus**i] for i in range(n)])
        self.support_table = np.array(
            [self.frame.support(x).parts for x in range(len(self.lattice))], dtype=np.int32
        )
        self._caches: dict = {}  # read and written by `groups` only
        self._gl = None

    # -- construction -------------------------------------------------------

    def _build_lattice(self):
        ring, n, m, limit = self.ring, self.n, self.modulus, DEFAULT_LATTICE_CAP
        vec_total = m**n
        all_vecs = rings.unpack_vectors(np.arange(vec_total), m, n)
        forms, sizes, index = [], [], {}
        members = np.zeros((64, vec_total))  # row i: forms[i]'s members, 0/1

        def add(form) -> int:
            nonlocal members
            if form.tobytes() not in index:
                if len(forms) == len(members):
                    members = np.vstack([members, np.zeros_like(members)])
                span = rings.span_codes(form, ring)
                members[len(forms), span] = 1
                sizes.append(span.size)
                index[form.tobytes()] = len(forms)
                forms.append(form)
                if len(forms) > limit:
                    raise CapExceeded(f"submodule lattice exceeds {limit} elements", len(forms))
            return index[form.tobytes()]

        # cyclic submodules first; every submodule is a join of those.  R is
        # local, so Rv = Rw iff w = u v for a unit u (w = a v with a in (p)
        # gives Rw in p Rv, short of Rv by Nakayama): forms[c] is R gens[c]
        orbits = rings.pack_vectors(all_vecs[:, None] * np.array(ring.units())[:, None] % m, m)
        cyclic, gens = np.full(vec_total, -1), []
        for code in range(vec_total):
            if cyclic[code] < 0:
                cyclic[orbits[code]] = add(rings.howell_form(all_vecs[code][None, :], ring))
                gens.append(code)

        # close under joins with cyclic generators, each form a base once, all
        # in canonical-form algebra.  A known S holding base and v with |S| =
        # |base| |Rv| / |base n Rv| = |base + Rv| (second isomorphism theorem)
        # is base + Rv, and then that join needs no form.  Float64 member rows
        # make |S n base| one BLAS product, exact as it is at most m^n < 2^53
        base = 0
        while base < len(forms):
            known, size = members[: len(forms)], np.array(sizes)
            inter = (known @ known[base]).astype(np.int64)
            joined_size = size[base] * size[: len(gens)] // inter[: len(gens)]
            above = inter == size[base]
            done = np.any((known[above][:, gens] > 0) & (size[above, None] == joined_size), axis=0)
            for c, code in enumerate(gens):
                if not done[c]:
                    joined = add(rings.howell_form(np.vstack([forms[base], all_vecs[code]]), ring))
                    done |= (members[joined, gens] > 0) & (sizes[joined] == joined_size)
            base += 1

        labels = [";".join(",".join(map(str, row)) for row in form.tolist()) for form in forms]
        ordered = sorted(range(len(forms)), key=lambda i: (sizes[i], labels[i]))
        rank = np.empty(len(forms), dtype=np.int32)
        rank[ordered] = np.arange(len(forms))
        self.basis_rows = [forms[i][np.any(forms[i], axis=1)] for i in ordered]
        self.cyclic_index = rank[cyclic]
        self.membership = members[ordered] > 0

        # act_batch's tables: entry [r, j, w] is m^j (r . w mod m), for basis
        # row r of the element and the m^n row codes w
        weights, code_dtype = m ** np.arange(n), np.min_scalar_type(vec_total - 1)
        self.row_tables = [
            ((rows @ all_vecs.T % m)[:, None] * weights[:, None]).astype(code_dtype)
            for rows in self.basis_rows
        ]

        # meets and joins read off the member sets, each certified by its size
        meet, join = lattice_tables(self.membership)
        self.lattice = FiniteLattice(meet, join, [labels[i] for i in ordered])

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
    def from_json(obj: dict) -> "Instance":
        if not isinstance(obj, dict):
            raise InputError(f"an instance file holds a JSON object, not {obj!r}")
        version = obj.get("schema_version", 1)
        if version != 1:
            raise InputError(f"unsupported instance schema version {version}")
        if "ring" not in obj or "n" not in obj:
            raise InputError("instance file needs 'ring' and 'n'")
        instance = Instance(RingSpec.from_json(obj["ring"]), rings.json_int(obj["n"], "n"))
        declared = obj.get("atoms")
        if declared is not None:
            built = [instance.lattice.labels[a] for a in instance.atoms]
            if declared != built:
                raise InputError(f"declared frame atoms {declared} do not match {built}")
        return instance

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

    def gl(self, cap: int = DEFAULT_GL_CAP):
        """The whole group; also fills `gl_codes` (ascending, in the
        narrowest unsigned dtype below m^(n^2)) and the right-coset labels,
        from `groups.enumerate_gl`.  Cached by hand, not by `instance_cache`:
        `cap` is checked on the first call only, so it is no key."""
        if self._gl is None:
            expected = gl_order(self.ring, self.n)
            if expected > cap:
                raise CapExceeded(
                    f"|GL({self.n}, Z/{self.modulus})| = {expected} exceeds cap {cap}"
                )
            self.gl_codes = enumerate_gl(self, expected)
            cosets = np.ones(expected // self.ring.unit_count**self.n, dtype=bool)
            self._gl = Subgroup(self, cosets)
        return self._gl

    def diagonal_codes(self, entries) -> np.ndarray:
        """Codes of diag(e) for the rows e of `entries`: e_i is digit i n + i."""
        return np.dot(entries, self.modulus ** ((self.n + 1) * np.arange(self.n, dtype=np.int64)))

    @instance_cache
    def diagonal(self):
        """The group of invertible diagonal matrices (the frame stabiliser):
        the right coset of D holding the identity."""
        cosets = np.zeros(len(right_cosets(self)[1]), dtype=bool)
        cosets[d_label(self)] = True
        gens = self.diagonal_generator_codes()
        return Subgroup(self, cosets, generator_codes=gens)

    def diagonal_generator_codes(self) -> list[int]:
        """diag(1, .., r at i, .., 1) for each r of `_unit_group_generators`
        and each i."""
        eye = np.eye(self.n, dtype=bool)
        gens = [np.where(eye, r, 1) for r in self._unit_group_generators()]
        return self.diagonal_codes(np.concatenate(gens)).tolist()

    @instance_cache
    def _unit_group_generators(self) -> tuple[int, ...]:
        """Units generating the unit group: the first of full order where the
        group is cyclic (odd p, Z/2, Z/4); else, as (Z/2^k)* = <-1> x <5> for
        k >= 3, the units of largest order, ascending, each taken if it lies
        outside the group generated by those before it (3 and 5)."""
        m, units = self.modulus, self.ring.units()
        powers = {g: {pow(g, e, m) for e in range(len(units))} for g in units}
        gens, reached = [], {1}
        for g in sorted(units, key=lambda g: -len(powers[g])):
            if g not in reached:
                gens.append(g)
                reached = {r * c % m for r in reached for c in powers[g]}
        # (Z/2)* is trivial
        return tuple(gens) or (1,)

    @instance_cache
    def l0_prime(self):
        """Sublattice of elements fixed by the whole frame stabiliser, tested on
        its generators, so lattice-only work never enumerates GL."""
        return fixed_by(self, np.array(self.diagonal_generator_codes(), dtype=np.int64))

    # -- elementary transvections -------------------------------------------

    @instance_cache
    def slot_convention(self) -> str:
        """Which slot of identity-plus-one-entry realises a move of atom i into atom j.

        Decided by the membership predicate on a unit-parameter candidate,
        never assumed; "ji" means entry at (j, i).
        """
        i, j = 0, 1
        for conv in ("ji", "ij"):
            mat = np.eye(self.n, dtype=np.int64)
            if conv == "ji":
                mat[j, i] = 1
            else:
                mat[i, j] = 1
            x = classify_transvection(self, mat, i, j)
            if x is not None and x != self.lattice.bottom:
                return conv
        raise RuntimeError("no elementary slot realises a transvection; convention bug")

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


def net_subgroup(instance: Instance, dnet: DNet):
    """Invertible matrices whose (i, j) entry lies in the prescribed ideal.

    Entry j of a row code is its digit j in base m, and p^lev divides m, so
    the entry lies in (p^lev) iff it is divisible by p^lev: whether a row
    fits is a table over the m^n row codes, read at each row's code
    (`row_digits`).  A right factor in D scales columns by units, and a unit
    multiple of an entry lies in the same ideal, so the verdict is constant
    on each right coset gD: it is read at the cosets' smallest codes.
    """
    m, n, p = instance.modulus, instance.n, instance.ring.p
    entries = rings.unpack_vectors(np.arange(m**n), m, n)  # [v, j]: entry j of row code v
    levels = np.where(np.eye(n, dtype=bool), 0, dnet.levels)[:, None]
    fits = np.all(entries % p**levels == 0, axis=2)  # [i, v]: row code v fits row i
    rows = instance.row_digits(right_cosets(instance)[1])
    return Subgroup(instance, np.all([f[r] for f, r in zip(fits, rows)], axis=0))


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


@instance_cache
def verified_net_subgroup(instance: Instance, dnet: DNet):
    """Entrywise net subgroup with a verified generating set attached.

    The closure of the diagonal generators plus one elementary per nonzero
    prescribed ideal must reproduce the entrywise set exactly; cached.
    """
    entrywise = net_subgroup(instance, dnet)
    gens = net_subgroup_generators(instance, dnet)
    closure = coset_closure(instance, instance.diagonal(), gens)
    if closure != entrywise:
        raise RuntimeError("generator closure does not reproduce the entrywise net subgroup")
    return Subgroup(instance, entrywise.coset_mask(), gens)


def verify_sandwich(
    instance: Instance,
    subgroup,
    *,
    seed: int = 0,
    conjugation_samples: int | None = None,
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
    sigma = transvection_ideals(instance, subgroup)
    dnet = bridge_to_dnet(instance, sigma)
    record(checks, "dnet_law", dnet.is_valid(), dnet.law_violation(), levels=dnet.levels.tolist())

    back = bridge_to_collection(instance, dnet)
    record(checks, "bridge_roundtrip", back == sigma)

    g_sigma = verified_net_subgroup(instance, dnet)
    gk = net_fixer(instance, sigma)
    record(checks, "net_subgroup_matches_fixer", g_sigma == gk, None, order=len(g_sigma))

    gens_f = generating_subset(subgroup)
    inside, outside = sandwich(instance, g_sigma, subgroup, gens_f)
    record(checks, "sandwich_lower", inside)
    outside = list(outside)
    record(checks, "sandwich_upper", not outside, outside or None)

    passing = []
    for cand in enumerate_dnets(instance):
        gs = verified_net_subgroup(instance, cand)
        inside, outside = sandwich(instance, gs, subgroup, gens_f)
        if inside and next(outside, None) is None:
            passing.append(cand)
    record(
        checks,
        "dnet_uniqueness",
        len(passing) == 1 and passing[0] == dnet,
        [c.levels.tolist() for c in passing] if len(passing) != 1 else None,
        candidates=len(enumerate_dnets(instance)),
    )

    checks.extend(
        verify_intermediate_subgroup(
            instance, subgroup, seed=seed, conjugation_samples=conjugation_samples
        )
    )
    return checks
