"""The Boolean frame inside a lattice and the support calculus built on it.

A frame fixes atoms e_1..e_n generating a Boolean sublattice whose bottom and
top coincide with the lattice's, all atoms having equal height m.  The
support of an element x is the componentwise-minimal tuple (x_1..x_n) with
x_i <= e_i and x <= x_1 + ... + x_n; it is computed throughout by the closed
formula [x]_i = (x + hat_i) * e_i, where hat_i is the join of the other
atoms.
"""

from __future__ import annotations

import itertools

from .errors import InputError
from .lattice import FiniteLattice, SublatticeHandle


class Frame:
    def __init__(self, lattice: FiniteLattice, atoms):
        self.lattice = lattice
        self.atoms = tuple(int(a) for a in atoms)
        self.n = len(self.atoms)
        if self.n < 1:
            raise InputError("frame needs at least one atom")
        self.l0 = lattice.sublattice_generated(set(self.atoms) | {lattice.bottom, lattice.top})
        if self.l0.bottom != lattice.bottom or self.l0.top != lattice.top:
            raise InputError("frame sublattice must share the lattice's bounds")
        ok, found_atoms = self.l0.is_boolean()
        if not ok:
            raise InputError("frame atoms do not generate a Boolean sublattice")
        if set(found_atoms) != set(self.atoms):
            raise InputError("frame atoms are not the atoms of their sublattice")
        dims = {lattice.dimension(a) for a in self.atoms}
        if len(dims) != 1:
            raise InputError(f"atom heights differ: {sorted(dims)}; frame requires a constant")
        self.m = dims.pop()
        self.hats = tuple(
            lattice.join_many(a for j, a in enumerate(self.atoms) if j != i)
            for i in range(self.n)
        )
        self.atom_downsets = tuple(
            tuple(sorted(lattice.downset(a), key=lattice.dimension)) for a in self.atoms
        )
        self._support = {}
        self.lbar0 = self._build_lbar0()
        self._lbar0_set = frozenset(self.lbar0)

    def _build_lbar0(self):
        """Elements expressible as a join of one part per atom."""
        lat = self.lattice
        out = set()
        for parts in itertools.product(*self.atom_downsets):
            out.add(lat.join_many(parts))
        members = tuple(sorted(out))
        handle = SublatticeHandle(lat, members, check=False)
        if not handle.is_closed():
            raise InputError("componentwise joins do not form a sublattice here")
        return members

    def support(self, x: int) -> "Collection":
        cached = self._support.get(x)
        if cached is None:
            lat = self.lattice
            parts = tuple(
                lat.meet(lat.join(x, self.hats[i]), self.atoms[i]) for i in range(self.n)
            )
            cached = Collection(self, parts)
            self._support[x] = cached
        return cached

    def in_lbar0(self, x: int) -> bool:
        return x in self._lbar0_set

    def lbar0_membership(self, x: int):
        """(True, support) iff x equals the join of its own support parts."""
        sup = self.support(x)
        return self.lattice.join_many(sup.parts) == x, sup

    def complement_over(self, v: int, index_set) -> int:
        """Element agreeing with v over the complement of the index set.

        Returns v_I = (v + sum_{i in I}[v]_i) * (sum_{i not in I}[v]_i); its
        support vanishes on I while v_I + sum_{i in I}[v]_i = v + sum.
        """
        index_set = set(index_set)
        if not index_set <= set(range(self.n)):
            raise InputError(f"index set {index_set} outside 0..{self.n - 1}")
        lat = self.lattice
        sup = self.support(v)
        inside = lat.join_many(sup.parts[i] for i in index_set)
        outside = lat.join_many(sup.parts[i] for i in range(self.n) if i not in index_set)
        return lat.meet(lat.join(v, inside), outside)

    def collection(self, parts) -> "Collection":
        return Collection(self, parts)


class Collection:
    """An ordered tuple of elements, one below each frame atom.

    Value object: compared, met and joined componentwise.
    """

    def __init__(self, frame: Frame, parts):
        self.frame = frame
        self.parts = tuple(int(p) for p in parts)
        if len(self.parts) != frame.n:
            raise InputError("collection arity does not match the frame")
        lat = frame.lattice
        for i, p in enumerate(self.parts):
            if not lat.leq(p, frame.atoms[i]):
                raise InputError(f"part {i} is not below its atom")

    def _check_same_frame(self, other: "Collection"):
        if self.frame is not other.frame:
            raise InputError("collections belong to different frames")

    def __eq__(self, other):
        return (
            isinstance(other, Collection)
            and self.frame is other.frame
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((id(self.frame), self.parts))

    def __repr__(self):
        labs = [self.frame.lattice.labels[p] for p in self.parts]
        return f"Collection({labs})"

    def leq(self, other: "Collection") -> bool:
        self._check_same_frame(other)
        lat = self.frame.lattice
        return all(lat.leq(a, b) for a, b in zip(self.parts, other.parts))

    def inf(self, other: "Collection") -> "Collection":
        self._check_same_frame(other)
        lat = self.frame.lattice
        return Collection(self.frame, (lat.meet(a, b) for a, b in zip(self.parts, other.parts)))

    def sup(self, other: "Collection") -> "Collection":
        self._check_same_frame(other)
        lat = self.frame.lattice
        return Collection(self.frame, (lat.join(a, b) for a, b in zip(self.parts, other.parts)))

    def join_total(self) -> int:
        return self.frame.lattice.join_many(self.parts)
