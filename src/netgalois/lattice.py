"""Finite lattices as explicit meet/join tables, plus sublattice machinery.

Elements are dense indices 0..N-1; meet and join are N x N index tables.
Instances stay small (N up to about a thousand: Z/8 rank 3 has 802), so
table lookups dominate all inner loops downstream and the O(N^2) storage is
deliberate.  A lattice is immutable after construction and safe to share
across worker processes.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


class FiniteLattice:
    """Lattice given by its meet/join tables and opaque element labels.

    Labels let matrix-side code map images of elements back to indices by
    canonical content, never by position.
    """

    def __init__(self, meet, join, labels, check=True):
        self.meet_table = np.asarray(meet, dtype=np.int32)
        self.join_table = np.asarray(join, dtype=np.int32)
        self.labels = list(labels)
        n = len(self.labels)
        if self.meet_table.shape != (n, n) or self.join_table.shape != (n, n):
            raise InputError("meet/join tables do not match label count")
        if len(set(self.labels)) != n:
            raise InputError("element labels must be distinct")
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.bottom = self._find_extreme(self.meet_table)
        self.top = self._find_extreme(self.join_table)
        self._dims = None
        if check:
            self._spot_check_axioms()

    def _find_extreme(self, table) -> int:
        n = len(self.labels)
        for i in range(n):
            if np.all(table[i] == i):
                return i
        raise InputError("lattice has no bottom/top element")

    def _spot_check_axioms(self):
        mt, jt = self.meet_table, self.join_table
        n = len(self)
        if not (np.array_equal(mt, mt.T) and np.array_equal(jt, jt.T)):
            raise InputError("meet/join tables are not commutative")
        if not (np.array_equal(np.diag(mt), np.arange(n)) and np.array_equal(np.diag(jt), np.arange(n))):
            raise InputError("meet/join tables are not idempotent")
        # absorption a ^ (a v b) = a catches most table-construction slips
        rows = np.arange(n)[:, None]
        if not np.all(mt[rows, jt] == rows):
            raise InputError("absorption law fails; tables are inconsistent")

    def __len__(self) -> int:
        return len(self.labels)

    def meet(self, a: int, b: int) -> int:
        return int(self.meet_table[a, b])

    def join(self, a: int, b: int) -> int:
        return int(self.join_table[a, b])

    def meet_many(self, xs) -> int:
        out = self.top
        for x in xs:
            out = int(self.meet_table[out, x])
        return out

    def join_many(self, xs) -> int:
        out = self.bottom
        for x in xs:
            out = int(self.join_table[out, x])
        return out

    def leq(self, a: int, b: int) -> bool:
        """Order induced by meet: a <= b iff a ^ b = a."""
        return int(self.meet_table[a, b]) == a

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def downset(self, x: int) -> list[int]:
        return [int(a) for a in np.where(self.meet_table[x] == np.arange(len(self)))[0]]

    def covers(self) -> list[tuple[int, int]]:
        """All covering pairs (a, b) with a < b and nothing strictly between."""
        n = len(self)
        less = np.array([[self.leq(a, b) and a != b for b in range(n)] for a in range(n)])
        out = []
        for a in range(n):
            for b in range(n):
                if less[a, b] and not any(less[a, c] and less[c, b] for c in range(n)):
                    out.append((a, b))
        return out

    def dimensions(self) -> np.ndarray:
        """Height of every element: chain length from bottom.

        Requires all maximal chains between comparable elements to agree
        (true in modular lattices); raises otherwise, reporting the offender.
        """
        if self._dims is not None:
            return self._dims
        n = len(self)
        covers = self.covers()
        upper = {a: [] for a in range(n)}
        for a, b in covers:
            upper[a].append(b)
        longest = np.full(n, -1, dtype=np.int64)
        shortest = np.full(n, -1, dtype=np.int64)
        longest[self.bottom] = 0
        shortest[self.bottom] = 0
        order = sorted(range(n), key=lambda x: len(self.downset(x)))
        for x in order:
            if x == self.bottom:
                continue
            lows = [a for (a, b) in covers if b == x]
            if not lows:
                raise InputError(f"element {x} has no lower cover yet is not bottom")
            longest[x] = 1 + max(longest[a] for a in lows)
            shortest[x] = 1 + min(shortest[a] for a in lows)
            if longest[x] != shortest[x]:
                raise InputError(
                    f"maximal chains to element {x} disagree "
                    f"({shortest[x]} vs {longest[x]}); lattice is not graded"
                )
        self._dims = longest
        return longest

    def dimension(self, x: int) -> int:
        return int(self.dimensions()[x])

    def is_modular(self):
        """Exhaustive modular-law check; returns (True, None) or (False, witness).

        The witness is a triple (x, y, z) with x <= z but
        x v (y ^ z) != (x v y) ^ z.
        """
        n = len(self)
        mt, jt = self.meet_table, self.join_table
        for x in range(n):
            for z in range(n):
                if not self.leq(x, z):
                    continue
                lhs = jt[x, mt[:, z]]
                rhs = mt[jt[x, :], z]
                bad = np.where(lhs != rhs)[0]
                if bad.size:
                    return False, (x, int(bad[0]), z)
        return True, None

    def modularity_witness_fails(self, witness) -> bool:
        """Replay a witness triple; True iff it still violates the modular law."""
        x, y, z = witness
        if not self.leq(x, z):
            return False
        return self.join(x, self.meet(y, z)) != self.meet(self.join(x, y), z)

    def _closure(self, seeds, universe=None) -> frozenset | None:
        """Meet/join closure of the seeds; None once it leaves the universe."""
        members = set(seeds)
        frontier = list(members)
        while frontier:
            new = set()
            for a in frontier:
                for b in members:
                    for c in (self.meet(a, b), self.join(a, b)):
                        if c not in members and c not in new:
                            if universe is not None and c not in universe:
                                return None
                            new.add(c)
            members |= new
            frontier = list(new)
        return frozenset(members)

    def sublattice_generated(self, seeds) -> "SublatticeHandle":
        """Smallest meet/join-closed member set containing the seeds."""
        seeds = set(int(s) for s in seeds)
        if not seeds:
            raise InputError("sublattice generators must be nonempty")
        return SublatticeHandle(self, self._closure(seeds))

    def enumerate_sublattices(self, universe=None, bound: int = 32) -> list["SublatticeHandle"]:
        """All nonempty meet/join-closed subsets of the universe (default: all).

        Walks the closure system (close each seed, then grow closed sets one
        element at a time), deduplicating on frozen member sets, so the cost
        is proportional to the number of sublattices rather than 2^N.  Still
        refuses universes past `bound`; restrict to a small fixed sublattice
        first if that trips.
        """
        if universe is None:
            universe = range(len(self))
        universe = sorted(set(int(x) for x in universe))
        if len(universe) > bound:
            raise InputError(
                f"sublattice enumeration over {len(universe)} elements exceeds bound "
                f"{bound}; restrict the universe first"
            )
        uset = set(universe)

        found: set[frozenset] = set()
        stack = []
        for x in universe:
            c = self._closure([x], uset)
            if c is not None and c not in found:
                found.add(c)
                stack.append(c)
        while stack:
            base = stack.pop()
            for x in universe:
                if x in base:
                    continue
                c = self._closure(base | {x}, uset)
                if c is not None and c not in found:
                    found.add(c)
                    stack.append(c)
        handles = [SublatticeHandle(self, s) for s in found]
        handles.sort(key=lambda h: (len(h.members), h.members))
        return handles

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "n_elements": len(self),
            "bottom": int(self.bottom),
            "top": int(self.top),
            "labels": list(self.labels),
            "meet": self.meet_table.tolist(),
            "join": self.join_table.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "FiniteLattice":
        version = obj.get("schema_version", 1)
        if version != 1:
            raise InputError(f"unsupported lattice schema version {version}")
        lat = FiniteLattice(obj["meet"], obj["join"], obj["labels"])
        if lat.bottom != obj.get("bottom", lat.bottom) or lat.top != obj.get("top", lat.top):
            raise InputError("declared bottom/top disagree with the tables")
        if obj.get("n_elements", len(lat)) != len(lat):
            raise InputError("declared element count disagrees with the tables")
        return lat

    def to_dot(self) -> str:
        """Hasse diagram in DOT format (bottom at the bottom)."""
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
        for i, lab in enumerate(self.labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for a, b in self.covers():
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class SublatticeHandle:
    """A meet/join-closed member set of a parent lattice."""

    def __init__(self, parent: FiniteLattice, members, check=True):
        self.parent = parent
        self.members = tuple(sorted(int(m) for m in set(members)))
        if check and not self.is_closed():
            raise InputError(f"member set {self.members} is not meet/join closed")

    def is_closed(self) -> bool:
        ms = set(self.members)
        return all(
            self.parent.meet(a, b) in ms and self.parent.join(a, b) in ms
            for a in ms
            for b in ms
        )

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return int(x) in set(self.members)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, SublatticeHandle)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return f"SublatticeHandle({list(self.members)})"

    @property
    def bottom(self) -> int:
        return self.parent.meet_many(self.members)

    @property
    def top(self) -> int:
        return self.parent.join_many(self.members)

    def is_boolean(self):
        """(True, atoms) for a complemented distributive member set, else (False, None).

        Atoms come back ordered by their canonical element labels.
        """
        ms = list(self.members)
        bot, top = self.bottom, self.top
        par = self.parent
        if bot not in ms or top not in ms:
            return False, None
        for a in ms:
            if not any(par.meet(a, b) == bot and par.join(a, b) == top for b in ms):
                return False, None
        for a in ms:
            for b in ms:
                for c in ms:
                    if par.meet(a, par.join(b, c)) != par.join(par.meet(a, b), par.meet(a, c)):
                        return False, None
        atoms = [
            a
            for a in ms
            if a != bot and not any(x != bot and x != a and par.leq(x, a) for x in ms)
        ]
        atoms.sort(key=lambda a: par.labels[a])
        return True, atoms


def pentagon() -> FiniteLattice:
    """The five-element non-modular lattice: 0 < a < b < 1 and 0 < c < 1."""
    labels = ["0", "a", "b", "c", "1"]
    idx = {lab: i for i, lab in enumerate(labels)}
    order = {
        ("0", "0"), ("0", "a"), ("0", "b"), ("0", "c"), ("0", "1"),
        ("a", "a"), ("a", "b"), ("a", "1"),
        ("b", "b"), ("b", "1"),
        ("c", "c"), ("c", "1"),
        ("1", "1"),
    }

    def leq(x, y):
        return (x, y) in order

    n = len(labels)
    meet = np.zeros((n, n), dtype=np.int64)
    join = np.zeros((n, n), dtype=np.int64)
    for x in labels:
        for y in labels:
            lower = [z for z in labels if leq(z, x) and leq(z, y)]
            upper = [z for z in labels if leq(x, z) and leq(y, z)]
            inf = next(z for z in lower if all(leq(w, z) for w in lower))
            sup = next(z for z in upper if all(leq(z, w) for w in upper))
            meet[idx[x], idx[y]] = idx[inf]
            join[idx[x], idx[y]] = idx[sup]
    return FiniteLattice(meet, join, labels)


def chain(length: int) -> FiniteLattice:
    """The chain 0 < 1 < ... < length."""
    n = length + 1
    idx = np.arange(n)
    meet = np.minimum.outer(idx, idx)
    join = np.maximum.outer(idx, idx)
    return FiniteLattice(meet, join, [str(i) for i in range(n)])
