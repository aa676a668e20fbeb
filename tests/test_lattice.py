import itertools
import json

import numpy as np
import pytest

from netgalois.errors import CapExceeded, InputError
from netgalois.lattice import FiniteLattice, SublatticeHandle, chain, pentagon


def brute_submodule_lattice_f7():
    """Submodule lattice of the rank-2 space over the 7-element field, built
    from raw vector sets with no shared code: the independent oracle."""
    p = 7
    vecs = [(a, b) for a in range(p) for b in range(p)]
    subs = set()
    for v in vecs:
        for w in vecs:
            span = frozenset(
                ((a * v[0] + b * w[0]) % p, (a * v[1] + b * w[1]) % p)
                for a in range(p)
                for b in range(p)
            )
            subs.add(span)
    subs = sorted(subs, key=lambda s: (len(s), sorted(s)))
    return subs


def test_f7_counts_and_containment_against_brute_force(f7):
    subs = brute_submodule_lattice_f7()
    assert len(subs) == len(f7.lattice) == 10
    # map brute sets onto lattice indices through the membership table
    code = {s: None for s in subs}
    for s in subs:
        codes = sorted(v[0] + 7 * v[1] for v in s)
        hits = [
            x
            for x in range(len(f7.lattice))
            if sorted(np.nonzero(f7.membership[x])[0].tolist()) == codes
        ]
        assert len(hits) == 1
        code[s] = hits[0]
    for s1 in subs:
        for s2 in subs:
            assert f7.lattice.leq(code[s1], code[s2]) == (s1 <= s2)


def test_leq_examples(f7):
    lat = f7.lattice
    e1, e2 = f7.atoms
    for x in range(len(lat)):
        assert lat.leq(lat.bottom, x)
        assert lat.leq(x, x)
        assert lat.leq(x, lat.top)
    assert lat.leq(e1, lat.top)
    assert not lat.leq(e1, e2)


def test_dimensions(f7, z4):
    assert f7.lattice.dimension(f7.lattice.bottom) == 0
    assert all(f7.lattice.dimension(a) == 1 for a in f7.atoms)
    assert f7.lattice.dimension(f7.lattice.top) == 2
    # chain-ring atoms have height k
    assert all(z4.lattice.dimension(a) == 2 for a in z4.atoms)
    # height equals composition length: log_p of the member count
    for inst in (f7, z4):
        p = inst.ring.p
        for x in range(len(inst.lattice)):
            size = int(inst.membership[x].sum())
            length = 0
            while p**length < size:
                length += 1
            assert p**length == size
            assert inst.lattice.dimension(x) == length


def test_dimension_monotone(f7, z4, z49):
    for inst in (f7, z4, z49):
        lat = inst.lattice
        dims = lat.dimensions()
        for a in range(len(lat)):
            for b in range(len(lat)):
                if lat.lt(a, b):
                    assert dims[a] < dims[b]


def test_jordan_dedekind_all_instances(small_instances, z49):
    # dimensions() raises if any element has unequal maximal chain lengths
    for inst in list(small_instances.values()) + [z49]:
        inst.lattice.dimensions()


def strict_order(lat):
    """less[a, b]: a < b, by `lt` on every pair."""
    return np.array([[lat.lt(a, b) for b in range(len(lat))] for a in range(len(lat))])


def brute_covers(lat):
    """Covering pairs by the definition, row-major: a < b with no c such
    that a < c < b, the c tested elementwise."""
    n, less = len(lat), strict_order(lat)
    between = [np.any(less[a][:, None] & less, axis=0) for a in range(n)]
    return [(a, b) for a in range(n) for b in range(n) if less[a, b] and not between[a][b]]


def chain_heights(lat):
    """Length of the longest chain from the bottom to each element: h[b] =
    max(h[a] + 1 over a < b), relaxed to its fixed point."""
    less = strict_order(lat)
    heights = np.zeros(len(lat), dtype=np.int64)
    while True:
        longer = np.where(less, heights[:, None] + 1, 0).max(axis=0)
        if np.array_equal(longer, heights):
            return heights
        heights = longer


@pytest.mark.parametrize("name", ["f2", "z4", "f7", "z9", "z49", "f2n3"])
def test_covers_and_dimensions_match_the_definitions(name, request):
    """`covers()` is the brute-force list, order included, and
    `dimensions()` the chain-length heights."""
    lat = request.getfixturevalue(name).lattice
    assert lat.covers() == brute_covers(lat)
    dims = lat.dimensions()
    assert dims.dtype == np.int64 and np.array_equal(dims, chain_heights(lat))


def test_pentagon_dimensions_name_the_ungraded_element():
    """In N5 = 0 < a < b < 1, 0 < c < 1 the chains to 1 (element 4) have
    lengths 2 and 3."""
    n5 = pentagon()
    assert n5.covers() == brute_covers(n5) == [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]
    with pytest.raises(InputError, match=r"element 4 disagree \(2 vs 3\); lattice is not graded"):
        n5.dimensions()


@pytest.mark.slow
def test_z8_rank3_covers_match_the_definition():
    """The 802-element submodule lattice of (Z/8)^3."""
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    lat = Instance(RingSpec(2, 3), 3).lattice
    assert len(lat) == 802
    assert lat.covers() == brute_covers(lat)


def test_is_modular(f7, z4, z49):
    for inst in (f7, z4, z49):
        ok, witness = inst.lattice.is_modular()
        assert ok and witness is None


def test_pentagon_fails_modularity_with_replayable_witness():
    n5 = pentagon()
    ok, witness = n5.is_modular()
    assert not ok
    assert n5.modularity_witness_fails(witness)


def test_semilattice_axioms_exhaustive(f7):
    lat = f7.lattice
    n = len(lat)
    for a in range(n):
        for b in range(n):
            assert lat.meet(a, b) == lat.meet(b, a)
            assert lat.join(a, b) == lat.join(b, a)
            assert lat.meet(a, lat.join(a, b)) == a
            assert lat.join(a, lat.meet(a, b)) == a
            for c in range(n):
                assert lat.meet(a, lat.meet(b, c)) == lat.meet(lat.meet(a, b), c)
                assert lat.join(a, lat.join(b, c)) == lat.join(lat.join(a, b), c)


def test_sublattice_generated_is_closure_operator(f7):
    lat = f7.lattice
    rng = np.random.default_rng(3)
    subsets = [set(rng.choice(len(lat), size=k, replace=False).tolist()) for k in (1, 2, 3, 4)]
    for s in subsets:
        h = lat.sublattice_generated(s)
        assert s <= set(h.members)  # extensive
        again = lat.sublattice_generated(h.members)
        assert again.members == h.members  # idempotent
        bigger = lat.sublattice_generated(s | {lat.top})
        assert set(h.members) <= set(bigger.members)  # monotone
    one = lat.sublattice_generated({f7.atoms[0]})
    assert one.members == (f7.atoms[0],)
    both = lat.sublattice_generated({f7.atoms[0], f7.atoms[1], lat.bottom})
    assert set(both.members) == {lat.bottom, f7.atoms[0], f7.atoms[1], lat.top}
    assert lat.sublattice_generated(range(len(lat))).members == tuple(range(len(lat)))


def brute_force_sublattices(lat, universe):
    out = []
    universe = list(universe)
    for r in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            s = set(combo)
            if all(lat.meet(a, b) in s and lat.join(a, b) in s for a in s for b in s):
                out.append(tuple(sorted(s)))
    return sorted(out)


def test_enumerate_sublattices_chain():
    two = chain(1)
    handles = two.enumerate_sublattices()
    assert sorted(h.members for h in handles) == [(0,), (0, 1), (1,)]


def test_enumerate_sublattices_vs_brute_force(f7, z49):
    lat = f7.lattice
    l0 = f7.frame.l0.members
    got = sorted(h.members for h in lat.enumerate_sublattices(universe=l0))
    assert got == brute_force_sublattices(lat, l0)
    assert len(got) == 12
    l0p = z49.l0_prime().members
    got49 = sorted(h.members for h in z49.lattice.enumerate_sublattices(universe=l0p))
    assert got49 == brute_force_sublattices(z49.lattice, l0p)
    assert len(got49) == 146


def test_enumerate_sublattices_bound(f7):
    """A universe past the bound is a cap, not bad input: it carries the
    universe's size."""
    with pytest.raises(CapExceeded, match="10 elements exceeds bound 5") as exc:
        f7.lattice.enumerate_sublattices(bound=5)
    assert exc.value.partial_count == 10


def test_is_boolean(f7, z4):
    ok, atoms = f7.frame.l0.is_boolean()
    assert ok and tuple(sorted(atoms)) == tuple(sorted(f7.atoms))
    three = chain(2)
    ok, _ = SublatticeHandle(three, range(3)).is_boolean()
    assert not ok
    ok, atoms = z4.frame.l0.is_boolean()
    assert ok and tuple(sorted(atoms)) == tuple(sorted(z4.atoms))


def test_json_roundtrip(f7, tmp_path):
    lat = f7.lattice
    data = lat.to_json()
    back = FiniteLattice.from_json(json.loads(json.dumps(data)))
    assert np.array_equal(back.meet_table, lat.meet_table)
    assert np.array_equal(back.join_table, lat.join_table)
    assert back.labels == lat.labels
    assert back.bottom == lat.bottom and back.top == lat.top
    bad = dict(data, schema_version=99)
    with pytest.raises(InputError):
        FiniteLattice.from_json(bad)


def test_dot_output(f7):
    dot = f7.lattice.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == len(f7.lattice.covers())
