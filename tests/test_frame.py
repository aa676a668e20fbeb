import numpy as np
import pytest

from netgalois.errors import InputError
from netgalois.frame import Collection


def all_instances(small_instances, z49):
    return list(small_instances.values()) + [z49]


def test_support_formula_equals_brute_force_everywhere(small_instances, z49, support_brute):
    """The closed formula must match the minimal-covering-tuple search for
    every element of every built instance."""
    for inst in all_instances(small_instances, z49):
        frame = inst.frame
        for x in range(len(inst.lattice)):
            assert frame.support(x) == support_brute(frame, x), (inst.describe(), x)


def test_support_examples(f7):
    frame = f7.frame
    lat = f7.lattice
    bot = lat.bottom
    assert frame.support(bot).parts == (bot, bot)
    e1, e2 = f7.atoms
    assert frame.support(e1).parts == (e1, bot)
    assert frame.support(e2).parts == (bot, e2)
    diag = f7.element_by_label("1,1;0,0")
    assert frame.support(diag).parts == (e1, e2)


def test_support_covers_and_additive(small_instances, z49):
    for inst in all_instances(small_instances, z49):
        lat, frame = inst.lattice, inst.frame
        n = len(lat)
        for x in range(n):
            assert lat.leq(x, frame.support(x).join_total())
        for x in range(n):
            sx = frame.support(x)
            for y in range(n):
                assert frame.support(lat.join(x, y)) == sx.sup(frame.support(y))


def _modular_zero_meet_identity(lat, quad):
    x, y, z, t = quad
    if lat.meet(lat.join(x, z), lat.join(y, t)) != lat.bottom:
        return True
    lhs = lat.meet(lat.join(x, y), lat.join(z, t))
    rhs = lat.join(lat.meet(x, z), lat.meet(y, t))
    return lhs == rhs


def test_zero_meet_identity_sampled_and_exhaustive(small_instances, z49, f2):
    rng = np.random.default_rng(20260809)
    for inst in all_instances(small_instances, z49):
        lat = inst.lattice
        quads = rng.integers(0, len(lat), size=(1000, 4))
        for quad in quads.tolist():
            assert _modular_zero_meet_identity(lat, quad)
    lat = f2.lattice
    n = len(lat)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for t in range(n):
                    assert _modular_zero_meet_identity(lat, (x, y, z, t))


def test_gathered_meet_identity_sampled(small_instances, z49):
    """sum_i (x + hat_i) * x_i == (sum_i x_i) * prod_i (x + hat_i) for tuples."""
    rng = np.random.default_rng(97)
    for inst in all_instances(small_instances, z49):
        lat = inst.lattice
        for _ in range(1000):
            s = int(rng.integers(2, 5))
            xs = rng.integers(0, len(lat), size=s).tolist()
            x = int(rng.integers(0, len(lat)))
            hats = [lat.join_many(xs[:i] + xs[i + 1 :]) for i in range(s)]
            lhs = lat.join_many(lat.meet(lat.join(x, hats[i]), xs[i]) for i in range(s))
            rhs = lat.meet(lat.join_many(xs), lat.meet_many(lat.join(x, hats[i]) for i in range(s)))
            assert lhs == rhs


def test_meet_decomposes_over_supports_in_componentwise_span(small_instances, z49):
    for inst in all_instances(small_instances, z49):
        lat, frame = inst.lattice, inst.frame
        for x in frame.lbar0:
            for y in frame.lbar0:
                sx, sy = frame.support(x), frame.support(y)
                expect = lat.join_many(
                    lat.meet(a, b) for a, b in zip(sx.parts, sy.parts)
                )
                assert lat.meet(x, y) == expect


def test_lbar0_membership(f7, z49):
    frame = f7.frame
    for a in f7.atoms:
        ok, _ = frame.lbar0_membership(a)
        assert ok
    ok, _ = frame.lbar0_membership(f7.lattice.top)
    assert ok
    diag = f7.element_by_label("1,1;0,0")
    ok, sup = frame.lbar0_membership(diag)
    assert not ok
    assert sup.join_total() == f7.lattice.top
    mixed = z49.element_by_label("7,0;0,1")
    ok, sup = z49.frame.lbar0_membership(mixed)
    assert ok
    labels = [z49.lattice.labels[p] for p in sup.parts]
    assert labels == ["7,0;0,0", "0,1;0,0"]


def test_lbar0_matches_membership_predicate(small_instances, z49):
    for inst in all_instances(small_instances, z49):
        frame = inst.frame
        via_pred = {x for x in range(len(inst.lattice)) if frame.lbar0_membership(x)[0]}
        assert via_pred == set(frame.lbar0)


def test_complement_over_postconditions(small_instances, z49):
    for inst in all_instances(small_instances, z49):
        lat, frame = inst.lattice, inst.frame
        n_idx = range(frame.n)
        subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset(n_idx)]
        for v in range(len(lat)):
            sup = frame.support(v)
            for index_set in subsets:
                v_i = frame.complement_over(v, index_set)
                inside = lat.join_many(sup.parts[i] for i in index_set)
                assert lat.join(v_i, inside) == lat.join(v, inside)
                for i in index_set:
                    assert frame.support(v_i).parts[i] == lat.bottom


def test_complement_over_examples(f7):
    e1 = f7.atoms[0]
    assert f7.frame.complement_over(e1, {0}) == f7.lattice.bottom
    with pytest.raises(InputError):
        f7.frame.complement_over(e1, {5})


def test_collection_ops(f7):
    frame = f7.frame
    bot = f7.lattice.bottom
    e1, e2 = f7.atoms
    c1 = Collection(frame, (e1, bot))
    c2 = Collection(frame, (bot, e2))
    assert c1.inf(c1) == c1
    assert c1.sup(c2) == Collection(frame, (e1, e2))
    assert c1.inf(c2) == Collection(frame, (bot, bot))
    assert c1.leq(c1.sup(c2))
    assert not c1.leq(c2)
    with pytest.raises(InputError):
        Collection(frame, (e2, bot))  # part not below its atom
    with pytest.raises(InputError):
        Collection(frame, (e1,))


def test_collection_frame_mismatch(f7, z4):
    a = Collection(f7.frame, (f7.lattice.bottom, f7.lattice.bottom))
    b = Collection(z4.frame, (z4.lattice.bottom, z4.lattice.bottom))
    with pytest.raises(InputError):
        a.inf(b)


def test_transvection_moves_atom_inside_join(f7, dense_transvection_table):
    """Image of the moved atom joins with the atom (and with the value) to the
    same element as atom-plus-value."""
    lat = f7.lattice
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            table = dense_transvection_table(f7, i, j)
            codes = f7.gl().codes
            for x in np.unique(table[table >= 0]).tolist():
                target = lat.join(f7.atoms[i], int(x))
                for code in codes[table == x][:20].tolist():
                    img = f7.act(f7.mat_of_code(code), f7.atoms[i])
                    assert lat.join(img, f7.atoms[i]) == target
                    assert lat.join(img, int(x)) == target
