import hashlib

import numpy as np
import pytest

from netgalois.errors import CapExceeded, InputError
from netgalois.glnr import gl_order
from netgalois.groups import (
    Subgroup,
    axis_subgroup,
    close_subgroup,
    coset_closure,
    conjugation_closure_check,
    double_coset_key,
    fix_mask,
    fixed_lattice,
    fixer,
    galois_phi,
    galois_psi,
    generating_subset,
    intern_subgroup,
    is_normal_in,
    normalizer,
    normalizes,
    same_transvections,
    transvection_table,
    transvections,
)


def borel(f7):
    return coset_closure(f7, f7.diagonal(), [f7.code_of_mat(f7.elementary(0, 1, 1))])


def test_group_orders(f7, z4, f2):
    assert len(f7.gl()) == 2016 == (7**2 - 1) * (7**2 - 7)
    assert len(f7.diagonal()) == 36 == (7 - 1) ** 2
    assert len(z4.gl()) == 96 == gl_order(z4.ring, 2)
    assert len(f2.gl()) == 6


def test_close_subgroup_examples(f7):
    ident = f7.code_of_mat(f7.identity)
    triv = close_subgroup(f7, [])
    assert len(triv) == 1 and triv.contains(ident)
    diag = close_subgroup(f7, f7.diagonal_generator_codes())
    assert np.array_equal(diag.codes, f7.diagonal().codes)
    gens = f7.diagonal_generator_codes() + [
        f7.code_of_mat(f7.elementary(0, 1, 1)),
        f7.code_of_mat(f7.elementary(1, 0, 1)),
    ]
    assert len(close_subgroup(f7, gens)) == 2016


def test_close_subgroup_cap(f7):
    gens = f7.diagonal_generator_codes() + [
        f7.code_of_mat(f7.elementary(0, 1, 1)),
        f7.code_of_mat(f7.elementary(1, 0, 1)),
    ]
    with pytest.raises(CapExceeded):
        close_subgroup(f7, gens, cap=100)


def test_coset_closure_matches_plain_closure(f7):
    rng = np.random.default_rng(5)
    for code in rng.choice(f7.gl().codes, size=6, replace=False).tolist():
        fast = coset_closure(f7, f7.diagonal(), [int(code)])
        slow = close_subgroup(f7, f7.diagonal_generator_codes() + [int(code)])
        assert np.array_equal(fast.codes, slow.codes)


def test_subgroup_closure_invariants(f7):
    sub = borel(f7)
    mats = sub.mats()
    ident = f7.code_of_mat(f7.identity)
    assert sub.contains(ident)
    rng = np.random.default_rng(0)
    pick = rng.choice(len(sub), size=50)
    from netgalois.rings import mat_mul, pack_matrices

    prods = mat_mul(mats[pick], mats[pick[::-1]], f7.modulus)
    assert bool(np.all(sub.contains_many(pack_matrices(prods, f7.modulus))))
    for k in pick[:10].tolist():
        assert sub.contains(f7.code_of_mat(f7.inv(f7.mat_of_code(int(sub.codes[k])))))


def test_every_group_element_acts_as_lattice_automorphism(f7):
    """Exhaustive: the image table of the whole group respects meet and join."""
    lat = f7.lattice
    table = f7.perm_table()
    n = len(lat)
    rows = np.arange(n)
    for k in range(table.shape[0]):
        perm = table[k]
        assert np.array_equal(np.sort(perm), rows)
        assert np.array_equal(perm[lat.meet_table], lat.meet_table[np.ix_(perm, perm)])
        assert np.array_equal(perm[lat.join_table], lat.join_table[np.ix_(perm, perm)])


def test_action_composition_ten_thousand_triples(f7):
    """act(a @ b, x) == act(a, act(b, x)) on 10^4 random triples, checked
    through the precomputed image table."""
    from netgalois.rings import mat_mul, pack_matrices

    rng = np.random.default_rng(12)
    table = f7.perm_table()
    codes = f7.gl().codes
    ai = rng.integers(0, len(codes), size=10_000)
    bi = rng.integers(0, len(codes), size=10_000)
    xs = rng.integers(0, len(f7.lattice), size=10_000)
    a_mats = f7.gl().mats()[ai]
    b_mats = f7.gl().mats()[bi]
    prod_codes = pack_matrices(mat_mul(a_mats, b_mats, f7.modulus), f7.modulus)
    prod_idx = np.searchsorted(codes, prod_codes)
    lhs = table[prod_idx, xs]
    rhs = table[ai, table[bi, xs]]
    assert np.array_equal(lhs, rhs)


def test_action_composition_sampled_z49(z49):
    rng = np.random.default_rng(13)
    from netgalois.rings import mat_mul

    codes = rng.choice(z49.gl().codes, size=40, replace=False)
    mats = [z49.mat_of_code(int(c)) for c in codes.tolist()]
    xs = rng.integers(0, len(z49.lattice), size=12)
    for a in mats[:5]:
        for b in mats[5:10]:
            ab = mat_mul(a, b, z49.modulus)
            for x in xs.tolist():
                assert z49.act(ab, x) == z49.act(a, z49.act(b, x))


def test_fixer_examples(f7):
    assert np.array_equal(fixer(f7, []).codes, f7.gl().codes)
    assert np.array_equal(fixer(f7, f7.frame.l0.members).codes, f7.diagonal().codes)
    scalars = fixer(f7, range(len(f7.lattice)))
    assert len(scalars) == 6
    units = f7.ring.units()
    expect = sorted(f7.code_of_mat(np.diag([u, u])) for u in units)
    assert scalars.codes.tolist() == expect


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9"])
def test_fix_masks_and_fixers_agree_with_brute_force(name, request):
    """fix_mask against the action on all of GL; fixer against the AND of
    those brute-force masks, for L0', the componentwise span, the whole
    lattice and each valid net's canonical sublattice."""
    from netgalois.nets import canonical_sublattice, enumerate_net_collections

    inst = request.getfixturevalue(name)
    g = inst.gl()
    brute = [inst.act_batch(g.mats(), x) == x for x in range(len(inst.lattice))]
    for x, expect in enumerate(brute):
        assert np.array_equal(fix_mask(inst, x), expect)
    sets = [inst.l0_prime().members, inst.frame.lbar0, range(len(inst.lattice))]
    sets += [canonical_sublattice(inst, net).members for net in enumerate_net_collections(inst)]
    for members in sets:
        expect = np.ones(len(g), dtype=bool)
        for x in members:
            expect &= brute[x]
        assert np.array_equal(fixer(inst, members).codes, g.codes[expect])


@pytest.mark.parametrize("ring", [(7, 1), (3, 2)])
def test_fixes_mask_runs_once_per_element(ring, monkeypatch):
    """Set-up plus one sandwich verification on a fresh instance passes all
    of GL through the fixes_mask kernel at most once per lattice element."""
    from netgalois import groups, sweep
    from netgalois.glnr import Instance, verify_sandwich
    from netgalois.rings import RingSpec

    inst = Instance(RingSpec(*ring), 2)
    calls = []
    kernel = groups.fixes_mask

    def counted(instance, mats, x):
        calls.append(int(x))
        return kernel(instance, mats, x)

    monkeypatch.setattr(groups, "fixes_mask", counted)
    sweep.prewarm(inst, cap=10_000_000)
    sub = coset_closure(inst, inst.diagonal(), [inst.code_of_mat(inst.elementary(0, 1, 1))])
    verify_sandwich(inst, sub)
    assert calls
    assert len(calls) == len(set(calls))


def test_fixed_lattice_examples(f7, z49):
    triv = close_subgroup(f7, [])
    assert fixed_lattice(f7, triv).members == tuple(range(len(f7.lattice)))
    assert set(fixed_lattice(f7, f7.diagonal()).members) == set(f7.frame.l0.members)
    fixed = fixed_lattice(z49, z49.diagonal())
    labels = sorted(z49.lattice.labels[x] for x in fixed.members)
    assert labels == sorted(
        ["0,0;0,0", "0,7;0,0", "7,0;0,0", "0,1;0,0", "1,0;0,0",
         "7,0;0,7", "1,0;0,7", "7,0;0,1", "1,0;0,1"]
    )
    # fixed points of the generators equal fixed points of the full group
    full = Subgroup(z49, z49.diagonal().codes, closed=True)
    assert fixed_lattice(z49, full).members == fixed.members


def test_axis_subgroup_by_definition(f7, z49):
    """Brute-force filter: members of the stabiliser fixing every element
    whose support misses the axis."""
    for inst in (f7, z49):
        lat = inst.lattice
        for i in range(inst.n):
            away = [
                x
                for x in range(len(lat))
                if int(inst.support_table[x, i]) == lat.bottom
            ]
            expect = []
            for code in inst.diagonal().codes.tolist():
                perm = inst.perm(inst.mat_of_code(code))
                if all(perm[x] == x for x in away):
                    expect.append(code)
            got = axis_subgroup(inst, i)
            assert got.codes.tolist() == expect
            # rank 2: every element supported away from one atom is an ideal
            # multiple of the other, so the whole stabiliser qualifies
            assert len(got) == len(inst.diagonal())


def test_transvection_sets_f7(f7):
    lat = f7.lattice
    e1, e2 = f7.atoms
    bot = lat.bottom
    assert transvections(f7, 0, 1, e2).size == 216
    assert transvections(f7, 0, 1, bot).size == 36
    # the zero-value set is exactly the componentwise-span fixer
    lbar_fixer = fixer(f7, f7.frame.lbar0)
    assert np.array_equal(transvections(f7, 0, 1, bot), lbar_fixer.codes)
    # elementary matrices with unit parameter land in the full-value set
    for xi in range(1, 7):
        assert f7.code_of_mat(f7.elementary(0, 1, xi)) in transvections(f7, 0, 1, e2).tolist()
    assert f7.code_of_mat(f7.identity) in transvections(f7, 0, 1, bot).tolist()


def test_transvection_sets_closed_under_inverse(f7):
    for i, j in ((0, 1), (1, 0)):
        table = transvection_table(f7, i, j)
        for x in np.unique(table[table >= 0]).tolist():
            codes = set(transvections(f7, i, j, x).tolist())
            for code in codes:
                inv_code = f7.code_of_mat(f7.inv(f7.mat_of_code(code)))
                assert inv_code in codes


def test_transvections_are_elementary_times_stabiliser(f7):
    """Oracle for the full filter: products of one elementary and one
    diagonal matrix exhaust each transvection set."""
    from netgalois.rings import mat_mul, pack_matrices

    d_mats = f7.diagonal().mats()
    for i, j in ((0, 1), (1, 0)):
        by_value = {}
        for xi in range(7):
            t = f7.elementary(i, j, xi)
            prods = mat_mul(np.asarray(t)[None, :, :], d_mats, f7.modulus)
            codes = pack_matrices(prods, f7.modulus)
            x = int(f7.support_table[f7.act(t, f7.atoms[i]), j])
            by_value.setdefault(x, set()).update(codes.tolist())
        for x, expect in by_value.items():
            assert expect == set(transvections(f7, i, j, x).tolist())


def test_transvection_values_z49(z49):
    table = transvection_table(z49, 0, 1)
    sizes = {int(x): int((table == x).sum()) for x in np.unique(table[table >= 0])}
    e2 = z49.atoms[1]
    sub = z49.element_by_label("0,7;0,0")
    bot = z49.lattice.bottom
    assert sizes == {bot: 1764, sub: 10584, e2: 74088}
    # parameter 7 realises the intermediate ideal
    assert z49.code_of_mat(z49.elementary(0, 1, 7)) in transvections(z49, 0, 1, sub).tolist()


def test_galois_maps(f7):
    d = f7.diagonal()
    l0p = f7.l0_prime()
    assert d.is_subset_of(galois_phi(f7, l0p.members))
    assert galois_psi(f7, d).members == l0p.members
    for sub in (d, borel(f7), f7.gl()):
        sub = Subgroup(f7, sub.codes, generator_codes=sub.generator_codes, closed=True)
        m = galois_psi(f7, sub)
        assert set(m.members) <= set(l0p.members)
        phi_m = galois_phi(f7, m.members)
        assert sub.is_subset_of(phi_m)  # extensive on the group side
        assert galois_psi(f7, phi_m).members == m.members  # psi phi psi = psi
        phi_again = galois_phi(f7, galois_psi(f7, phi_m).members)
        assert np.array_equal(phi_again.codes, phi_m.codes)  # phi psi phi = phi
    with pytest.raises(InputError):
        galois_phi(f7, [f7.element_by_label("1,1;0,0")])


def test_normalizer_examples(f7):
    gl = f7.gl()
    d = f7.diagonal()
    nd = normalizer(f7, d, gl)
    units = f7.ring.units()
    monomial = []
    for a in units:
        for b in units:
            monomial.append(f7.code_of_mat(np.array([[a, 0], [0, b]])))
            monomial.append(f7.code_of_mat(np.array([[0, a], [b, 0]])))
    assert nd.codes.tolist() == sorted(monomial)
    b = borel(f7)
    assert np.array_equal(normalizer(f7, b, gl).codes, b.codes)
    assert np.array_equal(normalizer(f7, gl, gl).codes, gl.codes)


def test_normalizes_and_normality(f7):
    gl = f7.gl()
    d = f7.diagonal()
    b = borel(f7)
    normal, _ = is_normal_in(f7, d, b)
    assert not normal
    mono = normalizer(f7, d, gl)
    mono = Subgroup(f7, mono.codes, generator_codes=generating_subset(mono), closed=True)
    normal, _ = is_normal_in(f7, d, mono)
    assert normal
    anti = f7.code_of_mat(np.array([[0, 1], [1, 0]]))
    assert normalizes(f7, anti, d, gens=list(d.generator_codes))
    t = f7.code_of_mat(f7.elementary(0, 1, 1))
    assert not normalizes(f7, t, d, gens=list(d.generator_codes))


def test_conjugation_closure_check(f7):
    d = f7.diagonal()
    b = borel(f7)
    gl = f7.gl()
    holds, _ = conjugation_closure_check(f7, b, b)
    assert holds
    holds, witness = conjugation_closure_check(f7, d, gl)
    assert not holds and witness is not None
    rng = np.random.default_rng(4)
    holds, _ = conjugation_closure_check(f7, b, b, rng=rng, samples=500)
    assert holds


def test_same_transvections(f7):
    d = f7.diagonal()
    gl = f7.gl()
    assert same_transvections(f7, d, d)
    assert not same_transvections(f7, d, gl)
    b = borel(f7)
    assert not same_transvections(f7, b, gl)


def test_generating_subset(f7):
    b = fixer(f7, [f7.element_by_label("0,1;0,0")])  # no recorded generators
    gens = generating_subset(b)
    closed = close_subgroup(f7, gens)
    assert np.array_equal(closed.codes, b.codes)


def test_double_coset_key_invariance(f7):
    rng = np.random.default_rng(9)
    d_codes = f7.diagonal().codes
    from netgalois.rings import mat_mul, pack_matrices

    for code in rng.choice(f7.gl().codes, size=5).tolist():
        key = double_coset_key(f7, int(code))
        d1 = f7.mat_of_code(int(rng.choice(d_codes)))
        d2 = f7.mat_of_code(int(rng.choice(d_codes)))
        moved = mat_mul(mat_mul(d1, f7.mat_of_code(int(code)), f7.modulus), d2, f7.modulus)
        assert double_coset_key(f7, int(pack_matrices(moved, f7.modulus))) == key


def test_subgroup_json_roundtrip(f7):
    b = borel(f7)
    data = b.to_json()
    back = Subgroup.from_json(f7, data)
    assert np.array_equal(back.codes, b.codes)
    with pytest.raises(InputError):
        Subgroup.from_json(f7, {"schema_version": 1, "generators": []})
    with pytest.raises(InputError):
        Subgroup.from_json(f7, {"schema_version": 1, "generators": [[[1, 1], [1, 1]]]})
    with pytest.raises(InputError):
        Subgroup.from_json(f7, {"schema_version": 2, "generators": [[[1, 0], [0, 1]]]})


def test_fingerprint_is_cached_and_survives_interning(f7):
    pooled = borel(f7)
    copy = Subgroup(f7, pooled.codes.copy(), closed=True)
    first = copy.fingerprint()
    assert intern_subgroup(f7, copy) is copy
    assert copy.codes is pooled.codes
    assert copy.fingerprint() == first
    assert copy.fingerprint() == hashlib.sha1(copy.codes.tobytes()).hexdigest()[:16]
