import itertools

import numpy as np
import pytest

from netgalois.errors import InputError
from netgalois.groups import (
    Subgroup,
    coset_closure,
    double_coset_key,
    fixer,
    galois_psi,
    is_normal_in,
    same_transvections,
    transvection_table,
    transvections,
)
from netgalois.nets import (
    NetCollection,
    all_fixer_classes,
    canonical_sublattice,
    closed_sublattice,
    element_net,
    enumerate_net_collections,
    fixer_class,
    intersect_nets,
    is_net_collection,
    net_fixer,
    stable_lbar0,
    transvection_ideals,
    triangle_entry,
    verify_intermediate_subgroup,
)


def borel(inst, i=0, j=1):
    return coset_closure(inst, inst.diagonal(), [inst.code_of_mat(inst.elementary(i, j, 1))])


def test_sigma_of_stabiliser_is_zero_and_canonical_is_frame(f7):
    sigma = transvection_ideals(f7, f7.diagonal())
    bot = f7.lattice.bottom
    assert sigma.tau[0, 1] == bot and sigma.tau[1, 0] == bot
    assert sigma.tau[0, 0] == f7.atoms[0] and sigma.tau[1, 1] == f7.atoms[1]
    k = canonical_sublattice(f7, sigma)
    assert k.members == f7.frame.l0.members


def test_sigma_of_full_group_is_full(f7):
    sigma = transvection_ideals(f7, f7.gl())
    assert sigma.tau[0, 1] == f7.atoms[1] and sigma.tau[1, 0] == f7.atoms[0]
    k = canonical_sublattice(f7, sigma)
    assert set(k.members) == {f7.lattice.bottom, f7.lattice.top}


def test_sigma_of_borel_one_sided(f7):
    sigma = transvection_ideals(f7, borel(f7))
    filled = {(i, j) for i in range(2) for j in range(2) if i != j and sigma.tau[i, j] != f7.lattice.bottom}
    assert len(filled) == 1
    i, j = filled.pop()
    assert sigma.tau[i, j] == f7.atoms[j]


def test_sigma_requires_stabiliser(f7):
    triv = Subgroup(f7, f7.mask_of([f7.code_of_mat(f7.identity)]), closed=True)
    with pytest.raises(InputError):
        transvection_ideals(f7, triv)


def test_exactly_four_valid_nets_with_expected_orders(f7):
    valid = enumerate_net_collections(f7)
    assert len(valid) == 4
    orders = sorted(len(net_fixer(f7, net)) for net in valid)
    assert orders == [36, 252, 252, 2016]


def test_nine_valid_nets_z49(z49):
    assert len(enumerate_net_collections(z49)) == 9


def test_net_collection_clause_violations(f7):
    tau = np.array([[f7.atoms[0], f7.lattice.top], [f7.lattice.bottom, f7.atoms[1]]])
    with pytest.raises(InputError):
        NetCollection(f7, tau)  # entry above its atom
    bad_entry = f7.element_by_label("1,1;0,0")  # outside the base sublattice
    net = NetCollection(
        f7,
        np.array([[f7.atoms[0], bad_entry], [f7.lattice.bottom, f7.atoms[1]]]),
        check=False,
    )
    ok, witness = is_net_collection(f7, net)
    assert not ok
    assert witness["kind"] == "clause" and witness["clause"] in (1, 3)


def test_is_net_collection_modes(f7):
    for net in enumerate_net_collections(f7):
        ok, _ = is_net_collection(f7, net, mode="aggregate")
        assert ok
        ok, _ = is_net_collection(f7, net, mode="per_triple")
        assert ok  # vacuous below rank three, by design


def test_aggregate_mode_equivalence_statement(f7, act_reference, member_mats):
    """For a valid collection, bounded atom supports must coincide with
    fixing the canonical sublattice, element by element."""
    lat = f7.lattice
    net = transvection_ideals(f7, borel(f7))
    k = canonical_sublattice(f7, net)
    mats = member_mats(f7.gl())
    bounded = np.ones(len(f7.gl()), dtype=bool)
    for i in range(2):
        img = act_reference(f7, mats, f7.atoms[i])
        st = f7.support_table[img]
        for j in range(2):
            bounded &= lat.meet_table[st[:, j], int(net.tau[i, j])] == st[:, j]
    fixes = np.ones(len(f7.gl()), dtype=bool)
    for x in k.members:
        fixes &= act_reference(f7, mats, x) == x
    assert np.array_equal(bounded, fixes)


def test_intersect_nets(f7):
    valid = enumerate_net_collections(f7)
    by_orders = {len(net_fixer(f7, net)): net for net in valid}
    full = by_orders[2016]
    diag = by_orders[36]
    assert intersect_nets([full]) == full
    assert intersect_nets([full, diag]) == diag
    borels = [net for net in valid if len(net_fixer(f7, net)) == 252]
    met = intersect_nets(borels)
    assert met == diag
    ok, _ = is_net_collection(f7, met)
    assert ok


def test_net_fixer_dual_routes_exactly(f7):
    """Fixer of the canonical sublattice vs closure of stabiliser plus all
    bounded transvections: full member-set equality, both directions."""
    for net in enumerate_net_collections(f7):
        fx = net_fixer(f7, net)
        direct = fixer(f7, canonical_sublattice(f7, net).members)
        assert np.array_equal(fx.codes, direct.codes)
        reps = []
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                table = transvection_table(f7, i, j)
                for x in np.unique(table[table >= 0]).tolist():
                    if f7.lattice.leq(int(x), int(net.tau[i, j])):
                        reps.extend(transvections(f7, i, j, int(x)).tolist())
        closure = coset_closure(f7, f7.diagonal(), reps)
        assert np.array_equal(closure.codes, fx.codes)


def test_sigma_of_net_fixer_returns_net(f7, z49):
    for inst in (f7, z49):
        for net in enumerate_net_collections(inst):
            back = transvection_ideals(inst, net_fixer(inst, net))
            assert back == net


def test_stable_lbar0(f7):
    assert stable_lbar0(f7, f7.diagonal()).members == f7.frame.lbar0
    got = stable_lbar0(f7, f7.gl())
    assert set(got.members) == {f7.lattice.bottom, f7.lattice.top}
    b = borel(f7)
    sigma = transvection_ideals(f7, b)
    k = canonical_sublattice(f7, sigma)
    assert set(k.members) <= set(stable_lbar0(f7, b).members)


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f3n3"])
def test_stable_lbar0_matches_action_on_sweep_subgroups(name, request, act_reference, member_mats):
    """The gathered stable span against acting with every member, for every
    distinct <D, g> of the exhaustive sweep family."""
    inst = request.getfixturevalue(name)
    lbar0 = set(inst.frame.lbar0)
    codes = inst.gl().codes
    first = np.unique(double_coset_key(inst, codes), return_index=True)[1]
    seen = set()
    for code in codes[np.sort(first)].tolist():
        sub = coset_closure(inst, inst.diagonal(), [code])
        if sub.fingerprint() in seen:
            continue
        seen.add(sub.fingerprint())
        mats = member_mats(sub)
        expect = [
            l for l in sorted(lbar0) if set(act_reference(inst, mats, l).tolist()) <= lbar0
        ]
        assert stable_lbar0(inst, sub).members == tuple(expect)


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f3n3"])
def test_net_checks_match_per_element_definition(name, request, act_reference, member_mats):
    """Both readings of is_net_collection against the definition applied to
    each group element's action, for every candidate net, valid or not."""
    inst = request.getfixturevalue(name)
    lat, n, g = inst.lattice, inst.n, inst.gl()
    mats = member_mats(g)
    table = np.stack([act_reference(inst, mats, x) for x in range(len(lat))], axis=1)

    def bounded(x, j, bound):
        """[g(x)]_j <= bound, for every g."""
        sup = inst.support_table[table[:, x], j]
        return lat.meet_table[sup, bound] == sup

    l0p = inst.l0_prime().members
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    choices = [[x for x in l0p if lat.leq(x, inst.atoms[j])] for _, j in slots]
    for combo in itertools.product(*choices):
        tau = np.diag(inst.atoms).astype(np.int64)
        for (i, j), x in zip(slots, combo):
            tau[i, j] = x
        net = NetCollection(inst, tau, check=False)
        members = list(canonical_sublattice(inst, net).members)
        fixes = np.all(table[:, members] == members, axis=1)
        atoms_bounded = np.ones(len(g), dtype=bool)
        for i, j in itertools.product(range(n), repeat=2):
            atoms_bounded &= bounded(inst.atoms[i], j, tau[i, j])
        diff = atoms_bounded != fixes
        expect = (True, None)
        if diff.any():
            idx = int(np.argmax(diff))
            expect = (False, {
                "kind": "aggregate",
                "g": int(g.codes[idx]),
                "bounded": bool(atoms_bounded[idx]),
                "fixes_canonical": bool(fixes[idx]),
            })
        assert is_net_collection(inst, net, mode="aggregate") == expect
        expect = (True, None)
        for i, j, k in itertools.permutations(range(n), 3):
            viol = bounded(inst.atoms[i], j, tau[i, j]) & ~bounded(tau[k, i], j, tau[k, j])
            if viol.any():
                g_code = int(g.codes[int(np.argmax(viol))])
                expect = (False, {"kind": "per_triple", "g": g_code, "triple": [i, j, k]})
                break
        assert is_net_collection(inst, net, mode="per_triple") == expect


def test_stable_lbar0_fixer_shares_transvections(f7):
    """The fixer of the stable componentwise span meets every transvection
    set exactly as the subgroup does."""
    for sub in (f7.diagonal(), borel(f7), f7.gl()):
        stable = stable_lbar0(f7, sub)
        fx = fixer(f7, stable.members)
        assert same_transvections(f7, fx, sub)


def test_stable_fixer_is_normal(f7):
    """Conjugation keeps the stable-span fixer inside itself, for every
    subgroup in the family."""
    for sub in (f7.diagonal(), borel(f7), borel(f7, 1, 0), f7.gl()):
        stable = stable_lbar0(f7, sub)
        fx = fixer(f7, stable.members)
        sub_w = Subgroup(f7, sub.gl_mask(), generator_codes=sub.generator_codes or (), closed=True)
        if not sub_w.generator_codes:
            from netgalois.groups import generating_subset

            sub_w = Subgroup(f7, sub.gl_mask(), generator_codes=tuple(generating_subset(sub_w)), closed=True)
        normal, _ = is_normal_in(f7, fx, sub_w)
        assert normal


def test_transvections_in_normalizer_fix_componentwise_sublattices(f7):
    """A transvection normalising the fixer of a componentwise-span
    sublattice already fixes that sublattice."""
    from netgalois.groups import normalizes

    lat = f7.lattice
    handles = lat.enumerate_sublattices(universe=f7.frame.lbar0)
    for handle in handles:
        fx = fixer(f7, handle.members)
        from netgalois.groups import generating_subset

        fx_gens = generating_subset(fx)
        for i, j in ((0, 1), (1, 0)):
            table = transvection_table(f7, i, j)
            codes = f7.gl().codes[table >= 0]
            for code in codes.tolist():
                if normalizes(f7, [code], fx, fx_gens)[0]:
                    assert fx.contains(code)


def test_triangle_entries(f7):
    lat = f7.lattice
    top, bot = lat.top, lat.bottom
    # no constraint when the element's part at the target atom is full
    assert triangle_entry(f7, top, 0, 1) == f7.atoms[1]
    assert triangle_entry(f7, top, 1, 0) == f7.atoms[0]
    # an atom transfers nothing: only the zero entry is compatible
    assert triangle_entry(f7, f7.atoms[0], 0, 1) == bot
    # bottom element: its parts are zero and images of zero stay zero, so the
    # implication is vacuous and the whole atom passes
    assert triangle_entry(f7, bot, 0, 1) == f7.atoms[1]
    # both quantifier families agree where both run
    for x in f7.l0_prime().members:
        for i, j in ((0, 1), (1, 0)):
            assert triangle_entry(f7, x, i, j, mode="full") == triangle_entry(
                f7, x, i, j, mode="transvection_reduced"
            )
    with pytest.raises(InputError):
        triangle_entry(f7, f7.element_by_label("1,1;0,0"), 0, 1)


def test_zero_entry_always_satisfies_transfer(f7, z49, act_reference, member_mats):
    """Group elements whose atom image has zero support at the target keep
    every part's image at zero there too, so the zero entry always passes."""
    for inst in (f7, z49):
        lat = inst.lattice
        mats = member_mats(inst.gl())
        for x in inst.l0_prime().members:
            if x not in inst.frame._lbar0_set:
                continue
            for i, j in ((0, 1), (1, 0)):
                xi = int(inst.support_table[x, i])
                xj = int(inst.support_table[x, j])
                sij = inst.support_table[act_reference(inst, mats, inst.atoms[i])][:, j]
                zero_there = sij == lat.bottom
                img = inst.support_table[act_reference(inst, mats, xi)][:, j]
                keeps = lat.meet_table[img, xj] == img
                assert bool(np.all(~zero_there | keeps))


def test_element_net_is_net_collection(f7):
    for x in f7.l0_prime().members:
        net = element_net(f7, x)
        ok, _ = is_net_collection(f7, net)
        assert ok


def test_bounded_support_forces_triangle_entry(f7, act_reference, member_mats):
    """Whenever a group element keeps the i-part of x inside the j-part, its
    (i, j) atom support already sits below the maximal compatible entry."""
    lat = f7.lattice
    mats = member_mats(f7.gl())
    for x in f7.l0_prime().members:
        xi = int(f7.support_table[x, 0])
        xj = int(f7.support_table[x, 1])
        tau = triangle_entry(f7, x, 0, 1)
        img_x = f7.support_table[act_reference(f7, mats, xi)][:, 1]
        keeps = lat.meet_table[img_x, xj] == img_x
        sij = f7.support_table[act_reference(f7, mats, f7.atoms[0])][:, 1]
        below = lat.meet_table[sij, tau] == sij
        assert bool(np.all(~keeps | below))


def test_element_nets_cut_to_sublattice_fixer(f7):
    """Intersecting the element nets over a sublattice yields a collection
    whose fixer is exactly the sublattice's fixer."""
    lat = f7.lattice
    handles = lat.enumerate_sublattices(universe=f7.l0_prime().members)
    for handle in handles:
        nets = [element_net(f7, x) for x in handle.members]
        met = intersect_nets(nets)
        ok, _ = is_net_collection(f7, met)
        assert ok
        assert np.array_equal(
            net_fixer(f7, met).codes, fixer(f7, handle.members).codes
        )


def test_transvection_sets_saturate_subgroups(f7):
    """Meeting a transvection set forces containing all of it, and every
    realised value below an ideal entry contributes its whole set."""
    lat = f7.lattice
    for sub in (f7.diagonal(), borel(f7), borel(f7, 1, 0), f7.gl()):
        sigma = transvection_ideals(f7, sub)
        for i, j in ((0, 1), (1, 0)):
            table = transvection_table(f7, i, j)
            for x in np.unique(table[table >= 0]).tolist():
                codes = transvections(f7, i, j, int(x))
                hit = sub.contains_many(codes)
                assert bool(np.all(hit)) or not bool(np.any(hit))
                if lat.leq(int(x), int(sigma.tau[i, j])):
                    assert bool(np.all(hit))


def test_conjugated_ideal_supports_stay_bounded(f7):
    """For a in F, the support tuple of a^-1 applied to any support component
    of a(sum of ideal entries) stays below the ideal row."""
    lat = f7.lattice
    for sub in (f7.diagonal(), borel(f7), f7.gl()):
        sigma = transvection_ideals(f7, sub)
        rng = np.random.default_rng(31)
        sample = rng.choice(sub.codes, size=min(60, len(sub)), replace=False)
        for code in sample.tolist():
            pa = f7.perm([code])[0]
            painv = f7.perm([f7.code_of_mat(f7.inv(f7.mat_of_code(int(code))))])[0]
            for i in range(2):
                for s in range(2):
                    u_s = lat.join_many(
                        int(f7.support_table[pa[int(sigma.tau[i, jj])], s]) for jj in range(2)
                    )
                    for r in range(2):
                        back = int(f7.support_table[painv[u_s], r])
                        assert lat.leq(back, int(sigma.tau[i, r]))


def test_fixer_classes_f7(f7):
    classes = all_fixer_classes(f7)
    shape = sorted((len(c.representatives), len(c.common_fixer)) for c in classes)
    assert shape == [(1, 36), (3, 2016), (4, 252), (4, 252)]
    cls = fixer_class(f7, f7.l0_prime().members)
    assert len(cls.representatives) == 1
    assert len(cls.common_fixer) == 36


def test_fixer_class_maximal_member_is_closure(f7):
    for handle, _ in [(h, None) for h in f7.lattice.enumerate_sublattices(universe=f7.l0_prime().members)]:
        cls = fixer_class(f7, handle.members)
        maximal = max(cls.representatives, key=lambda h: len(h.members))
        sub = cls.common_fixer
        from netgalois.groups import generating_subset

        sub = Subgroup(f7, sub.gl_mask(), generator_codes=tuple(generating_subset(sub)), closed=True)
        closure = galois_psi(f7, sub)
        assert closure.members == maximal.members
        assert set(handle.members) <= set(closure.members)


def test_closed_sublattice(f7):
    valid = enumerate_net_collections(f7)
    for net in valid:
        closed = closed_sublattice(f7, net)
        k = canonical_sublattice(f7, net)
        assert set(k.members) <= set(closed.members)
        cls = fixer_class(f7, k.members)
        maximal = max(cls.representatives, key=lambda h: len(h.members))
        assert closed.members == maximal.members
    # distinct nets give distinct fixers and distinct closed sublattices
    fixers = [net_fixer(f7, net).fingerprint() for net in valid]
    assert len(set(fixers)) == len(valid)
    closed_sets = [closed_sublattice(f7, net).members for net in valid]
    assert len(set(closed_sets)) == len(valid)


def test_net_collection_json_roundtrip(f7):
    for net in enumerate_net_collections(f7):
        back = NetCollection.from_json(f7, net.to_json())
        assert back == net
    with pytest.raises(InputError):
        NetCollection.from_json(f7, {"schema_version": 2, "tau": []})
    with pytest.raises(InputError):
        NetCollection.from_json(f7, {"schema_version": 1})


def test_verify_intermediate_subgroup_stabiliser(f7):
    checks = verify_intermediate_subgroup(f7, f7.diagonal())
    by_id = {c["id"]: c for c in checks}
    assert all(c["holds"] for c in checks), [c for c in checks if not c["holds"]]
    assert by_id["finite_index"]["details"]["index"] == 1


def test_verify_intermediate_subgroup_borel(f7):
    checks = verify_intermediate_subgroup(f7, borel(f7))
    assert all(c["holds"] for c in checks), [c for c in checks if not c["holds"]]
    by_id = {c["id"]: c for c in checks}
    assert by_id["finite_index"]["details"]["index"] == 1
    assert by_id["finite_index"]["details"]["order"] == 252
