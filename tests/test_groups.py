import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from netgalois.errors import InputError
from netgalois.glnr import Instance, gl_order
from netgalois.groups import (
    Subgroup,
    axis_subgroup,
    classify_transvection,
    close_subgroup,
    coset_closure,
    conjugation_closure_check,
    coset_image,
    coset_labels,
    double_coset_key,
    fixed_by,
    fixed_lattice,
    fixer,
    galois_phi,
    galois_psi,
    generating_subset,
    gl_code_list,
    is_normal_in,
    normalizes,
    right_cosets,
    same_transvections,
    transvection_table,
    transvections,
)
from netgalois.rings import RingSpec, pack_matrices, unpack_matrices


def borel(f7):
    return coset_closure(f7, f7.diagonal(), [f7.code_of_mat(f7.elementary(0, 1, 1))])


def test_group_orders(f7, z4, f2):
    assert len(f7.gl()) == 2016 == (7**2 - 1) * (7**2 - 7)
    assert len(f7.diagonal()) == 36 == (7 - 1) ** 2
    assert len(z4.gl()) == 96 == gl_order(z4.ring, 2)
    assert len(f2.gl()) == 6


def test_close_subgroup_examples(f7):
    diag = close_subgroup(f7, f7.diagonal_generator_codes())
    assert np.array_equal(diag.codes, f7.diagonal().codes)
    gens = f7.diagonal_generator_codes() + [
        f7.code_of_mat(f7.elementary(0, 1, 1)),
        f7.code_of_mat(f7.elementary(1, 0, 1)),
    ]
    assert len(close_subgroup(f7, gens)) == 2016


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f3n3"])
def test_close_subgroup_matches_element_closure_or_refuses(name, request, element_closure):
    """Generator sets whose closure contains D close to the element BFS
    reference, their generators kept sorted and without repeats; those
    whose closure misses D (none, one unipotent, D's first generator alone)
    are refused.  Over F2, D is trivial and every closure contains it."""
    inst = request.getfixturevalue(name)
    d_gens = inst.diagonal_generator_codes()
    rng = np.random.default_rng(21)
    codes = [int(c) for c in rng.choice(inst.gl().codes, size=3, replace=False)]
    unipotent = inst.code_of_mat(inst.elementary(0, 1, 1))
    for gens in (d_gens, d_gens + codes[:1], d_gens + codes + codes[:1], d_gens + [unipotent]):
        got = close_subgroup(inst, gens)
        assert got.generator_codes == tuple(sorted(set(gens)))
        assert np.array_equal(got.codes, element_closure(inst, gens))
    for gens in ([], [unipotent], d_gens[:1]):
        if np.all(np.isin(d_gens, element_closure(inst, gens))):
            assert len(inst.diagonal()) == 1
            continue
        with pytest.raises(InputError, match="invertible diagonal"):
            close_subgroup(inst, gens)


@pytest.mark.parametrize("name", ["f7", "z9", "f3n3"])
def test_membership_reads_codes_outside_gl_as_outside(name, request):
    """Labels read off the columns name no GL element for -1, m^(n^2),
    2^70 (in an object array, beyond int64) or a singular code: they are no
    member of any subgroup, and `gl_code_list` refuses each of them."""
    inst = request.getfixturevalue(name)
    top = inst.modulus ** (inst.n**2)
    singular = inst.code_of_mat(np.zeros((inst.n, inst.n), dtype=np.int64) + 1)
    ident = inst.code_of_mat(inst.identity)
    outside = [-1, top, 2**70, singular]
    codes = np.array(outside + [ident], dtype=object)
    for sub in (inst.gl(), inst.diagonal(), fixer(inst, [inst.atoms[0]])):
        assert sub.contains_many(codes).tolist() == [False] * 4 + [True]
        assert sub.contains_many(np.array([-1, top, singular, ident])).tolist() == [
            False, False, False, True
        ]
        assert not any(sub.contains(c) for c in outside)
    assert gl_code_list(inst, [ident, np.int64(ident)]) == [ident, ident]
    for code in outside + [True, 1.0, None]:
        with pytest.raises(InputError, match="names no element of GL"):
            gl_code_list(inst, [ident, code])


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f3n3", "z16"])
def test_diagonal_generators_generate_the_stabiliser(name, request, act_reference, member_mats):
    """The diagonal generators close to all of D, also where the unit group
    is not cyclic ((Z/8)* and (Z/16)*), so `l0_prime`, read off them, is the
    sublattice fixed by every member of D."""
    inst = Instance(RingSpec(2, 4), 2) if name == "z16" else request.getfixturevalue(name)
    d = inst.diagonal()
    assert close_subgroup(inst, inst.diagonal_generator_codes()) == d
    mats = member_mats(d)
    fixed = [x for x in range(len(inst.lattice)) if np.all(act_reference(inst, mats, x) == x)]
    assert list(inst.l0_prime().members) == fixed


def test_coset_closure_matches_plain_closure(f7, element_closure):
    rng = np.random.default_rng(5)
    for code in rng.choice(f7.gl().codes, size=6, replace=False).tolist():
        fast = coset_closure(f7, f7.diagonal(), [int(code)])
        slow = element_closure(f7, f7.diagonal_generator_codes() + [int(code)])
        assert np.array_equal(fast.codes, slow)


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f3n3"])
def test_coset_closure_matches_element_bfs(name, request, element_closure):
    """Seeds: D, the Borel group and a previous closure; extras: a random
    element, two more, and an element of D.  `close_subgroup` of D's
    generators and two random elements matches too."""
    inst = request.getfixturevalue(name)
    d = inst.diagonal()
    rng = np.random.default_rng(11)
    codes = [int(c) for c in rng.choice(inst.gl().codes, size=4, replace=False)]
    seeds = [
        d,
        coset_closure(inst, d, [inst.code_of_mat(inst.elementary(0, 1, 1))]),
        coset_closure(inst, d, codes[:1]),
    ]
    for seed in seeds:
        assert np.array_equal(seed.codes, element_closure(inst, seed.generator_codes))
        for extras in (codes[1:2], codes[2:], [int(d.codes[-1])]):
            got = coset_closure(inst, seed, extras)
            gens = seed.generator_codes + tuple(sorted(set(extras)))
            assert got.generator_codes == gens
            assert np.array_equal(got.codes, element_closure(inst, gens))
    gens = inst.diagonal_generator_codes() + codes[:2]
    got = close_subgroup(inst, gens)
    assert got.generator_codes == tuple(sorted(set(gens)))
    assert np.array_equal(got.codes, element_closure(inst, gens))


def test_coset_closure_steps_whole_frontiers(f7, monkeypatch):
    """<D, g> = GL visits all 56 cosets of D in fewer label reads than
    cosets: each orbit round steps its whole frontier by every generator and
    reads the labels of all the products of that round at once, off their
    columns (`column_labels`)."""
    from netgalois import groups
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    keys = np.unique(double_coset_key(f7, f7.gl().codes)).tolist()
    g = next(k for k in keys if len(coset_closure(f7, f7.diagonal(), [k])) == 2016)
    inst = Instance(RingSpec(7, 1), 2)
    d = inst.diagonal()
    calls = []
    original = groups.column_labels

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(groups, "column_labels", counted)
    full = coset_closure(inst, d, [g])
    assert len(full) // len(d) == 56
    assert np.array_equal(full.codes, f7.gl().codes)
    assert 0 < len(calls) < 56


@pytest.mark.parametrize("name", ["f7", "z9"])
def test_closures_over_d_multiply_no_matrices(name, monkeypatch):
    """<D, g> on a fresh instance runs on row codes alone: no `mat_mul` and
    no `pack_matrices`, the per-generator and row-scale tables included."""
    from netgalois import rings
    from netgalois.glnr import Instance

    inst = Instance(RingSpec(*{"f7": (7, 1), "z9": (3, 2)}[name]), 2)
    d = inst.diagonal()
    codes = np.random.default_rng(3).choice(inst.gl().codes, size=10, replace=False)
    calls = []

    def counting(owner, attr):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    counting(rings, "mat_mul")
    counting(rings, "pack_matrices")
    closures = [coset_closure(inst, d, [int(c)]) for c in codes]
    assert calls == []
    assert {len(c) % len(d) for c in closures} == {0}
    monkeypatch.undo()
    assert all(c.contains(int(code)) for c, code in zip(closures, codes))


def test_subgroup_closure_invariants(f7, member_mats):
    sub = borel(f7)
    mats = member_mats(sub)
    ident = f7.code_of_mat(f7.identity)
    assert sub.contains(ident)
    rng = np.random.default_rng(0)
    pick = rng.choice(len(sub), size=50)
    from netgalois.rings import mat_mul, pack_matrices

    prods = mat_mul(mats[pick], mats[pick[::-1]], f7.modulus)
    assert bool(np.all(sub.contains_many(pack_matrices(prods, f7.modulus))))
    for k in pick[:10].tolist():
        assert sub.contains(f7.code_of_mat(f7.inv(f7.mat_of_code(int(sub.codes[k])))))


def test_every_group_element_acts_as_lattice_automorphism(f7, image_table):
    """Exhaustive: the image table of the whole group respects meet and join."""
    lat = f7.lattice
    table = image_table(f7)
    n = len(lat)
    rows = np.arange(n)
    for k in range(table.shape[0]):
        perm = table[k]
        assert np.array_equal(np.sort(perm), rows)
        assert np.array_equal(perm[lat.meet_table], lat.meet_table[np.ix_(perm, perm)])
        assert np.array_equal(perm[lat.join_table], lat.join_table[np.ix_(perm, perm)])


def test_action_composition_ten_thousand_triples(f7, image_table, member_mats):
    """act(a @ b, x) == act(a, act(b, x)) on 10^4 random triples, checked
    through the precomputed image table."""
    from netgalois.rings import mat_mul, pack_matrices

    rng = np.random.default_rng(12)
    table = image_table(f7)
    codes = f7.gl().codes
    ai = rng.integers(0, len(codes), size=10_000)
    bi = rng.integers(0, len(codes), size=10_000)
    xs = rng.integers(0, len(f7.lattice), size=10_000)
    a_mats = member_mats(f7.gl())[ai]
    b_mats = member_mats(f7.gl())[bi]
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
    # the scalars fix the whole lattice, but elements outside L0' have no fixer
    with pytest.raises(InputError):
        fixer(f7, range(len(f7.lattice)))


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f2n3", "z4n3", "f3n3"])
def test_right_coset_labels_match_explicit_products(name, request, member_mats):
    """The labels are the right cosets gD: every product g d, computed as a
    matrix product, carries g's label, there are |GL|/|D| labels, each
    representative is the smallest code of its coset, the cosets are
    numbered in code order (the representatives strictly ascend), the labels
    use the smallest dtype, and `coset_labels` reads every code's label."""
    inst = request.getfixturevalue(name)
    m = inst.modulus
    label, reps = right_cosets(inst)
    mats = member_mats(inst.gl()).astype(np.int64)
    smallest = inst.gl_codes.copy()
    for d in member_mats(inst.diagonal()).astype(np.int64):
        codes = pack_matrices(mats @ d % m, m)
        assert np.array_equal(label[np.searchsorted(inst.gl_codes, codes)], label)
        smallest = np.minimum(smallest, codes)
    assert reps.size * len(inst.diagonal()) == len(inst.gl())
    assert np.array_equal(np.unique(label), np.arange(reps.size))
    assert np.array_equal(reps[label], smallest)
    assert bool(np.all(np.diff(reps) > 0))
    assert label.dtype == np.min_scalar_type(reps.size - 1)
    assert np.array_equal(coset_labels(inst, inst.gl_codes), label)


@pytest.mark.slow
def test_z49_right_coset_labels_match_products_by_d_generators(z49):
    """On Z/49 every product g d, for each GL code g and each generator d of
    D, computed as a matrix product a chunk at a time, carries g's label;
    over each coset those products reach every member (g runs over the
    coset), so their smallest code per label is the coset's representative."""
    m, n = z49.modulus, z49.n
    label, reps = right_cosets(z49)
    for d in z49.diagonal_generator_codes():
        d_mat = z49.mat_of_code(d)
        smallest = np.full(reps.size, np.iinfo(np.int64).max)
        for start in range(0, z49.gl_codes.size, 1 << 18):
            block = slice(start, start + (1 << 18))
            mats = unpack_matrices(z49.gl_codes[block], m, n)
            codes = pack_matrices(mats @ d_mat % m, m)
            assert np.array_equal(label[np.searchsorted(z49.gl_codes, codes)], label[block])
            np.minimum.at(smallest, label[block], codes)
        assert np.array_equal(smallest, reps)


@pytest.mark.parametrize("ring, n", [((3, 2), 2), ((3, 1), 3)], ids=["z9", "f3n3"])
def test_gl_and_its_cosets_unpack_no_gl_sized_batch(ring, n, monkeypatch):
    """On a fresh instance, listing GL and labelling its right cosets of D
    splits no GL-sized batch of codes into rows: the class pass reads the
    code grid's columns off two small tables."""
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    sizes, original = [], Instance.row_digits

    def counted(self, codes):
        sizes.append(np.size(codes))
        return original(self, codes)

    monkeypatch.setattr(Instance, "row_digits", counted)
    inst = Instance(RingSpec(*ring), n)
    inst.gl()
    label, reps = right_cosets(inst)
    assert label.size == len(inst.gl()) and reps.size == label.size // len(inst.diagonal())
    assert sizes and max(sizes) < label.size


def grid_pass(inst):
    """GL's codes and right-coset labels by the former pass over the whole
    code grid: each code's column codes summed from its top row's part and
    its lower rows' part, its label read by `column_labels`, the codes with
    a label kept."""
    from netgalois import groups

    m, n = inst.modulus, inst.n
    low = m ** (n * (n - 1))
    lows = groups._columns(inst, np.arange(low, dtype=np.int64))
    tops = groups._columns(inst, np.arange(m**n, dtype=np.int64) * low)
    labels = groups.column_labels(inst, [(top[:, None] + lo).ravel() for top, lo in zip(tops, lows)])
    codes = np.flatnonzero(labels >= 0)
    label_dtype = np.min_scalar_type(right_cosets(inst)[1].size - 1)
    return codes.astype(np.min_scalar_type(m ** (n * n) - 1)), labels[codes].astype(label_dtype)


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_gl_and_its_coset_labels_match_the_grid_pass(name, request):
    """`enumerate_gl`'s codes and `right_cosets` labels equal the grid pass,
    values and dtypes."""
    inst = request.getfixturevalue(name)
    inst.gl()
    codes, labels = grid_pass(inst)
    label = right_cosets(inst)[0]
    assert inst.gl_codes.dtype == codes.dtype and np.array_equal(inst.gl_codes, codes)
    assert label.dtype == labels.dtype and np.array_equal(label, labels)


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_coset_columns_match_the_action_on_all_of_gl(name, request, act_reference, member_mats):
    """Each L0' element's coset column, gathered by label, is its image under
    every GL element by definition; elements outside L0' have no column."""
    inst = request.getfixturevalue(name)
    label = right_cosets(inst)[0]
    mats = member_mats(inst.gl())
    l0p = inst.l0_prime().members
    for x in l0p:
        assert np.array_equal(coset_image(inst, x)[label], act_reference(inst, mats, x))
    outside = [x for x in range(len(inst.lattice)) if x not in l0p]
    assert outside or inst.ring.p == 2  # over F2, D is trivial and fixes everything
    for x in outside[:3]:
        with pytest.raises(InputError):
            coset_image(inst, x)


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_fix_masks_and_fixers_agree_with_brute_force(name, request, act_reference, member_mats):
    """Each L0' element's fixer (the fixer of that element alone, per right
    coset of D) against the action on all of GL; fixer against the AND of
    those brute-force masks, for L0', the componentwise span and each valid
    net's canonical sublattice.  An element outside L0' has no fixer that
    contains D, and `fixer` refuses it."""
    from netgalois.nets import canonical_sublattice, enumerate_net_collections

    inst = request.getfixturevalue(name)
    g = inst.gl()
    l0p = inst.l0_prime().members
    brute = [act_reference(inst, member_mats(g), x) == x for x in range(len(inst.lattice))]
    for x, expect in enumerate(brute):
        if x in l0p:
            assert np.array_equal(fixer(inst, [x]).gl_mask(), expect)
        else:
            with pytest.raises(InputError):
                fixer(inst, [x])
    sets = [l0p, inst.frame.lbar0]
    sets += [canonical_sublattice(inst, net).members for net in enumerate_net_collections(inst)]
    for members in sets:
        expect = np.ones(len(g), dtype=bool)
        for x in members:
            expect &= brute[x]
        assert np.array_equal(fixer(inst, members).codes, g.codes[expect])


@pytest.mark.parametrize("ring", [(7, 1), (3, 2)])
def test_gl_action_runs_once_per_element(ring, monkeypatch):
    """Set-up plus one sandwich verification on a fresh instance acts with all
    of GL on each lattice element at most once, and in fact on none: the
    right-coset labels come from column keys, and every image of an L0'
    element is read per coset.  Every GL-sized `act_batch` or `fixes_mask`
    call counts as one pass; the `act_batch` call inside a `fixes_mask` call
    is the same pass."""
    from netgalois import groups, sweep
    from netgalois.glnr import Instance, verify_sandwich
    from netgalois.rings import RingSpec

    inst = Instance(RingSpec(*ring), 2)
    size = len(inst.gl())
    passes, depth = [], []
    act_batch, fixes_mask = Instance.act_batch, groups.fixes_mask

    def counted_act_batch(self, codes, x):
        if np.size(codes) == size and not depth:
            passes.append(int(x))
        return act_batch(self, codes, x)

    def counted_fixes_mask(instance, codes, x):
        if np.size(codes) == size:
            passes.append(int(x))
        depth.append(x)
        try:
            return fixes_mask(instance, codes, x)
        finally:
            depth.pop()

    monkeypatch.setattr(Instance, "act_batch", counted_act_batch)
    monkeypatch.setattr(groups, "fixes_mask", counted_fixes_mask)
    sweep.prewarm(inst, cap=10_000_000)
    sub = coset_closure(inst, inst.diagonal(), [inst.code_of_mat(inst.elementary(0, 1, 1))])
    verify_sandwich(inst, sub)
    assert passes == []
    groups.fixes_mask(inst, inst.gl_codes, inst.atoms[0])  # the count works
    assert passes == [inst.atoms[0]]


def test_fixed_lattice_examples(f7, z49):
    assert fixed_lattice(f7, f7.gl()).members == (f7.lattice.bottom, f7.lattice.top)
    assert set(fixed_lattice(f7, f7.diagonal()).members) == set(f7.frame.l0.members)
    fixed = fixed_lattice(z49, z49.diagonal())
    labels = sorted(z49.lattice.labels[x] for x in fixed.members)
    assert labels == sorted(
        ["0,0;0,0", "0,7;0,0", "7,0;0,0", "0,1;0,0", "1,0;0,0",
         "7,0;0,7", "1,0;0,7", "7,0;0,1", "1,0;0,1"]
    )
    # fixed points of the generators equal fixed points of the full group
    full = Subgroup(z49, z49.diagonal().coset_mask())
    assert fixed_lattice(z49, full).members == fixed.members


def produced_subgroups(inst, report) -> list:
    """The subgroups that `gl`, `diagonal`, `fixer`, `net_fixer`,
    `verified_net_subgroup` and the sweep's closures <D, g> return after
    `prewarm` and a sweep with this report, the first of each member set.

    Every fixer is of a sublattice of L0' (`fixer` refuses any other), so
    its member set is a fixer class's: the class fixers and the fixer of
    each class's first representative stand for them.  <D, g> depends only
    on g's double-coset key, so one closure per key stands for the rows.
    """
    from netgalois.glnr import enumerate_dnets, verified_net_subgroup
    from netgalois.nets import all_fixer_classes, enumerate_net_collections, net_fixer

    classes = all_fixer_classes(inst)
    rows = [row["g"] for row in report["rows"]]
    subs = [inst.gl(), inst.diagonal()]
    subs += [cls.common_fixer for cls in classes]
    subs += [fixer(inst, cls.representatives[0].members) for cls in classes]
    subs += [net_fixer(inst, net) for net in enumerate_net_collections(inst)]
    subs += [verified_net_subgroup(inst, dnet) for dnet in enumerate_dnets(inst)]
    subs += [
        coset_closure(inst, inst.diagonal(), [int(key)])
        for key in np.unique(double_coset_key(inst, rows)).tolist()
    ]
    return list({sub.key(): sub for sub in reversed(subs)}.values())[::-1]


@pytest.mark.parametrize(
    "ring, n", [((2, 1), 2), ((2, 2), 2), ((7, 1), 2), ((3, 2), 2), ((3, 1), 3)],
    ids=["f2", "z4", "f7", "z9", "f3n3"],
)
def test_fixed_lattice_matches_fixed_by_member_codes(ring, n):
    """`fixed_lattice`, read per right coset of D, against `fixed_by` on every
    member code, for every subgroup the producers return (with and without
    generators) after `prewarm` and a sweep, and `galois_psi` on every net
    fixer."""
    from netgalois import sweep
    from netgalois.nets import enumerate_net_collections, net_fixer

    inst = Instance(RingSpec(*ring), n)
    sweep.prewarm(inst, cap=10_000_000)
    report = sweep.sweep_cyclic(inst, jobs=1)
    produced = produced_subgroups(inst, report)
    assert {bool(sub.generator_codes) for sub in produced} == {True, False}
    for sub in produced:
        assert fixed_lattice(inst, sub).members == fixed_by(inst, sub.codes).members
    for net in enumerate_net_collections(inst):
        fx = net_fixer(inst, net)
        assert galois_psi(inst, fx).members == fixed_by(inst, fx.codes).members


def test_axis_subgroup_is_one_batched_perm(z49, monkeypatch):
    """The axis subgroup reads one `perm` over D's codes: one `act_batch` call
    per lattice element, not one permutation per member of D."""
    from netgalois.glnr import Instance

    calls = []
    act_batch = Instance.act_batch

    def counted(self, codes, x):
        calls.append(x)
        return act_batch(self, codes, x)

    monkeypatch.setattr(Instance, "act_batch", counted)
    for i in range(z49.n):
        calls.clear()
        assert len(axis_subgroup(z49, i)) == len(z49.diagonal())
        assert len(calls) <= len(z49.lattice)


def test_axis_subgroup_by_definition(f7, z49, act_reference, member_mats):
    """Brute-force filter: members of the stabiliser fixing every element
    whose support misses the axis, each element's images by definition."""
    for inst in (f7, z49):
        lat, diag = inst.lattice, inst.diagonal()
        mats = member_mats(diag)
        for i in range(inst.n):
            keep = np.ones(len(diag), dtype=bool)
            for x in range(len(lat)):
                if int(inst.support_table[x, i]) == lat.bottom:
                    keep &= act_reference(inst, mats, x) == x
            got = axis_subgroup(inst, i)
            assert got.tolist() == diag.codes[keep].tolist()
            # rank 2: every element supported away from one atom is an ideal
            # multiple of the other, so the whole stabiliser qualifies
            assert len(got) == len(inst.diagonal())


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f3n3"])
def test_transvection_table_matches_classify_transvection(
    name, request, member_mats, dense_transvection_table
):
    """The table's gathered support clauses against the per-element
    definition, on all of GL (a seeded sample of 500 on F3 rank 3)."""
    inst = request.getfixturevalue(name)
    g = inst.gl()
    pos = np.arange(len(g))
    if name == "f3n3":
        pos = np.sort(np.random.default_rng(8).choice(len(g), size=500, replace=False))
    mats = member_mats(g)
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            table = dense_transvection_table(inst, i, j)
            for k in pos.tolist():
                x = classify_transvection(inst, mats[k], i, j)
                assert int(table[k]) == (-1 if x is None else x)


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_transvection_table_matches_dense_reference(
    name, request, dense_transvection_table, transvection_table_reference
):
    """The table holds one entry per right coset of D, a class value or -1,
    and gathered over GL by label it is the dense table of the clauses, on
    all of GL."""
    inst = request.getfixturevalue(name)
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            table = transvection_table(inst, i, j)
            assert table.shape == right_cosets(inst)[1].shape
            assert bool(np.all(table >= -1)) and bool(np.any(table >= 0))
            expect = transvection_table_reference(inst, i, j)
            assert np.array_equal(dense_transvection_table(inst, i, j), expect)


class _Unread:
    """Stands in for the GL-aligned coset labels: any use of it raises."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("read the GL-aligned right-coset labels")

    __getitem__ = __getattr__ = __array__ = __len__ = __iter__ = _refuse


@pytest.mark.parametrize("ring, n", [((3, 2), 2), ((3, 1), 3)], ids=["z9", "f3n3"])
def test_transvection_reads_are_per_coset(ring, n, monkeypatch):
    """On a fresh instance, `transvection_ideals`, `same_transvections` and
    `net_fixer` read the transvection sets and the subgroups per right coset
    of D: they expand no GL mask and never read the GL-aligned labels of
    `right_cosets`, and each `transvection_table` has |GL|/|D| entries."""
    from netgalois import axioms, glnr, groups, nets, sweep
    from netgalois.glnr import Instance
    from netgalois.nets import enumerate_net_collections, net_fixer, transvection_ideals

    inst = Instance(RingSpec(*ring), n)
    count = len(inst.gl()) // inst.ring.unit_count**n
    original = groups.right_cosets

    def reps_only(instance):
        return _Unread(), original(instance)[1]

    def refuse(self):
        raise AssertionError("expanded a GL-sized mask")

    for module in (axioms, glnr, groups, nets, sweep):
        if hasattr(module, "right_cosets"):
            monkeypatch.setattr(module, "right_cosets", reps_only)
    monkeypatch.setattr(Subgroup, "gl_mask", refuse)
    gl = inst.gl()
    for net in enumerate_net_collections(inst):
        fx = net_fixer(inst, net)
        assert transvection_ideals(inst, fx) == net
        assert same_transvections(inst, fx, fx)
    assert transvection_ideals(inst, gl).tau.tolist() == [
        [inst.atoms[j] for j in range(n)] for _ in range(n)
    ]
    assert not same_transvections(inst, inst.diagonal(), gl)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert transvection_table(inst, i, j).shape == (count,)


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


def test_transvection_sets_closed_under_inverse(f7, dense_transvection_table):
    for i, j in ((0, 1), (1, 0)):
        table = dense_transvection_table(f7, i, j)
        for x in np.unique(table[table >= 0]).tolist():
            codes = set(transvections(f7, i, j, x).tolist())
            for code in codes:
                inv_code = f7.code_of_mat(f7.inv(f7.mat_of_code(code)))
                assert inv_code in codes


def test_transvections_are_elementary_times_stabiliser(f7, member_mats):
    """Oracle for the full filter: products of one elementary and one
    diagonal matrix exhaust each transvection set."""
    from netgalois.rings import mat_mul, pack_matrices

    d_mats = member_mats(f7.diagonal())
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


def test_transvection_values_z49(z49, dense_transvection_table):
    table = dense_transvection_table(z49, 0, 1)
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
        sub = Subgroup(f7, sub.coset_mask(), generator_codes=sub.generator_codes)
        m = galois_psi(f7, sub)
        assert set(m.members) <= set(l0p.members)
        phi_m = galois_phi(f7, m.members)
        assert sub.is_subset_of(phi_m)  # extensive on the group side
        assert galois_psi(f7, phi_m).members == m.members  # psi phi psi = psi
        phi_again = galois_phi(f7, galois_psi(f7, phi_m).members)
        assert np.array_equal(phi_again.codes, phi_m.codes)  # phi psi phi = phi
    with pytest.raises(InputError):
        galois_phi(f7, [f7.element_by_label("1,1;0,0")])


def test_normalizes_and_normality(f7):
    d = f7.diagonal()
    b = borel(f7)
    normal, _ = is_normal_in(f7, d, b)
    assert not normal
    units = f7.ring.units()
    monomial = []
    for a in units:
        for c in units:
            monomial.append(f7.code_of_mat(np.array([[a, 0], [0, c]])))
            monomial.append(f7.code_of_mat(np.array([[0, a], [c, 0]])))
    anti = f7.code_of_mat(np.array([[0, 1], [1, 0]]))
    mono = coset_closure(f7, d, [anti])
    assert mono.codes.tolist() == sorted(monomial)
    normal, _ = is_normal_in(f7, d, mono)
    assert normal
    assert normalizes(f7, [anti], d, d.generator_codes) == (True, None)
    t = f7.code_of_mat(f7.elementary(0, 1, 1))
    holds, (f, s) = normalizes(f7, [anti, t], d, d.generator_codes)
    assert not holds and f == t and s in d.generator_codes
    assert normalizes(f7, [], d) == (True, None)


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


def _first_failing_pair(inst, f_codes, subgroup, s_codes):
    """Reference: f^-1 s f for each f in turn, by `Instance.inv` and numpy
    products, against all s at once; the first s outside the subgroup under
    the first f with one."""
    m, n = inst.modulus, inst.n
    s_codes = np.asarray(s_codes, dtype=np.int64)
    s_mats = unpack_matrices(s_codes, m, n)
    for f_code in [int(c) for c in f_codes]:
        f = inst.mat_of_code(f_code)
        conj = pack_matrices(inst.inv(f) @ s_mats @ f % m, m)
        bad = ~subgroup.contains_many(conj)
        if bool(np.any(bad)):
            return False, (f_code, int(s_codes[np.argmax(bad)]))
    return True, None


def _all_f_conjugation_check(inst, subgroup, ambient):
    """Reference: conjugate the subgroup by every ambient f in code order."""
    return _first_failing_pair(inst, ambient.codes, subgroup, subgroup.codes)


def _sweep_subgroups(inst):
    """(F, G(K(F))) for every distinct subgroup <D, g> the sweep verifies."""
    from netgalois.nets import net_fixer, transvection_ideals

    seen = {}
    for key in np.unique(double_coset_key(inst, inst.gl().codes)).tolist():
        f = coset_closure(inst, inst.diagonal(), [key])
        seen.setdefault(f.fingerprint(), f)
    return [(f, net_fixer(inst, transvection_ideals(inst, f))) for f in seen.values()]


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9"])
def test_conjugation_check_matches_all_f_reference(name, request):
    inst = request.getfixturevalue(name)
    gl = inst.gl()
    d = inst.diagonal()
    pairs = _sweep_subgroups(inst)
    # non-normal pairs: D and the upper triangular group in GL, the fixer of
    # an atom in GL, and that fixer against the smallest sweep subgroup,
    # which need not contain it
    upper = coset_closure(inst, d, [inst.code_of_mat(inst.elementary(0, 1, 1))])
    point = fixer(inst, [inst.atoms[0]])
    pairs += [(d, gl), (upper, gl), (point, gl), (point, min(pairs, key=lambda p: len(p[0]))[0])]
    verdicts = []
    for subgroup, ambient in pairs:
        expected = _all_f_conjugation_check(inst, subgroup, ambient)
        assert conjugation_closure_check(inst, subgroup, ambient) == expected
        verdicts.append(expected[0])
    assert True in verdicts and False in verdicts


def test_conjugation_check_visits_one_f_per_coset(monkeypatch):
    """A holding exhaustive check on F7 is one broadcast `conjugate_codes`
    call: one f per right coset of D in F against G's generators."""
    from netgalois import groups
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    inst = Instance(RingSpec(7, 1), 2)
    calls = []
    original = groups.conjugate_codes

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(groups, "conjugate_codes", counted)
    pairs = _sweep_subgroups(inst)
    inst._caches.pop("row_products")
    for f, gk in pairs:
        calls.clear()
        assert conjugation_closure_check(inst, gk, f)[0]
        assert len(calls) == 1
    # the coset representatives' row-product tables are not kept
    assert not inst._caches.get("row_products")


def _count_unpacked(monkeypatch):
    """Record the batch size of every `rings.unpack_matrices` call."""
    from netgalois import rings

    sizes, original = [], rings.unpack_matrices

    def counted(codes, *args, **kwargs):
        sizes.append(np.asarray(codes).size)
        return original(codes, *args, **kwargs)

    monkeypatch.setattr(rings, "unpack_matrices", counted)
    return sizes


def test_sampled_conjugation_check_unpacks_no_matrices(monkeypatch):
    """Only the sampled pairs are unpacked: a sampled check on all of GL
    unpacks at most 2 x samples matrices.  GL and its right-coset labels
    (whose column keys read the scalar matrices' row tables) are instance
    set-up, built before the count."""
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    inst = Instance(RingSpec(3, 2), 2)
    gl = inst.gl()
    right_cosets(inst)
    rng = np.random.default_rng(5)
    unpacked = _count_unpacked(monkeypatch)
    assert conjugation_closure_check(inst, gl, gl, rng=rng, samples=200) == (True, None)
    assert 0 < sum(unpacked) <= 2 * 200


def test_sampled_conjugation_check_draws_member_ranks(z49, monkeypatch):
    """The sampled check draws member ranks and gathers only the drawn codes:
    `codes_at` is `codes[ranks]`, the pairs are those `rng.choice` draws from
    the member codes, and no subgroup's member codes are listed."""
    fixer_k = fixer(z49, z49.frame.lbar0)
    borel_k = borel(z49)
    rng = np.random.default_rng(3)
    for sub in (z49.diagonal(), fixer_k, borel_k, z49.gl()):
        ranks = rng.integers(0, len(sub), 5000)
        assert np.array_equal(sub.codes_at(ranks), sub.codes[ranks])
    draws = np.random.default_rng(9)
    fs = draws.choice(borel_k.codes, size=300)
    ss = draws.choice(fixer_k.codes, size=300)
    expect = [(int(f), int(s)) for f, s in zip(fs, ss) if not fixer_k.contains(
        z49.code_of_mat(z49.inv(z49.mat_of_code(int(f))) @ z49.mat_of_code(int(s))
                        @ z49.mat_of_code(int(f)) % z49.modulus))]
    assert expect  # the fixer of the componentwise span is D, not normal in the Borel

    def refuse(self):
        raise AssertionError("listed the member codes")

    monkeypatch.setattr(Subgroup, "codes", property(refuse))
    holds, witness = conjugation_closure_check(
        z49, fixer_k, borel_k, rng=np.random.default_rng(9), samples=300
    )
    assert (holds, witness) == (False, expect[0])


def test_sampled_check_of_a_subgroup_in_itself_expands_it_once(z49, monkeypatch):
    """With the subgroup as its own ambient group, as when a sweep row's
    subgroup is its canonical fixer, the sampled check reads both draws
    through one `codes_at` call: one GL expansion instead of two, and the
    pairs of two separate reads in the same rng order."""
    from netgalois import groups

    sub, m = borel(z49), z49.modulus
    same = Subgroup(z49, sub.coset_mask().copy())
    draws = np.random.default_rng(7)
    fs = same.codes_at(draws.choice(len(same), size=500))
    ss = sub.codes_at(draws.choice(len(sub), size=500))
    expanded, pairs = [], []
    gl_mask, conjugate = Subgroup.gl_mask, groups.conjugate_codes

    def counted(self):
        expanded.append(self)
        return gl_mask(self)

    def recorded(instance, f_mats, s_mats):
        pairs.append((pack_matrices(f_mats, m), pack_matrices(s_mats, m)))
        return conjugate(instance, f_mats, s_mats)

    monkeypatch.setattr(Subgroup, "gl_mask", counted)
    monkeypatch.setattr(groups, "conjugate_codes", recorded)
    got = conjugation_closure_check(z49, sub, same, rng=np.random.default_rng(7), samples=500)
    assert got == (True, None) and len(expanded) == 1
    assert np.array_equal(pairs[0][0], fs) and np.array_equal(pairs[0][1], ss)


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f3n3"])
def test_normality_routines_match_per_pair_reference(name, request):
    """`normalizes` (on generators, on whole member sets and by default),
    `is_normal_in` and the exhaustive conjugation check against the per-f
    reference, witnesses included, for G(K(F)) in F over the sweep family and
    for D, the upper triangular group and an atom's fixer in GL.  The exhaustive reference
    runs where |F| |G| <= 2 * 10^6 (all but GL in GL on F3 rank 3)."""
    inst = request.getfixturevalue(name)
    gl, d = inst.gl(), inst.diagonal()
    upper = coset_closure(inst, d, [inst.code_of_mat(inst.elementary(0, 1, 1))])
    point = fixer(inst, [inst.atoms[0]])
    pairs = [(gk, f) for f, gk in _sweep_subgroups(inst)]
    pairs += [(d, gl), (upper, gl), (point, gl), (gl, upper)]
    verdicts = set()
    for subgroup, ambient in pairs:
        gens_f, gens_s = generating_subset(ambient), generating_subset(subgroup)
        for s_codes in (gens_s, subgroup.codes):
            expected = _first_failing_pair(inst, gens_f, subgroup, s_codes)
            assert normalizes(inst, gens_f, subgroup, s_codes) == expected
            verdicts.add(expected[0])
        # without generators the s run over the whole subgroup in code order
        assert normalizes(inst, gens_f, subgroup) == _first_failing_pair(
            inst, gens_f, subgroup, subgroup.codes
        )
        probe = np.array(subgroup.generator_codes or subgroup.codes, dtype=np.int64)
        outside = probe[~ambient.contains_many(probe)]
        expected = (False, (None, int(outside[0]))) if outside.size else _first_failing_pair(
            inst, ambient.generator_codes or gens_f, subgroup, probe
        )
        assert is_normal_in(inst, subgroup, ambient) == expected
        if len(ambient) * len(subgroup) <= 2 * 10**6:
            expected = _all_f_conjugation_check(inst, subgroup, ambient)
            assert conjugation_closure_check(inst, subgroup, ambient) == expected
            verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_normalizes_broadcasts_every_f_once_per_chunk(f7, monkeypatch):
    """k >= 2 f against s that fit one chunk make one `conjugate_codes` call;
    in chunks of one s, the witness is still the first failing f's first
    failing s, whichever chunk each failure falls in."""
    from netgalois import groups

    b = borel(f7)
    calls, original = [], groups.conjugate_codes

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(groups, "conjugate_codes", counted)
    # the index of the first member of B each f conjugates out of B
    first_bad = {}
    for f_code in f7.gl().codes[:400].tolist():
        holds, witness = _first_failing_pair(f7, [f_code], b, b.codes)
        if not holds:
            first_bad[f_code] = int(np.searchsorted(b.codes, witness[1]))
    late = max(first_bad, key=first_bad.get)
    early = min(first_bad, key=first_bad.get)
    assert first_bad[late] > first_bad[early]
    # a failing first f ends the scan at its chunk; behind a passing f every
    # chunk runs, and later failures must not overwrite the witness
    ident = f7.code_of_mat(f7.identity)
    for f_codes, chunks in (([late, early], first_bad[late] + 1), ([ident, late, early], len(b))):
        expected = _first_failing_pair(f7, f_codes, b, b.codes)
        assert expected[1][0] == late
        monkeypatch.setattr(groups, "_BFS_CHUNK", 1 << 18)
        calls.clear()
        assert normalizes(f7, f_codes, b, b.codes) == expected
        assert len(calls) == 1
        monkeypatch.setattr(groups, "_BFS_CHUNK", len(f_codes))
        calls.clear()
        assert normalizes(f7, f_codes, b, b.codes) == expected
        assert len(calls) == chunks


@pytest.mark.parametrize("ring", [(7, 1), (3, 2)])
def test_fingerprints_only_name_sweep_subgroups(ring, monkeypatch):
    """Set-up matches subgroups by their coset masks and fingerprints none;
    the sweep fingerprints each double-coset representative once.  Set-up
    unpacks no member set: fewer matrices than |D|."""
    from netgalois import sweep
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    inst = Instance(RingSpec(*ring), 2)
    calls = []
    fingerprint = Subgroup.fingerprint

    def counted(self):
        calls.append(len(self))
        return fingerprint(self)

    monkeypatch.setattr(Subgroup, "fingerprint", counted)
    inst.gl()
    unpacked = _count_unpacked(monkeypatch)
    sweep.prewarm(inst, cap=10_000_000)
    assert calls == []
    assert sum(unpacked) < len(inst.diagonal())
    if ring == (3, 2):
        sweep.sweep_cyclic(inst, jobs=1)
        assert len(calls) == np.unique(double_coset_key(inst, inst.gl_codes)).size


def test_sweep_fingerprints_each_member_set_once(monkeypatch):
    """Equal subgroups share one fingerprint memo entry: the Z/9 sweep hashes
    member codes once per distinct subgroup, not once per double-coset
    representative, and a second closure of a swept subgroup, a distinct
    object under the same key, hashes nothing."""
    from netgalois import sweep
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    inst = Instance(RingSpec(3, 2), 2)
    hashed = []
    sha1 = hashlib.sha1

    class Counted:
        """A SHA-1 that records each digest taken of int64 member codes."""

        def __init__(self, data=b""):
            self.digest_of, self.codes = sha1(), 0
            self.update(data)

        def update(self, data):
            if isinstance(data, np.ndarray) and data.dtype == np.int64:
                self.codes += data.size
            self.digest_of.update(data)

        def digest(self):
            return self.digest_of.digest()

        def hexdigest(self):
            if self.codes:
                hashed.append(self.codes)
            return self.digest_of.hexdigest()

    monkeypatch.setattr(hashlib, "sha1", Counted)
    report = sweep.sweep_cyclic(inst, jobs=1)
    reps = np.unique(double_coset_key(inst, inst.gl_codes)).size
    assert len(hashed) == len(report["subgroups"]) < reps
    first = coset_closure(inst, inst.diagonal(), [int(inst.gl_codes[-1])])
    again = coset_closure(inst, inst.diagonal(), [int(inst.gl_codes[-1])])
    assert again is not first and again.key() == first.key() and again == first
    assert again.fingerprint() == first.fingerprint() and len(hashed) == len(report["subgroups"])


@pytest.mark.slow
def test_z49_setup_builds_no_gl_matrix_array(monkeypatch):
    """Set-up on Z/49 unpacks fewer matrices than |D| once GL is listed."""
    from netgalois import sweep
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    inst = Instance(RingSpec(7, 2), 2)
    inst.gl(cap=5_000_000)
    unpacked = _count_unpacked(monkeypatch)
    sweep.prewarm(inst, cap=5_000_000)
    assert sum(unpacked) < len(inst.diagonal())


@pytest.mark.slow
def test_exhaustive_z49_normality_stays_under_the_memory_cap(run_measured):
    """G(K(F)) is normal in F for all 11 distinct <D, g> on Z/49, by the
    exhaustive conjugation check, in a subprocess whose own peak RSS stays
    under 700 MB (the chunked member sets are never held unpacked)."""
    script = """
import numpy as np
from netgalois.glnr import Instance
from netgalois.groups import conjugation_closure_check, coset_closure, double_coset_key
from netgalois.nets import net_fixer, transvection_ideals
from netgalois.rings import RingSpec

inst = Instance(RingSpec(7, 2), 2)
subgroups = {}
for key in np.unique(double_coset_key(inst, inst.gl(cap=5_000_000).codes)).tolist():
    f = coset_closure(inst, inst.diagonal(), [key])
    subgroups.setdefault(f.key(), f)
verdicts = [
    conjugation_closure_check(inst, net_fixer(inst, transvection_ideals(inst, f)), f)
    for f in subgroups.values()
]
print(len(verdicts), all(v == (True, None) for v in verdicts))
"""
    proc, peak_mb = run_measured([], script=script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "11 True"
    assert peak_mb < 700


def test_same_transvections(f7):
    d = f7.diagonal()
    gl = f7.gl()
    assert same_transvections(f7, d, d)
    assert not same_transvections(f7, d, gl)
    b = borel(f7)
    assert not same_transvections(f7, b, gl)


def test_generating_subset(f7, element_closure):
    b = fixer(f7, [f7.element_by_label("0,1;0,0")])  # no recorded generators
    gens = generating_subset(b)
    assert np.array_equal(element_closure(f7, gens), b.codes)


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f3n3"])
def test_generating_subset_matches_greedy_reference(name, request, element_closure):
    """The greedy loop re-closing from scratch on the element BFS, from D's
    generators, picks the same generators, in the same order."""
    inst = request.getfixturevalue(name)
    l0p = inst.l0_prime().members
    subgroups = [
        inst.gl(),
        Subgroup(inst, inst.diagonal().coset_mask()),
        fixer(inst, l0p[1:2]),
        fixer(inst, [inst.atoms[0]]),
    ]
    for sub in subgroups:
        assert not sub.generator_codes
        gens = inst.diagonal_generator_codes()
        current = element_closure(inst, gens)
        while current.size < len(sub):
            gens.append(int(sub.codes[~np.isin(sub.codes, current)][0]))
            current = element_closure(inst, gens)
        assert generating_subset(sub) == gens


@pytest.mark.parametrize("name", ["f7", "z9"])
def test_orbit_over_d_steps_each_coset_once_per_generator(name, request, monkeypatch):
    """Each right coset of D in <D, g> enters the orbit's frontier once: 20
    seeded closures read the labels of exactly one product per coset and
    generator, and no GL-sized mask, besides the label of each extra code,
    which `gl_code_list` reads to check that it names a GL element.  Labels
    are read off the products' columns, n rows of column codes per batch."""
    from netgalois import groups

    inst = request.getfixturevalue(name)
    d = inst.diagonal()
    codes = np.random.default_rng(0).choice(inst.gl().codes, size=20, replace=False)
    labelled, original = [], groups.column_labels

    def counted(instance, columns):
        labelled.append(np.shape(columns)[1])
        return original(instance, columns)

    def refuse(self):
        raise AssertionError("expanded a GL-sized mask")

    monkeypatch.setattr(groups, "column_labels", counted)
    monkeypatch.setattr(Subgroup, "gl_mask", refuse)
    closures = [coset_closure(inst, d, [int(c)]) for c in codes]
    monkeypatch.undo()
    expect = sum(len(sub.generator_codes) * len(sub) // len(d) for sub in closures)
    assert sum(labelled) == len(codes) + expect


@pytest.mark.slow
def test_z49_closures_over_d_match_closures_from_the_identity(z49):
    """<D, g> on Z/49 for seeded g: the orbit on the right cosets of D
    equals the element BFS from the identity on D's generators and g."""
    d = z49.diagonal()
    gens = z49.diagonal_generator_codes()
    for g in np.random.default_rng(4).choice(z49.gl().codes, size=3, replace=False).tolist():
        over_d = coset_closure(z49, d, [g])
        assert np.array_equal(over_d.gl_mask(), close_subgroup(z49, gens + [g]).gl_mask())


def test_double_coset_key_invariance(
    f2, z4, z8, f3, f7, z9, f2n3, f3n3, z49, orbit_min, member_mats
):
    """The key read off the orbit of a D under D's generators is the
    brute-force smallest code of D a D on all of GL (Z/8: units not cyclic,
    two D generators per slot; F2 rank 3: D trivial; F3 rank 3: three D
    generators) and on 10 Z/49 codes, and it does not move under
    a -> d a d'."""
    from netgalois.rings import det_batch, mat_mul, pack_matrices, unpack_matrices

    rng = np.random.default_rng(9)
    z49_mats = rng.integers(0, z49.modulus, size=(40, 2, 2))
    z49_mats = z49_mats[det_batch(z49_mats, z49.modulus) % 7 != 0][:8]
    # entries in the maximal ideal (7) too, not only units
    z49_mats = np.concatenate([[[[1, 3], [5, 2]], [[7, 1], [1, 0]]], z49_mats])
    cases = [(inst, inst.gl().codes) for inst in (f2, z4, z8, f3, f7, z9, f2n3, f3n3)]
    cases.append((z49, pack_matrices(z49_mats, z49.modulus)))
    for inst, codes in cases:
        m = inst.modulus
        keys = double_coset_key(inst, codes)
        assert keys.tolist() == [orbit_min(inst, c) for c in codes.tolist()]
        d_mats = member_mats(inst.diagonal())
        d1, d2 = d_mats[rng.integers(0, len(d_mats), size=(2, codes.size))]
        moved = mat_mul(mat_mul(d1, unpack_matrices(codes, m, inst.n), m), d2, m)
        assert np.array_equal(double_coset_key(inst, pack_matrices(moved, m)), keys)
    assert len(cases[-1][1]) == 10


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


def test_fingerprint_is_cached_and_survives_interning(f7, monkeypatch):
    """The fingerprint is memoised by member set: an equal copy, built from
    a copy of the coset mask, reads its fingerprint from the memo without
    hashing, under the same key, the packed coset mask."""
    from netgalois import groups

    sub = borel(f7)
    first = sub.fingerprint()
    copy = Subgroup(f7, sub.coset_mask().copy())
    hashed = []

    def sha1(*data):
        hashed.append(data)
        return hashlib.sha1(*data)

    monkeypatch.setattr(groups, "hashlib", SimpleNamespace(sha1=sha1))
    assert copy.fingerprint() == first
    assert copy.fingerprint() == first
    monkeypatch.undo()
    assert hashed == []
    expect = hashlib.sha1(copy.codes.astype(np.int64).tobytes()).hexdigest()[:16]
    assert copy.fingerprint() == expect
    assert copy.key() == sub.key() == np.packbits(copy.coset_mask()).tobytes()
    assert hash(copy) == hash(sub)


def test_temporary_closures_stay_out_of_the_pool(monkeypatch):
    """Nothing keeps a subgroup by its content: generating a group's
    generators closes three intermediate groups on F3 rank 3, and once they
    are fingerprinted the memo gains only key-sized entries, each a packed
    coset mask naming 16 hex digits, and holds no new subgroup or mask."""
    from netgalois import groups
    from netgalois.glnr import Instance
    from netgalois.rings import RingSpec

    inst = Instance(RingSpec(3, 1), 3)
    gl, _ = inst.gl(), inst.diagonal()
    closures, closure = [], groups.coset_closure

    def recorded(*args):
        closures.append(closure(*args))
        return closures[-1]

    before = set(inst._caches)
    monkeypatch.setattr(groups, "coset_closure", recorded)
    gens = generating_subset(gl)
    monkeypatch.undo()
    assert len(gens) >= 2 and len(closures) >= 3
    fps = [sub.fingerprint() for sub in closures + [gl]]
    added = {key: inst._caches[key] for key in set(inst._caches) - before}
    memo = {key: value for key, value in added.items() if key[0] == "_fingerprint_of"}
    assert len(memo) == len({sub.key() for sub in closures + [gl]})
    assert sorted(memo.values()) == sorted(set(fps))
    size = len(gl.key())
    assert size == -(-len(right_cosets(inst)[1]) // 8)
    assert all(type(key[1]) is bytes and len(key[1]) == size for key in memo)
    assert all(len(fp) == 16 for fp in memo.values())
    rest = [value for key, value in added.items() if key not in memo]
    assert not [v for v in rest if isinstance(v, Subgroup)]
    assert not [v for v in rest if isinstance(v, np.ndarray) and v.dtype == bool]


def test_coset_closure_refuses_a_seed_without_generators(f7):
    """A seed with members besides the identity but no generators
    (a fixer) gives no closure: the orbit of its cosets under the extras
    alone is no subgroup (756 elements on F7, not dividing 2016)."""
    seed = fixer(f7, [f7.atoms[0]])
    assert len(seed) > 1 and not seed.generator_codes
    g = int(f7.gl().codes[100])
    with pytest.raises(InputError):
        coset_closure(f7, seed, [g])
    with pytest.raises(InputError):
        coset_closure(f7, f7.gl(), [g])


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_orbit_over_d_matches_the_closure_from_the_identity(name, request, element_closure):
    """<D, g> by the orbit on the right cosets of D equals the closure of D's
    generators and g from the identity (`close_subgroup`'s element BFS) and
    the matrix BFS reference, with one coset mask and key."""
    inst = request.getfixturevalue(name)
    d, gens = inst.diagonal(), inst.diagonal_generator_codes()
    for g in np.random.default_rng(8).choice(inst.gl().codes, size=5, replace=False).tolist():
        orbit = coset_closure(inst, d, [g])
        from_identity = close_subgroup(inst, gens + [g])
        assert orbit == from_identity and orbit.key() == from_identity.key()
        assert np.array_equal(orbit.gl_mask(), from_identity.gl_mask())
        assert np.array_equal(orbit.codes, element_closure(inst, gens + [g]))


# (distinct produced subgroups, SHA-256 prefix of their sorted (fingerprint,
# order, SHA-1 of the packed GL mask)) after prewarm and a sweep with seed 3,
# as the GL-mask representation gave them
POOL_DIGESTS = {
    "f2": (6, "9757e3bfa81164d6"),
    "z4": (17, "27be34e01963cb6f"),
    "f3": (6, "80653a378d42ba5e"),
    "f7": (5, "8582c53c380a198a"),
    "z9": (21, "fbe0b03e8f4eb31d"),
    "f2n3": (157, "21ec89fc7be12d1d"),
    "f3n3": (31, "9507feb57a140503"),
}


@pytest.mark.parametrize("name", sorted(POOL_DIGESTS))
def test_pooled_subgroups_keep_members_and_fingerprints(name, gl_codes_reference, element_closure):
    """GL's codes are held in the narrowest unsigned dtype below m^(n^2)
    (uint8 on F2, Z/4 and F3, uint16 on the others here), with the values of
    the definition.  After prewarm and a sweep (60 sampled rows on F3 rank 3)
    on a fresh instance, every subgroup the producers return
    (`produced_subgroups`) has the GL mask and fingerprint it had as a GL
    mask; the fingerprint is the SHA-1 of its members, found by element BFS,
    ascending as int64; it contains D; and a copy built from its coset mask
    equals it under the same key."""
    from netgalois import sweep

    ring, n = {"f2": ((2, 1), 2), "z4": ((2, 2), 2), "f3": ((3, 1), 2), "f7": ((7, 1), 2),
               "z9": ((3, 2), 2), "f2n3": ((2, 1), 3), "f3n3": ((3, 1), 3)}[name]
    inst = Instance(RingSpec(*ring), n)
    inst.gl()
    assert inst.gl_codes.dtype == np.min_scalar_type(inst.modulus ** (n * n) - 1)
    assert inst.gl_codes.dtype == (np.uint8 if name in ("f2", "z4", "f3") else np.uint16)
    assert np.array_equal(inst.gl_codes, gl_codes_reference(inst))
    sweep.prewarm(inst, cap=10_000_000)
    report = sweep.sweep_cyclic(inst, sample=60 if name == "f3n3" else None, seed=3, jobs=1)
    produced = produced_subgroups(inst, report)
    rows = sorted(
        (sub.fingerprint(), len(sub), hashlib.sha1(np.packbits(sub.gl_mask())).hexdigest())
        for sub in produced
    )
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()[:16]) == POOL_DIGESTS[name]
    for sub in produced:
        members = np.sort(element_closure(inst, generating_subset(sub))).astype(np.int64)
        assert sub.fingerprint() == hashlib.sha1(members).hexdigest()[:16]
        assert inst.diagonal().is_subset_of(sub)
        copy = Subgroup(inst, sub.coset_mask().copy())
        assert copy == sub and copy.key() == sub.key() and len(copy) == len(sub)


def test_subgroup_is_a_mask_over_the_cosets_of_d(f7):
    """The constructor takes a boolean mask over the right cosets of D and
    nothing else: a GL-sized mask, or one of another dtype, is refused."""
    d = f7.diagonal()
    assert Subgroup(f7, d.coset_mask().copy()) == d
    for mask in (d.gl_mask(), d.coset_mask().astype(np.uint8)):
        with pytest.raises(InputError):
            Subgroup(f7, mask)


@pytest.mark.parametrize("name", ["f2", "z4", "f7", "z9", "f3n3"])
def test_subgroup_refuses_a_mask_without_d(name, request):
    """Every `Subgroup` contains D: a coset mask that misses D's coset is
    refused, even when it marks every other coset, and a mask that marks
    D's coset alone is D."""
    inst = request.getfixturevalue(name)
    d = inst.diagonal()
    for mask in (~d.coset_mask(), np.zeros_like(d.coset_mask())):
        with pytest.raises(InputError, match="frame stabiliser"):
            Subgroup(inst, mask)
    assert Subgroup(inst, d.coset_mask().copy()) == d
