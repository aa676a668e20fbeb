import collections
import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from netgalois import glnr, groups, nets, sweep
from netgalois.errors import InputError
from netgalois.glnr import Instance
from netgalois.groups import (
    Subgroup,
    close_subgroup,
    coset_closure,
    double_coset_key,
    fixer,
    galois_psi,
    is_normal_in,
    same_transvections,
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
from netgalois.rings import RingSpec
from netgalois.sweep import prewarm, sweep_cyclic


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
    """Every subgroup sigma reads contains D: one that misses it, such as the
    trivial group, cannot be built."""
    with pytest.raises(InputError):
        close_subgroup(f7, [f7.code_of_mat(f7.identity)])


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


def test_net_fixer_dual_routes_exactly(f7, dense_transvection_table):
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
                table = dense_transvection_table(f7, i, j)
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


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f2n3", "f3n3"])
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


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_stable_lbar0_matches_member_mask_reference(name, request, stable_lbar0_reference):
    """The generator fixpoint against the member-mask route, on subgroups with
    generators (D, the sweep family) and without (GL, bare copies of family
    members, bare fixers of the base sublattice's elements)."""
    inst = request.getfixturevalue(name)
    codes = inst.gl().codes
    first = np.unique(double_coset_key(inst, codes), return_index=True)[1]
    family = {}
    for code in codes[np.sort(first)].tolist():
        sub = coset_closure(inst, inst.diagonal(), [code])
        family.setdefault(sub.fingerprint(), sub)
    bare = [Subgroup(inst, sub.coset_mask()) for sub in list(family.values())[:4]]
    subgroups = [inst.diagonal(), inst.gl(), *family.values(), *bare]
    subgroups += [fixer(inst, [x]) for x in inst.l0_prime().members]
    for sub in subgroups:
        assert stable_lbar0(inst, sub).members == stable_lbar0_reference(inst, sub)


@pytest.fixture(scope="module")
def prewarmed_z49():
    """A Z/49 instance no other test reads, prewarmed as a sweep prewarms it."""
    inst = Instance(RingSpec(7, 2), 2)
    prewarm(inst, cap=5_000_000)
    return inst


def test_sweep_after_prewarm_hashes_no_sublattice_fixer(prewarmed_z49, monkeypatch):
    """A sampled sweep makes `Subgroup.key` hash no fixer of the class table:
    each shares the key its member set was pooled under."""
    calls, hashed, key = [], [], Subgroup.key

    def sha1(*data):
        calls.append(data)
        return hashlib.sha1(*data)

    def counted_key(self):
        before = len(calls)
        out = key(self)
        if len(calls) > before:
            hashed.append(self)
        return out

    monkeypatch.setattr(groups, "hashlib", SimpleNamespace(sha1=sha1))
    monkeypatch.setattr(Subgroup, "key", counted_key)
    payload = sweep_cyclic(
        prewarmed_z49, sample=8, seed=7, jobs=1, cap=5_000_000, conjugation_samples=10_000
    )
    monkeypatch.undo()
    assert payload["all_hold"] and hashed  # the closures <D, g> are new, so hashed
    fixers = [cls.common_fixer for cls in all_fixer_classes(prewarmed_z49)]
    assert not [fx for fx in hashed if any(fx is other for other in fixers)]


@pytest.mark.parametrize("name", ["f7", "z9", "z49"])
def test_sweep_after_prewarm_computes_no_fixer(name, request, monkeypatch):
    """After `prewarm` a sweep finds every fixer it reads in the caches, with
    no `groups.fixer` call, and tests each fixer class for normality once
    per subgroup, plus the stable span's fixer."""
    if name == "z49":
        inst = request.getfixturevalue("prewarmed_z49")
        opts = {"sample": 8, "seed": 7, "conjugation_samples": 10_000}
    else:
        inst, opts = Instance(RingSpec(*{"f7": (7, 1), "z9": (3, 2)}[name]), 2), {}
        prewarm(inst, cap=10_000_000)
    calls = collections.Counter()

    def counted(target, function):
        def wrapper(*args, **kwargs):
            calls[target] += 1
            return function(*args, **kwargs)

        return wrapper

    for target in ("fixer", "is_normal_in"):
        wrapper = counted(target, getattr(groups, target))
        for module in (groups, nets, glnr, sweep):
            if hasattr(module, target):
                monkeypatch.setattr(module, target, wrapper)
    payload = sweep_cyclic(inst, jobs=1, **opts)
    monkeypatch.undo()
    assert calls["fixer"] == 0
    classes = len(all_fixer_classes(inst))
    assert calls["is_normal_in"] == len(payload["subgroups"]) * (classes + 1)


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_fixer_class_by_sublattice_matches_the_fixer_hash_lookup(
    name, request, monkeypatch, fixer_class_reference
):
    """`fixer_class` finds the class holding the sublattice M generates, with
    no fixer computed: the same class, fixer mask and generating set as the
    lookup by the key of fixer(M), on every sublattice of the base sublattice
    and on seeded member subsets, the empty one included.  The stable span's
    class fixer is fixer(stable), with the reference's generator codes."""
    inst = request.getfixturevalue(name)
    lookup = fixer_class_reference(inst)
    l0p = inst.l0_prime().members
    rng = np.random.default_rng(5)
    subsets = [h.members for h in inst.lattice.enumerate_sublattices(universe=l0p)] + [()]
    subsets += [rng.choice(l0p, size=k, replace=False) for k in rng.integers(1, len(l0p) + 1, 12)]
    gl = inst.gl()
    subgroups = [inst.diagonal(), gl] + [
        coset_closure(inst, inst.diagonal(), [int(g)]) for g in rng.choice(gl.codes, 6)
    ]
    stable = [stable_lbar0(inst, sub).members for sub in subgroups]
    expect = [lookup(members) for members in subsets + stable]
    stable_fixers = [fixer(inst, members) for members in stable]

    def refuse(*args, **kwargs):
        raise AssertionError("the class lookup computed a fixer")

    all_fixer_classes(inst)
    monkeypatch.setattr(nets, "fixer", refuse)
    got = [fixer_class(inst, members) for members in subsets + stable]
    monkeypatch.undo()
    for cls, (reps, mask, gens) in zip(got, expect):
        assert [h.members for h in cls.representatives] == reps
        assert np.array_equal(cls.common_fixer.gl_mask(), mask)
        assert cls.common_fixer.generator_codes == gens
    for cls, fx in zip(got[len(subsets) :], stable_fixers):
        assert cls.common_fixer == fx


def test_fixer_classes_share_the_pooled_identity(prewarmed_z49):
    pool = prewarmed_z49._caches["subgroup_pool"]
    for cls in all_fixer_classes(prewarmed_z49):
        base = pool[cls.common_fixer.key()]
        assert cls.common_fixer._identity is base._identity
        assert cls.common_fixer._cosets is base._cosets is not None


def test_stable_lbar0_reads_no_gl_sized_mask(prewarmed_z49, monkeypatch, stable_lbar0_reference):
    """On GL(Z/49) given by generators, the stable span reads lattice-sized
    data and the generators' positions, never a member mask or code list."""
    inst = prewarmed_z49
    elementary = [inst.code_of_mat(inst.elementary(i, j, 1)) for i, j in ((0, 1), (1, 0))]
    gl = coset_closure(inst, inst.diagonal(), elementary)
    assert len(gl) == len(inst.gl())
    expect = stable_lbar0_reference(inst, gl)

    def refuse(self):
        raise AssertionError("read a GL-sized member set")

    monkeypatch.setattr(Subgroup, "gl_mask", refuse)
    monkeypatch.setattr(Subgroup, "codes", property(refuse))
    assert stable_lbar0(inst, gl).members == expect


F2_FAILING = {
    "canonical_inside_stable_span",
    "stable_span_fixer_normal",
    "stable_span_fixer_same_transvections",
    "dnet_uniqueness",
    "net_uniqueness",
    "unique_fixer_class",
}


@pytest.mark.parametrize("name", ["f7", "f11", "f2", "z49"])
def test_holding_normality_checks_list_no_members(name, request, monkeypatch):
    """`verify_sandwich` with exhaustive conjugation on every distinct <D, g>
    completes without a member code list or a GL-sized mask: normality and
    containment read coset masks and generators only.  Every check holds on
    F7, F11 and Z/49."""
    if name == "z49":
        inst = request.getfixturevalue("prewarmed_z49")
    else:
        inst = Instance(RingSpec(*{"f7": (7, 1), "f11": (11, 1), "f2": (2, 1)}[name]), 2)
    inst.gl()
    subgroups = {}
    for key in np.unique(double_coset_key(inst, inst.gl_codes)).tolist():
        sub = coset_closure(inst, inst.diagonal(), [key])
        subgroups.setdefault(sub.key(), sub)

    def refuse(self):
        raise AssertionError("listed the member codes or a GL-sized mask")

    monkeypatch.setattr(Subgroup, "gl_mask", refuse)
    monkeypatch.setattr(Subgroup, "codes", property(refuse))
    failing = {
        c["id"] for sub in subgroups.values() for c in glnr.verify_sandwich(inst, sub) if not c["holds"]
    }
    # F2's failures (its report is pinned in test_cli) include a stable-span
    # fixer outside F, whose witness is read off the coset masks
    assert failing == (F2_FAILING if name == "f2" else set())


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f2n3", "f3n3"])
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


def test_f3n3_candidate_nets_fail_35_of_64(f3n3):
    """F3 rank 3 has failing candidates, so the witness path is exercised:
    35 of its 64 candidate nets fail the aggregate reading."""
    lat, n, l0p = f3n3.lattice, f3n3.n, f3n3.l0_prime().members
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    choices = [[x for x in l0p if lat.leq(x, f3n3.atoms[j])] for _, j in slots]
    verdicts = []
    for combo in itertools.product(*choices):
        tau = np.diag(f3n3.atoms).astype(np.int64)
        for (i, j), x in zip(slots, combo):
            tau[i, j] = x
        verdicts.append(is_net_collection(f3n3, NetCollection(f3n3, tau, check=False))[0])
    assert (len(verdicts), verdicts.count(False)) == (64, 35)


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_fixer_classes_match_brute_force_masks(name, request, act_reference, member_mats):
    """The sublattices of the base sublattice grouped by fixer masks built
    from the action on all of GL, by definition: the same classes in the same
    order, each with that mask as its common fixer, and `fixer` of every
    sublattice is that mask."""
    inst = request.getfixturevalue(name)
    mats = member_mats(inst.gl())
    l0p = inst.l0_prime().members
    fixes = {x: act_reference(inst, mats, x) == x for x in l0p}
    expect = {}
    handles = inst.lattice.enumerate_sublattices(universe=l0p)
    for h in handles:
        mask = np.logical_and.reduce([fixes[x] for x in h.members])
        expect.setdefault(mask.tobytes(), (mask, []))[1].append(h.members)
        assert np.array_equal(fixer(inst, h.members).gl_mask(), mask)
    classes = all_fixer_classes(inst)
    assert len(classes) == len(expect)
    for cls, (mask, members) in zip(classes, expect.values()):
        assert [h.members for h in cls.representatives] == members
        assert np.array_equal(cls.common_fixer.gl_mask(), mask)


@pytest.mark.parametrize("ring, n", [((3, 2), 2), ((3, 1), 3)], ids=["z9", "f3n3"])
def test_prewarm_works_on_gl_per_atom_and_per_distinct_fixer(ring, n, monkeypatch):
    """On a fresh instance `prewarm` acts with all of GL on no element (the
    right cosets of D are labelled by column keys), builds no per-element
    GL-wide fix mask, and builds one fixer per distinct fixer: none per
    enumerated sublattice or candidate net."""
    inst = Instance(RingSpec(*ring), n)
    size = len(inst.gl())
    passes, fix_masks, fixers = [], [], []
    act_batch, fixes_mask, fixer_fn = Instance.act_batch, groups.fixes_mask, groups.fixer

    def counted_act_batch(self, codes, x):
        if np.size(codes) == size:
            passes.append(x)
        return act_batch(self, codes, x)

    def counted_fixes_mask(instance, codes, x):
        if np.size(codes) == size:
            fix_masks.append(x)
        return fixes_mask(instance, codes, x)

    def counted_fixer(instance, elements):
        fixers.append(fixer_fn(instance, elements))
        return fixers[-1]

    monkeypatch.setattr(Instance, "act_batch", counted_act_batch)
    for module in (groups, nets, glnr, sweep):
        for name, wrapper in (("fixes_mask", counted_fixes_mask), ("fixer", counted_fixer)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    prewarm(inst, cap=10_000_000)
    assert not passes
    assert not fix_masks
    inst.act_batch(inst.gl_codes, inst.atoms[0])  # the count works
    assert passes == [inst.atoms[0]]
    monkeypatch.undo()
    distinct = {fx.key() for fx in fixers}
    assert len(fixers) == len(distinct) == len(all_fixer_classes(inst))


def _large_arrays(obj, size, dtype=None, path=(), seen=None):
    """Paths to the arrays of at least `size` entries (of `dtype`, if given)
    held in a memo entry, through containers and object attributes;
    subgroups (their member masks) and the instance are not entered."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (Subgroup, Instance)):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [path] if obj.size >= size and (dtype is None or obj.dtype == dtype) else []
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        items = getattr(obj, "__dict__", {}).items()
    return [
        p for key, value in items for p in _large_arrays(value, size, dtype, path + (key,), seen)
    ]


@pytest.mark.parametrize("ring, n", [((3, 2), 2), ((3, 1), 3)], ids=["z9", "f3n3"])
def test_memo_holds_no_gl_sized_array_but_the_coset_labels(ring, n, monkeypatch):
    """After `prewarm` and the sampled axiom suite on a fresh instance, the
    per-instance memo holds no GL-sized array except the right-coset labels
    and the subgroups' member masks, and all of GL acted on no element (the
    labels come from column keys)."""
    from netgalois.axioms import check_all

    inst = Instance(RingSpec(*ring), n)
    size, passes, act_batch = len(inst.gl()), [], Instance.act_batch

    def counted(self, codes, x):
        if np.size(codes) == size:
            passes.append(x)
        return act_batch(self, codes, x)

    monkeypatch.setattr(Instance, "act_batch", counted)
    prewarm(inst, cap=10_000_000)
    check_all(inst, samples=20)
    assert _large_arrays(inst._caches, size) == [(("right_cosets",), 0)]
    assert not passes


@pytest.mark.parametrize("ring, n", [((3, 2), 2), ((3, 1), 3)], ids=["z9", "f3n3"])
def test_instance_holds_no_gl_sized_int64_array(ring, n):
    """After `gl` and `prewarm` on a fresh instance, neither the instance's
    attributes nor its memo hold an int64 array of |GL| or more entries: GL's
    codes are stored in the narrowest unsigned dtype that holds them."""
    inst = Instance(RingSpec(*ring), n)
    size = len(inst.gl())
    prewarm(inst, cap=10_000_000)
    assert _large_arrays(vars(inst), size, np.int64) == []


@pytest.mark.parametrize("ring, n", [((3, 2), 2), ((3, 1), 3)], ids=["z9", "f3n3"])
def test_subgroup_pool_holds_no_gl_sized_array(ring, n):
    """After `prewarm` on a fresh instance every pooled subgroup contains D
    and holds its members as a mask over the |GL|/|D| right cosets of D: the
    pool holds no GL-sized array."""
    inst = Instance(RingSpec(*ring), n)
    prewarm(inst, cap=10_000_000)
    pool = inst._caches["subgroup_pool"].values()
    held = [a for sub in pool for a in vars(sub).values() if isinstance(a, np.ndarray)]
    assert len(held) == len(pool)
    assert max(a.size for a in held) == len(inst.gl()) // len(inst.diagonal())


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
        sub_w = Subgroup(f7, sub.coset_mask(), generator_codes=sub.generator_codes or ())
        if not sub_w.generator_codes:
            from netgalois.groups import generating_subset

            sub_w = Subgroup(f7, sub.coset_mask(), generator_codes=tuple(generating_subset(sub_w)))
        normal, _ = is_normal_in(f7, fx, sub_w)
        assert normal


def test_transvections_in_normalizer_fix_componentwise_sublattices(f7, dense_transvection_table):
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
            table = dense_transvection_table(f7, i, j)
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
    with pytest.raises(InputError):
        triangle_entry(f7, f7.element_by_label("1,1;0,0"), 0, 1)


def _largest_passing_entry(inst, j, lhs_val, rhs):
    """The join of the entries u below atom j with no element whose (i, j)
    atom support lies under u while rhs is False; None if none passes."""
    lat = inst.lattice
    passing = [
        u
        for u in inst.frame.atom_downsets[j]
        if not np.any((lat.meet_table[lhs_val, u] == lhs_val) & ~rhs)
    ]
    return lat.join_many(passing) if passing else None


def _triangle_by_definition(inst, x, i, j, image):
    """`triangle_entry` over every group element, its images by definition:
    image(y) is y's image under each element of GL (`act_reference`)."""
    support, lat = inst.support_table, inst.lattice
    lhs_val = support[image(inst.atoms[i]), j]
    img = support[image(int(support[x, i])), j]
    rhs = lat.meet_table[img, int(support[x, j])] == img
    return _largest_passing_entry(inst, j, lhs_val, rhs)


def _triangle_by_transvections(inst, x, i, j):
    """`triangle_entry` over the transvection family for (i, j) only, which
    the support-transfer condition makes equivalent; images by `act_batch`
    over the family's codes."""
    support, lat = inst.support_table, inst.lattice
    table = groups.transvection_table(inst, i, j)[groups.right_cosets(inst)[0]]
    positions = np.flatnonzero(table >= 0)
    lhs_val = table[positions]
    img = support[inst.act_batch(inst.gl_codes[positions], int(support[x, i])), j]
    rhs = lat.meet_table[img, int(support[x, j])] == img
    return _largest_passing_entry(inst, j, lhs_val, rhs)


def _assert_triangle_entries_match(inst, act_reference, member_mats):
    mats, images = member_mats(inst.gl()), {}

    def image(y):
        if y not in images:
            images[y] = act_reference(inst, mats, y)
        return images[y]

    xs = [x for x in inst.l0_prime().members if x in inst.frame._lbar0_set]
    for x in xs:
        for i, j in itertools.permutations(range(inst.n), 2):
            expect = _triangle_by_definition(inst, x, i, j, image)
            assert _triangle_by_transvections(inst, x, i, j) == expect, (x, i, j)
            if expect is None:
                with pytest.raises(InputError):
                    triangle_entry(inst, x, i, j)
            else:
                assert triangle_entry(inst, x, i, j) == expect, (x, i, j)


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f2n3", "f3n3"])
def test_triangle_entry_matches_both_readings(name, request, act_reference, member_mats):
    """`triangle_entry`, quantified once per right coset of D, against the
    brute-force definition over all of GL and the transvection-family reading."""
    _assert_triangle_entries_match(request.getfixturevalue(name), act_reference, member_mats)


@pytest.mark.slow
@pytest.mark.parametrize("ring", [(5, 2), (7, 2)], ids=["z25", "z49"])
def test_triangle_entry_matches_both_readings_on_chain_rings(ring, act_reference, member_mats):
    inst = Instance(RingSpec(*ring), 2)
    _assert_triangle_entries_match(inst, act_reference, member_mats)


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


def test_transvection_sets_saturate_subgroups(f7, dense_transvection_table):
    """Meeting a transvection set forces containing all of it, and every
    realised value below an ideal entry contributes its whole set."""
    lat = f7.lattice
    for sub in (f7.diagonal(), borel(f7), borel(f7, 1, 0), f7.gl()):
        sigma = transvection_ideals(f7, sub)
        for i, j in ((0, 1), (1, 0)):
            table = dense_transvection_table(f7, i, j)
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


def test_fixer_classes_honour_the_bound_after_a_cached_call():
    """A bound too small for the base sublattice raises whether or not a
    larger bound filled the caches first."""
    inst = Instance(RingSpec(7, 1), 2)
    with pytest.raises(InputError, match="4 elements exceeds bound 2"):
        all_fixer_classes(inst, bound=2)
    assert len(all_fixer_classes(inst, bound=32)) == 4
    with pytest.raises(InputError, match="4 elements exceeds bound 2"):
        all_fixer_classes(inst, bound=2)
    with pytest.raises(InputError, match="4 elements exceeds bound 2"):
        fixer_class(inst, inst.l0_prime().members, bound=2)


def test_fixer_class_maximal_member_is_closure(f7):
    for handle, _ in [(h, None) for h in f7.lattice.enumerate_sublattices(universe=f7.l0_prime().members)]:
        cls = fixer_class(f7, handle.members)
        maximal = max(cls.representatives, key=lambda h: len(h.members))
        sub = cls.common_fixer
        from netgalois.groups import generating_subset

        sub = Subgroup(f7, sub.coset_mask(), generator_codes=tuple(generating_subset(sub)))
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


def test_per_triple_verdict_comes_from_a_per_triple_call(f3n3, monkeypatch):
    """sigma(D) is among the enumerated nets, which the enumeration kept by
    the aggregate reading only: the per-triple reading is still checked."""
    assert transvection_ideals(f3n3, f3n3.diagonal()) in enumerate_net_collections(f3n3)
    calls = []

    def planted(instance, net, mode="aggregate"):
        calls.append(mode)
        return False, {"kind": "planted"}

    monkeypatch.setattr(nets, "is_net_collection", planted)
    checks = verify_intermediate_subgroup(f3n3, f3n3.diagonal())
    record = next(c for c in checks if c["id"] == "transvection_ideals_form_net")
    assert calls == ["per_triple"]
    assert record["holds"]
    assert record["details"]["per_triple_holds"] is False
    assert record["details"]["per_triple_witness"] == {"kind": "planted"}


def test_verify_intermediate_subgroup_borel(f7):
    checks = verify_intermediate_subgroup(f7, borel(f7))
    assert all(c["holds"] for c in checks), [c for c in checks if not c["holds"]]
    by_id = {c["id"]: c for c in checks}
    assert by_id["finite_index"]["details"]["index"] == 1
    assert by_id["finite_index"]["details"]["order"] == 252
