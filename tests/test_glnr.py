import itertools
import json
from math import gcd

import numpy as np
import pytest

from netgalois import glnr, rings
from netgalois.errors import CapExceeded, InputError
from netgalois.glnr import (
    DNet,
    Instance,
    bridge_to_collection,
    bridge_to_dnet,
    enumerate_dnets,
    gl_order,
    net_subgroup,
    verified_net_subgroup,
    verify_sandwich,
)
from netgalois.groups import (
    Subgroup,
    coset_closure,
    coset_image,
    double_coset_key,
    fixer,
    right_cosets,
)
from netgalois.nets import enumerate_net_collections
from netgalois.rings import mat_mul, unpack_matrices


def subgroup_count_by_divisor_formula(m: int) -> int:
    """Number of subgroups of Z_m x Z_m, by the classical gcd-sum formula:
    the independent oracle for lattice sizes."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    return sum(gcd(a, b) for a in divisors for b in divisors)


def test_lattice_sizes_against_divisor_formula(f7, z4, f2, z49):
    assert len(f7.lattice) == subgroup_count_by_divisor_formula(7) == 10
    assert len(z4.lattice) == subgroup_count_by_divisor_formula(4) == 15
    assert len(f2.lattice) == subgroup_count_by_divisor_formula(2) == 5
    assert len(z49.lattice) == subgroup_count_by_divisor_formula(49) == 75


def test_z4_lattice_equals_brute_force_subgroup_enumeration(z4):
    """Enumerate subgroups of Z_4 x Z_4 as raw sets of pairs: every pair of
    generators, closed under addition."""
    m = 4
    vecs = list(itertools.product(range(m), repeat=2))
    subgroups = set()
    for v in vecs:
        for w in vecs:
            members = {(0, 0)}
            frontier = [(0, 0)]
            while frontier:
                cur = frontier.pop()
                for g in (v, w):
                    nxt = ((cur[0] + g[0]) % m, (cur[1] + g[1]) % m)
                    if nxt not in members:
                        members.add(nxt)
                        frontier.append(nxt)
            subgroups.add(frozenset(members))
    lattice_sets = set()
    for x in range(len(z4.lattice)):
        codes = np.nonzero(z4.membership[x])[0]
        lattice_sets.add(frozenset((int(c) % m, int(c) // m) for c in codes))
    assert lattice_sets == subgroups


def test_group_orders_against_lift_formula(f7, z4, z49):
    assert gl_order(f7.ring, 2) == 2016
    assert len(f7.gl()) == 2016
    assert gl_order(z4.ring, 2) == 6 * 2**4 == 96
    assert len(z4.gl()) == 96
    assert gl_order(z49.ring, 2) == 2016 * 7**4
    assert len(z49.gl()) == 2016 * 7**4
    assert len(f7.diagonal()) == 36
    assert len(z49.diagonal()) == 42**2


def test_gl_cap(f7n3):
    with pytest.raises(CapExceeded):
        f7n3.gl(cap=1000)


def test_invertibility_matches_row_reduction(f7):
    """Determinant-is-a-unit against independent Gaussian rank computation."""

    def row_rank_mod_p(mat, p):
        m = [row[:] for row in mat.tolist()]
        rank = 0
        for col in range(2):
            piv = next((r for r in range(rank, 2) if m[r][col] % p), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = pow(m[rank][col], -1, p)
            m[rank] = [(v * inv) % p for v in m[rank]]
            for r in range(2):
                if r != rank and m[r][col] % p:
                    f = m[r][col]
                    m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
            rank += 1
        return rank

    gl_codes = set(f7.gl().codes.tolist())
    for code in range(7**4):
        mat = f7.mat_of_code(code)
        invertible = row_rank_mod_p(mat, 7) == 2
        assert (code in gl_codes) == invertible


def test_matrix_action_against_raw_image(f7, z4):
    """Image submodule computed by transforming the full vector set."""
    rng = np.random.default_rng(21)
    for inst in (f7, z4):
        m = inst.modulus
        for code in rng.choice(inst.gl().codes, size=12, replace=False).tolist():
            g = inst.mat_of_code(int(code))
            for x in range(len(inst.lattice)):
                vec_codes = np.nonzero(inst.membership[x])[0]
                vecs = np.stack([np.array([c % m, c // m]) for c in vec_codes.tolist()])
                imgs = (vecs @ g.T) % m
                img_codes = sorted(set(int(a + m * b) for a, b in imgs.tolist()))
                target = [
                    y
                    for y in range(len(inst.lattice))
                    if sorted(np.nonzero(inst.membership[y])[0].tolist()) == img_codes
                ]
                assert len(target) == 1
                assert inst.act(g, x) == target[0]


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f2n3", "z4n3", "f3n3"])
def test_gl_codes_are_the_codes_with_unit_determinant(name, request, gl_codes_reference):
    """GL read off the column classes against the determinant of every code."""
    inst = request.getfixturevalue(name)
    inst.gl()
    assert np.array_equal(inst.gl_codes, gl_codes_reference(inst))


_PREWARM = """
import sys
from netgalois.glnr import Instance
from netgalois.rings import RingSpec
from netgalois.sweep import prewarm

inst = Instance(RingSpec(int(sys.argv[1]), int(sys.argv[2])), int(sys.argv[3]))
inst.gl(cap=int(sys.argv[4]))
prewarm(inst, cap=int(sys.argv[4]))
print(len(inst.gl()))
"""


@pytest.mark.slow
@pytest.mark.parametrize(
    "args, order, limit_mb",
    [(["7", "2", "2", "5000000"], 4_840_416, 80), (["7", "1", "3", "40000000"], 33_784_128, 450)],
    ids=["z49", "f7n3"],
)
def test_gl_and_prewarm_stay_under_their_memory_caps(run_measured, args, order, limit_mb):
    """GL, its right-coset labels and `prewarm` in a subprocess whose own
    peak RSS stays under the cap: 80 MB on Z/49 and 450 MB on F7 rank 3,
    where GL and the labels come from one pass over the code grid with no
    GL-sized temporaries beyond the codes and labels it keeps, and the codes
    are held in uint32."""
    proc, peak_mb = run_measured(args, script=_PREWARM)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[0]) == order
    assert peak_mb < limit_mb


_F7N3_SAMPLED = """
from netgalois.axioms import check_all
from netgalois.glnr import Instance
from netgalois.rings import RingSpec
from netgalois.sweep import prewarm, sweep_cyclic

inst = Instance(RingSpec(7, 1), 3)
inst.gl(cap=40_000_000)
prewarm(inst, cap=40_000_000)
verdicts = check_all(inst, samples=20, seed=1)
payload = sweep_cyclic(
    inst, sample=4, seed=1, jobs=1, cap=40_000_000, conjugation_samples=100
)
print(len(verdicts), payload["count"])
"""


@pytest.mark.slow
def test_f7n3_sampled_suite_and_sweep_stay_under_450mb(run_measured):
    """F7 rank 3: GL, `prewarm`, the sampled axiom suite and a 4-row sampled
    sweep in one subprocess whose own peak RSS stays under 450 MB."""
    proc, peak_mb = run_measured([], script=_F7N3_SAMPLED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "4"
    assert peak_mb < 450


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "z9", "f3n3", "z4n3"])
def test_lattice_matches_one_form_per_vector(name, request, lattice_reference):
    """The lattice built from one Howell form per unit orbit, with joins
    skipped on a size certificate, against one form per vector and every join
    by its form: same labels in the same order, member sets, cyclic indices,
    basis rows and row tables."""
    inst = request.getfixturevalue(name)
    ref = lattice_reference(inst.ring, inst.n)
    assert inst.lattice.labels == ref["labels"]
    assert np.array_equal(inst.membership, ref["membership"])
    assert np.array_equal(inst.cyclic_index, ref["cyclic_index"])
    for got, expect in zip(inst.basis_rows, ref["basis_rows"], strict=True):
        assert np.array_equal(got, expect)
    for got, expect in zip(inst.row_tables, ref["row_tables"], strict=True):
        assert np.array_equal(got, expect)


def test_z49_lattice_takes_one_howell_form_per_submodule(monkeypatch):
    """A fresh Z/49 build forms each of the 65 cyclic submodules once, from
    one vector of its unit orbit, and each of the other 10 once, as a join the
    size certificate did not find among the known submodules (one form per
    vector and per join made 7 276)."""
    calls = []
    howell_form = rings.howell_form

    def counted(*args, **kwargs):
        calls.append(1)
        return howell_form(*args, **kwargs)

    monkeypatch.setattr(rings, "howell_form", counted)
    inst = Instance(rings.RingSpec(7, 2), 2)
    assert len(inst.lattice) == len(calls) == 75


def test_z49_setup_acts_on_all_of_gl_for_the_atoms_only(monkeypatch):
    """Set-up on a fresh Z/49 (GL, then `prewarm`) makes no `act_batch` pass
    over `gl_codes` that does work, not even for the atoms: the right-coset
    labels come from column keys, and every image of an L0' element is read
    per coset.  One pass made on purpose afterwards shows the count works."""
    from netgalois import sweep

    passes = []
    act_batch = Instance.act_batch

    def counted(self, codes, x):
        if np.size(codes) == len(getattr(self, "gl_codes", ())) and len(self.row_tables[x]):
            passes.append(int(x))
        return act_batch(self, codes, x)

    monkeypatch.setattr(Instance, "act_batch", counted)
    inst = Instance(rings.RingSpec(7, 2), 2)
    inst.gl()
    sweep.prewarm(inst, cap=10_000_000)
    assert passes == []
    inst.act_batch(inst.gl_codes, inst.atoms[0])
    assert passes == [inst.atoms[0]]


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "f7", "z9", "f3n3"])
def test_gl_image_is_the_action_on_all_of_gl(name, request, act_reference, member_mats):
    """The image of every element under all of GL against the action by
    definition: `act_batch` over `gl_codes` for every element, and for every
    L0' element also its coset column gathered by the right-coset labels."""
    inst = request.getfixturevalue(name)
    mats = member_mats(inst.gl())
    l0p = inst.l0_prime()
    for x in range(len(inst.lattice)):
        expect = act_reference(inst, mats, x)
        assert np.array_equal(inst.act_batch(inst.gl_codes, x), expect)
        if x in l0p:
            col = coset_image(inst, x)[right_cosets(inst)[0]]
            assert col.dtype == np.min_scalar_type(len(inst.lattice) - 1)
            assert np.array_equal(col, expect)


@pytest.mark.slow
def test_act_batch_matches_reference_on_sampled_z49_codes(z49, act_reference):
    rng = np.random.default_rng(49)
    codes = rng.choice(z49.gl().codes, size=20_000, replace=False)
    mats = unpack_matrices(codes, z49.modulus, z49.n)
    for x in range(len(z49.lattice)):
        assert np.array_equal(z49.act_batch(codes, x), act_reference(z49, mats, x))


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f3n3"])
def test_gl_positions_index_every_code(name, request):
    """Membership read off the columns against brute force: every code of
    [0, m^(n^2)) and the two integers just outside it, on D, GL, a fixer and
    a <D, g>; a GL code's position is its rank in `gl_codes`, and the GL
    mask marks exactly the members' positions."""
    inst = request.getfixturevalue(name)
    gl = inst.gl()
    assert np.array_equal(np.searchsorted(inst.gl_codes, inst.gl_codes), np.arange(len(gl)))
    codes = np.arange(-1, inst.modulus ** (inst.n**2) + 1)
    g_code = int(inst.gl_codes[len(gl) // 3])
    subgroups = [
        inst.diagonal(),
        gl,
        fixer(inst, [inst.atoms[0]]),
        coset_closure(inst, inst.diagonal(), [g_code]),
    ]
    for sub in subgroups:
        assert np.array_equal(sub.contains_many(codes), np.isin(codes, sub.codes))
        assert np.array_equal(np.flatnonzero(sub.gl_mask()), np.searchsorted(inst.gl_codes, sub.codes))


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9", "f3n3"])
def test_lattice_tables_are_intersections_and_sums(name, request):
    """Brute force over all pairs: the meet's member set is a ∩ b, the
    join's is {u + v : u in a, v in b}."""
    inst = request.getfixturevalue(name)
    m, n, members, lat = inst.modulus, inst.n, inst.membership, inst.lattice
    vecs = rings.unpack_vectors(np.arange(m**n), m, n)
    for a, b in itertools.product(range(len(lat)), repeat=2):
        assert np.array_equal(members[lat.meet_table[a, b]], members[a] & members[b])
        sums = np.zeros(m**n, dtype=bool)
        sums[rings.pack_vectors((vecs[members[a]][:, None] + vecs[members[b]]) % m, m)] = True
        assert np.array_equal(members[lat.join_table[a, b]], sums)


@pytest.mark.parametrize("drop, message", [(0, "intersections"), (-1, "sums")], ids=["bottom", "top"])
def test_lattice_certificates_catch_a_family_not_closed(f3, drop, message):
    """Without the zero submodule two atoms have no meet; without the whole
    module two atoms have no join.  The full family gives the lattice's tables."""
    meet, join = glnr.lattice_tables(f3.membership)
    assert np.array_equal(meet, f3.lattice.meet_table)
    assert np.array_equal(join, f3.lattice.join_table)
    with pytest.raises(RuntimeError, match=f"not closed under {message}"):
        glnr.lattice_tables(np.delete(f3.membership, drop, axis=0))


def test_act_batch_chunks_agree_with_single_action(f7, monkeypatch, act_reference, member_mats):
    """A batch split into chunks, the last one partial, gives the same images."""
    monkeypatch.setattr(glnr, "ACT_CHUNK", 7)
    codes = f7.gl().codes[:30]
    mats = member_mats(f7.gl())[:30]
    for x in range(len(f7.lattice)):
        imgs = f7.act_batch(codes, x)
        assert imgs.dtype == np.int64
        assert imgs.tolist() == [f7.act(g, x) for g in mats]
        assert np.array_equal(imgs, act_reference(f7, mats, x))


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f7", "z9"])
def test_perm_rows_are_the_action(name, request, act_reference, member_mats):
    """Row k of `perm` is g_k applied to every lattice element, in the
    lattice dtype, for all of GL; an empty batch has no rows."""
    inst = request.getfixturevalue(name)
    gl = inst.gl()
    rows = inst.perm(gl.codes)
    assert rows.shape == (len(gl), len(inst.lattice))
    assert rows.dtype == np.min_scalar_type(len(inst.lattice) - 1)
    mats = member_mats(gl)
    for x in range(len(inst.lattice)):
        assert np.array_equal(rows[:, x], act_reference(inst, mats, x))
    assert inst.perm([]).shape == (0, len(inst.lattice))


def test_unit_powers_are_computed_once_per_instance(monkeypatch):
    """A fresh Z/49 prewarm and a two-row sweep ask for D's generators many
    times, and the powers of the 42 units behind them are computed once."""
    from netgalois import sweep

    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(glnr, "pow", counted, raising=False)
    inst = Instance(rings.RingSpec(7, 2), 2)
    sweep.prewarm(inst, cap=10_000_000)
    sweep.sweep_cyclic(inst, sample=2, seed=7, jobs=1)
    units = inst.ring.unit_count
    assert len(calls) == units**2 == 42**2
    assert inst._unit_group_generators() == (3,)


def test_identity_and_diagonal_fix_coordinates(f7):
    ident_perm = f7.perm([f7.code_of_mat(f7.identity)])[0]
    assert np.array_equal(ident_perm, np.arange(len(f7.lattice)))
    diag = np.diag(np.array([2, 1]))
    perm = f7.perm([f7.code_of_mat(diag)])[0]
    for x in (f7.lattice.bottom, *f7.atoms, f7.lattice.top):
        assert perm[x] == x


def test_elementary_transvection_classes(f7, z49):
    from netgalois.groups import classify_transvection

    assert classify_transvection(f7, f7.elementary(0, 1, 0), 0, 1) == f7.lattice.bottom
    assert classify_transvection(f7, f7.elementary(0, 1, 1), 0, 1) == f7.atoms[1]
    x = classify_transvection(z49, z49.elementary(0, 1, 7), 0, 1)
    assert z49.lattice.labels[x] == "0,7;0,0"


def test_dnet_law(z49, f7):
    assert DNet(z49.ring, [[0, 1], [2, 0]]).is_valid()
    assert DNet(f7.ring, [[0, 1], [1, 0]]).is_valid()
    with pytest.raises(InputError):
        DNet(f7.ring, [[0, 2], [0, 0]])  # level beyond the chain
    bad = DNet(z49.ring, np.array([[1, 0], [0, 0]]))
    assert bad.law_violation() == (0, 0, 0)


def test_enumerate_dnets_counts(f7, z49, f7n3):
    assert len(enumerate_dnets(f7)) == 4
    assert len(enumerate_dnets(z49)) == 9
    # rank three over a field: the law cuts 2^6 candidates down
    nets3 = enumerate_dnets(f7n3)
    for net in nets3:
        assert net.is_valid()
    assert len(nets3) < 2**6


def test_non_dnet_fixture_not_closed(f7n3, non_dnet_fixture, entrywise_member):
    bad, (a, b) = non_dnet_fixture(f7n3)
    assert not bad.is_valid()
    assert entrywise_member(f7n3, bad, a)
    assert entrywise_member(f7n3, bad, b)
    prod = mat_mul(a, b, f7n3.modulus)
    assert not entrywise_member(f7n3, bad, prod)


def test_net_subgroup_orders(f7):
    full = net_subgroup(f7, DNet(f7.ring, [[0, 0], [0, 0]]))
    assert len(full) == 2016
    diag_only = net_subgroup(f7, DNet(f7.ring, [[0, 1], [1, 0]]))
    assert np.array_equal(diag_only.codes, f7.diagonal().codes)
    one_sided = net_subgroup(f7, DNet(f7.ring, [[0, 0], [1, 0]]))
    assert len(one_sided) == 252


@pytest.mark.parametrize("name", ["z4", "z8", "z9", "z49", "f7", "z4n3"])
def test_net_subgroup_matches_division_reference(
    name, request, net_subgroup_reference, non_dnet_fixture
):
    """The outer table of the row tables against dividing every code, for
    every D-net (and, at rank 3, an ideal matrix that breaks the D-net law)."""
    inst = request.getfixturevalue(name)
    dnets = enumerate_dnets(inst)
    if inst.n == 3:
        dnets.append(non_dnet_fixture(inst)[0])
    for dnet in dnets:
        got = net_subgroup(inst, dnet).gl_mask()
        assert np.array_equal(got, net_subgroup_reference(inst, dnet)), dnet.levels.tolist()


def test_verified_net_subgroup_matches_entrywise(f7, z4):
    for inst in (f7, z4):
        for dnet in enumerate_dnets(inst):
            sub = verified_net_subgroup(inst, dnet)
            plain = net_subgroup(inst, dnet)
            assert np.array_equal(sub.codes, plain.codes)


def test_bridge_roundtrip_and_transposition(f7, z49):
    for inst in (f7, z49):
        for net in enumerate_net_collections(inst):
            dnet = bridge_to_dnet(inst, net)
            assert dnet.is_valid()
            assert bridge_to_collection(inst, dnet) == net
    # lattice-side entry at (0, 1) shows up transposed on the ideal side
    sub_ideal = z49.element_by_label("0,7;0,0")
    tau = np.array(
        [[z49.atoms[0], sub_ideal], [z49.lattice.bottom, z49.atoms[1]]]
    )
    from netgalois.nets import NetCollection

    dnet = bridge_to_dnet(z49, NetCollection(z49, tau))
    assert dnet.levels.tolist() == [[0, 2], [1, 0]]


def test_net_subgroup_equals_canonical_fixer(f7):
    """Ideal-matrix membership agrees with fixing the canonical sublattice."""
    from netgalois.nets import canonical_sublattice, net_fixer

    for net in enumerate_net_collections(f7):
        dnet = bridge_to_dnet(f7, net)
        assert np.array_equal(
            verified_net_subgroup(f7, dnet).codes, net_fixer(f7, net).codes
        )


def test_verify_sandwich_examples(f7):
    d = f7.diagonal()
    checks = verify_sandwich(f7, d)
    assert all(c["holds"] for c in checks), [c for c in checks if not c["holds"]]
    by_id = {c["id"]: c for c in checks}
    assert by_id["dnet_law"]["details"]["levels"] == [[0, 1], [1, 0]]

    b = coset_closure(f7, d, [f7.code_of_mat(f7.elementary(0, 1, 1))])
    checks = verify_sandwich(f7, b)
    assert all(c["holds"] for c in checks)

    gl = Subgroup(
        f7,
        f7.gl().coset_mask(),
        generator_codes=tuple(
            f7.diagonal_generator_codes()
            + [
                f7.code_of_mat(f7.elementary(0, 1, 1)),
                f7.code_of_mat(f7.elementary(1, 0, 1)),
            ]
        ),
    )
    checks = verify_sandwich(f7, gl)
    assert all(c["holds"] for c in checks)
    by_id = {c["id"]: c for c in checks}
    assert by_id["dnet_law"]["details"]["levels"] == [[0, 0], [0, 0]]


def test_instance_json_roundtrip(f7, tmp_path):
    path = tmp_path / "inst.json"
    data = f7.to_json()
    assert data["atoms"] == [f7.lattice.labels[a] for a in f7.atoms]
    path.write_text(json.dumps(data))
    again = Instance.from_json(json.loads(path.read_text()))
    assert again.describe() == f7.describe()
    assert len(again.lattice) == len(f7.lattice)
    with pytest.raises(InputError):
        Instance.from_json({"schema_version": 2, "ring": {"p": 7, "k": 1}, "n": 2})
    with pytest.raises(InputError):
        Instance.from_json({"ring": {"p": 7, "k": 1}, "n": 1})
    with pytest.raises(InputError):
        Instance.from_json({"ring": {"p": 7, "k": 1}, "n": 2, "atoms": ["bogus", "labels"]})


MALFORMED_INSTANCES = {
    "list": [1],
    "text": "x",
    "n-text": {"ring": {"p": 7}, "n": "two"},
    "n-null": {"ring": {"p": 7}, "n": None},
    "n-float": {"ring": {"p": 7}, "n": 2.5},
    "n-integral-float": {"ring": {"p": 7}, "n": 2.0},
    "n-boolean": {"ring": {"p": 7}, "n": True},
    "atoms-number": {"ring": {"p": 7}, "n": 2, "atoms": 5},
    "ring-text": {"ring": "F7", "n": 2},
    "p-float": {"ring": {"p": 7.9}, "n": 2},
    "p-missing": {"ring": {"k": 1}, "n": 2},
    "k-text": {"ring": {"p": 7, "k": "1"}, "n": 2},
}


@pytest.mark.parametrize("obj", MALFORMED_INSTANCES.values(), ids=MALFORMED_INSTANCES.keys())
def test_malformed_instance_json_is_an_input_error(obj):
    """Instance and ring specs take JSON objects and JSON integers only:
    nothing is truncated, cast or left to fail with a traceback."""
    with pytest.raises(InputError):
        Instance.from_json(obj)


def test_rank_three_lattice(f7n3):
    # subspace counts by rank: 1 + 57 + 57 + 1
    assert len(f7n3.lattice) == 116
    dims = f7n3.lattice.dimensions()
    from collections import Counter

    assert Counter(int(d) for d in dims) == {0: 1, 1: 57, 2: 57, 3: 1}
    assert f7n3.frame.m == 1
    assert len(f7n3.frame.l0.members) == 8
    # the stabiliser-fixed sublattice comes from D's generators: |GL(3, 7)|
    # is above the default group cap, so GL must stay unenumerated
    assert f7n3.l0_prime().members == f7n3.frame.l0.members
    assert f7n3._gl is None


def test_ideal_elements(z49):
    for atom in range(2):
        assert z49.ideal_element(0, atom) == z49.atoms[atom]
        assert z49.ideal_element(2, atom) == z49.lattice.bottom
        mid = z49.ideal_element(1, atom)
        assert z49.lattice.dimension(mid) == 1
        assert z49.ideal_level_of(mid, atom) == 1
    with pytest.raises(InputError):
        z49.ideal_level_of(z49.lattice.top, 0)


def test_exhaustive_sandwich_builds_no_generator(monkeypatch):
    """Without conjugation samples the normality check draws nothing, so
    `verify_sandwich` runs on every subgroup of F7's sweep with
    `default_rng` raising.  A fresh instance, so nothing is cached."""

    def no_generator(*args, **kwargs):
        raise AssertionError("an exhaustive check built a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    f7 = Instance(rings.RingSpec(7, 1), 2)
    f7.gl()
    reps = np.unique(double_coset_key(f7, f7.gl_codes), return_index=True)[1]
    subgroups = {}
    for g in f7.gl_codes[reps].tolist():
        sub = coset_closure(f7, f7.diagonal(), [g])
        subgroups[sub.fingerprint()] = sub
    assert len(subgroups) == 5  # the F7 sweep report's subgroups
    for sub in subgroups.values():
        checks = verify_sandwich(f7, sub, conjugation_samples=None)
        assert all(c["holds"] for c in checks), [c["id"] for c in checks if not c["holds"]]
