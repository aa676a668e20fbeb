import hashlib
import json

import numpy as np
import pytest

from netgalois.axioms import (
    CONDITION_IDS,
    PRIME_IDS,
    _first_order_violation,
    check_all,
    check_condition,
    replay_witness,
)
from netgalois.glnr import Instance
from netgalois.groups import (
    Subgroup,
    axis_subgroup,
    coset_closure,
    double_coset_key,
    coset_image,
    right_cosets,
    scalar_coset_key,
    transvections,
)
from netgalois.rings import RingSpec, pack_matrices, unpack_matrices


def test_structural_conditions_trivial(f7, z4, z49):
    for inst in (f7, z4, z49):
        assert check_condition(inst, "1").holds
        v = check_condition(inst, "2")
        assert v.holds and v.found["m"] == inst.ring.k


def test_condition_12(f7, z49, f2):
    for inst in (f7, z49):
        assert check_condition(inst, "12").holds
    # the two-element field has a trivial stabiliser, so the fixed sublattice
    # is everything and the inclusion genuinely fails
    v = check_condition(f2, "12")
    assert not v.holds and v.witness["elements"]


def test_all_conditions_hold_exhaustively_f7(f7):
    verdicts = check_all(f7)
    assert [v.id for v in verdicts] == [
        "1", "2", "3", "4", "4", "5", "6", "7", "8", "9", "10", "11", "12",
        "1'", "2'", "3'", "4'",
    ]
    for v in verdicts:
        assert v.exhaustive, v.id
        assert v.holds, (v.id, v.mode, v.witness)
    modes = [v.mode for v in verdicts if v.id == "4"]
    assert modes == ["weak", "strong"]


def test_rank_one_conditions_included_only_when_applicable(z4, f2):
    # atoms of height two: the rank-one specialisation does not apply
    ids = [v.id for v in check_all(z4, conditions=None, samples=5)]
    assert not any(i in PRIME_IDS for i in ids)
    # height one but the fixed sublattice outgrows the frame: also excluded
    ids = [v.id for v in check_all(f2, conditions=None, samples=5)]
    assert not any(i in PRIME_IDS for i in ids)


def test_existential_conditions_record_found_witness(f7):
    for cid in ("3", "5", "8", "9"):
        v = check_condition(f7, cid)
        assert v.holds and v.found is not None


def test_found_witness_for_support_transfer_is_genuine(f7):
    """The recorded witness for the signature-matching condition really does
    share the whole signature with its group element."""
    v = check_condition(f7, "8")
    w = v.found
    i, j = w["i"], w["j"]
    pf = f7.perm([w["f"]])[0]
    pg = f7.perm([w["g"]])[0]
    for u in f7.frame.atom_downsets[i]:
        assert f7.support_table[pf[u], j] == f7.support_table[pg[u], j]


def test_atom_restorer_kills_target_support(f7, dense_transvection_table):
    """Companion to the atom-restoring condition: the transvection found for
    an element of full i-support maps it to something with zero j-support."""
    v = check_condition(f7, "9")
    assert v.holds
    dims = f7.lattice.dimensions()
    for i, j in ((0, 1), (1, 0)):
        table = dense_transvection_table(f7, i, j)
        real = set(np.unique(table[table >= 0]).tolist())
        for u in range(len(f7.lattice)):
            st = f7.support_table[u]
            if int(dims[u]) != f7.frame.m or int(st[i]) != f7.atoms[i]:
                continue
            x = int(st[j])
            if x not in real:
                continue
            hits = [
                c
                for c in transvections(f7, i, j, x).tolist()
                if f7.act(f7.mat_of_code(c), u) == f7.atoms[i]
            ]
            assert hits
            t = hits[0]
            assert int(f7.support_table[f7.act(f7.mat_of_code(t), u), j]) == f7.lattice.bottom


def test_sampled_mode_is_deterministic(z49):
    a = check_all(z49, conditions=["7", "8", "9"], seed=3, samples=30)
    b = check_all(z49, conditions=["7", "8", "9"], seed=3, samples=30)
    assert [(v.id, v.holds, v.witness) for v in a] == [(v.id, v.holds, v.witness) for v in b]
    for v in a:
        assert v.holds, (v.id, v.witness)


@pytest.mark.parametrize(
    "p, k, n", [(2, 1, 2), (2, 2, 2), (7, 1, 2), (3, 2, 2), (3, 1, 3)],
    ids=["f2", "z4", "f7", "z9", "f3n3"],
)
def test_exhaustive_conditions_build_no_generator(monkeypatch, p, k, n):
    """`samples=None` draws nothing, so no checker needs a generator: every
    condition, both readings of 4, runs with `default_rng` raising.  A fresh
    instance, so no cached table stands in for a checker's own work."""

    def no_generator(*args, **kwargs):
        raise AssertionError("an exhaustive run built a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    verdicts = check_all(Instance(RingSpec(p, k), n), CONDITION_IDS + PRIME_IDS)
    assert len(verdicts) == len(CONDITION_IDS) + len(PRIME_IDS) + 1
    assert all(v.exhaustive for v in verdicts)


def test_sampled_conditions_hold_z49(z49):
    for cid in ("3", "5", "6", "11"):
        v = check_condition(z49, cid, samples=10)
        assert v.holds, (cid, v.witness)


def test_sampled_conditions_read_gl_columns_of_atom_downsets_only(monkeypatch):
    """On a fresh Z/49 instance the sampled outer elements and the axis
    candidates get their lattice rows from `Instance.perm`, and no element
    is acted on by all of GL: the right cosets of D are labelled by column
    keys, and the images of elements below an atom are read per coset."""
    inst = Instance(RingSpec(7, 2), 2)
    size, built, act_batch = len(inst.gl()), set(), Instance.act_batch

    def counted(self, codes, x):
        if np.size(codes) == size:
            built.add(int(x))
        return act_batch(self, codes, x)

    monkeypatch.setattr(Instance, "act_batch", counted)
    for cid in ("3", "5", "6", "11"):
        assert check_condition(inst, cid, samples=10).holds, cid
    assert built == set()
    inst.act_batch(inst.gl_codes, inst.atoms[0])  # the count works
    assert built == {inst.atoms[0]}


@pytest.mark.slow
def test_condition_10_sampled_z49(z49):
    v = check_condition(z49, "10", samples=3)
    assert v.holds, v.witness


def test_report_only_small_field_emits_verdicts(f2):
    """The two-element field sits outside the residue-size hypothesis; the
    checkers still run and report, nothing is asserted."""
    verdicts = check_all(f2)
    assert len(verdicts) >= len(CONDITION_IDS)
    assert any(not v.holds for v in verdicts)  # small fields genuinely fail some
    for v in verdicts:
        if not v.holds:
            assert v.witness is not None


def test_failing_witnesses_replay(f2):
    replayed = 0
    for v in check_all(f2):
        if not v.holds and v.witness is not None:
            assert replay_witness(f2, v.witness), v.witness
            replayed += 1
    assert replayed > 0


def test_witness_replay_rejects_fixed_instance(f7, f2):
    """A witness from the failing instance does not incriminate the good one
    unless the predicate genuinely fails there."""
    failing = [v for v in check_all(f2) if not v.holds and "condition" in (v.witness or {})]
    for v in failing:
        if v.id in ("3'", "1'"):
            continue
        # ids/codes are instance-specific; replaying on the wrong instance
        # must not crash, and simply reports whether the tuple fails there
        try:
            replay_witness(f7, v.witness)
        except (KeyError, IndexError):
            pytest.fail("replay crashed on foreign witness")


def _reference_cond_11(inst, orbit_min, samples=None, seed=0):
    """Condition 11 as a per-element loop, the brute force the array program
    must match: for each outer a, each distinct axis permutation h and each
    pair (i, j), some member of T(i, j, x) with x = [a h a^-1 e_i]_j must lie
    in <D, a>.  Returns (holds, witness) with the first failure in
    (a, t, h, (i, j)) order."""
    g = inst.gl()
    if samples is None:
        codes = g.codes.tolist()
    else:
        codes = np.random.default_rng(seed).choice(g.codes, size=samples, replace=True).tolist()

    def perm(code):
        return inst.perm([code])[0]

    pairs = [(i, j) for i in range(inst.n) for j in range(inst.n) if i != j]
    axis_perms = []
    for t in range(inst.n):
        seen, hs = set(), []
        for h_code in axis_subgroup(inst, t).tolist():
            ph = perm(h_code)
            if ph.tobytes() not in seen:
                seen.add(ph.tobytes())
                hs.append((h_code, ph))
        axis_perms.append(hs)
    closures = {}
    for a_code in codes:
        pa = perm(a_code)
        painv = perm(inst.code_of_mat(inst.inv(inst.mat_of_code(a_code))))
        key = orbit_min(inst, a_code)
        if key not in closures:
            closures[key] = coset_closure(inst, inst.diagonal(), [a_code])
        closure = closures[key]
        for t, hs in enumerate(axis_perms):
            for h_code, ph in hs:
                for i, j in pairs:
                    x = int(inst.support_table[pa[ph[painv[inst.atoms[i]]]], j])
                    if not np.any(closure.contains_many(transvections(inst, i, j, x))):
                        return False, {"a": a_code, "t": t, "h": h_code, "i": i, "j": j, "x": x}
    return True, None


def _assert_cond_11_matches_reference(inst, orbit_min, samples=None, seed=0):
    holds, witness = _reference_cond_11(inst, orbit_min, samples=samples, seed=seed)
    for cid in ("11", "4'"):
        v = check_condition(inst, cid, seed=seed, samples=samples)
        assert v.holds == holds, (cid, v.witness, witness)
        assert v.exhaustive == (samples is None)
        if witness is None:
            assert v.witness is None
        else:
            assert v.witness == {"condition": cid, "mode": "as_stated", **witness}
    return witness


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f5", "f7", "z9"])
def test_condition_11_matches_reference_exhaustively(name, request, orbit_min):
    _assert_cond_11_matches_reference(request.getfixturevalue(name), orbit_min)


@pytest.mark.parametrize("name,samples", [("f5", 7), ("z9", 20), ("f3n3", 30)])
@pytest.mark.parametrize("seed", [0, 1])
def test_condition_11_matches_reference_sampled(name, samples, seed, request, orbit_min):
    inst = request.getfixturevalue(name)
    _assert_cond_11_matches_reference(inst, orbit_min, samples=samples, seed=seed)


def test_condition_11_first_failure_witnesses(f3, f5, z9):
    expected = [
        (f3, {"a": 41, "t": 0, "h": 29, "i": 0, "j": 1, "x": 1}),
        (f5, {"a": 159, "t": 0, "h": 127, "i": 0, "j": 1, "x": 1}),
        (z9, {"a": 821, "t": 0, "h": 731, "i": 0, "j": 1, "x": 5}),
    ]
    for inst, witness in expected:
        v = check_condition(inst, "11")
        assert not v.holds
        assert v.witness == {"condition": "11", "mode": "as_stated", **witness}
        assert replay_witness(inst, v.witness)


def test_double_coset_labels_match_keys(f3, f7, z4, orbit_min):
    """The labels the axioms read from the batched key are the brute-force
    orbit minima, and a batch labels each code as a call on that code alone."""
    for inst in (f3, f7):
        codes = inst.gl().codes
        expected = [orbit_min(inst, c) for c in codes.tolist()]
        assert double_coset_key(inst, codes).tolist() == expected
        picks = np.random.default_rng(1).choice(codes.size, size=40, replace=False)
        singles = [int(double_coset_key(inst, [codes[i]])[0]) for i in picks]
        assert singles == [expected[i] for i in picks]
    sample = np.random.default_rng(0).choice(z4.gl().codes, size=12, replace=True)
    expected = [orbit_min(z4, c) for c in sample.tolist()]
    assert double_coset_key(z4, sample).tolist() == expected
    assert [int(double_coset_key(z4, [c])[0]) for c in sample.tolist()] == expected


def test_condition_6_pair_classes_match_full_table(f7, z9):
    """The pair-class search returns argwhere's first (f, g) over the full
    |G| x |G| table, on random support arrays that hold and that fail."""
    rng = np.random.default_rng(6)
    outcomes = []
    for inst in (f7, z9):
        lat = inst.lattice
        for trial in range(40):
            pool = rng.choice(len(lat), size=int(rng.integers(1, 5)), replace=False)
            a = rng.choice(pool, size=int(rng.integers(1, 200)))
            b = a.copy() if trial % 5 == 0 else rng.choice(pool, size=a.size)
            hyp = lat.meet_table[a[:, None], a[None, :]] == a[:, None]
            concl = lat.meet_table[b[:, None], b[None, :]] == b[:, None]
            viol = np.argwhere(hyp & ~concl)
            expected = tuple(int(v) for v in viol[0]) if viol.size else None
            assert _first_order_violation(lat, a, b) == expected
            outcomes.append(expected)
    assert None in outcomes
    assert any(w is not None and w[0] > 0 for w in outcomes)


def test_condition_11_call_counts(monkeypatch):
    """The exhaustive F7 check makes no per-element permutation or
    membership calls: Instance.perm runs once over the outer elements and
    twice per axis (its subgroup, then its rows), and each double-coset label
    costs one membership pass."""
    inst = Instance(RingSpec(7, 1), 2)
    calls = {"perm": 0, "contains_many": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Instance, "perm", counted("perm", Instance.perm))
    monkeypatch.setattr(Subgroup, "contains_many", counted("contains_many", Subgroup.contains_many))
    assert check_condition(inst, "11").holds
    labels = np.unique(double_coset_key(inst, inst.gl().codes))
    assert calls["perm"] <= 1 + 2 * inst.n
    assert calls["contains_many"] <= labels.size


# -- conditions 3, 4 and 5 against their per-element loops --------------------


def _reference_outer(inst, samples, seed):
    """(code, permutation row) of each outer element: all of GL in code order,
    or the seeded sample the checkers draw; rows come from act_batch."""
    codes = inst.gl().codes
    if samples is not None:
        codes = codes[np.random.default_rng(seed).choice(codes.size, size=samples, replace=True)]
    return list(zip(codes.tolist(), _reference_rows(inst, codes)))


def _reference_rows(inst, codes):
    return np.stack([inst.act_batch(codes, x) for x in range(len(inst.lattice))], axis=1)


def _reference_axis(inst, i):
    """The axis member set the checkers read, planted ones included."""
    return axis_subgroup(inst, i)


def _reference_column(inst, x):
    """The GL-aligned image column of an L0' element the checkers read,
    planted coset columns included: its coset column gathered by label."""
    return coset_image(inst, x)[right_cosets(inst)[0]]


def _reference_coded_rows(inst, codes):
    return list(zip(codes.tolist(), _reference_rows(inst, codes)))


def _reference_cond_3(inst, mode, samples, seed):
    """Condition 3 as a loop over outer a, then axis members h in code order."""
    support, outer, found = inst.support_table, _reference_outer(inst, samples, seed), None
    for i in range(inst.n):
        e_i = inst.atoms[i]
        hi_perms = _reference_coded_rows(inst, _reference_axis(inst, i))
        downset = inst.frame.atom_downsets[i]
        for a_code, pa in outer:
            if int(support[pa[e_i], i]) != e_i:
                continue
            hit = None
            for h_code, ph in hi_perms:
                if all(
                    int(support[ph[pa[x]], i]) == x and int(support[pa[ph[x]], i]) == x
                    for x in downset
                ):
                    hit = h_code
                    break
            if hit is None:
                return False, {"i": i, "a": a_code}, found
            if found is None:
                found = {"i": i, "a": a_code, "h": hit}
    return True, None, found


def _reference_cond_4(inst, mode, samples, seed):
    """Condition 4 as loops; the strong reading needs one h for every outer a."""
    support, n = inst.support_table, inst.n
    outer = [(a, pa, np.argsort(pa)) for a, pa in _reference_outer(inst, samples, seed)]
    found = None
    for t in range(n):
        # the h must also fix the componentwise span, which every axis
        # candidate does (test_axis_candidates_fix_the_componentwise_span)
        ht_perms = _reference_coded_rows(inst, _reference_axis(inst, t))
        for i in range(n):
            downset = inst.frame.atom_downsets[i]
            rs = [r for r in range(n) if r != i]

            def h_works(ph, pa, painv):
                for x in downset:
                    lhs_elt = pa[ph[painv[x]]]
                    rhs_elt = pa[support[painv[x], t]]
                    for r in rs:
                        if support[lhs_elt, r] != support[rhs_elt, r]:
                            return False
                return True

            if mode == "strong":
                ok_h = None
                for h_code, ph in ht_perms:
                    if all(h_works(ph, pa, painv) for _, pa, painv in outer):
                        ok_h = h_code
                        break
                if ok_h is None:
                    return False, {"t": t, "i": i}, found
                if found is None:
                    found = {"t": t, "i": i, "h": ok_h}
            else:
                for a, pa, painv in outer:
                    hit = next((hc for hc, ph in ht_perms if h_works(ph, pa, painv)), None)
                    if hit is None:
                        return False, {"t": t, "i": i, "a": a}, found
                    if found is None:
                        found = {"t": t, "i": i, "a": a, "h": hit}
    return True, None, found


def _reference_cond_5(inst, mode, samples, seed):
    """Condition 5 as loops over i, u in L-bar-0 above e_i, outer g and the
    allowed images w = t(e_i), each with its first t."""
    support, lat, outer, found = inst.support_table, inst.lattice, None, None
    outer = _reference_outer(inst, samples, seed)
    for i in range(inst.n):
        e_i = inst.atoms[i]
        keep = np.ones(len(inst.gl()), dtype=bool)
        for s in range(inst.n):
            if s != i:
                keep &= _reference_column(inst, inst.atoms[s]) == inst.atoms[s]
        w_vals = _reference_column(inst, e_i)
        w_to_t = {}
        for idx in np.nonzero(keep)[0].tolist():
            w_to_t.setdefault(int(w_vals[idx]), int(inst.gl_codes[idx]))
        for u in inst.frame.lbar0:
            if not lat.leq(e_i, u):
                continue
            allowed = [
                (w, t_code)
                for w, t_code in sorted(w_to_t.items())
                if all(lat.leq(int(support[w, j]), int(support[u, j])) for j in range(inst.n))
            ]
            for g_code, pg in outer:
                if int(support[pg[u], i]) != e_i:
                    continue
                hit = next(
                    ((w, t_code) for w, t_code in allowed if int(support[pg[w], i]) == e_i),
                    None,
                )
                if hit is None:
                    return False, {"i": i, "u": int(u), "g": g_code}, found
                if found is None:
                    found = {"i": i, "u": int(u), "g": g_code, "t": hit[1]}
    return True, None, found


def _reference_cond_6(inst, mode, samples, seed):
    """Condition 6 as loops over i, j, x in L0' below e_i and every pair
    (f, g) of GL elements in row-major code order, or over the seeded pairs
    and then x: [f(e_i)]_j <= [g(e_i)]_j must give [f(x)]_j <= [g(x)]_j."""
    support, lat, codes = inst.support_table, inst.lattice, inst.gl().codes
    l0p = set(inst.l0_prime().members)
    if samples is not None:
        pairs = np.random.default_rng(seed).integers(0, codes.size, size=(samples, 2)).tolist()

    def leq(a, b):
        return lat.meet_table[a, b] == a

    def failure(i, j, x, f, g):
        return False, {"i": i, "j": j, "x": int(x), "f": int(codes[f]), "g": int(codes[g])}, None

    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            sij = support[_reference_column(inst, inst.atoms[i]), j]
            xs = [x for x in inst.frame.atom_downsets[i] if x in l0p]
            sx = {x: support[_reference_column(inst, x), j] for x in xs}
            if samples is None:
                for x in xs:
                    for f in range(codes.size):
                        bad = leq(sij[f], sij) & ~leq(sx[x][f], sx[x])
                        if bad.any():
                            return failure(i, j, x, f, int(np.argmax(bad)))
                continue
            for f, g in pairs:
                if leq(sij[f], sij[g]):
                    for x in xs:
                        if not leq(sx[x][f], sx[x][g]):
                            return failure(i, j, x, f, g)
    return True, None, None


def _reference_cond_8(inst, mode, samples, seed):
    """Condition 8 as a loop over pairs (i, j) and outer f, every GL element
    in code order or the seeded draw: f's signature ([f(u)]_j for every u
    below e_i) must be that of some member of T(i, j, x), x = [f(e_i)]_j.
    The found record names the first passing f and the smallest member of
    its T(i, j, x)."""
    support, codes = inst.support_table, inst.gl().codes
    outer = range(codes.size)
    if samples is not None:
        outer = np.random.default_rng(seed).choice(codes.size, size=samples, replace=True).tolist()
    found = None
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            downset = inst.frame.atom_downsets[i]
            sig = np.stack([support[_reference_column(inst, u), j] for u in downset], axis=1)
            sij = support[_reference_column(inst, inst.atoms[i]), j]
            members = {}
            for x in np.unique(sij).tolist():
                t_codes = transvections(inst, i, j, x)
                at = np.searchsorted(codes, t_codes)
                members[x] = t_codes, {tuple(s) for s in sig[at].tolist()}
            for f in outer:
                t_codes, signatures = members[int(sij[f])]
                if tuple(sig[f].tolist()) not in signatures:
                    return False, {"i": i, "j": j, "f": int(codes[f])}, found
                if found is None:
                    found = {"i": i, "j": j, "f": int(codes[f]), "g": int(t_codes[0])}
    return True, None, found


_REFERENCES = [
    ("3", "as_stated", _reference_cond_3),
    ("4", "weak", _reference_cond_4),
    ("4", "strong", _reference_cond_4),
    ("5", "as_stated", _reference_cond_5),
    ("6", "as_stated", _reference_cond_6),
    ("8", "as_stated", _reference_cond_8),
]


def _assert_matches_references(inst, samples=None, seed=0):
    """Whole records of conditions 3, 4 (both readings), 5, 6 and 8 against
    the loops; returns the reference outcomes."""
    outcomes = []
    for cid, mode, reference in _REFERENCES:
        holds, witness, found = reference(inst, mode, samples, seed)
        expected = {
            "id": cid,
            "mode": mode,
            "holds": holds,
            "witness": None if witness is None else {"condition": cid, "mode": mode, **witness},
            "found": found,
            "exhaustive": samples is None,
            "samples": samples,
            "details": {},
        }
        record = check_condition(inst, cid, mode=mode, seed=seed, samples=samples).to_record()
        assert record == expected, (cid, mode)
        outcomes.append((cid, mode, holds, found is not None))
    return outcomes


@pytest.mark.parametrize("name", ["f2", "z4", "f3", "f5", "f7", "z9", "z8", "f2n3"])
def test_conditions_3_4_5_match_references_exhaustively(name, request):
    _assert_matches_references(request.getfixturevalue(name))


@pytest.mark.parametrize("name,samples", [("f3n3", 30), ("z4n3", 12)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conditions_3_4_5_match_references_sampled(name, samples, seed, request):
    _assert_matches_references(request.getfixturevalue(name), samples=samples, seed=seed)


@pytest.mark.parametrize("ring", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3)])
@pytest.mark.parametrize("samples", [None, 40])
def test_conditions_3_4_5_match_references_on_planted_failures(ring, samples):
    """Conditions 3 and 5 hold on the instances above, so plant smaller
    member sets on fresh instances: a few GL elements as each axis subgroup
    (conditions 3 and 4 pick h from these) and, as each atom's coset column,
    a few right cosets of D that keep the atom while the rest send it to
    bottom (condition 5 picks t from the cosets fixing the other atoms;
    conditions 6 and 8 read the planted columns as the atoms' images, and
    8 fails wherever they leave a value with no transvection)."""
    outcomes = []
    for trial in range(4):
        inst = Instance(RingSpec(*ring), 2)
        rng = np.random.default_rng(trial)
        size = len(inst.gl())

        def planted():
            return inst.gl_codes[np.sort(rng.choice(size, size=min(size, 1 + trial), replace=False))]

        for i in range(inst.n):
            inst._caches[("axis_subgroup", i)] = planted()
        cosets, dtype = len(right_cosets(inst)[1]), np.min_scalar_type(len(inst.lattice) - 1)
        for atom in inst.atoms:
            column = np.full(cosets, inst.lattice.bottom, dtype=dtype)
            column[rng.choice(cosets, size=min(cosets, 1 + trial), replace=False)] = atom
            inst._caches[("coset_image", int(atom))] = column
        outcomes += _assert_matches_references(inst, samples=samples, seed=trial)
    # condition 6 fails on the planted columns of Z/4 and Z/8 only, in both modes
    assert {cid for cid, _, holds, _ in outcomes if not holds} - {"6"} == {"3", "4", "5", "8"}
    # a failure after a pass carries both the witness and the found record
    assert any(not holds and found for _, _, holds, found in outcomes)


@pytest.mark.parametrize("name", ["f2", "z4", "z8", "f3", "z9", "f7", "z49", "f2n3", "f3n3"])
def test_axis_candidates_fix_the_componentwise_span(name, request):
    """Condition 4 asks its h to fix the componentwise span; the checker
    takes that as given.  The span lies in L0', the elements D fixes, and
    every axis candidate, a member of D, fixes each span element."""
    inst = request.getfixturevalue(name)
    lbar0 = list(inst.frame.lbar0)
    assert set(lbar0) <= set(inst.l0_prime().members)
    d_codes = inst.diagonal().codes
    for t in range(inst.n):
        axis = axis_subgroup(inst, t)
        assert np.all(np.isin(axis, d_codes))
        assert np.array_equal(inst.perm(axis)[:, lbar0], np.tile(lbar0, (axis.size, 1)))


@pytest.mark.parametrize("name", ["f7", "z9", "f3n3"])
def test_scalar_coset_keys_share_lattice_rows(name, request, image_table):
    """The key is the smallest code of u a over the units u, and every GL
    element acts on the lattice as its key does."""
    inst = request.getfixturevalue(name)
    codes, m = inst.gl().codes, inst.modulus
    keys = scalar_coset_key(inst, codes)
    mats = unpack_matrices(codes, m, inst.n)
    brute = np.min([pack_matrices(u * mats % m, m) for u in inst.ring.units()], axis=0)
    assert np.array_equal(keys, brute)
    assert np.unique(keys).size * len(inst.ring.units()) == codes.size
    table = image_table(inst)
    assert np.array_equal(table, table[np.searchsorted(codes, keys)])


def test_exhaustive_f3n3_fails_11_and_4p_with_replayable_witnesses(f3n3):
    verdicts = check_all(f3n3)
    assert all(v.exhaustive and v.samples is None for v in verdicts)
    assert [v.id for v in verdicts if not v.holds] == ["11", "4'"]
    for v in verdicts:
        if not v.holds:
            assert replay_witness(f3n3, v.witness), v.witness


@pytest.mark.slow
def test_exhaustive_z49_suite_stays_under_the_memory_cap(tmp_path, run_measured):
    """Conditions 1-12 in the default mode on Z/49 (|GL| = 4 840 416) in a
    subprocess: exhaustive verdicts, the child's own peak RSS under the 2 GB
    cap and under 700 MB, and every failing witness replays.  The outer
    elements' lattice permutations come from `Instance.perm` over their codes,
    not from a `gl_image` column of every lattice element.  The report's
    bytes are pinned: its found records and witnesses name the first element
    in code order of each loop over GL."""
    spec = tmp_path / "z49n2.json"
    spec.write_text(json.dumps({"ring": {"kind": "chain", "p": 7, "k": 2}, "n": 2}))
    out = tmp_path / "axioms.json"
    args = ["check-axioms", "--conditions", "1-12", "--report-only", "--out", str(out)]
    proc, peak_mb = run_measured(args + ["--instance", str(spec)])
    assert proc.returncode == 0, proc.stderr
    verdicts = json.loads(out.read_text())["verdicts"]
    assert len(verdicts) == 13
    assert all(v["exhaustive"] and v["samples"] is None for v in verdicts)
    digest = "e8650602411acaa8410c43419d3a9db934f78319efc8c7ac9fa236192520fd62"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert peak_mb < 2048
    assert peak_mb < 700
    proc, _ = run_measured(["replay", "--report", str(out), "--instance", str(spec)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    failing = sum(not v["holds"] for v in verdicts)
    assert f"{failing} reproduced" in proc.stdout
