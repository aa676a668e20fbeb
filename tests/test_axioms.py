import numpy as np
import pytest

from netgalois.axioms import (
    CONDITION_IDS,
    PRIME_IDS,
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
    double_coset_labels,
    transvection_table,
    transvections,
)
from netgalois.rings import RingSpec


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
    pf = f7.perm(f7.mat_of_code(w["f"]))
    pg = f7.perm(f7.mat_of_code(w["g"]))
    for u in f7.frame.atom_downsets[i]:
        assert f7.support_table[pf[u], j] == f7.support_table[pg[u], j]


def test_atom_restorer_kills_target_support(f7):
    """Companion to the atom-restoring condition: the transvection found for
    an element of full i-support maps it to something with zero j-support."""
    v = check_condition(f7, "9")
    assert v.holds
    dims = f7.lattice.dimensions()
    for i, j in ((0, 1), (1, 0)):
        table = transvection_table(f7, i, j)
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


def test_sampled_conditions_hold_z49(z49):
    for cid in ("3", "5", "6", "11"):
        v = check_condition(z49, cid, samples=10)
        assert v.holds, (cid, v.witness)


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


def _reference_cond_11(inst, samples=None, seed=0):
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
        return inst.perm(inst.mat_of_code(int(code)))

    pairs = [(i, j) for i in range(inst.n) for j in range(inst.n) if i != j]
    axis_perms = []
    for t in range(inst.n):
        seen, hs = set(), []
        for h_code in axis_subgroup(inst, t).codes.tolist():
            ph = perm(h_code)
            if ph.tobytes() not in seen:
                seen.add(ph.tobytes())
                hs.append((h_code, ph))
        axis_perms.append(hs)
    closures = {}
    for a_code in codes:
        pa = perm(a_code)
        painv = perm(inst.code_of_mat(inst.inv(inst.mat_of_code(a_code))))
        key = double_coset_key(inst, a_code)
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


def _assert_cond_11_matches_reference(inst, samples=None, seed=0):
    holds, witness = _reference_cond_11(inst, samples=samples, seed=seed)
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
def test_condition_11_matches_reference_exhaustively(name, request):
    _assert_cond_11_matches_reference(request.getfixturevalue(name))


@pytest.mark.parametrize("name,samples", [("f5", 7), ("z9", 20), ("f3n3", 30)])
@pytest.mark.parametrize("seed", [0, 1])
def test_condition_11_matches_reference_sampled(name, samples, seed, request):
    _assert_cond_11_matches_reference(request.getfixturevalue(name), samples=samples, seed=seed)


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


def test_double_coset_labels_match_keys(f3, f7, z4):
    for inst in (f3, f7):
        codes = inst.gl().codes
        assert double_coset_labels(inst, codes).tolist() == [
            double_coset_key(inst, c) for c in codes.tolist()
        ]
    sample = np.random.default_rng(0).choice(z4.gl().codes, size=12, replace=True)
    assert double_coset_labels(z4, sample).tolist() == [
        double_coset_key(z4, c) for c in sample.tolist()
    ]


def test_condition_11_call_counts(monkeypatch):
    """The exhaustive F7 check makes no per-element permutation or
    membership calls: only the axis subgroups call Instance.perm (once per
    diagonal element and axis), and each double-coset label costs one
    membership pass."""
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
    labels = np.unique(double_coset_labels(inst, inst.gl().codes))
    assert calls["perm"] <= 2 * len(inst.diagonal())
    assert calls["contains_many"] <= labels.size
