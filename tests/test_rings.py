import itertools

import numpy as np
import pytest

from netgalois.errors import InputError
from netgalois.rings import (
    RingSpec,
    det_batch,
    distinct,
    howell_form,
    inv_batch,
    inv_single,
    mat_mul,
    pack_matrices,
    pack_vectors,
    span_codes,
    unpack_matrices,
    unpack_vectors,
)

RINGS = [RingSpec(2, 1), RingSpec(3, 1), RingSpec(2, 2), RingSpec(7, 1), RingSpec(7, 2)]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_ring_basics(ring):
    assert ring.modulus == ring.p**ring.k
    units = ring.units()
    assert len(units) == ring.unit_count
    for u in units:
        assert u * ring.inv(u) % ring.modulus == 1
    assert ring.valuation(0) == ring.k
    assert ring.ideal_generator(0) == 1
    assert ring.ideal_generator(ring.k) == 0


def test_ring_spec_rejects_bad_input():
    with pytest.raises(InputError):
        RingSpec(6, 1)
    with pytest.raises(InputError):
        RingSpec(7, 0)
    with pytest.raises(InputError):
        RingSpec.from_json({"kind": "prime_field", "p": 7, "k": 2})


@pytest.mark.parametrize(
    "p, k", [(2**61 - 1, 1), (2, 10**9), (55_109, 1), (7, 6), (2, 16), (1, 10**9), (7, 0)]
)
def test_ring_spec_refuses_oversized_rings_at_once(p, k):
    """Matrix codes of rank n >= 2 reach m^4 and are int64, so p^k <= 55 108:
    a larger ring is refused before the primality test and before p^k is
    formed, so a huge p or k is refused at once."""
    with pytest.raises(InputError):
        RingSpec(p, k)


def test_ring_spec_admits_the_largest_rings_whose_codes_fit():
    assert 55_108**4 < 2**63 <= 55_109**4
    assert RingSpec(55_103, 1).modulus == 55_103  # the largest prime <= 55 108
    assert RingSpec(2, 15).modulus == 2**15 and RingSpec(37, 3).modulus == 50_653
    with pytest.raises(InputError):
        RingSpec(55_107, 1)  # 27 x 13 x 157, refused by the primality test


@pytest.mark.parametrize("p, n", [(131, 3), (2, 8), (2, 10**9)])
def test_instance_refuses_matrix_codes_beyond_int64(p, n):
    """An instance whose m^(n^2) matrix codes overflow int64 is an input
    error raised before its lattice is built."""
    from netgalois.glnr import Instance

    with pytest.raises(InputError, match="overflow int64"):
        Instance(RingSpec(p, 1), n)


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(7)
    for m, n in [(7, 2), (49, 2), (4, 3)]:
        vecs = rng.integers(0, m, size=(50, n))
        assert np.array_equal(unpack_vectors(pack_vectors(vecs, m), m, n), vecs)
        mats = rng.integers(0, m, size=(50, n, n))
        assert np.array_equal(unpack_matrices(pack_matrices(mats, m), m, n), mats)


def test_distinct_matches_np_unique():
    rng = np.random.default_rng(0)
    for values in [
        np.array([], dtype=np.int64),
        np.array([5]),
        rng.integers(-3, 4, size=50),
        rng.integers(0, 9, size=(6, 7)).astype(np.uint16),
    ]:
        got, want = distinct(values), np.unique(values)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 1), RingSpec(2, 1)], ids=str)
def test_howell_form_is_canonical(ring):
    """Equal row span <=> equal form, over all 1- and 2-row matrices."""
    m = ring.modulus
    vecs = list(itertools.product(range(m), repeat=2))
    by_span = {}
    mats = [np.array([v], dtype=np.int64) for v in vecs]
    mats += [np.array([v, w], dtype=np.int64) for v in vecs for w in vecs]
    for mat in mats:
        key = tuple(span_codes(mat, ring).tolist())
        form = howell_form(mat, ring).tobytes()
        assert by_span.setdefault(key, form) == form
    assert len(set(by_span.values())) == len(by_span)


def test_howell_form_annihilator_shadow():
    # the span of (2, 1) over Z/4 contains (0, 2), which needs its own row
    ring = RingSpec(2, 2)
    form = howell_form(np.array([[2, 1]]), ring)
    assert form.tolist() == [[2, 1], [0, 2]]


@pytest.mark.parametrize("ring", [RingSpec(7, 1), RingSpec(7, 2), RingSpec(2, 2)], ids=str)
def test_inverses(ring):
    rng = np.random.default_rng(11)
    m = ring.modulus
    mats = []
    while len(mats) < 40:
        cand = rng.integers(0, m, size=(2, 2))
        det = (cand[0, 0] * cand[1, 1] - cand[0, 1] * cand[1, 0]) % m
        if ring.is_unit(int(det)):
            mats.append(cand)
    mats = np.stack(mats)
    invs = inv_batch(mats, ring)
    prods = mat_mul(mats, invs, m)
    assert np.all(prods == np.eye(2, dtype=np.int64)[None, :, :] % m)
    for idx in range(10):
        assert np.array_equal(inv_single(mats[idx], ring), invs[idx])


@pytest.mark.parametrize(
    "ring,n",
    [
        (RingSpec(7, 1), 2),
        (RingSpec(3, 2), 2),
        (RingSpec(3, 1), 3),
        pytest.param(RingSpec(2, 2), 3, marks=pytest.mark.slow),
    ],
    ids=["gl2-f7", "gl2-z9", "gl3-f3", "gl3-z4"],
)
def test_inv_batch_matches_inv_single_on_all_of_gl(ring, n):
    m = ring.modulus
    mats = unpack_matrices(np.arange(m ** (n * n), dtype=np.int64), m, n)
    mats = mats[det_batch(mats, m) % ring.p != 0]
    invs = inv_batch(mats, ring)
    assert all(np.array_equal(inv_single(a, ring), inv) for a, inv in zip(mats, invs))
    with pytest.raises(NotImplementedError):
        inv_batch(np.eye(4, dtype=np.int64)[None], ring)


def test_inverse_rejects_singular():
    ring = RingSpec(7, 1)
    with pytest.raises(ZeroDivisionError):
        inv_single(np.array([[1, 1], [1, 1]]), ring)
