import numpy as np
import pytest

from netgalois.glnr import Instance
from netgalois.rings import RingSpec, pack_matrices, unpack_matrices


@pytest.fixture(scope="session")
def f7():
    return Instance(RingSpec(7, 1), 2)


@pytest.fixture(scope="session")
def z4():
    return Instance(RingSpec(2, 2), 2)


@pytest.fixture(scope="session")
def f2():
    return Instance(RingSpec(2, 1), 2)


@pytest.fixture(scope="session")
def f3():
    return Instance(RingSpec(3, 1), 2)


@pytest.fixture(scope="session")
def f5():
    return Instance(RingSpec(5, 1), 2)


@pytest.fixture(scope="session")
def z9():
    return Instance(RingSpec(3, 2), 2)


@pytest.fixture(scope="session")
def f3n3():
    return Instance(RingSpec(3, 1), 3)


@pytest.fixture(scope="session")
def z49():
    return Instance(RingSpec(7, 2), 2)


@pytest.fixture(scope="session")
def f7n3():
    # lattice-only instance; the full matrix group is never enumerated
    return Instance(RingSpec(7, 1), 3)


@pytest.fixture(scope="session")
def small_instances(f7, z4, f2):
    return {"f7": f7, "z4": z4, "f2": f2}


def _orbit_min(inst, code):
    """Smallest code over D a D, enumerated with numpy one left factor at a
    time: the reference for the double-coset keys and labels."""
    d_mats = inst.diagonal().mats().astype(np.int64)
    a = inst.mat_of_code(int(code))
    return min(
        int(pack_matrices((d1 @ a @ d_mats) % inst.modulus, inst.modulus).min())
        for d1 in d_mats
    )


@pytest.fixture(scope="session")
def orbit_min():
    return _orbit_min


def _element_closure(inst, generator_codes):
    """Sorted codes of <generators>, by element BFS: multiply the newest
    members by every generator until no product is new.  The reference for
    `coset_closure` and `close_subgroup`."""
    m = inst.modulus
    ident = inst.code_of_mat(inst.identity)
    gens = np.stack([inst.mat_of_code(int(c)) for c in generator_codes] + [inst.identity])
    members = np.unique(np.array([ident] + [int(c) for c in generator_codes], dtype=np.int64))
    frontier = members
    while frontier.size:
        mats = unpack_matrices(frontier, m, inst.n)
        prods = np.unique(pack_matrices((mats[:, None] @ gens[None]) % m, m))
        frontier = np.setdiff1d(prods, members)
        members = np.union1d(members, frontier)
    return members


@pytest.fixture(scope="session")
def element_closure():
    return _element_closure
