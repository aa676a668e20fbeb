import pytest

from netgalois.glnr import Instance
from netgalois.rings import RingSpec


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
