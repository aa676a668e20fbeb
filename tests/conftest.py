import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from netgalois.glnr import Instance
from netgalois.rings import RingSpec, howell_form, pack_matrices, pack_vectors, unpack_matrices


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
def z8():
    return Instance(RingSpec(2, 3), 2)


@pytest.fixture(scope="session")
def f2n3():
    return Instance(RingSpec(2, 1), 3)


@pytest.fixture(scope="session")
def z4n3():
    return Instance(RingSpec(2, 2), 3)


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


def _member_mats(subgroup):
    """The (|S|, n, n) matrices of a subgroup's member codes, ascending;
    entries below the modulus, so int16 keeps GL-sized batches small."""
    inst = subgroup.instance
    return unpack_matrices(subgroup.codes, inst.modulus, inst.n, dtype=np.int16)


@pytest.fixture(scope="session")
def member_mats():
    return _member_mats


@pytest.fixture(scope="session")
def image_table():
    """(|GL|, N) table of g(x): the `gl_image` columns side by side."""
    return lambda inst: np.stack([inst.gl_image(x) for x in range(len(inst.lattice))], axis=1)


def _orbit_min(inst, code):
    """Smallest code over D a D, enumerated with numpy one left factor at a
    time: the reference for the double-coset keys and labels."""
    d_mats = _member_mats(inst.diagonal()).astype(np.int64)
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


def _act_reference(inst, mats, x):
    """Lattice index of g(x) for each matrix g of a (K, n, n) batch, by
    definition: the image rows v g^T of x's basis rows, their Howell form, and
    the lattice element with that form's label.  The reference for
    `act_batch`; it reads neither `cyclic_index` nor `join_table`.  Each
    distinct tuple of image rows is reduced once."""
    m = inst.modulus
    mats = np.asarray(mats).reshape(-1, inst.n, inst.n)
    rows = inst.basis_rows[x]
    if rows.size == 0:
        return np.full(len(mats), x, dtype=np.int64)
    out = np.empty(len(mats), dtype=np.int64)
    index = {}
    for start in range(0, len(mats), 1 << 16):
        block = mats[start : start + (1 << 16)].astype(np.int64)
        images = (rows @ np.swapaxes(block, -1, -2)) % m
        tuples = pack_vectors(images.reshape(len(images), -1), m)
        distinct, first, inverse = np.unique(tuples, return_index=True, return_inverse=True)
        for key, k in zip(distinct.tolist(), first.tolist()):
            if key not in index:
                form = howell_form(images[k], inst.ring)
                label = ";".join(",".join(str(v) for v in row) for row in form.tolist())
                index[key] = inst.lattice.label_index[label]
        out[start : start + len(images)] = np.array([index[k] for k in distinct.tolist()])[inverse]
    return out


@pytest.fixture(scope="session")
def act_reference():
    return _act_reference


_CLI = "import sys\nfrom netgalois.cli import main\nsys.exit(main(sys.argv[1:]))\n"

_PEAK_AT_EXIT = """
import atexit


def _write_peak(path={path!r}):
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(str(kb // 1024))


atexit.register(_write_peak)
"""


def _run_measured(args, script=_CLI, timeout=1200):
    """Run Python source (by default the CLI) with these arguments in a child
    process; return the completed process and the child's own peak RSS in MB,
    its VmHWM at exit (None if it was killed before its exit handlers ran).
    `RUSAGE_CHILDREN.ru_maxrss` would not do: Linux carries the spawning
    process's high-water mark across exec, so every child of the test session
    would read at least the session's peak."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "peak_mb")
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_AT_EXIT.format(path=path) + script, *args],
            capture_output=True, text=True, timeout=timeout, env=env,
        )
        if not os.path.exists(path):
            return proc, None
        with open(path) as fh:
            return proc, int(fh.read())


@pytest.fixture(scope="session")
def run_measured():
    return _run_measured
