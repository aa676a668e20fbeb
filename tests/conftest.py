import itertools
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from netgalois.glnr import DNet, Instance
from netgalois.groups import fixer, right_cosets, transvection_table
from netgalois.nets import enumerate_net_collections, net_fixer
from netgalois.rings import (
    RingSpec,
    det_batch,
    howell_form,
    pack_matrices,
    pack_vectors,
    span_codes,
    unpack_matrices,
    unpack_vectors,
)


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
    """(|GL|, N) table of g(x): one `act_batch` pass over `gl_codes` per element."""
    return lambda inst: np.stack([_gl_act(inst, x) for x in range(len(inst.lattice))], axis=1)


def _gl_act(inst, x):
    """g(x) for every g in GL, aligned with `gl_codes`, by one `act_batch` pass."""
    inst.gl()
    return inst.act_batch(inst.gl_codes, x)


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


def _dense_transvection_table(inst, i, j):
    """`transvection_table` gathered over GL by the right-coset labels: per
    position, the x of its transvection class for (i, j), else -1."""
    return transvection_table(inst, i, j)[right_cosets(inst)[0]]


@pytest.fixture(scope="session")
def dense_transvection_table():
    return _dense_transvection_table


def _transvection_table_reference(inst, i, j):
    """The dense table by its clauses, one GL-wide mask per clause: fixes
    every element below the other atoms, keeps the i-support of everything
    below atom i, and sends atom i to (atom i at i, x at j, bottom elsewhere).
    The reference for the per-coset `transvection_table`."""
    lat, frame, support = inst.lattice, inst.frame, inst.support_table
    e_i = frame.atoms[i]
    ok = np.ones(len(inst.gl()), dtype=bool)
    for s in range(inst.n):
        if s != i:
            for xs in frame.atom_downsets[s]:
                ok &= _gl_act(inst, xs) == xs
    for xi in frame.atom_downsets[i]:
        ok &= support[_gl_act(inst, xi), i] == xi
    img = support[_gl_act(inst, e_i)]
    others = np.delete(img, [i, j], axis=1)
    ok &= (img[:, i] == e_i) & np.all(others == lat.bottom, axis=1)
    out = np.full(len(ok), -1, dtype=np.int32)
    out[ok] = img[ok, j]
    return out


@pytest.fixture(scope="session")
def transvection_table_reference():
    return _transvection_table_reference


def _stable_lbar0_reference(inst, subgroup):
    """Members l of the componentwise span with g(l) in the span for every
    member g, read off an `act_batch` pass over the subgroup's member codes.
    The reference for `stable_lbar0`."""
    lbar0 = inst.frame.lbar0
    in_lbar0 = np.zeros(len(inst.lattice), dtype=bool)
    in_lbar0[list(lbar0)] = True
    codes = subgroup.codes
    return tuple(l for l in lbar0 if bool(np.all(in_lbar0[inst.act_batch(codes, l)])))


@pytest.fixture(scope="session")
def stable_lbar0_reference():
    return _stable_lbar0_reference


def _fixer_class_reference(inst):
    """The class lookup by fixer hashing: the sublattices of the base
    sublattice grouped by the `Subgroup.key` of their fixer, each key's
    generating set that of the first net fixer with that key (none if no net
    fixer has it).  Returns a lookup M -> (the member tuples of the class of
    fixer(M), that fixer's mask, its generator codes), found by the key of
    fixer(M).  The reference for `nets.fixer_class`."""
    by_key, gens = {}, {}
    for h in inst.lattice.enumerate_sublattices(universe=inst.l0_prime().members):
        by_key.setdefault(fixer(inst, h.members).key(), []).append(h.members)
    for net in enumerate_net_collections(inst):
        fx = net_fixer(inst, net)
        gens.setdefault(fx.key(), fx.generator_codes)

    def lookup(members):
        target = fixer(inst, members)
        return by_key[target.key()], target.gl_mask(), gens.get(target.key(), ())

    return lookup


@pytest.fixture(scope="session")
def fixer_class_reference():
    return _fixer_class_reference


def _net_subgroup_reference(inst, dnet):
    """Mask over GL of the invertible matrices whose (i, j) entry lies in
    (p^lev): entry (i, j) is base-m digit i n + j of the code, tested by
    division on every code.  The reference for `net_subgroup`."""
    m, n, p = inst.modulus, inst.n, inst.ring.p
    codes = inst.gl_codes
    mask = np.ones(codes.size, dtype=bool)
    for i, j in itertools.permutations(range(n), 2):
        lev = int(dnet.levels[i, j])
        if lev:
            mask &= codes // m ** (i * n + j) % p**lev == 0
    return mask


@pytest.fixture(scope="session")
def net_subgroup_reference():
    return _net_subgroup_reference


def _gl_codes_reference(inst):
    """Codes of GL by definition: every code of [0, m^(n^2)) whose
    determinant over Z/p^k is a unit.  The reference for `Instance.gl`."""
    m, n = inst.modulus, inst.n
    codes = np.arange(m ** (n * n), dtype=np.int64)
    return codes[det_batch(unpack_matrices(codes, m, n), m) % inst.ring.p != 0]


@pytest.fixture(scope="session")
def gl_codes_reference():
    return _gl_codes_reference


def _lattice_reference(ring, n):
    """The submodule lattice of R^n with one Howell form per vector, closed
    under joins with every cyclic submodule by Howell forms: its labels in
    lattice order (by size, then label), member sets, the index of Rv for
    every vector code v, basis rows and `act_batch` row tables.  The
    reference for `Instance._build_lattice`."""
    m = ring.modulus
    vecs = unpack_vectors(np.arange(m**n), m, n)
    forms, vec_keys = {}, []
    for v in vecs:
        form = howell_form(v[None, :], ring)
        forms.setdefault(form.tobytes(), form)
        vec_keys.append(form.tobytes())
    cyclic = list(forms.values())
    frontier = list(forms)
    while frontier:
        new = []
        for key in frontier:
            for c in cyclic:
                joined = howell_form(np.vstack([forms[key], c]), ring)
                if joined.tobytes() not in forms:
                    forms[joined.tobytes()] = joined
                    new.append(joined.tobytes())
        frontier = new
    spans = {key: span_codes(form, ring) for key, form in forms.items()}
    labels = {
        key: ";".join(",".join(str(v) for v in row) for row in form.tolist())
        for key, form in forms.items()
    }
    ordered = sorted(forms, key=lambda key: (spans[key].size, labels[key]))
    position = {key: i for i, key in enumerate(ordered)}
    membership = np.zeros((len(ordered), m**n), dtype=bool)
    for key in ordered:
        membership[position[key], spans[key]] = True
    basis_rows = [forms[key][np.any(forms[key], axis=1)] for key in ordered]
    return {
        "labels": [labels[key] for key in ordered],
        "membership": membership,
        "cyclic_index": np.array([position[key] for key in vec_keys]),
        "basis_rows": basis_rows,
        "row_tables": [
            np.array(
                [[[m**j * (r @ w % m) for w in vecs] for j in range(n)] for r in rows]
            ).reshape(len(rows), n, m**n)
            for rows in basis_rows
        ],
    }


@pytest.fixture(scope="session")
def lattice_reference():
    return _lattice_reference


def _support_brute(frame, x):
    """Componentwise minimum over all covering tuples: the exponential
    reference for `Frame.support`."""
    lat = frame.lattice
    best = None
    for parts in itertools.product(*frame.atom_downsets):
        if lat.leq(x, lat.join_many(parts)):
            best = list(parts) if best is None else [lat.meet(a, b) for a, b in zip(best, parts)]
    assert best is not None, f"element {x} is not covered by any componentwise tuple"
    assert lat.leq(x, lat.join_many(best)), f"covering tuples of {x} are not meet-closed"
    return frame.collection(best)


@pytest.fixture(scope="session")
def support_brute():
    return _support_brute


def _non_dnet_fixture(instance):
    """An order-3 ideal matrix violating the closure law, with a witness pair
    of member matrices whose product leaves the entrywise set."""
    assert instance.n == 3, "the negative fixture is built for n = 3"
    levels = np.zeros((3, 3), dtype=np.int64)
    levels[0, 2] = instance.ring.k  # sigma_01 * sigma_12 = R not inside sigma_02 = 0
    a = np.eye(3, dtype=np.int64)
    a[0, 1] = 1
    b = np.eye(3, dtype=np.int64)
    b[1, 2] = 1
    return DNet(instance.ring, levels), (a, b)


@pytest.fixture(scope="session")
def non_dnet_fixture():
    return _non_dnet_fixture


def _entrywise_member(instance, dnet, mat):
    """Whether a matrix is invertible with every off-diagonal entry in its
    prescribed ideal: membership in the entrywise net subgroup."""
    p = instance.ring.p
    for i, j in itertools.permutations(range(instance.n), 2):
        lev = int(dnet.levels[i, j])
        if lev and mat[i, j] % p**lev != 0:
            return False
    return int(det_batch(mat, instance.modulus)) % p != 0


@pytest.fixture(scope="session")
def entrywise_member():
    return _entrywise_member


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
