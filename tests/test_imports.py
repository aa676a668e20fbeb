"""Every module-level import in `src/netgalois` is read somewhere in its
module: an import nothing reads keeps dead code looking alive.  And only
`groups` reads `Instance._caches`, a `Subgroup`'s member masks or the
GL-aligned right-coset labels, so the cache layout, the subgroup
representation and the expansion to GL are decided in one module; nor
does any other module call `Subgroup.gl_mask` or `codes_at`.  And an
exhaustive run imports neither `numpy.random` nor `numpy.ma`: it draws
nothing, and no plain `np.unique` probes for masked arrays.  Stdlib only
(`ast`, `subprocess`), so it runs wherever the tests do."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "netgalois"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression of
    the module reads and `__all__` does not export."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .groups import fixer, normalizes\n"
        "from .lattice import FiniteLattice\n"
        "__all__ = ['FiniteLattice']\n"
        "def f(x: np.ndarray):\n"
        "    return fixer(x)\n"
    )
    assert unused_imports(source) == ["os", "normalizes"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def cache_accesses(source: str) -> list[tuple[str, bool]]:
    """(enclosing class and function names, whether it is a store) for each
    attribute named `_caches` in the module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_caches":
                found.append((".".join(scope), isinstance(child.ctx, ast.Store)))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_cache_accesses_are_found():
    source = (
        "class Instance:\n"
        "    def __init__(self):\n"
        "        self._caches: dict = {}\n"
        "    def table(self):\n"
        "        return self._caches.get('t')\n"
        "def f(inst):\n"
        "    inst._caches['x'] = 1\n"
    )
    assert cache_accesses(source) == [
        ("Instance.__init__", True),
        ("Instance.table", False),
        ("f", False),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_groups_reads_the_instance_caches(path):
    """`glnr` creates the store in `Instance.__init__`; no module but `groups`
    touches it otherwise."""
    if path.name == "groups.py":
        return
    allowed = {("Instance.__init__", True)} if path.name == "glnr.py" else set()
    assert set(cache_accesses(path.read_text(encoding="utf-8"))) <= allowed, path.name


SUBGROUP_MASKS = ("_mask", "_cosets")


def private_mask_reads(source: str) -> list[str]:
    """The `Subgroup` member-mask attributes the module reads or writes."""
    return [
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in SUBGROUP_MASKS
    ]


def test_private_mask_reads_are_found():
    source = (
        "def f(sub, other):\n"
        "    _mask = sub.gl_mask()\n"
        "    return sub._cosets[other._mask]\n"
    )
    assert private_mask_reads(source) == ["_cosets", "_mask"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_groups_reads_the_subgroup_masks(path):
    """Other modules go through `Subgroup`'s methods (`gl_mask`,
    `coset_mask`, `with_generators`, ...), never its masks."""
    if path.name == "groups.py":
        return
    assert private_mask_reads(path.read_text(encoding="utf-8")) == [], path.name


def gl_label_reads(source: str) -> list[int]:
    """Lines of the `right_cosets(...)` calls whose result is not read at
    [1], its reps: a read of [0] (the GL-aligned labels), an unpacking or
    any other use of the pair."""
    tree = ast.parse(source)
    reps_reads = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 1
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "right_cosets"
        and id(node) not in reps_reads
    )


def test_gl_label_reads_are_found():
    source = (
        "def f(inst, groups):\n"
        "    reps = right_cosets(inst)[1]\n"
        "    label = right_cosets(inst)[0]\n"
        "    label, reps = groups.right_cosets(inst)\n"
        "    return groups.right_cosets(inst)[1][label]\n"
    )
    assert gl_label_reads(source) == [3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_groups_reads_the_gl_aligned_coset_labels(path):
    """Outside `groups`, `right_cosets(...)` is read for its reps only:
    predicates on L0' are read per coset, and GL-aligned results are
    expanded by `groups` alone."""
    if path.name == "groups.py":
        return
    assert gl_label_reads(path.read_text(encoding="utf-8")) == [], path.name


GL_EXPANSIONS = ("gl_mask", "codes_at")


def gl_expansion_calls(source: str) -> list[int]:
    """Lines of the method calls named in `GL_EXPANSIONS`, a `Subgroup`
    expanded to GL positions or read at member ranks."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in GL_EXPANSIONS
    )


def test_gl_expansion_calls_are_found():
    source = (
        "def f(sub, ranks, gl_mask):\n"
        "    mask = sub.gl_mask()\n"
        "    cosets = sub.coset_mask()\n"
        "    picks = groups.Subgroup.codes_at(sub, ranks)\n"
        "    return mask, gl_mask(cosets), picks, sub.codes\n"
    )
    assert gl_expansion_calls(source) == [2, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_groups_expands_subgroups_over_gl(path):
    """Outside `groups` a subgroup is read by its coset mask, membership and
    generators; GL-aligned masks and ranked member draws stay in `groups`."""
    if path.name == "groups.py":
        return
    assert gl_expansion_calls(path.read_text(encoding="utf-8")) == [], path.name


UNIQUE_FLAGS = ("return_index", "return_inverse", "return_counts")


def plain_unique_calls(source: str) -> list[int]:
    """Lines of the `np.unique` calls that ask for none of `UNIQUE_FLAGS`:
    numpy >= 2.3 probes `np.ma.is_masked` on those, and its first call
    imports numpy.ma.  `rings.distinct` stands in for them."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and getattr(node.func.value, "id", None) in ("np", "numpy")
        and not any(
            kw.arg in UNIQUE_FLAGS
            and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
            for kw in node.keywords
        )
    )


def test_plain_unique_calls_are_found():
    source = (
        "def f(x, keys):\n"
        "    a = np.unique(x)\n"
        "    b = np.unique(x, return_index=True)[1]\n"
        "    c, d = np.unique(keys, axis=0, return_inverse=True)\n"
        "    e = numpy.unique(x, return_counts=False)\n"
        "    return np.unique(x, return_counts=True), distinct(x)\n"
    )
    assert plain_unique_calls(source) == [2, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_plain_unique_call(path):
    assert plain_unique_calls(path.read_text(encoding="utf-8")) == [], path.name


WATCHED = ("numpy.ma", "numpy.random")

LIBRARY_RUN = """
from netgalois.axioms import check_all
from netgalois.glnr import Instance
from netgalois.rings import RingSpec
from netgalois.sweep import sweep_cyclic
f7 = Instance(RingSpec(7, 1), 2)
assert len(check_all(f7)) == 17
assert sweep_cyclic(f7, jobs=1)["count"] == 2016
"""


def cli_run(*commands):
    """Child source running each CLI argument list on the F7 spec `f7.json`."""
    lines = ["from netgalois.cli import main"]
    for k, args in enumerate(commands):
        args = [*args, "--instance", "f7.json", "--out", f"report{k}.json"]
        lines.append(f"assert main({args!r}) == 0")
    return "\n".join(lines)


def loaded_after(body: str, cwd) -> list[str]:
    """The `WATCHED` modules loaded once `body` has run in a fresh
    interpreter; skips where importing numpy alone loads them."""
    (cwd / "f7.json").write_text(json.dumps({"ring": {"p": 7, "k": 1}, "n": 2}))
    loaded = f"[m for m in {WATCHED!r} if m in sys.modules]"
    script = "\n".join(
        ["import json, sys", "import numpy", f"startup = {loaded}", body,
         f"print(json.dumps([startup, {loaded}]))"]
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    startup, after = json.loads(proc.stdout.splitlines()[-1])
    if startup:
        pytest.skip(f"importing numpy alone loads {startup}")
    return after


@pytest.mark.parametrize(
    "body",
    [LIBRARY_RUN, cli_run(["check-axioms"], ["sweep", "--jobs", "1"])],
    ids=["library", "cli"],
)
def test_exhaustive_f7_runs_import_neither_numpy_random_nor_numpy_ma(body, tmp_path):
    """The exhaustive F7 axiom suite (17 verdicts) and the 2 016-row sweep."""
    assert loaded_after(body, tmp_path) == []


def test_a_sampled_sweep_imports_numpy_random(tmp_path):
    """Control: the detector sees the import a sampled sweep makes."""
    body = cli_run(["sweep", "--jobs", "1", "--sample", "3", "--conjugation-samples", "5"])
    assert "numpy.random" in loaded_after(body, tmp_path)
