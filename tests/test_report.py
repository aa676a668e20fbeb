"""`report.canonical_json` writes exactly the bytes of
`json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)` and a
newline, on the library's own reports and on shapes that reach each of its
three encoder cases and their edges; an unserialisable value raises json's
own TypeError in each case.  And `cli.jsonable`, which prepares reports for
it, returns what its plain recursive form returned."""

import json
from collections import OrderedDict

import numpy as np
import pytest

from netgalois import report
from netgalois.axioms import check_all
from netgalois.cli import jsonable
from netgalois.glnr import Instance
from netgalois.rings import RingSpec
from netgalois.sweep import sweep_cyclic


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@pytest.fixture(scope="module")
def library_reports(f7, f2):
    axioms = report.make_report(
        "check-axioms",
        f7.describe(),
        7,
        verdicts=[v.to_record() for v in check_all(f7, seed=7)],
    )
    f7_sweep = report.make_report("sweep", f7.describe(), 7, **sweep_cyclic(f7, seed=7, jobs=1))
    f2_sweep = report.make_report("sweep", f2.describe(), 7, **sweep_cyclic(f2, seed=7, jobs=1))
    lattice = Instance(RingSpec(7, 2), 2).lattice.to_json()
    return {"f7-axioms": axioms, "f7-sweep": f7_sweep, "f2-sweep": f2_sweep, "lattice": lattice}


def test_library_reports_match_json_dumps(library_reports):
    f2_sweep = library_reports["f2-sweep"]
    assert not f2_sweep["all_hold"]
    assert any(c["witness"] is not None for s in f2_sweep["subgroups"].values() for c in s["checks"])
    assert len(library_reports["f7-sweep"]["rows"]) == 2016
    for name, rep in library_reports.items():
        rep = jsonable(rep)
        assert report.canonical_json(rep) == reference(rep), name


TRICKY = ["},\n      {", "],", "], [", "[", "]", "{", "}", "é中 ", '"', "\\", "\t", "\n", "\x00", ""]
SCALARS = [None, True, False, 0, -1, 10**30, float("nan"), float("inf"), -float("inf"), -0.0, 1e30, 0.1]
FLAT = {f"k{i}": v for i, v in enumerate(SCALARS + TRICKY)}

SHAPES = [
    *SCALARS,
    *TRICKY,
    # empty containers at every depth
    [], {}, (), [[]], [{}], [()], {"a": {}}, {"a": []}, [[], {}], [[[]]], {"a": {"b": {"c": {}}}},
    {"a": [{"b": []}]}, [{"a": {}}, {"a": {}}],
    # a list of dicts containing one {}
    [{"a": 1}, {}], [{}, {"a": 1}], [FLAT, {}, FLAT],
    # lists mixing dicts and scalars, dicts and lists
    [{"a": 1}, 3, {"b": 2}], [3, {"a": 1}], [[1, 2], {"a": 1}], [{"a": 1}, [1]],
    # rows of one kind, flat or not
    [{"a": 1}, {"b": 2}], [dict(FLAT, i=i) for i in range(5)], [[1, 2], (3, 4)], [(1,), [2, "],"]],
    [{"a": [1]}, {"b": 2}], [[{"a": 1}], [{"b": 2}]], [[[1]], [[2]]], [TRICKY, TRICKY],
    [{"},\n      {": "},\n      {"}, {"a": "],\n    ["}], [["],\n      [", "x"], ["y"]],
    # dicts of flat lists, and tuples
    {"a": [1, 2], "b": (3, "x"), "c": [], "d": ()}, {"rows": [dict(FLAT, i=i) for i in range(3)], "z": 1},
    {"z": [TRICKY, TRICKY], "y": [[TRICKY]], "x": FLAT}, (1, (2, 3), {"a": (4,)}),
    OrderedDict([("b", 1), ("a", [{"q": 1}])]),
    # keys json coerces to strings
    {1: "a", 2: [1]}, {1.5: [1], 2.5: 2}, {True: [1], False: {}}, {None: [1]}, {float("nan"): [{}]},
    {"k": [{"a": {"b": [1, {"c": []}]}}]},
]


@pytest.mark.parametrize("obj", SHAPES, ids=range(len(SHAPES)))
def test_shapes_match_json_dumps(obj):
    assert report.canonical_json(obj) == reference(obj)


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}], ids=["int64", "set"])
@pytest.mark.parametrize(
    "where",
    [
        lambda bad: {"a": 1, "b": bad},  # flat dict: one encoder call
        lambda bad: [{"a": 1}, {"a": 2, "b": bad}],  # rows: one call and a replace
        lambda bad: {"a": {"b": [1]}, "c": {"d": {"e": bad}}},  # nested dict: the loop
        lambda bad: {"a": [1], "b": bad},  # a scalar beside a container
    ],
    ids=["flat", "rows", "nested", "beside"],
)
def test_unserialisable_values_raise_jsons_type_error(bad, where):
    obj = where(bad)
    with pytest.raises(TypeError, match="is not JSON serializable") as mine:
        report.canonical_json(obj)
    with pytest.raises(TypeError) as theirs:
        reference(obj)
    assert str(mine.value) == str(theirs.value)


@pytest.mark.parametrize("obj", [{(1,): 2}, {"a": {(1,): [1]}}, {"a": 1, 2: [1]}], ids=["flat", "nested", "mixed"])
def test_bad_keys_raise_jsons_type_error(obj):
    with pytest.raises(TypeError) as mine:
        report.canonical_json(obj)
    with pytest.raises(TypeError) as theirs:
        reference(obj)
    assert str(mine.value) == str(theirs.value)


def cycles():
    looped = []
    looped.append(looped)
    outer = {"a": 1}
    outer["b"] = [2, outer]
    return [looped, outer]


@pytest.mark.parametrize("obj", cycles(), ids=["list-in-itself", "dict-list-dict"])
def test_circular_references_raise_jsons_value_error(obj):
    with pytest.raises(ValueError, match="Circular reference detected") as mine:
        report.canonical_json(obj)
    with pytest.raises(ValueError) as theirs:
        reference(obj)
    assert str(mine.value) == str(theirs.value)


def test_a_container_seen_twice_is_no_cycle():
    shared = [[1], 2]
    obj = {"a": shared, "b": [shared, {"c": shared}]}
    assert report.canonical_json(obj) == reference(obj)


def reference_jsonable(obj):
    """`cli.jsonable` as it was before its fast paths."""
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def typed(obj):
    """`obj` with every value's type spelled out, so that 1, 1.0 and True
    (and int and np.int64) compare unequal."""
    if isinstance(obj, dict):
        return (type(obj).__name__, [(typed(k), typed(v)) for k, v in obj.items()])
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [typed(v) for v in obj])
    return (type(obj).__name__, repr(obj))


ROWS = [{"g": i, "holds": True, "order": 72, "subgroup": "0d7b"} for i in range(2000)]
NUMPY = [
    np.int64(3), np.float32(0.5), np.bool_(True), np.arange(4), np.zeros((2, 2)), np.array([True]),
    [np.int64(1), 2], {"a": np.uint8(7)}, {"a": {"b": [np.float64(1.5), (np.int8(-1),)]}},
    [{"a": np.arange(2)}, {"a": 1}], {np.int64(5): 1, 6: [np.int64(6)], "7": {8: np.bool_(False)}},
    (1, "x", None), [(1, 2), (np.int64(3),)], OrderedDict([("b", np.int64(1)), ("a", (2,))]),
    [{"a": 1}, {2: 3}], [{"a": (1,)}], [{"a": 1}, {}], [{}], [[{"a": 1}]], [1.5, True, None, "s"],
    ROWS, ROWS[:-1] + [dict(ROWS[-1], g=np.int64(1999))], {"rows": ROWS, "seed": np.int64(7)},
]


@pytest.mark.parametrize("obj", NUMPY, ids=range(len(NUMPY)))
def test_jsonable_matches_its_recursive_form(obj):
    assert typed(jsonable(obj)) == typed(reference_jsonable(obj))


def test_jsonable_copies_rows():
    rows = [dict(r) for r in ROWS[:3]]
    out = jsonable(rows)
    assert out == rows and all(a is not b for a, b in zip(out, rows))
