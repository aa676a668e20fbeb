"""Report assembly and canonical serialization.

Reports must be byte-identical across reruns with the same inputs and seed,
worker count included, so the canonical payload carries no wall-clock data;
timing goes to an optional sidecar file instead.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring

from . import __version__

_CONTAINERS = (list, tuple, dict)


@cache
def _encoder(depth: int):
    """A C encoder whose item separator starts a line at `depth`; `default` raises json's TypeError."""
    sep = ",\n" + "  " * depth
    return c_make_encoder(None, JSONEncoder().default, encode_basestring, None, ": ", sep, True, False, True)


def _flat(values) -> bool:
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _brackets(items) -> str | None:
    """The brackets of `items`' items if they are non-empty containers of
    one kind that hold no container."""
    kinds = set(map(type, items))
    if all(issubclass(t, dict) for t in kinds):
        brackets, values = "{}", map(dict.values, items)
    elif all(issubclass(t, (list, tuple)) for t in kinds):
        brackets, values = "[]", items
    else:
        return None
    return brackets if all(items) and _flat(chain.from_iterable(values)) else None


def _encode(obj, depth: int, open_ids: set) -> str:
    """`obj` laid out as `json.dumps` does, opening at `depth`: a container
    holding no container is one encoder call, a list of such containers of one
    kind one call and a replace, any other a loop.  The replace is exact: json
    escapes control characters in strings, so a raw newline comes from a
    separator, and one before a bracket from a separator between the items.
    Only the loop recurses, so only it can meet a cycle: `open_ids` holds the
    ids of the containers open on its path, and a repeat is json's ValueError."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return "".join(_encoder(depth)(obj, 0))
    ind, inner, deep = "  " * depth, "  " * (depth + 1), "  " * (depth + 2)
    is_dict = isinstance(obj, dict)
    if _flat(obj.values() if is_dict else obj):
        text = "".join(_encoder(depth + 1)(obj, 0))
        return f"{text[0]}\n{inner}{text[1:-1]}\n{ind}{text[-1]}"
    brackets = None if is_dict else _brackets(obj)
    if brackets:
        o, c = brackets
        text = "".join(_encoder(depth + 2)(obj, 0))
        text = text.replace(f"{c},\n{deep}{o}", f"\n{inner}{c},\n{inner}{o}\n{deep}")
        return f"[\n{inner}{o}\n{deep}{text[2:-2]}\n{inner}{c}\n{ind}]"
    if id(obj) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(obj))
    if is_dict:
        items = [f"{_key(k)}: {_encode(v, depth + 1, open_ids)}" for k, v in sorted(obj.items())]
    else:
        items = [_encode(v, depth + 1, open_ids) for v in obj]
    open_ids.remove(id(obj))
    o, c = "{}" if is_dict else "[]"
    return f"{o}\n{inner}" + f",\n{inner}".join(items) + f"\n{ind}{c}"


def _key(key) -> str:
    """A dict key as json writes it: coerced to a string, or refused with json's TypeError."""
    return "".join(_encoder(0)({key: None}, 0))[1:-7]


def canonical_json(obj) -> str:
    """Exactly `json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`
    and a newline, built by the C encoder: `json.dumps` with an indent runs
    the pure-Python encoder."""
    return _encode(obj, 0, set()) + "\n"


def make_report(command: str, instance_desc: dict | None, seed: int | None, **payload) -> dict:
    report = {
        "schema_version": 1,
        "tool": {"name": "netgalois", "version": __version__},
        "command": command,
        "seed": seed,
        "instance": instance_desc,
    }
    report.update(payload)
    return report


def write_report(path, report: dict) -> None:
    """Serialise before opening, so a failed serialisation leaves no file."""
    text = canonical_json(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_timings(path, timings: dict) -> None:
    write_report(path, {"schema_version": 1, "timings": timings})


def summarize_checks(checks: list[dict]) -> dict:
    failed = [c["id"] for c in checks if not c["holds"]]
    return {"total": len(checks), "passed": len(checks) - len(failed), "failed": failed}
