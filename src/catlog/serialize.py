"""JSON forms for the combinatorial structures, shared by the CLI.

One object per structure, a "kind" field first, slot tables as objects
keyed by the vertex (JSON object keys are strings), null for vacancies.
Output is deterministic: keys are emitted in a fixed order and
collections are sorted.
"""

from __future__ import annotations

import json

from .multisets import CyclicMultiset
from .paths import GoodPath, MinimalField, Ornament
from .trees import CycleRootedTree, PlaneTree, RootMinimalForest


def _slots_obj(slots) -> dict:
    return {str(v): list(row) for v, row in slots}


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _int_list(values, field: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list")
    return tuple(_as_int(v) for v in values)


def _keyed(obj, field: str) -> list:
    """(vertex, value) pairs; the constructors reject a vertex named twice."""
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be an object keyed by vertex")
    return [(_as_int(key), value) for key, value in obj.items()]


def _slots_from_obj(obj) -> list:
    rows = _keyed(obj, "slots")
    if not all(isinstance(row, list) for _, row in rows):
        raise ValueError("each slot array must be a list")
    return [(v, tuple(None if c is None else _as_int(c) for c in row)) for v, row in rows]


def _parts(values, kind: str, cls) -> list:
    """The parts of a field or forest; each must be a `kind` object."""
    if not isinstance(values, list):
        raise ValueError("parts must be a list")
    parts = [from_obj(p) for p in values]
    if any(type(p) is not cls for p in parts):
        raise ValueError(f"every part must be a {kind} object")
    return parts


# the "kind" of each structure type, in the order the CLI lists them
KINDS = {
    GoodPath: "path",
    MinimalField: "field",
    Ornament: "ornament",
    PlaneTree: "tree",
    RootMinimalForest: "forest",
    CycleRootedTree: "cycle-tree",
    CyclicMultiset: "multiset",
}


def to_obj(x) -> dict:
    """Plain-dict form of any structure, dispatching on its kind."""
    kind = KINDS.get(type(x))
    if kind in ("path", "ornament"):
        p = x if kind == "path" else x.rep
        return {"kind": kind, "k": p.k, "steps": p.steps, "labels": list(p.labels)}
    if kind == "field":
        parts = sorted(x.parts, key=lambda p: (p.steps, p.labels))
        return {"kind": kind, "parts": [to_obj(p) for p in parts]}
    if kind == "tree":
        return {"kind": kind, "k": x.k, "root": x.root, "slots": _slots_obj(x.slots)}
    if kind == "forest":
        parts = sorted(x.parts, key=lambda t: t.root)
        return {"kind": kind, "parts": [to_obj(t) for t in parts]}
    if kind == "cycle-tree":
        return {
            "kind": kind,
            "k": x.k,
            "cycle": list(x.cycle),
            "slots": _slots_obj(x.slots),
        }
    if kind == "multiset":
        return {
            "kind": kind,
            "k": x.k,
            "cycle": list(x.cycle),
            "f": {str(v): list(vec) for v, vec in x.f},
        }
    raise ValueError(f"cannot serialize {type(x).__name__}")


def from_obj(obj):
    """Rebuild a structure from its plain-dict form; constructor validation
    reports the violated invariant on bad input."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("input must be a JSON object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind in ("path", "ornament"):
            labels = _int_list(obj["labels"], "labels")
            p = GoodPath(_as_int(obj["k"]), str(obj["steps"]), labels)
            return p if kind == "path" else Ornament(p)
        if kind == "field":
            return MinimalField(_parts(obj["parts"], "path", GoodPath))
        if kind == "tree":
            return PlaneTree(
                _as_int(obj["k"]), _as_int(obj["root"]), _slots_from_obj(obj["slots"])
            )
        if kind == "forest":
            return RootMinimalForest(_parts(obj["parts"], "tree", PlaneTree))
        if kind == "cycle-tree":
            return CycleRootedTree(
                _as_int(obj["k"]),
                _int_list(obj["cycle"], "cycle"),
                _slots_from_obj(obj["slots"]),
            )
        if kind == "multiset":
            return CyclicMultiset(
                _as_int(obj["k"]),
                _int_list(obj["cycle"], "cycle"),
                [
                    (v, _int_list(vec, "each vector of f"))
                    for v, vec in _keyed(obj["f"], "f")
                ],
            )
    except KeyError as exc:
        raise ValueError(f"{kind} object is missing field {exc}") from exc
    raise ValueError(f"unknown kind {kind!r}")


def dumps(x) -> str:
    """Single-line canonical JSON for a structure."""
    return json.dumps(to_obj(x), separators=(",", ":"))


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"a JSON object repeats the key {key!r}")
        out[key] = value
    return out


def loads(text: str):
    """Parse and rebuild one structure; a JSON object that repeats a key
    is rejected instead of keeping its last value."""
    return from_obj(json.loads(text, object_pairs_hook=_unique_keys))
