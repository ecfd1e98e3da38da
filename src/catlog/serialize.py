"""JSON forms for the combinatorial structures, shared by the CLI.

One object per structure, a "kind" field first, slot tables as objects
keyed by the vertex (JSON object keys are strings), null for vacancies.
Output is deterministic: keys are emitted in a fixed order and
collections are sorted.
"""

from __future__ import annotations

import itertools
import json

from .multisets import CyclicMultiset
from .paths import GoodPath, MinimalField, Ornament
from .trees import CycleRootedTree, PlaneTree, RootMinimalForest


def _table_obj(table) -> dict:
    """A slot table or multiplicity map, keyed by the vertex as a string."""
    return {str(v): list(row) for v, row in table.items()}


def _int(value):
    """A JSON string read through int(); any other value as it is, for the
    constructor to judge."""
    return int(value) if type(value) is str else value


def _ints(values, field: str) -> list:
    """The list `values` through _int; the type test runs in C, once per value."""
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list")
    return list(map(_int, values)) if str in set(map(type, values)) else values


def _keyed(obj, field: str) -> list:
    """(vertex, value) pairs; the constructors reject a vertex named twice."""
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be an object keyed by vertex")
    return list(zip(map(int, obj), obj.values()))


def _slots_from_obj(obj) -> list:
    """(vertex, row) pairs; rows holding no string go to the constructor
    as given, which type-tests every occupant it meets."""
    rows = _keyed(obj, "slots")
    if not all(map(isinstance, obj.values(), itertools.repeat(list))):
        raise ValueError("each slot array must be a list")
    if str not in set(map(type, itertools.chain.from_iterable(obj.values()))):
        return rows
    return [(v, tuple(map(_int, row))) for v, row in rows]


def _parts(values) -> list:
    """The parts of a field or forest; the constructor checks their kind."""
    if not isinstance(values, list):
        raise ValueError("parts must be a list")
    return [from_obj(p) for p in values]


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
        return {"kind": kind, "k": x.k, "root": x.root, "slots": _table_obj(x.slots)}
    if kind == "forest":
        parts = sorted(x.parts, key=lambda t: t.root)
        return {"kind": kind, "parts": [to_obj(t) for t in parts]}
    if kind == "cycle-tree":
        return {
            "kind": kind,
            "k": x.k,
            "cycle": list(x.cycle),
            "slots": _table_obj(x.slots),
        }
    if kind == "multiset":
        return {
            "kind": kind,
            "k": x.k,
            "cycle": list(x.cycle),
            "f": _table_obj(x.f),
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
            labels = _ints(obj["labels"], "labels")
            p = GoodPath(_int(obj["k"]), obj["steps"], labels)
            return p if kind == "path" else Ornament(p)
        if kind == "field":
            return MinimalField(_parts(obj["parts"]))
        if kind == "tree":
            return PlaneTree(_int(obj["k"]), _int(obj["root"]), _slots_from_obj(obj["slots"]))
        if kind == "forest":
            return RootMinimalForest(_parts(obj["parts"]))
        if kind == "cycle-tree":
            return CycleRootedTree(
                _int(obj["k"]),
                _ints(obj["cycle"], "cycle"),
                _slots_from_obj(obj["slots"]),
            )
        if kind == "multiset":
            return CyclicMultiset(
                _int(obj["k"]),
                _ints(obj["cycle"], "cycle"),
                [
                    (v, _ints(vec, "each vector of f"))
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
    out = dict(pairs)
    if len(out) != len(pairs):  # name the first key met a second time
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"a JSON object repeats the key {key!r}")
            seen.add(key)
    return out


def loads(text: str):
    """Parse and rebuild one structure; a JSON object that repeats a key
    is rejected instead of keeping its last value, and so is input nested
    past the recursion limit, which no structure comes near."""
    try:
        return from_obj(json.loads(text, object_pairs_hook=_unique_keys))
    except RecursionError:
        raise ValueError("input nests too deeply to be a structure") from None
