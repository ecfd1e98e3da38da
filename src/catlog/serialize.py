"""JSON forms for the combinatorial structures, shared by the CLI.

One object per structure: a "kind" field, then each field its record
declares, in declaration order (an ornament's are its representative
path's). Tuples are written as lists, slot tables and multiplicity maps as
objects keyed by the vertex (JSON keys are strings), null for vacancies.
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


def _parts(values, kind: str) -> list:
    """The parts of a field or forest: each object of the part kind `kind`
    read, any other value handed on as it is for the constructor to
    refuse. So reading nests two structures deep at most, and a part
    nested in a part gets the same message on every interpreter."""
    if not isinstance(values, list):
        raise ValueError("parts must be a list")
    return [from_obj(p) if type(p) is dict and p.get("kind") == kind else p for p in values]


# the reader of each declared field's JSON value; the constructor judges what it reads
_READERS = {
    "k": _int, "root": _int, "steps": lambda steps: steps, "slots": _slots_from_obj,
    "labels": lambda labels: _ints(labels, "labels"),
    "cycle": lambda cycle: _ints(cycle, "cycle"),
    "f": lambda f: [(v, _ints(vec, "each vector of f")) for v, vec in _keyed(f, "f")],
}

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
_TYPES = {kind: cls for cls, kind in KINDS.items()}

# the order a field's and a forest's parts are written in
_PART_ORDER = {MinimalField: lambda p: (p.steps, p.labels), RootMinimalForest: lambda t: t.root}

# the kind of the parts a field and a forest read
_PART_KIND = {MinimalField: "path", RootMinimalForest: "tree"}


def to_obj(x) -> dict:
    """Plain-dict form of any structure: its kind, then each field its
    record declares, in order; an ornament's are its representative's."""
    kind = KINDS.get(type(x))
    if kind is None:
        raise ValueError(f"cannot serialize {type(x).__name__}")
    record = x.rep if kind == "ornament" else x
    obj = {"kind": kind}
    for field in type(record)._fields:
        value = getattr(record, field)
        if type(value) is tuple:
            value = list(value)
        elif type(value) is dict:
            value = _table_obj(value)
        elif type(value) is frozenset:
            value = [to_obj(p) for p in sorted(value, key=_PART_ORDER[type(x)])]
        obj[field] = value
    return obj


def from_obj(obj):
    """Rebuild a structure from its plain-dict form, each declared field
    read in order; constructor validation reports the violated invariant
    on bad input."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("input must be a JSON object with a 'kind' field")
    kind = obj["kind"]
    cls = _TYPES.get(kind) if type(kind) is str else None
    if cls is None:
        raise ValueError(f"unknown kind {kind!r}")
    record = GoodPath if cls is Ornament else cls
    try:
        x = record(*[_parts(obj[field], _PART_KIND[record]) if field == "parts"
                     else _READERS[field](obj[field]) for field in record._fields])
    except KeyError as exc:
        raise ValueError(f"{kind} object is missing field {exc}") from exc
    return Ornament(x) if cls is Ornament else x


# the one encoder of every write: json.dumps with separators builds its own per call
_ENCODER = json.JSONEncoder(separators=(",", ":"))

# parts per encode: each encode call sets up its C encoder again (about
# 1.5 us), while one call holds a token string for each token it writes
_BATCH = 64


def dumps(x) -> str:
    """Single-line canonical JSON for a structure, the bytes of
    json.dumps(to_obj(x), separators=(",", ":")). A field's or forest's
    parts are encoded _BATCH at a time, in _PART_ORDER, and joined inside
    its frame, so no encode holds the tokens or the dicts of every part."""
    order = _PART_ORDER.get(type(x))
    if order is None:
        return _ENCODER.encode(to_obj(x))
    parts = sorted(x.parts, key=order)
    # each batch encodes as a JSON list; its brackets are cut off
    body = ",".join(_ENCODER.encode([to_obj(p) for p in parts[i:i + _BATCH]])[1:-1]
                    for i in range(0, len(parts), _BATCH))
    return f'{{"kind":"{KINDS[type(x)]}","parts":[{body}]}}'


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
