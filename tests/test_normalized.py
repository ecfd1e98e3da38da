"""Enumerators and bijections build their outputs through the trusted
constructor, which checks nothing. Every output must be exactly what the
public constructor stores for the same structure: equal to its rebuild,
hashing like it, holding the same fields in the same order, and
surviving a JSON round trip."""

import hashlib
import io
import random

import pytest

from catlog import serialize
from catlog.cli import _ENUMERATORS, main
from catlog.multisets import (
    CyclicMultiset,
    cycle_tree_to_multiset,
    enumerate_multisets,
    multiset_to_cycle_tree,
    multiset_to_ornament,
    ornament_to_cycle_tree,
    ornament_to_multiset,
    root_vertices,
)
from catlog.paths import (
    GoodPath,
    MinimalField,
    Ornament,
    decompose,
    enumerate_fields,
    enumerate_ornaments,
    enumerate_paths,
    recompose,
    rotations,
    to_ornament,
)
from catlog.trees import (
    CycleRootedTree,
    PlaneTree,
    RootMinimalForest,
    enumerate_cycle_rooted,
    enumerate_trees,
    forest_to_tree,
    is_root_minimal,
    to_cycle_rooted,
    to_root_minimal,
    tree_to_forest,
)

GRID = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]
# the enumerators also at wider slot rows and longer multiplicity vectors
WIDE = GRID + [(5, n) for n in range(1, 4)] + [(6, 1), (6, 2)]


def rebuilt(x):
    """x built again by its public constructor from loose copies of its
    stored fields: lists for tuples, tables as dicts in reverse order."""
    if isinstance(x, GoodPath):
        return GoodPath(x.k, x.steps, list(x.labels))
    if isinstance(x, Ornament):
        return Ornament(rebuilt(x.rep))
    if isinstance(x, (MinimalField, RootMinimalForest)):
        return type(x)([rebuilt(part) for part in x.parts])
    if isinstance(x, PlaneTree):
        return PlaneTree(x.k, x.root, dict(reversed(x.slots)))
    if isinstance(x, CycleRootedTree):
        return CycleRootedTree(x.k, list(x.cycle), dict(reversed(x.slots)))
    return CyclicMultiset(x.k, list(x.cycle), dict(reversed(x.f)))


def stored(x) -> dict:
    """Every field x stores, the derived ones too, tables as ordered pairs."""
    return {name: tuple(value.items()) if isinstance(value, dict) else value
            for name, value in vars(x).items()}


def assert_stored_as_rebuilt(x) -> None:
    y = rebuilt(x)
    assert y == x and hash(y) == hash(x), x
    assert stored(y) == stored(x), x
    for inner in [x.rep] if isinstance(x, Ornament) else getattr(x, "parts", ()):
        assert_stored_as_rebuilt(inner)


def assert_normalized(x) -> None:
    assert_stored_as_rebuilt(x)
    assert serialize.loads(serialize.dumps(x)) == x


@pytest.mark.parametrize("k, n", WIDE)
def test_enumerator_outputs(k, n):
    for enumerate_ in _ENUMERATORS.values():
        for x in enumerate_(k, n, None):
            assert_normalized(x)
    for a in range(1, n + 1):
        for f in enumerate_fields(k, n, a):
            assert_normalized(f)


def bijection_outputs_on_grid(k, n):
    labels = range(1, n + 1)
    for p in enumerate_paths(k, labels):
        f = decompose(p)
        yield from (f, recompose(f), to_ornament(p))
    for o in enumerate_ornaments(k, n):  # the rotations list every path once
        yield from (ornament_to_multiset(o), *rotations(o.rep))
    for m in [m for m in enumerate_multisets(k, n) if root_vertices(m)]:
        yield from (multiset_to_ornament(m), multiset_to_cycle_tree(m))
    for c in enumerate_cycle_rooted(k, n):
        yield to_root_minimal(c)
        yield from (cycle_tree_to_multiset(c, r) for r in c.cycle)
    for t in enumerate_trees(k, labels):
        forest = tree_to_forest(t)
        yield from (forest, forest_to_tree(forest))
        if is_root_minimal(t):
            yield to_cycle_rooted(t)


@pytest.mark.parametrize("k, n", GRID)
def test_bijection_outputs_on_grid(k, n):
    for x in bijection_outputs_on_grid(k, n):
        assert_normalized(x)


def good_word(rng, k, n):
    """A random good word of size n, by the cycle lemma: a shuffle of n
    R's worth k-1 and (k-1)n+1 U's worth -1 has exactly one rotation whose
    proper prefixes stay nonnegative; drop its final U."""
    word = ["R"] * n + ["U"] * ((k - 1) * n + 1)
    rng.shuffle(word)
    total = low = cut = 0
    for i, ch in enumerate(word):
        total += k - 1 if ch == "R" else -1
        if total < low:
            low, cut = total, i + 1
    return "".join(word[cut:] + word[:cut])[:-1]


def large_path(shape, k, n):
    """A seeded random path, the path hugging the axis (one touch, a
    chain n deep in its cycle tree) or the max-touch path with
    decreasing labels (n touches, n field parts)."""
    rng = random.Random(f"{shape} {k} {n}")
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    if shape == "random":
        return GoodPath(k, good_word(rng, k, n), labels)
    if shape == "hug":
        return GoodPath(k, "R" * n + "U" * ((k - 1) * n), labels)
    return GoodPath(k, ("R" + "U" * (k - 1)) * n, range(n, 0, -1))


def bijection_outputs_from(p):
    """Every bijection's output on the way around the three pictures from
    p, and a tree with one forest part per field part of p."""
    f = decompose(p)
    o = to_ornament(p)
    m = ornament_to_multiset(o)
    c = multiset_to_cycle_tree(m)
    t = to_root_minimal(c)
    forest = RootMinimalForest(
        [to_root_minimal(ornament_to_cycle_tree(to_ornament(q))) for q in f.parts])
    glued = forest_to_tree(forest)
    yield from (f, recompose(f), o, *rotations(p), m, multiset_to_ornament(m), c,
                cycle_tree_to_multiset(c), cycle_tree_to_multiset(c, c.cycle[-1]),
                t, to_cycle_rooted(t), tree_to_forest(t), glued, tree_to_forest(glued))


LARGE = [(shape, k, n) for shape in ("random", "hug", "max-touch")
         for k in (2, 3, 4) for n in (30, 120, 600)]


@pytest.mark.parametrize("shape, k, n", LARGE, ids=[f"{s}-k{k}-n{n}" for s, k, n in LARGE])
def test_bijection_outputs_on_large_paths(shape, k, n):
    for x in bijection_outputs_from(large_path(shape, k, n)):
        assert_normalized(x)


# sha256 of the stdout of `catlog map --target T` for every kind T, then of
# `catlog render` on the path and on its tree and cycle-tree, for each path
# of LARGE in order; a change that moves these bytes must say why and
# update the pin
PINNED_REQUESTS = "b0057a75113c6f8b85bc67606c2eadef64364155ffca6bfa4aa1b0fc7900ba44"


def test_request_path_bytes(capsys, monkeypatch):
    """The map and render requests on the large paths give pinned bytes."""

    def cli(argv, text: str) -> str:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(argv) == 0, argv
        return capsys.readouterr().out

    digest = hashlib.sha256()
    for shape, k, n in LARGE:
        text = serialize.dumps(large_path(shape, k, n))
        rendered = [text]
        for target in serialize.KINDS.values():
            out = cli(["map", "--target", target], text)
            digest.update(out.encode("utf-8"))
            if target in ("tree", "cycle-tree"):
                rendered.append(out)
        for structure in rendered:
            digest.update(cli(["render"], structure).encode("utf-8"))
    assert digest.hexdigest() == PINNED_REQUESTS
