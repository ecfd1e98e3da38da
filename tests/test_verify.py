"""The verify layer: suite order under `all`, the work each suite does,
faults it must not hide, counterexamples it reports, and the pinned bytes
of one report."""

import hashlib
import io
import itertools
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from catlog import catalan, multisets, paths, serialize, trees, verify
from catlog._trusted import trusted
from catlog.cli import main
from catlog.errors import DEFAULT_MAX_ENUMERATION
from catlog.series import Series
from catlog.verify import run_suite

STRUCTURE_SUITES = ("bijections", "statistics")

# sha256 of `catlog verify --suite all --k 2,3 --max-n 4 --format json`;
# a change that moves these bytes must say why and update the pin
PINNED_ALL_2_3_4 = "23ef205fdd6b4c57b4cf7b5abdd7b2367e217901630cf0c394018fe23920708a"

# sha256 of `catlog verify --suite series --k 1,2,3,5 --max-n 40 --format json`:
# k = 1 makes no product, k = 2 only squares, k = 3 and 5 squares and general
# products, recorded before `s * s` took its own path
PINNED_SERIES_1_2_3_5_40 = "bebb8616ba3e9e973e4166e3b28b498b2ea706e6e2a640fc90627c0efd9a0451"


@pytest.mark.parametrize("ks, max_n", [([2, 3], 4), ([2], 5), ([3], 4), ([4], 3)],
                         ids=["k2,3-n4", "k2-n5", "k3-n4", "k4-n3"])
def test_all_is_the_suites_in_order(ks, max_n):
    combined = run_suite("all", ks, max_n).results
    alone = ()
    for suite in ("series", "counts", *STRUCTURE_SUITES):
        alone += run_suite(suite, ks, max_n).results
    assert combined == alone


# sha256 of json.dumps(run_suite("all", [k], n).to_json()) at the grid points
# the benchmark's grid job runs, recorded before verify stopped rebuilding images
PINNED_GRID = {
    (2, 5): "33c664f82dc9f03e7c70dec62ea1f89457a936ad70916be4b39635b679676451",
    (3, 4): "de1bad22ae55d85670d5c1a9aa3db39b334167147ae0b81c9c71dacd57b81cb1",
    (4, 3): "73faf629220ec76cc6732b997a6b42f5e886316c2153887f9ae6827906cbb19b",
}


@pytest.mark.parametrize("k, n", PINNED_GRID, ids=[f"k{k}-n{n}" for k, n in PINNED_GRID])
def test_pinned_grid_reports(k, n):
    report = json.dumps(run_suite("all", [k], n).to_json())
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == PINNED_GRID[k, n]


# the (check, k, n) triples the benchmark expects in its reports: bench/worker.py
# refuses a run whose report lacks one of them
BENCH_CHECKS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "checks.json").read_text())


@pytest.mark.parametrize("job", ["grid-2", "grid-3", "grid-4", "coeff"])
def test_every_check_the_benchmark_expects_is_made(job):
    if job == "coeff":
        want = BENCH_CHECKS["coeff"]
        report = run_suite("series", [2, 3, 5], 30)
    else:
        k = int(job.removeprefix("grid-"))
        want = BENCH_CHECKS["grid"][str(k)]
        report = run_suite("all", [k], max(n for _, _, n in want if n is not None))
    assert want
    made = {(r.name, r.k, r.n) for r in report.results}
    assert [c for c in want if tuple(c) not in made] == []


def test_unknown_suite():
    with pytest.raises(ValueError, match="^unknown suite 'nope'$"):
        run_suite("nope", [2], 3)


@pytest.mark.parametrize("suite, ks, max_n, pin", [
    ("all", "2,3", "4", PINNED_ALL_2_3_4),
    ("series", "1,2,3,5", "40", PINNED_SERIES_1_2_3_5_40),
], ids=["all", "series"])
def test_pinned_report_bytes(capsys, suite, ks, max_n, pin):
    code = main(["verify", "--suite", suite, "--k", ks, "--max-n", max_n, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pin


def test_a_grid_point_holds_no_structure_list():
    """Each pass keeps counts and first counterexamples, and a range check
    that holds by count keeps no image; holding the structures and images
    of the (2, 5) point took 18.5 MB."""
    verify._grid_structures.cache_clear()
    tracemalloc.start()
    try:
        assert run_suite("all", [2], 5).overall
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("walk, count", [
    (lambda: itertools.islice(trees._trees(2, range(1, 7), None), 5000), 5000),
    (lambda: itertools.islice(trees._cycle_rooted(2, 6, None), 5000), 5000),
    (lambda: paths._fields(2, 6, 1, None), 55440),
    (lambda: itertools.islice(paths._labeled_paths(2, range(1, 9), None, False), 5000), 5000),
], ids=["trees", "cycle-trees", "fields", "paths"])
def test_each_walk_holds_no_structure_list(walk, count):
    """The walks of (2, 6) hold one structure at a time. Walks that built
    per-block lists of subtrees or paths peaked at 2.9, 8.3 and 6.2 MB,
    most of it before their first structure; the tree walks are traced
    for their first 5,000 structures only, to keep the test short."""
    tracemalloc.start()
    try:
        assert sum(1 for _ in walk()) == count
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- each suite builds only its own images --------------------------------------

BIJECTIONS = ((paths, "decompose"), (trees, "tree_to_forest"),
              (multisets, "ornament_to_multiset"), (multisets, "cycle_tree_to_multiset"))


def _calls(monkeypatch, targets):
    """Count the calls of each (module, name) in `targets` by (name, its
    positional arguments), after emptying the grid cache so that the
    enumerations run again under the counters."""
    verify._grid_structures.cache_clear()
    calls = Counter()
    for module, attr in targets:
        def counted(*args, _real=getattr(module, attr), _attr=attr):
            calls[_attr, *args] += 1
            return _real(*args)
        monkeypatch.setattr(module, attr, counted)
    return calls


def test_counts_builds_no_images(monkeypatch):
    calls = _calls(monkeypatch, BIJECTIONS)
    run_suite("counts", [2], 4)
    assert not calls


@pytest.mark.parametrize("suite", ["all", *STRUCTURE_SUITES])
def test_each_cycle_tree_is_decoded_once(monkeypatch, suite):
    """Once the cycle-tree pass has shown the tree encoding a bijection onto
    the rooted multisets, the ornament pass reads a rooted image's tree
    from it, so no tree is encoded, nor any multiset decoded to a tree,
    twice; cycle_tree_to_ornament, which does both, is never called. The
    range checks hold by count, so no picture is walked again to encode
    it, and no image is ranked: ranking each image made 468 rank calls."""
    calls = Counter()
    for attr in ("multiset_to_cycle_tree", "cycle_tree_to_multiset", "cycle_tree_to_ornament",
                 "ornament_to_multiset", "multiset_rank"):
        def counted(*args, _real=getattr(multisets, attr), _attr=attr):
            calls[_attr] += 1
            return _real(*args)
        monkeypatch.setattr(multisets, attr, counted)
    assert run_suite(suite, [2], 4).overall
    n_trees = sum(catalan.count_ornaments(2, n) for n in range(1, 5))
    assert calls == {"multiset_to_cycle_tree": n_trees, "cycle_tree_to_multiset": n_trees,
                     "ornament_to_multiset": n_trees}


STRUCTURES = (paths.GoodPath, paths.MinimalField, paths.Ornament, trees.PlaneTree,
              trees.RootMinimalForest, trees.CycleRootedTree, multisets.CyclicMultiset)


def test_all_runs_no_constructor(monkeypatch):
    """Every image is checked in place: no structure is built, or rebuilt,
    through its public constructor, and series arithmetic builds its
    results without the Series constructor."""
    verify._grid_structures.cache_clear()
    built = Counter()
    for cls in (*STRUCTURES, Series):
        def counted(self, _real=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _real(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    assert paths.GoodPath(2, "RU", (1,)) and built == {"GoodPath": 1}  # the counter counts
    assert Series((1,)) and built == {"GoodPath": 1, "Series": 1}
    built.clear()
    assert run_suite("all", [2], 4).overall
    assert all(row.match for row in catalan.coeff_table(2, 10, 2, check=True).rows)
    assert not built


def test_each_branch_and_touch_list_walked_once(monkeypatch):
    """Work independent of the machine: each plane tree's rightmost branch
    and each path's and representative's touches are walked once for every
    check that reads them, and a field's or forest's parts are checked
    without a walk of their own. Walked once per reader, they took 3,128
    branches and 2,273 touch lists."""
    calls = _calls(monkeypatch, [(trees, "rightmost_branch"), (paths, "diagonal_touches")])
    assert run_suite("all", [2], 4).overall
    walks = Counter()
    for (name, *_), count in calls.items():
        walks[name] += count
    assert walks["rightmost_branch"] <= 800
    assert walks["diagonal_touches"] <= 1200


def test_statistics_builds_no_bijections_only_images(monkeypatch):
    calls = _calls(monkeypatch, BIJECTIONS[:2])
    run_suite("statistics", [2], 4)
    assert not calls


@pytest.mark.parametrize("suite, top", [("all", lambda n: n), ("counts", lambda n: min(n, 3)),
                                        ("statistics", lambda n: 0)],
                         ids=["all", "counts", "statistics"])
def test_fields_counted_once_up_to_the_largest_part_count_read(monkeypatch, suite, top):
    calls = _calls(monkeypatch, [(paths, "_fields")])
    run_suite(suite, [2], 4)
    assert calls == {("_fields", 2, n, a, DEFAULT_MAX_ENUMERATION): 1
                     for n in range(1, 5) for a in range(1, top(n) + 1)}


def _first_for_last(walk):
    """`walk` with its first structure yielded in place of its last."""
    def walked(*args):
        items = list(walk(*args))
        return iter([*items[:-1], items[0]])
    return walked


def _put_fault(monkeypatch, module, walk, fault):
    """module.walk changed by `fault`. On paths._labeled_paths only the walk
    of all labeled paths changes: the label-minimal walks, which the
    ornaments and the field blocks read, stay whole."""
    whole = getattr(module, walk)
    faulty = fault(whole)
    if walk == "_labeled_paths":
        def faulty(k, labels, max_count, minimal, _all=faulty):
            return (whole if minimal else _all)(k, labels, max_count, minimal)
    monkeypatch.setattr(module, walk, faulty)


@pytest.mark.parametrize("module, walk, check, also, at_2, at_3", [
    (trees, "_cycle_rooted", "cycle-tree-encoding-range", set(),
     "2 images vs 3 rooted", "19 images vs 20 rooted"),
    (paths, "_ornaments", "ornament-encoding-range", {"touch-distribution"},
     "2 images vs 3 rooted", "19 images vs 20 rooted"),
    (trees, "_trees", "tree-count", set(), "4 vs 3", "30 vs 29"),
    (multisets, "_multisets", "multiset-count",
     {"rooted-multiset-count", "ornament-encoding-range", "cycle-tree-encoding-range"},
     "3 vs 2", "20 vs 19"),
    (paths, "_labeled_paths", "path-count",
     {"path-field-bijective", "labeled-touch-distribution"}, "4 vs 3", "30 vs 29"),
], ids=["cycle-trees", "ornaments", "trees", "multisets", "paths"])
def test_a_walk_that_repeats_a_structure_fails_a_check(monkeypatch, module, walk, check,
                                                       also, at_2, at_3):
    """A walk that yields its first structure twice and its last never
    keeps every roundtrip. Each walk comes in a known order: a step that
    does not go up makes the path, plane-tree and multiset counts, and the
    cycle-tree and ornament range checks, walk again and count the
    structures or images by equality. The field walk is not covered:
    `paths._fields` so changed passes every check."""
    verify._grid_structures.cache_clear()
    _put_fault(monkeypatch, module, walk, _first_for_last)
    failed = {(r.name, r.n): r.message for r in run_suite("all", [2], 3).results if not r.passed}
    verify._grid_structures.cache_clear()
    assert {name for name, _ in failed} == {check} | also
    assert failed[check, 2] == at_2
    assert failed[check, 3] == at_3


def _stepping_back(walk):
    """`walk` with its last structure left out and the two before it
    yielded again: as many steps go up as the walk has structures."""
    def walked(*args):
        items = list(walk(*args))
        return iter([*items[:-1], *items[-3:-1]])
    return walked


@pytest.mark.parametrize("module, walk, check, at_3", [
    (trees, "_cycle_rooted", "cycle-tree-encoding-range", "19 images vs 20 rooted"),
    (paths, "_ornaments", "ornament-encoding-range", "19 images vs 20 rooted"),
    (paths, "_labeled_paths", "path-field-bijective", "29 paths, 29 images, 30 fields"),
], ids=["cycle-trees", "ornaments", "paths"])
def test_a_walk_that_steps_back_fails_its_range_check(monkeypatch, module, walk, check, at_3):
    """A range check, or the path-field bijection, holds by count only where
    every step of the walk went up: here as many steps go up as there are
    structures, but one of them is missed, and the check counts them again."""
    _put_fault(monkeypatch, module, walk, _stepping_back)
    failed = {(r.name, r.n): r.message
              for r in run_suite("bijections", [2], 3).results if not r.passed}
    assert {name for name, _ in failed} == {check}
    assert failed[check, 3] == at_3


@pytest.mark.parametrize("module, walk, check, also, at_2, at_3", [
    (trees, "_trees", "tree-count", set(), "4 vs 3", "30 vs 29"),
    (multisets, "_multisets", "multiset-count",
     {"rooted-multiset-count", "ornament-encoding-range", "cycle-tree-encoding-range"},
     "3 vs 2", "20 vs 19"),
    (paths, "_labeled_paths", "path-count",
     {"path-field-bijective", "labeled-touch-distribution"}, "4 vs 3", "30 vs 29"),
], ids=["trees", "multisets", "paths"])
def test_a_walk_that_steps_back_fails_its_count(monkeypatch, module, walk, check,
                                                also, at_2, at_3):
    """A count holds only where every step of its walk went up: here as
    many steps go up as there are structures, but one of them is missed,
    and the count takes the distinct structures instead. At n = 1 the
    walk so changed is empty, so only n = 2 and 3 are read."""
    verify._grid_structures.cache_clear()
    _put_fault(monkeypatch, module, walk, _stepping_back)
    failed = {(r.name, r.n): r.message
              for r in run_suite("all", [2], 3).results if not r.passed and r.n > 1}
    verify._grid_structures.cache_clear()
    assert {name for name, _ in failed} == {check} | also
    assert failed[check, 2] == at_2
    assert failed[check, 3] == at_3


def test_a_multiset_walk_that_ends_early_fails_its_count(monkeypatch, capsys):
    """A multiset walk one short fails `multiset-count`, and `catlog
    verify` exits 1: the range checks count their images against the
    walk's rooted multisets and index no table by rank, so no image falls
    outside one."""
    def short(*args, _walk=multisets._multisets):
        return iter(list(_walk(*args))[:-1])

    verify._grid_structures.cache_clear()
    monkeypatch.setattr(multisets, "_multisets", short)
    report = run_suite("all", [2], 3)
    code = main(["verify", "--suite", "all", "--k", "2", "--max-n", "3"])
    verify._grid_structures.cache_clear()
    failed = {r.name for r in report.results if not r.passed}
    assert "multiset-count" in failed and not report.overall
    assert code == 1 and "multiset-count" in capsys.readouterr().out


# -- faults in the shared bijections ---------------------------------------------

K, N = 2, 3


def _extremes(items, key):
    """The first item with the smallest and the first with the largest key."""
    return min(items, key=key), max(items, key=key)


def _touch_labels(o):
    return {lab for _, lab in paths.diagonal_touches(o.rep)}


def _paths():
    items = paths.enumerate_paths(K, range(1, N + 1))
    return items[0], items[-1]


def _trees():
    items = trees.enumerate_trees(K, range(1, N + 1))
    return items[0], items[-1]


def _min_trees():
    items = [t for t in trees.enumerate_trees(K, range(1, N + 1)) if trees.is_root_minimal(t)]
    return _extremes(items, lambda t: len(trees.rightmost_branch(t)))


def _ornaments():
    return _extremes(paths.enumerate_ornaments(K, N), lambda o: len(_touch_labels(o)))


def _cycle_trees():
    return _extremes(trees.enumerate_cycle_rooted(K, N), lambda c: len(c.cycle))


def _rooted_multisets():
    items = [m for m in multisets.enumerate_multisets(K, N) if multisets.root_vertices(m)]
    return _extremes(items, lambda m: len(multisets.root_vertices(m)))


# each shared bijection, a pair (x0, x1) of its inputs at (K, N) whose
# statistics differ, and the checks that must fail when x0 is sent to the
# image of x1
CORRUPTIONS = {
    "decompose": (paths, "decompose", _paths, {
        "path-field-roundtrip", "path-field-bijective"}),
    "tree_to_forest": (trees, "tree_to_forest", _trees, {
        "tree-forest-roundtrip", "tree-forest-injective"}),
    "to_cycle_rooted": (trees, "to_cycle_rooted", _min_trees, {
        "min-cycle-roundtrip", "cycle-length-is-branch-length"}),
    "ornament_to_multiset": (multisets, "ornament_to_multiset", _ornaments, {
        "ornament-multiset-roundtrip", "ornament-encoding-range",
        "composed-correspondence-roundtrip", "ornament-root-vertices",
        "touch-labels-become-roots"}),
    "cycle_tree_to_multiset": (multisets, "cycle_tree_to_multiset", _cycle_trees, {
        "cycle-tree-multiset-roundtrip", "cycle-tree-encoding-range",
        "composed-correspondence-roundtrip", "cycle-tree-root-vertices"}),
    "multiset_to_cycle_tree": (multisets, "multiset_to_cycle_tree", _rooted_multisets, {
        "cycle-tree-multiset-roundtrip", "composed-correspondence-roundtrip",
        "touch-labels-become-roots"}),
}

# the conversion a for-all check's counterexample is replayed through
REPLAY = {
    "path-field-roundtrip": "field",
    "tree-forest-roundtrip": "forest",
    "forest-parts-root-minimal": "forest",
    "min-cycle-roundtrip": "cycle-tree",
    "cycle-length-is-branch-length": "cycle-tree",
    "ornament-multiset-roundtrip": "multiset",
    "cycle-tree-multiset-roundtrip": "multiset",
    "composed-correspondence-roundtrip": "cycle-tree",
    "rotation-class-constant": "path",
    "ornament-root-vertices": "multiset",
    "cycle-tree-root-vertices": "multiset",
    "touch-labels-become-roots": "cycle-tree",
}


def _suite_names(suite):
    return {r.name for r in run_suite(suite, [K], N).results}


def _send(monkeypatch, module, attr, x0, image):
    """Make module.attr send x0 to `image`, every other input as before."""
    real = getattr(module, attr)

    def wrong(x, *args):
        return image if x == x0 else real(x, *args)

    monkeypatch.setattr(module, attr, wrong)


def corrupt(monkeypatch, which):
    """Make one shared bijection send x0 to the image of x1; return the
    checks that must fail."""
    module, attr, pick, failing = CORRUPTIONS[which]
    x0, x1 = pick()
    real = getattr(module, attr)
    assert real(x0) != real(x1)
    _send(monkeypatch, module, attr, x0, real(x1))
    return failing


def _failing(suite):
    return {(r.name, r.k, r.n): r.message
            for r in run_suite(suite, [K], N).results if not r.passed}


@pytest.mark.parametrize("which", CORRUPTIONS)
def test_a_wrong_image_fails_its_checks(monkeypatch, which):
    names = {suite: _suite_names(suite) for suite in STRUCTURE_SUITES}
    failing = corrupt(monkeypatch, which)
    assert failing <= names["bijections"] | names["statistics"]
    assert set(_failing("all")) == {(name, K, N) for name in failing}
    for suite in STRUCTURE_SUITES:
        want = {(name, K, N) for name in failing & names[suite]}
        assert set(_failing(suite)) == want


def _replayed(monkeypatch, capsys, failed) -> int:
    """Replay each failed for-all check's counterexample through `catlog
    map` and `catlog render`, with the bijections restored; return how
    many were replayed."""
    monkeypatch.undo()
    replayed = 0
    for (name, _, _), message in failed.items():
        if name not in REPLAY:
            continue
        structure = serialize.from_obj(json.loads(message))
        assert serialize.dumps(structure) == message
        for argv in (["map", "--target", REPLAY[name]], ["render"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(message))
            assert main(argv) == 0, (name, argv)
            capsys.readouterr()
        replayed += 1
    return replayed


@pytest.mark.parametrize("which", CORRUPTIONS)
def test_counterexamples_replay(monkeypatch, capsys, which):
    corrupt(monkeypatch, which)
    assert _replayed(monkeypatch, capsys, _failing("all")) > 0


def test_passing_checks_carry_no_counterexample():
    for r in run_suite("all", [K], N).results:
        if r.name in REPLAY:
            assert r.passed and r.message == ""


def test_first_counterexample_is_named(monkeypatch):
    x0, _ = _paths()
    corrupt(monkeypatch, "decompose")
    assert _failing("bijections")[("path-field-roundtrip", K, N)] == serialize.dumps(x0)


@pytest.mark.parametrize("module, attr, check, listing", [
    (trees, "tree_to_forest", "tree-forest-roundtrip",
     lambda: trees.enumerate_trees(K, range(1, N + 1))),
    (multisets, "cycle_tree_to_multiset", "cycle-tree-multiset-roundtrip",
     lambda: trees.enumerate_cycle_rooted(K, N)),
], ids=["tree_to_forest", "cycle_tree_to_multiset"])
def test_first_counterexample_is_first_in_public_order(monkeypatch, module, attr, check,
                                                       listing):
    """With a wrong image for every input, the check names the first
    structure verify walks, which is the first one the public listing
    and `catlog enumerate` give."""
    items = listing()
    real = getattr(module, attr)
    head, tail = real(items[0]), real(items[-1])
    monkeypatch.setattr(module, attr, lambda x, *args: tail if x == items[0] else head)
    assert _failing("bijections")[(check, K, N)] == serialize.dumps(items[0])


def _rootless_at(k, n):
    return next(m for m in multisets.enumerate_multisets(k, n) if not multisets.root_vertices(m))


def test_a_rootless_tree_image_fails_the_root_vertex_check(monkeypatch):
    rootless = _rootless_at(3, 2)
    monkeypatch.setattr(multisets, "cycle_tree_to_multiset", lambda x, *args: rootless)
    failed = {r.name for r in run_suite("statistics", [3], 2).results if not r.passed}
    assert failed == {"cycle-tree-root-vertices"}


# -- invalid images ---------------------------------------------------------------
# The bijections build their images through the trusted constructor, which
# checks nothing. An image that no roundtrip or range check compares with a
# valid structure is checked in the first check that reads it. Each pick
# returns an input x0, an invalid image for it, and the counterexample the
# check that validates the image must report.


def _field_of_a_non_minimal_path():
    """A path that is not label-minimal, and the field holding it as its
    only part. It recomposes to the path: only the validity check sees it."""
    p = next(p for p in paths.enumerate_paths(K, range(1, N + 1))
             if not paths.is_label_minimal(p))
    return p, trusted(paths.MinimalField, parts=frozenset({p})), p


def _leaf(v):
    return trusted(trees.PlaneTree, k=K, root=v, slots={v: (None,) * K})


def _forest_with_overlapping_parts():
    """A tree, and its forest plus a one-vertex part on a vertex that
    another part holds below its root; every part stays root-minimal."""
    for t in trees.enumerate_trees(K, range(1, N + 1)):
        forest = trees.tree_to_forest(t)
        for part in forest.parts:
            below = [v for v in part.slots if v != part.root]
            if below:
                image = trusted(trees.RootMinimalForest, parts=forest.parts | {_leaf(below[0])})
                return t, image, t
    raise AssertionError("no tree has a part with two vertices")


def _cycle_keeping_its_branch_links():
    """A root-minimal tree whose rightmost branch has two or more vertices,
    and that branch as the cycle with the rightmost slots left occupied.
    It opens back into the tree, so without the validity check only the
    reverse roundtrip would fail, naming a cycle tree instead of x0."""
    t = next(t for t in trees.enumerate_trees(K, range(1, N + 1))
             if trees.is_root_minimal(t) and len(trees.rightmost_branch(t)) > 1)
    image = trusted(trees.CycleRootedTree, k=K, cycle=tuple(trees.rightmost_branch(t)),
                    slots=t.slots)
    return t, image, t


def _tree_with_a_loose_vertex():
    """A rooted multiset, and its tree plus a vertex that hangs below no
    root. Exploring from the cycle never meets that vertex, so the tree
    still carries its ornament back: only the validity check sees it."""
    m = [m for m in multisets.enumerate_multisets(K, N) if multisets.root_vertices(m)][0]
    c = multisets.multiset_to_cycle_tree(m)
    image = trusted(trees.CycleRootedTree, k=K, cycle=c.cycle,
                    slots={**c.slots, N + 1: (None,) * K})
    return m, image, multisets.multiset_to_ornament(m)


def _rotated(m):
    """Multiset m stored from the second label of its cycle instead of the smallest."""
    return trusted(multisets.CyclicMultiset, k=m.k, cycle=m.cycle[1:] + m.cycle[:1], f=m.f)


def _rotated_encoding(encode, items):
    """The first item, and its multiset encoding, rotated."""
    return items[0], _rotated(encode(items[0])), items[0]


# each bijection, the pick of its invalid image, the checks that must fail
# in each suite when x0 is sent to that image, and the (suite, check) that
# validates the image
INVALID_IMAGES = {
    "decompose": (paths, "decompose", _field_of_a_non_minimal_path, {
        "all": {"path-field-roundtrip"}, "bijections": {"path-field-roundtrip"},
        "statistics": set()}, ("all", "path-field-roundtrip")),
    "tree_to_forest": (trees, "tree_to_forest", _forest_with_overlapping_parts, {
        "all": {"tree-forest-roundtrip"}, "bijections": {"tree-forest-roundtrip"},
        "statistics": set()}, ("all", "tree-forest-roundtrip")),
    "to_cycle_rooted": (trees, "to_cycle_rooted", _cycle_keeping_its_branch_links, {
        "all": {"min-cycle-roundtrip"}, "bijections": {"min-cycle-roundtrip"},
        "statistics": set()}, ("all", "min-cycle-roundtrip")),
    # the tree_codes roundtrip compares the image with the cycle tree it
    # came from; the carried trees are checked in the composed roundtrip,
    # or by touch-labels-become-roots when the bijections suite is not run
    "multiset_to_cycle_tree": (multisets, "multiset_to_cycle_tree", _tree_with_a_loose_vertex, {
        "all": {"cycle-tree-multiset-roundtrip", "composed-correspondence-roundtrip"},
        "bijections": {"cycle-tree-multiset-roundtrip",
                       "composed-correspondence-roundtrip"},
        "statistics": {"touch-labels-become-roots"}},
        ("all", "composed-correspondence-roundtrip")),
    # range checks cover the encodings; the first statistics check that
    # reads an encoding checks it when they do not run
    "ornament_to_multiset": (multisets, "ornament_to_multiset", lambda: _rotated_encoding(
        multisets.ornament_to_multiset, paths.enumerate_ornaments(K, N)), {
        "all": {"ornament-encoding-range"}, "bijections": {"ornament-encoding-range"},
        "statistics": {"ornament-root-vertices"}}, ("statistics", "ornament-root-vertices")),
    "cycle_tree_to_multiset": (multisets, "cycle_tree_to_multiset", lambda: _rotated_encoding(
        multisets.cycle_tree_to_multiset, trees.enumerate_cycle_rooted(K, N)), {
        "all": {"cycle-tree-encoding-range"}, "bijections": {"cycle-tree-encoding-range"},
        "statistics": {"cycle-tree-root-vertices"}},
        ("statistics", "cycle-tree-root-vertices")),
}


@pytest.mark.parametrize("which", INVALID_IMAGES)
def test_an_invalid_image_fails_the_check_that_reads_it(monkeypatch, capsys, which):
    module, attr, pick, failing, (suite, check) = INVALID_IMAGES[which]
    x0, image, witness = pick()
    with pytest.raises(ValueError):
        serialize.loads(serialize.dumps(image))
    _send(monkeypatch, module, attr, x0, image)
    failed = {}
    for s, names in failing.items():
        got = _failing(s)
        assert set(got) == {(name, K, N) for name in names}, s
        if s == suite:
            assert got[(check, K, N)] == serialize.dumps(witness)
        failed.update(got)
    assert _replayed(monkeypatch, capsys, failed) > 0


def _relabeled(m):
    """Multiset m with its largest label n renamed n + 1: valid and rooted,
    but on labels other than 1..n."""
    n = m.n
    def new(v):
        return n + 1 if v == n else v
    return multisets.CyclicMultiset(m.k, tuple(map(new, m.cycle)),
                                    {new(v): vec for v, vec in m.f.items()})


@pytest.mark.parametrize("wrong", ["labels", "k"])
@pytest.mark.parametrize("which, check", [
    ("ornament_to_multiset", "ornament-encoding-range"),
    ("cycle_tree_to_multiset", "cycle-tree-encoding-range"),
], ids=["ornament_to_multiset", "cycle_tree_to_multiset"])
def test_a_rooted_image_of_another_point_fails_the_range_check(monkeypatch, which, check,
                                                               wrong):
    """An image that is a valid multiset with root vertices, but on labels
    other than 1..n or at another k, is no rooted multiset of the point:
    the range check counts it apart from the 19 rooted images, so it
    fails with as many images as rooted multisets."""
    x0 = INVALID_IMAGES[which][2]()[0]
    if wrong == "labels":
        image = _relabeled(getattr(multisets, which)(x0))
    else:
        image = next(m for m in multisets.enumerate_multisets(K + 1, N)
                     if multisets.root_vertices(m))
    assert multisets.root_vertices(image)
    _send(monkeypatch, multisets, which, x0, image)
    assert _failing("bijections")[check, K, N] == "20 images vs 20 rooted"


@pytest.mark.parametrize("which", ["ornament_to_multiset", "cycle_tree_to_multiset"])
def test_rank_rejects_an_invalid_encoding(which):
    _, image, _ = INVALID_IMAGES[which][2]()
    with pytest.raises(ValueError):
        multisets.multiset_rank(image)


def test_invalid_images_are_counted_in_linear_time(monkeypatch):
    """A range check counts the images that are no rooted multiset of the
    point by hash, not by comparing each with every earlier one: with
    every ornament's image rotated, that took 22,138 comparisons at (2, 4)."""
    real = multisets.ornament_to_multiset
    monkeypatch.setattr(multisets, "ornament_to_multiset", lambda o: _rotated(real(o)))
    compared = Counter()

    def counted(self, other, _real=multisets.CyclicMultiset.__eq__):
        compared["eq"] += 1
        return _real(self, other)

    monkeypatch.setattr(multisets.CyclicMultiset, "__eq__", counted)
    failed = {(r.name, r.n): r.message
              for r in run_suite("bijections", [2], 4).results if not r.passed}
    assert failed == {("ornament-encoding-range", n): f"{rooted} images vs {rooted} rooted"
                      for n, rooted in ((2, 3), (3, 20), (4, 210))}
    assert compared["eq"] <= sum(catalan.count_ornaments(2, n) for n in range(1, 5))


def _listed_parts(x):
    """x, a field or forest, with its parts stored as a list, which cannot hash."""
    return trusted(type(x), parts=list(x.parts))


@pytest.mark.parametrize("module, attr, sources, check", [
    (paths, "decompose", lambda: paths.enumerate_paths(K, range(1, N + 1)),
     "path-field-roundtrip"),
    (trees, "tree_to_forest", lambda: trees.enumerate_trees(K, range(1, N + 1)),
     "tree-forest-roundtrip"),
], ids=["decompose", "tree_to_forest"])
def test_an_unhashable_image_is_counted_by_equality(monkeypatch, capsys, module, attr,
                                                    sources, check):
    """A failed roundtrip has its map's images counted; an image that
    cannot hash is compared by equality, so the run ends in a report."""
    x0 = sources()[0]
    _send(monkeypatch, module, attr, x0, _listed_parts(getattr(module, attr)(x0)))
    assert set(_failing("bijections")) == {(check, K, N)}
    code, out, err = main(["verify", "--suite", "all", "--max-n", str(N)]), *capsys.readouterr()
    assert (code, err) == (1, "") and "\nsuite all: FAIL (" in out


def test_distinct_images_are_counted_by_equality():
    """A field whose parts are a set equals the field of the same parts as
    a frozenset, though only the second can hash; one stored as a list
    equals neither."""
    f = paths.decompose(paths.enumerate_paths(K, range(1, N + 1))[0])
    as_set = trusted(paths.MinimalField, parts=set(f.parts))
    assert as_set == f
    assert verify._distinct([f, as_set, _listed_parts(f), as_set, f]) == 2
    assert verify._distinct([as_set, f, _listed_parts(f)]) == 2


# -- unreadable images ------------------------------------------------------------
# An encoder image the decoders cannot read: a multiset whose f lacks a
# cycle label, or a valid multiset with no root vertices. It fails every
# check that reads it, for-all checks with its source as the counterexample,
# and the run still ends in a report.


def _f_lacking_a_label(m):
    return trusted(multisets.CyclicMultiset, k=m.k, cycle=m.cycle,
                   f={v: vec for v, vec in m.f.items() if v != m.cycle[-1]})


# each fault, the k it is tried at, and the image it puts in place of m
UNREADABLE_IMAGES = {
    "f-lacks-a-label": (2, _f_lacking_a_label),
    "rootless": (3, lambda m: _rootless_at(m.k, m.n)),
}

# each encoder, its sources at (k, N), and the checks that read its image, by
# suite; the composed check names the ornament, x0 or the one x0 carries
ENCODERS = {
    "ornament_to_multiset": (paths.enumerate_ornaments, {
        "bijections": {"ornament-multiset-roundtrip", "ornament-encoding-range",
                       "composed-correspondence-roundtrip"},
        "statistics": {"ornament-root-vertices", "touch-labels-become-roots"}}),
    "cycle_tree_to_multiset": (trees.enumerate_cycle_rooted, {
        "bijections": {"cycle-tree-multiset-roundtrip", "cycle-tree-encoding-range",
                       "composed-correspondence-roundtrip"},
        "statistics": {"cycle-tree-root-vertices"}}),
}


@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("fault", UNREADABLE_IMAGES)
def test_an_unreadable_image_fails_the_checks_that_read_it(monkeypatch, capsys, fault,
                                                           encoder):
    k, unreadable = UNREADABLE_IMAGES[fault]
    sources, reading = ENCODERS[encoder]
    x0 = sources(k, N)[0]
    ornament = x0 if encoder == "ornament_to_multiset" else multisets.cycle_tree_to_ornament(x0)
    _send(monkeypatch, multisets, encoder, x0, unreadable(getattr(multisets, encoder)(x0)))
    failed = {}
    for suite in ("all", *STRUCTURE_SUITES):
        names = reading["bijections"] | reading["statistics"] if suite == "all" else reading[suite]
        got = {(r.name, r.k, r.n): r.message
               for r in run_suite(suite, [k], N).results if not r.passed}
        assert set(got) == {(name, k, N) for name in names}, suite
        for (name, _, _), message in got.items():
            named = ornament if name == "composed-correspondence-roundtrip" else x0
            assert name not in REPLAY or message == serialize.dumps(named), name
        failed.update(got)
        # `catlog verify` over k = 2,3 reports the failure, with no traceback
        code, out, err = main(["verify", "--suite", suite, "--max-n", str(N)]), *capsys.readouterr()
        assert (code, err) == (1, "") and f"\nsuite {suite}: FAIL (" in out
    assert _replayed(monkeypatch, capsys, failed) > 0


# -- faults behind the ornament pass's reading of the cycle-tree pass ------------
# The ornament pass takes the composed checks' verdicts on a rooted image
# from its own checks once the cycle-tree pass has decoded every image back
# to its valid tree, whose cycle is the image's root vertices, and the tree
# range check has passed. Each fault below breaks one of those conditions
# without breaking the others, and must still fail the checks it fails
# when every ornament's image is decoded.


def _extra_root(monkeypatch):
    """root_vertices names, for one rooted multiset, a label above its least
    root that is no root. Both decoders start at the least root and still
    decode the multiset right; only the root-vertex checks see it."""
    m = next(m for m in multisets.enumerate_multisets(K, N)
             if multisets.root_vertices(m) and max(m.cycle) not in multisets.root_vertices(m))
    _send(monkeypatch, multisets, "root_vertices", m, multisets.root_vertices(m) | {max(m.cycle)})


# each such fault, and the checks that must fail in each suite with it in place
HIDDEN_BY_A_HIT = {
    "extra-root": (_extra_root, {
        "all": {"ornament-root-vertices", "cycle-tree-root-vertices"},
        "bijections": set(),
        "statistics": {"ornament-root-vertices", "cycle-tree-root-vertices"}}),
}


@pytest.mark.parametrize("which", HIDDEN_BY_A_HIT)
def test_a_fault_behind_a_hit_still_fails(monkeypatch, capsys, which):
    inject, failing = HIDDEN_BY_A_HIT[which]
    inject(monkeypatch)
    failed = {}
    for suite, names in failing.items():
        got = _failing(suite)
        assert set(got) == {(name, K, N) for name in names}, suite
        failed.update(got)
    assert _replayed(monkeypatch, capsys, failed) > 0


def _inject(monkeypatch, fault, which):
    """Put one fault of CORRUPTIONS, INVALID_IMAGES or HIDDEN_BY_A_HIT in place."""
    if fault == "corrupt":
        corrupt(monkeypatch, which)
    elif fault == "hidden":
        HIDDEN_BY_A_HIT[which][0](monkeypatch)
    else:
        module, attr, pick = INVALID_IMAGES[which][:3]
        x0, image, _ = pick()
        _send(monkeypatch, module, attr, x0, image)


# sha256 of json.dumps(run_suite(suite, [K], N).to_json()) with each fault in
# place, recorded before the ornament pass read the cycle-tree pass's
# verdicts: the reports of a faulty program, counterexamples included
PINNED_FAILING = {
    ("corrupt", "decompose", "all"):
        "c1f0c43c27889191f9cd76cca0da8f8bd728bdadd5fc3fb3670ae3d205c784fe",
    ("corrupt", "decompose", "bijections"):
        "0865900d4f53365d7d46668a3dbeedad3e3a76f4056663ba400f7d683789e692",
    ("corrupt", "decompose", "statistics"):
        "d36f3ae6d706e2e9cac8716b428dec8df59f5f02866e74c68d45d283be85b9cf",
    ("corrupt", "tree_to_forest", "all"):
        "e434cd96246e2b6f50d3c099b036620428b282650b071ffa222b08df2a12c248",
    ("corrupt", "tree_to_forest", "bijections"):
        "8dae38bab981e5495259e459e2176ff95fefb3cf72b7ee54db86a2b3bbd80101",
    ("corrupt", "tree_to_forest", "statistics"):
        "d36f3ae6d706e2e9cac8716b428dec8df59f5f02866e74c68d45d283be85b9cf",
    ("corrupt", "to_cycle_rooted", "all"):
        "5ef1c8135da292754fbfe57e1f8499d06e6aba10414bee73dcd3a86427b1fa71",
    ("corrupt", "to_cycle_rooted", "bijections"):
        "4f866c585ff084cb09ef39ab10319846923ff0abecc5bf4aa4d7d0dd801e44ef",
    ("corrupt", "to_cycle_rooted", "statistics"):
        "d36f3ae6d706e2e9cac8716b428dec8df59f5f02866e74c68d45d283be85b9cf",
    ("corrupt", "ornament_to_multiset", "all"):
        "54fa286a5a0712926cbedbcf68ce33ea04d61894a13174861f7313d90d15f162",
    ("corrupt", "ornament_to_multiset", "bijections"):
        "8f9e4da6b62258dfb911d19cb1383b102e54fc91e09434a387c35b15098febfa",
    ("corrupt", "ornament_to_multiset", "statistics"):
        "b7a7ef2f1b88336a949644ea2798ddd9aca99a404f230f038105ad92a156fe12",
    ("corrupt", "cycle_tree_to_multiset", "all"):
        "b8afa47282c01e1da5cbbe46f88d5ce0864cd3abe758b122f56dc87d55b2e26f",
    ("corrupt", "cycle_tree_to_multiset", "bijections"):
        "d2b025ee9ba435ea7370ef6439884aae54777d3e4fba0093204fafc096a9f5f1",
    ("corrupt", "cycle_tree_to_multiset", "statistics"):
        "99dd8229f0e02bf77561b8e100669b11bff3899c5d87cfc14b1053c97d9ae7ec",
    ("corrupt", "multiset_to_cycle_tree", "all"):
        "9902f2df7f911636d3c920ca93d28b8e5a9dbf674a19f5d08b6edae76febeccd",
    ("corrupt", "multiset_to_cycle_tree", "bijections"):
        "1d66e9713932895ad9121a5cbf7a609c91325a3bd93f1f33b7ef620c14748714",
    ("corrupt", "multiset_to_cycle_tree", "statistics"):
        "f37f65001a355a7351daa61ce5746c31fd46a1ade068a691d3530ad8b208686d",
    ("invalid", "decompose", "all"):
        "743b8be0805291f191401b8bfaf3ef79c3f360e12ab57e0e937eb79e59993e05",
    ("invalid", "decompose", "bijections"):
        "f4c989d634a13c92bd00d42f6c5809b0548cde75f1739feccb4c028069f523a3",
    ("invalid", "decompose", "statistics"):
        "d36f3ae6d706e2e9cac8716b428dec8df59f5f02866e74c68d45d283be85b9cf",
    ("invalid", "tree_to_forest", "all"):
        "cc07e2bb6fd37d0592230abe4937b9f7d503076241659b8313884e67e3adeaea",
    ("invalid", "tree_to_forest", "bijections"):
        "65f081d33e979370cfbb79f654d48bba017acdc598df9a0b5845d4cd9cb7e461",
    ("invalid", "tree_to_forest", "statistics"):
        "d36f3ae6d706e2e9cac8716b428dec8df59f5f02866e74c68d45d283be85b9cf",
    ("invalid", "to_cycle_rooted", "all"):
        "f50b85c8f0144543678103356ea28a4d3709707eb4c8ca7564635fc75709358c",
    ("invalid", "to_cycle_rooted", "bijections"):
        "e5782a592910afdf4ac15a4ee27dd758d440d88fc960611a1c944c77635d8407",
    ("invalid", "to_cycle_rooted", "statistics"):
        "d36f3ae6d706e2e9cac8716b428dec8df59f5f02866e74c68d45d283be85b9cf",
    ("invalid", "multiset_to_cycle_tree", "all"):
        "601d3b01ab4a560244102f897c4021386092b2d99e8177f01c6cf51093ece3f0",
    ("invalid", "multiset_to_cycle_tree", "bijections"):
        "1d66e9713932895ad9121a5cbf7a609c91325a3bd93f1f33b7ef620c14748714",
    ("invalid", "multiset_to_cycle_tree", "statistics"):
        "f37f65001a355a7351daa61ce5746c31fd46a1ade068a691d3530ad8b208686d",
    ("invalid", "ornament_to_multiset", "all"):
        "381b817a640f0d43eb36ede63dba8891993ffd3c30575a2137c5bdaaf971a8f6",
    ("invalid", "ornament_to_multiset", "bijections"):
        "3f06aea047f97b2841fb8ce1bf610aa224d544c58ded6d2b045033944335f89b",
    ("invalid", "ornament_to_multiset", "statistics"):
        "e3e5d2ff6bbf396310725e48b6da477bfb8720f0257fe75666d6ea2bdcd50410",
    ("invalid", "cycle_tree_to_multiset", "all"):
        "c8326fac8bea46b07e032632ff577666509126c7364bcfec8d5192943d0cdfe9",
    ("invalid", "cycle_tree_to_multiset", "bijections"):
        "7b65432a4caec750e947a484ff07ab90a5174286f47b9cab32e908dcbce20f58",
    ("invalid", "cycle_tree_to_multiset", "statistics"):
        "99dd8229f0e02bf77561b8e100669b11bff3899c5d87cfc14b1053c97d9ae7ec",
    ("hidden", "extra-root", "all"):
        "20c2129661a73a13f796933386e0384f588d41c791ccfcc81fe463724ac586fd",
    ("hidden", "extra-root", "bijections"):
        "c0dab5650f6ef5180868395d2eeaa9eec2adf13941308c32d060ee0595790130",
    ("hidden", "extra-root", "statistics"):
        "c121112f63ff901937b74d889e1b885dde033dbb7c358bcb0f3f5af667b55b71",
}


@pytest.mark.parametrize("fault, which, suite", PINNED_FAILING,
                         ids=["-".join(key) for key in PINNED_FAILING])
def test_pinned_failing_reports(monkeypatch, fault, which, suite):
    _inject(monkeypatch, fault, which)
    report = json.dumps(run_suite(suite, [K], N).to_json())
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == PINNED_FAILING[
        fault, which, suite]
