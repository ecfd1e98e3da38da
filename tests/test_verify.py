"""The verify layer: suite order under `all`, the work each suite does,
faults it must not hide, counterexamples it reports, and the pinned bytes
of one report."""

import hashlib
import io
import json
from collections import Counter

import pytest

from catlog import multisets, paths, serialize, trees, verify
from catlog.cli import main
from catlog.errors import DEFAULT_MAX_ENUMERATION
from catlog.verify import run_suite

STRUCTURE_SUITES = ("bijections", "statistics")

# sha256 of `catlog verify --suite all --k 2,3 --max-n 4 --format json`;
# a change that moves these bytes must say why and update the pin
PINNED_ALL_2_3_4 = "23ef205fdd6b4c57b4cf7b5abdd7b2367e217901630cf0c394018fe23920708a"


@pytest.mark.parametrize("ks, max_n", [([2, 3], 4), ([2], 5), ([3], 4), ([4], 3)],
                         ids=["k2,3-n4", "k2-n5", "k3-n4", "k4-n3"])
def test_all_is_the_suites_in_order(ks, max_n):
    combined = run_suite("all", ks, max_n).results
    alone = ()
    for suite in ("series", "counts", *STRUCTURE_SUITES):
        alone += run_suite(suite, ks, max_n).results
    assert combined == alone


def test_pinned_report_bytes(capsys):
    code = main(["verify", "--suite", "all", "--k", "2,3", "--max-n", "4",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_ALL_2_3_4


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


def test_statistics_builds_no_bijections_only_images(monkeypatch):
    calls = _calls(monkeypatch, BIJECTIONS[:2])
    run_suite("statistics", [2], 4)
    assert not calls


@pytest.mark.parametrize("suite, top", [("all", lambda n: n), ("counts", lambda n: min(n, 3)),
                                        ("statistics", lambda n: 0)],
                         ids=["all", "counts", "statistics"])
def test_fields_counted_once_up_to_the_largest_part_count_read(monkeypatch, suite, top):
    calls = _calls(monkeypatch, [(paths, "enumerate_fields")])
    run_suite(suite, [2], 4)
    assert calls == {("enumerate_fields", 2, n, a, DEFAULT_MAX_ENUMERATION): 1
                     for n in range(1, 5) for a in range(1, top(n) + 1)}


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
    items = multisets.enumerate_multisets(K, N, rooted_only=True)
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


def corrupt(monkeypatch, which):
    """Make one shared bijection send x0 to the image of x1; return the
    checks that must fail."""
    module, attr, pick, failing = CORRUPTIONS[which]
    x0, x1 = pick()
    real = getattr(module, attr)

    def wrong(x, *args):
        return real(x1 if x == x0 else x, *args)

    assert real(x0) != real(x1)
    monkeypatch.setattr(module, attr, wrong)
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


@pytest.mark.parametrize("which", CORRUPTIONS)
def test_counterexamples_replay(monkeypatch, capsys, which):
    corrupt(monkeypatch, which)
    failed = _failing("all")
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
    assert replayed > 0


def test_passing_checks_carry_no_counterexample():
    for r in run_suite("all", [K], N).results:
        if r.name in REPLAY:
            assert r.passed and r.message == ""


def test_first_counterexample_is_named(monkeypatch):
    x0, _ = _paths()
    corrupt(monkeypatch, "decompose")
    assert _failing("bijections")[("path-field-roundtrip", K, N)] == serialize.dumps(x0)
