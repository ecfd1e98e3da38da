import copy
import hashlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import pytest

import catlog.catalan
from catlog import cli, multisets, paths, serialize, trees
from catlog.cli import main
from catlog.multisets import CyclicMultiset
from catlog.paths import GoodPath, MinimalField, to_ornament
from catlog.trees import CycleRootedTree, PlaneTree, RootMinimalForest


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed(monkeypatch, text: str):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def run_python(*args, stdin=None, **extra_env):
    """Run a fresh interpreter that imports catlog from this checkout, with
    `stdin` as its input and `extra_env` added to its environment. Its
    stdout stays block-buffered, as in a plain run, unless `extra_env`
    sets PYTHONUNBUFFERED, so what the process writes at exit is tested."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env.update(extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, input=stdin,
                          capture_output=True, text=True, timeout=60)


# sha256 of the stdout of `catlog coeff --k 3 --max-n 60 --power 3 --check
# --format json`; a change that moves these bytes must say why
PINNED_COEFF_3_60_3 = "8212e746382aa4b77830bd9ea0e9b35e79f5d8bcb24c348dc6adc2b6e3ed5ca3"


class TestCoeff:
    def test_table_with_check(self, capsys):
        code, out, _ = run(capsys, "coeff", "--k", "2", "--max-n", "3", "--power", "1", "--check")
        assert code == 0
        assert "10/3" in out
        assert "NO" not in out

    def test_k1_expansion(self, capsys):
        code, out, _ = run(capsys, "coeff", "--k", "1", "--max-n", "4")
        assert code == 0
        assert "1/4" in out

    def test_power_two_first_row_is_zero(self, capsys):
        code, out, _ = run(capsys, "coeff", "--k", "2", "--max-n", "1", "--power", "2")
        assert code == 0
        assert out.splitlines()[-1].split()[-1] == "0"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "coeff", "--k", "2", "--max-n", "2", "--check",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1,1/1,1/1,true"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "coeff", "--k", "3", "--max-n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][1]["closed_form"] == "5/2"

    def test_k1_higher_power_is_usage_error(self, capsys):
        code, _, err = run(capsys, "coeff", "--k", "1", "--max-n", "3", "--power", "2")
        assert code == 2
        assert "error" in err

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "coeff", "--k", "2", "--max-n", "0")
        assert code == 2

    def test_deep_checked_json_bytes(self, capsys):
        code, out, _ = run(capsys, "coeff", "--k", "3", "--max-n", "60", "--power", "3",
                           "--check", "--format", "json")
        assert code == 0
        assert all(row["match"] for row in json.loads(out)["rows"])
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_COEFF_3_60_3

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_mismatch_exits_1(self, capsys, monkeypatch, fmt):
        real = catlog.catalan.coeff_log

        def skewed(k, n):
            value = real(k, n)
            return value + 1 if (k, n) == (2, 3) else value

        monkeypatch.setattr(catlog.catalan, "coeff_log", skewed)
        code, out, _ = run(capsys, "coeff", "--k", "2", "--max-n", "4", "--check",
                           "--format", fmt)
        assert code == 1
        assert out.count("NO" if fmt == "table" else "false") == 1
        # without --check nothing is compared, so nothing can fail
        code, _, _ = run(capsys, "coeff", "--k", "2", "--max-n", "4", "--format", fmt)
        assert code == 0


ENUMERATED = ("paths", "minimal-paths", "ornaments", "trees", "minimal-trees",
              "cycle-trees", "multisets", "rooted-multisets")

# sha256 of the stdout of `catlog enumerate --structure S --k K --n N`, one
# run after another for (K, N) = (2,4), (3,3), (4,2) and S in ENUMERATED;
# a change that moves these bytes must say why and update the pin
PINNED_ENUMERATE = "2590de9f5df56626575f12446a6030d6d8825fd4c16b88bf1570381968d1f1a5"


class TestEnumerate:
    def test_ornament_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--structure", "ornaments",
                           "--k", "2", "--n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[-1]) == {
            "kind": "summary", "structure": "ornaments", "k": 2, "n": 2, "count": 3,
        }

    def test_single_path(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--structure", "paths", "--k", "2", "--n", "1")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert json.loads(lines[0]) == {
            "kind": "path", "k": 2, "steps": "RU", "labels": [1],
        }

    def test_rooted_multisets(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--structure", "rooted-multisets",
                           "--k", "3", "--n", "2")
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["count"] == 5

    def test_byte_identical_runs(self, capsys):
        args = ("enumerate", "--structure", "cycle-trees", "--k", "2", "--n", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_pinned_bytes(self, capsys):
        digest = hashlib.sha256()
        for k, n in ((2, 4), (3, 3), (4, 2)):
            for structure in ENUMERATED:
                code, out, _ = run(capsys, "enumerate", "--structure", structure,
                                   "--k", str(k), "--n", str(n))
                assert code == 0
                digest.update(out.encode("utf-8"))
        assert digest.hexdigest() == PINNED_ENUMERATE

    def test_cap_exit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--structure", "paths",
                           "--k", "2", "--n", "12")
        assert code == 2
        assert "cap" in err

    def test_cap_refusal_creates_no_output_file(self, capsys, tmp_path):
        dst = tmp_path / "paths.jsonl"
        code, out, err = run(capsys, "enumerate", "--structure", "paths",
                             "--k", "2", "--n", "12", "--output", str(dst))
        assert code == 2 and "cap" in err and out == ""
        assert not dst.exists()

    def test_streams_in_flat_memory(self, tmp_path):
        """One structure at a time: holding the 3,024 cycle-rooted trees
        of (2, 5) and their JSON lines took 5 MB."""
        dst = tmp_path / "cycle-trees.jsonl"
        tracemalloc.start()
        try:
            code = main(["enumerate", "--structure", "cycle-trees", "--k", "2", "--n", "5",
                         "--output", str(dst)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lines = dst.read_text().splitlines()
        assert code == 0 and len(lines) == 3025
        assert json.loads(lines[-1])["count"] == 3024
        assert peak < 1_000_000

    def test_every_structure_runs(self, capsys):
        for structure in ENUMERATED:
            code, out, _ = run(capsys, "enumerate", "--structure", structure,
                               "--k", "2", "--n", "2")
            assert code == 0
            assert json.loads(out.strip().splitlines()[-1])["kind"] == "summary"


class TestVerify:
    def test_series_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "series", "--k", "2,3",
                           "--max-n", "8")
        assert code == 0
        assert "PASS" in out

    def test_bijections_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijections", "--k", "2",
                           "--max-n", "3")
        assert code == 0

    def test_statistics_suite_passes(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "statistics", "--k", "2",
                         "--max-n", "3")
        assert code == 0

    def test_all_suite_with_k1_runs_series_checks_only_for_k1(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--k", "1,2",
                           "--max-n", "2")
        assert code == 0
        assert "[all] log-coefficient k=1" in out
        assert "[all] path-count k=2" in out

    def test_bad_bound_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "counts", "--k", "2", "--max-n", "0")
        assert code == 2

    def test_k_that_is_no_integer_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "all", "--k", "2,x")
        assert (code, out) == (2, "")
        assert err == "error: --k wants an integer or comma list, got '2,x'\n"

    def test_k1_structures_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "counts", "--k", "1", "--max-n", "2")
        assert code == 2

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--k", "2",
                           "--max-n", "2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["overall"] is True
        assert all(point["pass"] for point in report["points"])

    def test_injected_fault_flips_exit_code(self, capsys, monkeypatch):
        real = catlog.catalan.coeff_log

        def skewed(k, n):
            value = real(k, n)
            return value + 1 if (k, n) == (2, 3) else value

        monkeypatch.setattr(catlog.catalan, "coeff_log", skewed)
        code, out, _ = run(capsys, "verify", "--suite", "series", "--k", "2",
                           "--max-n", "4")
        assert code == 1
        assert "FAIL" in out


class TestMap:
    def test_path_to_minimal_field(self, capsys, monkeypatch):
        feed(monkeypatch, '{"kind":"path","k":2,"steps":"RURU","labels":[2,1]}')
        code, out, _ = run(capsys, "map", "--target", "minimal-field")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "field"
        assert [p["labels"] for p in obj["parts"]] == [[1], [2]]

    def test_ornament_to_cycle_tree(self, capsys, monkeypatch):
        feed(monkeypatch, '{"kind":"ornament","k":2,"steps":"RRUU","labels":[1,2]}')
        code, out, _ = run(capsys, "map", "--target", "cycle-tree")
        assert code == 0
        assert json.loads(out) == {
            "kind": "cycle-tree", "k": 2, "cycle": [1],
            "slots": {"1": [2, None], "2": [None, None]},
        }

    def test_identity(self, capsys, monkeypatch):
        tree_json = '{"kind":"tree","k":2,"root":2,"slots":{"2":[null,1],"1":[null,null]}}'
        feed(monkeypatch, tree_json)
        code, out, _ = run(capsys, "map", "--target", "tree")
        assert code == 0
        assert json.loads(out) == json.loads(tree_json)

    def test_malformed_json(self, capsys, monkeypatch):
        feed(monkeypatch, "{nope")
        code, _, err = run(capsys, "map", "--target", "tree")
        assert code == 2

    def test_invariant_violation_named(self, capsys, monkeypatch):
        feed(monkeypatch, '{"kind":"path","k":2,"steps":"UURR","labels":[1,2]}')
        code, _, err = run(capsys, "map", "--target", "ornament")
        assert code == 2
        assert "good word" in err

    def test_composition_closes(self, capsys, monkeypatch):
        # path -> ornament -> multiset -> cycle-tree -> tree -> cycle-tree -> multiset
        state = '{"kind":"path","k":2,"steps":"RURRUU","labels":[2,3,1]}'
        hops = ["ornament", "multiset", "cycle-tree", "tree", "cycle-tree", "multiset"]
        seen = []
        for target in hops:
            feed(monkeypatch, state)
            code, out, _ = run(capsys, "map", "--target", target)
            assert code == 0
            state = out.strip()
            seen.append(json.loads(state))
        assert seen[1] == seen[-1]  # same canonical multiset both times

    def test_file_input(self, capsys, tmp_path):
        src = tmp_path / "path.json"
        src.write_text('{"kind":"path","k":2,"steps":"RU","labels":[4]}')
        code, out, _ = run(capsys, "map", "--target", "ornament", "--input", str(src))
        assert code == 0
        assert json.loads(out)["kind"] == "ornament"

    def test_output_file(self, capsys, tmp_path, monkeypatch):
        dst = tmp_path / "out.json"
        feed(monkeypatch, '{"kind":"path","k":2,"steps":"RU","labels":[4]}')
        code, _, _ = run(capsys, "map", "--target", "path", "--output", str(dst))
        assert code == 0
        assert json.loads(dst.read_text())["labels"] == [4]


def _every_structure(k: int, n: int) -> dict:
    """Every structure of each kind that `catlog map` converts, on labels
    1..n: the multisets with root vertices only, the forests as the trees' images."""
    labels = range(1, n + 1)
    plane = trees.enumerate_trees(k, labels)
    return {
        "path": paths.enumerate_paths(k, labels),
        "field": [f for a in labels for f in paths.enumerate_fields(k, n, a)],
        "ornament": paths.enumerate_ornaments(k, n),
        "multiset": [m for m in multisets.enumerate_multisets(k, n) if multisets.root_vertices(m)],
        "cycle-tree": trees.enumerate_cycle_rooted(k, n),
        "tree": plane,
        "forest": [trees.tree_to_forest(t) for t in plane],
    }


# where a map is defined on part of its source kind only: an ornament is
# read off a label-minimal path, a cycle bent from a root-minimal tree
_DOMAIN = {paths.to_ornament: paths.is_label_minimal, trees.to_cycle_rooted: trees.is_root_minimal}


@pytest.mark.parametrize("k, n", [(2, 4), (3, 3)])
def test_each_map_is_undone_by_its_inverse(k, n):
    every = _every_structure(k, n)
    for a, b, there, back in cli._MAPS:
        for source, target, fn, inverse in ((a, b, there, back), (b, a, back, there)):
            domain = _DOMAIN.get(fn)
            xs = [x for x in every[source] if domain is None or domain(x)]
            assert xs, (source, fn)
            for x in xs:
                y = fn(x)
                assert serialize.KINDS[type(y)] == target
                assert inverse(y) == x, (fn.__name__, x)


# the chain of maps `catlog map` takes from each kind to each other kind
ROUTES = """
path field: decompose
path ornament: to_ornament
path tree: to_ornament ornament_to_multiset multiset_to_cycle_tree to_root_minimal
path forest: to_ornament ornament_to_multiset multiset_to_cycle_tree to_root_minimal tree_to_forest
path cycle-tree: to_ornament ornament_to_multiset multiset_to_cycle_tree
path multiset: to_ornament ornament_to_multiset
field path: recompose
field ornament: recompose to_ornament
field tree: recompose to_ornament ornament_to_multiset multiset_to_cycle_tree to_root_minimal
field forest: recompose to_ornament ornament_to_multiset multiset_to_cycle_tree to_root_minimal
    tree_to_forest
field cycle-tree: recompose to_ornament ornament_to_multiset multiset_to_cycle_tree
field multiset: recompose to_ornament ornament_to_multiset
ornament path: rep
ornament field: rep decompose
ornament tree: ornament_to_multiset multiset_to_cycle_tree to_root_minimal
ornament forest: ornament_to_multiset multiset_to_cycle_tree to_root_minimal tree_to_forest
ornament cycle-tree: ornament_to_multiset multiset_to_cycle_tree
ornament multiset: ornament_to_multiset
tree path: to_cycle_rooted cycle_tree_to_multiset multiset_to_ornament rep
tree field: to_cycle_rooted cycle_tree_to_multiset multiset_to_ornament rep decompose
tree ornament: to_cycle_rooted cycle_tree_to_multiset multiset_to_ornament
tree forest: tree_to_forest
tree cycle-tree: to_cycle_rooted
tree multiset: to_cycle_rooted cycle_tree_to_multiset
forest path: forest_to_tree to_cycle_rooted cycle_tree_to_multiset multiset_to_ornament rep
forest field: forest_to_tree to_cycle_rooted cycle_tree_to_multiset multiset_to_ornament rep
    decompose
forest ornament: forest_to_tree to_cycle_rooted cycle_tree_to_multiset multiset_to_ornament
forest tree: forest_to_tree
forest cycle-tree: forest_to_tree to_cycle_rooted
forest multiset: forest_to_tree to_cycle_rooted cycle_tree_to_multiset
cycle-tree path: cycle_tree_to_multiset multiset_to_ornament rep
cycle-tree field: cycle_tree_to_multiset multiset_to_ornament rep decompose
cycle-tree ornament: cycle_tree_to_multiset multiset_to_ornament
cycle-tree tree: to_root_minimal
cycle-tree forest: to_root_minimal tree_to_forest
cycle-tree multiset: cycle_tree_to_multiset
multiset path: multiset_to_ornament rep
multiset field: multiset_to_ornament rep decompose
multiset ornament: multiset_to_ornament
multiset tree: multiset_to_cycle_tree to_root_minimal
multiset forest: multiset_to_cycle_tree to_root_minimal tree_to_forest
multiset cycle-tree: multiset_to_cycle_tree
"""


def test_route_takes_each_chain():
    # an indented line goes on with the chain above it
    want = dict(line.split(": ") for line in ROUTES.replace("\n    ", " ").strip().splitlines())
    ornament = to_ornament(GoodPath(2, "RU", (1,)))

    def name(fn):  # the one map without a name reads an ornament's representative
        if fn.__name__ != "<lambda>":
            return fn.__name__
        assert fn(ornament) is ornament.rep
        return "rep"

    kinds = serialize.KINDS.values()
    assert len(want) == len(kinds) * (len(kinds) - 1)
    for source in kinds:
        for target in kinds:
            got = " ".join(map(name, cli._route(source, target)))
            assert got == want.get(f"{source} {target}", ""), (source, target)

SINGLE_PATH = '{"kind":"path","k":2,"steps":"RU","labels":[1]}'
SINGLE_TREE = '{"kind":"tree","k":2,"root":1,"slots":{"1":[null,null]}}'


class TestRender:
    def test_small_path_grid(self, capsys, monkeypatch):
        feed(monkeypatch, '{"kind":"path","k":2,"steps":"RU","labels":[1]}')
        code, out, _ = run(capsys, "render")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_touches_marked(self, capsys, monkeypatch):
        feed(monkeypatch, '{"kind":"path","k":2,"steps":"RURU","labels":[1,2]}')
        code, out, _ = run(capsys, "render")
        assert code == 0
        assert out.count("o") == 2  # one marker per diagonal touch

    def test_cycle_tree_header(self, capsys, monkeypatch):
        c = CycleRootedTree(2, (1, 3), {1: (None, None), 3: (2, None), 2: (None, None)})
        feed(monkeypatch, serialize.dumps(c))
        code, out, _ = run(capsys, "render")
        assert code == 0
        assert "1 -> 3 -> (1)" in out

    def test_tree_listing(self, capsys, monkeypatch):
        t = PlaneTree(2, 2, {2: (None, 1), 1: (None, None)})
        feed(monkeypatch, serialize.dumps(t))
        code, out, _ = run(capsys, "render")
        assert code == 0
        assert "[2] 1" in out and "[1] -" in out

    @pytest.mark.parametrize("text, kind", [
        ('{"kind":"field","parts":[%s]}' % SINGLE_PATH, "MinimalField"),
        ('{"kind":"forest","parts":[%s]}' % SINGLE_TREE, "RootMinimalForest"),
    ])
    def test_field_and_forest_are_not_drawn(self, capsys, monkeypatch, text, kind):
        feed(monkeypatch, text)
        assert run(capsys, "render") == (2, "", f"error: cannot render {kind}\n")

    def test_malformed(self, capsys, monkeypatch):
        feed(monkeypatch, '{"kind":"multiset","k":2,"cycle":[1],"f":{"1":[1]}}')
        code, _, err = run(capsys, "render")
        assert code == 2


class TestShapeErrors:
    @pytest.mark.parametrize("text, field", [
        ('{"kind":"multiset","k":2,"cycle":[1],"f":[1]}', "f"),
        ('{"kind":"field","parts":5}', "parts"),
        ('{"kind":"path","k":2,"steps":"RU","labels":5}', "labels"),
        # fields are read in declaration order: a missing k is named first
        ('{"kind":"path","steps":"RU","labels":5}', "path object is missing field 'k'"),
        ('{"kind":"multiset","k":2,"cycle":[1],"f":{"1":1}}', "f"),
        ('{"kind":"forest","parts":[{"kind":"path","k":2,"steps":"RU","labels":[1]}]}',
         "part"),
        # one vertex named twice: keys that read as the same integer
        ('{"kind":"tree","k":2,"root":1,"slots":{"1":[null,null],"01":[null,null]}}',
         "slots names vertex 1"),
        ('{"kind":"cycle-tree","k":2,"cycle":[1],'
         '"slots":{"1":[null,null]," 1":[null,null]}}', "slots names vertex 1"),
        ('{"kind":"multiset","k":2,"cycle":[10],"f":{"10":[1],"1_0":[1]}}',
         "f names vertex 10"),
        # a literal repeated key, which json.loads alone would drop
        ('{"kind":"tree","k":2,"root":1,"slots":{"1":[null,null],"1":[null,null]}}',
         "repeats the key '1'"),
        ('{"kind":"path","k":2,"steps":"RU","labels":[1],"kind":"tree"}',
         "repeats the key 'kind'"),
        # a field or forest that lists one part twice
        ('{"kind":"field","parts":[%s,%s]}' % ((SINGLE_PATH,) * 2), "parts lists one part"),
        ('{"kind":"forest","parts":[%s,%s]}' % ((SINGLE_TREE,) * 2), "parts lists one part"),
        # well-formed JSON that breaks a structure invariant
        ('{"kind":"tree","k":2,"root":1,"slots":{"1":[2,null]}}',
         "vertex 2 sits in a slot but has no slot array"),
        ('{"kind":"tree","k":2,"root":1,'
         '"slots":{"1":[null,null],"2":[3,null],"3":[2,null]}}',
         "vertex 2 hangs below no root"),
        ('{"kind":"tree","k":2,"root":1,"slots":{"1":[null,1]}}', "root 1 sits in a slot"),
        ('{"kind":"cycle-tree","k":2,"cycle":[1,2],'
         '"slots":{"1":[2,null],"2":[null,null]}}', "root 2 sits in a slot"),
        ('{"kind":"multiset","k":3,"cycle":[1],"f":{"1":[1]}}',
         "multiplicity vector of 1 must have length k-1 = 2"),
        ('{"kind":"multiset","k":2,"cycle":[1,2],"f":{"1":[1],"2":[2]}}',
         "multiplicities sum to 3, must equal the label count 2"),
        ('{"kind":"multiset","k":2,"cycle":[-1,0],"f":{"0":[1],"-1":[1]}}',
         "cycle labels must be positive integers"),
        # JSON that is no structure object, and a slot array that is no list
        ('[1]', "input must be a JSON object with a 'kind' field"),
        ('{"k":2}', "input must be a JSON object with a 'kind' field"),
        ('{"kind":"tree","k":2,"root":1,"slots":{"1":5}}', "each slot array must be a list"),
        # a string that is no integer
        ('{"kind":"tree","k":2,"root":1,"slots":{"1":[null,"2"],"2":[null,"x"]}}',
         "invalid literal for int() with base 10: 'x'"),
        ('{"kind":"tree","k":2,"root":1,"slots":{"1":[null,null],"2.0":[null,null]}}',
         "invalid literal for int() with base 10: '2.0'"),
    ])
    @pytest.mark.parametrize("argv", [("map", "--target", "ornament"), ("render",),
                                      ("map", "--target", "multiset")])
    def test_exit_2_naming_the_field(self, capsys, monkeypatch, text, field, argv):
        feed(monkeypatch, text)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert field in err


def _fields_of_fields(depth: int) -> str:
    """A field whose only part is a field, `depth` fields deep, around a path."""
    return '{"kind":"field","parts":[' * depth + SINGLE_PATH + "]}" * depth


DEEP = "error: input nests too deeply to be a structure\n"
PARTS = "error: the parts of a field must be a collection of GoodPath\n"


class TestDeepJSON:
    """JSON nested past the recursion limit exits 2 with one line from the
    JSON parser. The reader reads a part only if it is of its container's
    part kind, so a field of fields gets the constructor's message at any
    depth the parser accepts, on every Python."""

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, DEEP), (_fields_of_fields(450), PARTS), (_fields_of_fields(10_000), DEEP),
    ], ids=["open-brackets", "fields-of-fields", "fields-of-fields-10000"])
    @pytest.mark.parametrize("argv", [("map", "--target", "path"), ("render",)],
                             ids=["map", "render"])
    def test_exits_2_with_one_line(self, capsys, monkeypatch, text, message, argv):
        feed(monkeypatch, text)
        assert run(capsys, *argv) == (2, "", message)

    def test_in_a_fresh_process(self):
        for depth, message in [(450, PARTS), (10_000, DEEP)]:
            proc = run_python("-m", "catlog", "map", "--target", "path",
                              stdin=_fields_of_fields(depth))
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

    def test_a_shallow_field_of_fields_keeps_its_message(self, capsys, monkeypatch):
        feed(monkeypatch, _fields_of_fields(2))
        assert run(capsys, "map", "--target", "path") == (2, "", PARTS)


# a bool, float, list or non-string where an int or a str belongs, as JSON,
# and the same value handed to the Python constructor: the JSON layer hands
# it on, and map and render refuse it with the constructor's own message
WRONG_TYPES = [
    ('{"kind":"path","k":2,"steps":"RURU","labels":[1,true]}',
     lambda: GoodPath(2, "RURU", [1, True])),
    ('{"kind":"path","k":2,"steps":"RURU","labels":[1.0,2]}',
     lambda: GoodPath(2, "RURU", [1.0, 2])),
    ('{"kind":"path","k":2,"steps":"RU","labels":[1.0]}', lambda: GoodPath(2, "RU", [1.0])),
    ('{"kind":"path","k":2,"steps":"RU","labels":[true]}', lambda: GoodPath(2, "RU", [True])),
    ('{"kind":"path","k":2,"steps":"RU","labels":[[1]]}', lambda: GoodPath(2, "RU", [[1]])),
    ('{"kind":"multiset","k":2,"cycle":[1,2.0],"f":{"1":[1],"2":[1]}}',
     lambda: CyclicMultiset(2, [1, 2.0], [(1, [1]), (2, [1])])),
    ('{"kind":"multiset","k":2,"cycle":[1],"f":{"1":[false]}}',
     lambda: CyclicMultiset(2, [1], [(1, [False])])),
    ('{"kind":"tree","k":2,"root":1,"slots":{"1":[true,null]}}',
     lambda: PlaneTree(2, 1, [(1, [True, None])])),
    ('{"kind":"cycle-tree","k":2,"cycle":[1],"slots":{"1":[2.0,null],"2":[null,null]}}',
     lambda: CycleRootedTree(2, [1], [(1, [2.0, None]), (2, [None, None])])),
    ('{"kind":"path","k":2.0,"steps":"RU","labels":[1]}', lambda: GoodPath(2.0, "RU", [1])),
    ('{"kind":"tree","k":true,"root":1,"slots":{"1":[null]}}',
     lambda: PlaneTree(True, 1, [(1, [None])])),
    ('{"kind":"multiset","k":2.0,"cycle":[1],"f":{"1":[1]}}',
     lambda: CyclicMultiset(2.0, [1], [(1, [1])])),
    ('{"kind":"tree","k":2,"root":1.0,"slots":{"1":[null,null]}}',
     lambda: PlaneTree(2, 1.0, [(1, [None, None])])),
    ('{"kind":"path","k":2,"steps":["R","U"],"labels":[1]}',
     lambda: GoodPath(2, ["R", "U"], [1])),
    ('{"kind":"path","k":2,"steps":5,"labels":[1]}', lambda: GoodPath(2, 5, [1])),
    ('{"kind":"forest","parts":[%s]}' % SINGLE_PATH,
     lambda: RootMinimalForest([GoodPath(2, "RU", [1])])),
    ('{"kind":"field","parts":[%s]}' % SINGLE_TREE,
     lambda: MinimalField([PlaneTree(2, 1, [(1, [None, None])])])),
]


@pytest.mark.parametrize("text, build", WRONG_TYPES, ids=[text for text, _ in WRONG_TYPES])
@pytest.mark.parametrize("argv", [("map", "--target", "ornament"), ("render",),
                                  ("map", "--target", "multiset")])
def test_wrong_type_gets_the_constructor_message(capsys, monkeypatch, text, build, argv):
    with pytest.raises(ValueError) as refused:
        build()
    feed(monkeypatch, text)
    assert run(capsys, *argv) == (2, "", f"error: {refused.value}\n")


# values a mutation writes over a field, an entry or a slot of valid JSON
MUTANTS = [0, -1, 2, 10**30, 1.0, 2.5, float("nan"), True, None, "1", "01", "x", "RU",
           [], [1], [None], {}, {"1": [None, None]}, {"kind": "path"}]


def _mutated(obj, rng):
    """obj with one to three of its values replaced or deleted, or a key added."""
    for _ in range(rng.randint(1, 3)):
        spots, stack = [], [obj]
        while stack:  # every (container, key) pair below obj
            x = stack.pop()
            keys = x if isinstance(x, dict) else range(len(x)) if isinstance(x, list) else ()
            spots += [(x, key) for key in keys]
            stack += [x[key] for key in keys]
        x, key = rng.choice(spots)
        if isinstance(x, dict) and rng.random() < 0.2:
            del x[key]
        elif isinstance(x, dict) and rng.random() < 0.2:
            x[str(rng.randint(0, 5))] = copy.deepcopy(rng.choice(MUTANTS))
        else:
            x[key] = copy.deepcopy(rng.choice(MUTANTS))
    return obj


def test_mutated_json_exits_0_or_2(monkeypatch):
    """Seeded mutations of valid inputs: every map and render call returns
    0 or 2, and no exception escapes main."""
    rng = random.Random(2023)
    valid = [serialize.to_obj(x) for x in (
        GoodPath(3, "RUURRUUUURUU", (5, 2, 4, 1)), to_ornament(GoodPath(2, "RRUU", (2, 1))),
        MinimalField({GoodPath(2, "RU", (1,)), GoodPath(2, "RRUU", (3, 2))}),
        PlaneTree(2, 2, {2: (3, 1), 1: (None, None), 3: (None, None)}),
        RootMinimalForest({PlaneTree(2, 2, {2: (None, None)}),
                           PlaneTree(2, 1, {1: (None, None)})}),
        CycleRootedTree(3, (1, 3), {1: (2, None, None), 2: (None,) * 3, 3: (None,) * 3}),
        CyclicMultiset(3, (1, 3, 2), {1: (0, 2), 2: (1, 0), 3: (0, 0)}),
    )]
    targets = [("render",)] + [("map", "--target", kind) for kind in serialize.KINDS.values()]
    codes = set()
    for _ in range(3000):
        feed(monkeypatch, json.dumps(_mutated(copy.deepcopy(rng.choice(valid)), rng)))
        codes.add(main(list(rng.choice(targets))))
    assert codes == {0, 2}


def _part(kind: str, **fields) -> str:
    return json.dumps({"kind": kind, "k": 2, **fields})


@pytest.mark.parametrize("text, message", [
    # a part that is not label-minimal, and two parts sharing label 3
    ('{"kind":"field","parts":[%s,%s,%s]}' % (
        _part("path", steps="RURU", labels=[2, 1]), _part("path", steps="RU", labels=[3]),
        _part("path", steps="RURU", labels=[3, 4])),
     "every part of a field must be label-minimal"),
    # a tree that is not root-minimal, and two trees sharing vertex 3
    ('{"kind":"forest","parts":[%s,%s,%s]}' % (
        _part("tree", root=2, slots={"2": [None, 1], "1": [None, None]}),
        _part("tree", root=3, slots={"3": [None, None]}),
        _part("tree", root=4, slots={"4": [3, None], "3": [None, None]})),
     "every tree of the forest must be root-minimal"),
], ids=["field", "forest"])
def test_two_broken_invariants_get_one_verdict_in_every_process(text, message):
    """The set order of the parts changes from process to process: str
    hashes are seeded, and None hashed by address before Python 3.12."""
    for seed in range(6):
        result = run_python("-m", "catlog", "render", stdin=text, PYTHONHASHSEED=str(seed))
        assert (result.returncode, result.stderr) == (2, f"error: {message}\n"), seed


def _digit_strings(obj, every: int):
    """obj with every `every`-th int, in reading order, written as a digit string."""
    count = itertools.count()

    def convert(x):
        if isinstance(x, list):
            return [convert(y) for y in x]
        if isinstance(x, dict):
            return {key: value if key in ("kind", "steps") else convert(value)
                    for key, value in x.items()}
        if isinstance(x, int) and next(count) % every == 0:
            return str(x)
        return x

    return convert(obj)


class TestDigitStrings:
    """JSON digit strings where ints belong build the same structure, all
    of them strings or mixed with ints."""

    PATH = GoodPath(3, "RUURRUUUURUU", (5, 2, 4, 1))  # touch labels 5, 2 and 1

    @pytest.mark.parametrize("every", [1, 2])
    @pytest.mark.parametrize("target", list(serialize.KINDS.values()))
    def test_same_output_as_ints(self, capsys, monkeypatch, target, every):
        feed(monkeypatch, serialize.dumps(self.PATH))
        code, text, _ = run(capsys, "map", "--target", target)
        assert code == 0
        feed(monkeypatch, json.dumps(_digit_strings(json.loads(text), every)))
        assert run(capsys, "map", "--target", target) == (0, text, "")


class TestDeepCycleTree:
    """A cycle-rooted tree whose root hangs a 1500-deep slot-0 chain."""

    K, DEPTH = 3, 1500

    @pytest.fixture
    def deep(self, monkeypatch):
        n = self.DEPTH + 1
        slots = {v: (v + 1, None, None) for v in range(1, n)}
        slots[n] = (None, None, None)
        feed(monkeypatch, serialize.dumps(CycleRootedTree(self.K, (1,), slots)))
        return n

    def test_to_ornament(self, capsys, deep):
        code, out, _ = run(capsys, "map", "--target", "ornament")
        assert code == 0
        assert json.loads(out)["steps"] == "R" * deep + "U" * ((self.K - 1) * deep)

    def test_to_multiset(self, capsys, deep):
        code, out, _ = run(capsys, "map", "--target", "multiset")
        assert code == 0
        f = json.loads(out)["f"]
        assert f["1"] == [deep, 0]
        assert all(vec == [0, 0] for v, vec in f.items() if v != "1")

    def test_render(self, capsys, deep):
        code, out, _ = run(capsys, "render")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 + 1 + self.K * deep
        depths = [int(line.split()[0]) for line in lines[3:]]
        assert max(depths) == self.DEPTH + 1  # the deepest vertex's slots

    def test_render_is_linear(self, capsys, deep):
        code, out, _ = run(capsys, "render")
        assert code == 0
        # one short line per slot: the depth is a number, not an indent
        assert len(out) < 16 * self.K * deep


class TestHugOrnament:
    """The path that touches the diagonal only at its origin: its cycle-rooted
    tree hangs one chain as deep as the path is long."""

    @pytest.mark.parametrize("k, n", [(3, 1071), (4, 1476)])
    def test_to_cycle_tree_and_back(self, capsys, monkeypatch, k, n):
        orn = serialize.dumps(to_ornament(GoodPath(k, "R" * n + "U" * ((k - 1) * n),
                                                   tuple(range(1, n + 1)))))
        feed(monkeypatch, orn)
        code, tree, _ = run(capsys, "map", "--target", "cycle-tree")
        assert code == 0
        assert json.loads(tree)["cycle"] == [1]
        feed(monkeypatch, tree)
        code, back, _ = run(capsys, "map", "--target", "ornament")
        assert code == 0
        assert back.strip() == orn


class TestSerialization:
    def test_roundtrip_all_kinds(self):
        p = GoodPath(2, "RURU", (2, 1))
        objs = [
            p,
            to_ornament(p),
            MinimalField(frozenset({GoodPath(2, "RU", (1,)), GoodPath(2, "RU", (2,))})),
            PlaneTree(2, 1, {1: (2, None), 2: (None, None)}),
            CycleRootedTree(2, (1,), {1: (2, None), 2: (None, None)}),
        ]
        for x in objs:
            assert serialize.loads(serialize.dumps(x)) == x

    @staticmethod
    def falling(k, n):
        """A path that touches the diagonal at each label, largest first,
        and a tree whose rightmost branch falls from n to 1: a field and
        a forest of n parts."""
        path = GoodPath(k, ("R" + "U" * (k - 1)) * n, tuple(range(n, 0, -1)))
        rows = {v: (None,) * (k - 1) + (v - 1 or None,) for v in range(1, n + 1)}
        return paths.decompose(path), trees.tree_to_forest(PlaneTree(k, n, rows))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_dumps_is_json_dumps_of_to_obj(self, k):
        """Every kind, and fields and forests of one part up to past three
        encode batches, write the bytes of one json.dumps of to_obj."""
        xs = [*paths.enumerate_paths(k, range(1, 4)), *paths.enumerate_ornaments(k, 3),
              *trees.enumerate_trees(k, range(1, 4)), *trees.enumerate_cycle_rooted(k, 3),
              *multisets.enumerate_multisets(k, 3),
              *(f for a in (1, 2, 3) for f in paths.enumerate_fields(k, 3, a))]
        xs += [trees.tree_to_forest(t) for t in trees.enumerate_trees(k, range(1, 4))]
        many = (serialize._BATCH, serialize._BATCH + 1, 3 * serialize._BATCH + 5)
        for n in (1, 2, *many):
            xs += self.falling(k, n)
        assert {len(x.parts) for x in xs if hasattr(x, "parts")} >= {1, 2, 3, *many}
        assert set(map(type, xs)) == set(serialize.KINDS)
        for x in xs:
            assert serialize.dumps(x) == json.dumps(serialize.to_obj(x), separators=(",", ":"))

    def test_dumps_holds_no_token_of_every_part_at_once(self):
        """A 20,000-part field, 1.03 MB of text, written in a bounded peak:
        2.3 MB on CPython 3.11, where one json.dumps of its to_obj peaks
        at 9.3 MB."""
        n = 20_000
        field = self.falling(2, n)[0]
        tracemalloc.start()
        try:
            text = serialize.dumps(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count('"kind":"path"') == n
        assert peak < 5_000_000, peak

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            serialize.from_obj({"kind": "widget"})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            serialize.from_obj({"kind": "path", "k": 2})


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_structure(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--structure", "widgets", "--k", "2", "--n", "1")
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "everything")
        assert code == 2

    def test_enumerate_has_no_format_option(self, capsys):
        code, _, err = run(capsys, "enumerate", "--structure", "paths", "--k", "2",
                           "--n", "1", "--format", "jsonl")
        assert code == 2 and "unrecognized arguments: --format" in err


class TestSharedParser:
    """main builds its parser on the first call and reuses it."""

    def test_usage_error_then_valid_call(self, capsys):
        assert run(capsys, "coeff", "--k", "two")[0] == 2
        assert run(capsys, "coeff", "--k", "2", "--max-n", "2")[0] == 0

    def test_output_flag_does_not_carry_over(self, capsys, tmp_path, monkeypatch):
        dst = tmp_path / "out.json"
        path_json = '{"kind":"path","k":2,"steps":"RU","labels":[4]}'
        feed(monkeypatch, path_json)
        assert run(capsys, "map", "--target", "path", "--output", str(dst))[0] == 0
        dst.unlink()
        feed(monkeypatch, path_json)
        code, out, _ = run(capsys, "map", "--target", "path")
        assert code == 0
        assert json.loads(out)["labels"] == [4]
        assert not dst.exists()

    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: catlog")

    def test_built_once_and_not_on_import(self):
        script = textwrap.dedent("""
            import argparse
            built = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            import catlog.cli
            if built:
                raise SystemExit("importing catlog.cli built a parser")
            catlog.cli.main(["coeff", "--max-n", "1"])
            first = len(built)
            catlog.cli.main(["coeff", "--max-n", "1"])
            if not first or len(built) != first:
                raise SystemExit(f"parsers built: {first}, then {len(built)}")
        """)
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr


# one request per command; map and render read SINGLE_PATH from --input
OUTPUT_REQUESTS = {
    "map": ["map", "--target", "tree"],
    "render": ["render"],
    "enumerate": ["enumerate", "--structure", "paths", "--k", "2", "--n", "2"],
    "coeff": ["coeff", "--k", "2", "--max-n", "3"],
    "verify": ["verify", "--suite", "series", "--k", "2", "--max-n", "3"],
}


class TestOutputInPlace:
    """A regular --output file is rewritten in place and cut to what was
    written; any other target is written as a stream."""

    @staticmethod
    def request(tmp_path, command: str) -> list:
        argv = list(OUTPUT_REQUESTS[command])
        if command in ("map", "render"):
            src = tmp_path / "in.json"
            src.write_text(SINGLE_PATH)
            argv += ["--input", str(src)]
        return argv

    def stdout_of(self, capsys, tmp_path, command: str) -> bytes:
        code, out, _ = run(capsys, *self.request(tmp_path, command))
        assert code == 0
        return out.encode("utf-8")

    @pytest.mark.parametrize("command", OUTPUT_REQUESTS)
    def test_a_shorter_output_leaves_only_its_bytes(self, capsys, tmp_path, command):
        want = self.stdout_of(capsys, tmp_path, command)
        dst = tmp_path / "out.txt"
        dst.write_bytes(b"#" * (len(want) + 4096))
        code, out, _ = run(capsys, *self.request(tmp_path, command), "--output", str(dst))
        assert (code, out) == (0, "")
        assert dst.read_bytes() == want

    @pytest.mark.parametrize("command", OUTPUT_REQUESTS)
    def test_dev_null_exits_0(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *self.request(tmp_path, command), "--output", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_a_pipe_is_written_as_a_stream(self, capsys, tmp_path):
        want = self.stdout_of(capsys, tmp_path, "coeff")
        fifo, got = tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, out, err = run(capsys, *self.request(tmp_path, "coeff"), "--output", str(fifo))
        reader.join(timeout=60)
        assert (code, out, err, got) == (0, "", "", [want])

    @pytest.mark.parametrize("command", ("map", "render"))
    def test_output_equal_to_input(self, capsys, tmp_path, command):
        want = self.stdout_of(capsys, tmp_path, command)
        src = str(tmp_path / "in.json")
        code, _, _ = run(capsys, *self.request(tmp_path, command), "--output", src)
        assert code == 0
        assert Path(src).read_bytes() == want

    def test_a_linked_output_keeps_its_file_and_mode(self, capsys, tmp_path):
        want = self.stdout_of(capsys, tmp_path, "map")
        real, link, hard = tmp_path / "real.json", tmp_path / "link.json", tmp_path / "hard.json"
        real.write_bytes(b"#" * 4096)
        real.chmod(0o640)
        link.symlink_to(real)
        os.link(real, hard)
        inode = real.stat().st_ino
        assert run(capsys, *self.request(tmp_path, "map"), "--output", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.stat().st_ino == inode and real.stat().st_mode & 0o777 == 0o640
        assert real.read_bytes() == hard.read_bytes() == want

    def test_a_new_file_gets_0o666_less_the_umask(self, capsys, tmp_path):
        dst = tmp_path / "new.json"
        old = os.umask(0o002)
        try:
            code, _, _ = run(capsys, *self.request(tmp_path, "map"), "--output", str(dst))
        finally:
            os.umask(old)
        assert code == 0
        assert dst.stat().st_mode & 0o777 == 0o666 & ~0o002

    @pytest.mark.parametrize("command", OUTPUT_REQUESTS)
    def test_output_is_opened_without_o_trunc(self, capsys, tmp_path, monkeypatch, command):
        dst = str(tmp_path / "out.txt")
        flags, real_open = [], os.open

        def recording(path, flag, *args, **kwargs):
            if os.fspath(path) == dst:
                flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        for _ in range(2):  # once to create the file, once over it
            assert run(capsys, *self.request(tmp_path, command), "--output", dst)[0] == 0
        assert len(flags) == 2
        assert all(f & os.O_WRONLY and f & os.O_CREAT and not f & os.O_TRUNC for f in flags)


def test_python_m_catlog():
    result = run_python("-m", "catlog", "coeff", "--k", "2", "--max-n", "3")
    assert result.returncode == 0, result.stderr
    assert "10/3" in result.stdout


class TestBrokenPipe:
    """A reader that closes stdout early, as `| head -1` does, ends the
    output quietly: no message, and the command's own exit code."""

    def closed_early(self, args, lines: int, unbuffered: str = ""):
        """Run a fresh interpreter on `args`, stdout block-buffered unless
        `unbuffered` is set, read `lines` lines of its stdout, close it, and
        return the exit code and stderr."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen([sys.executable, *args], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=60), err

    def test_enumerate_stops_with_exit_0(self):
        # 95,040 lines: far more than a pipe holds, so the writer meets the closed end
        code, err = self.closed_early(
            ["-m", "catlog", "enumerate", "--structure", "paths", "--k", "2", "--n", "6"], 1)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_output_short_of_the_pipe_buffer(self, unbuffered):
        # buffered, the whole table waits in stdout's buffer and the pipe
        # breaks on the last flush; unbuffered, on the first write
        code, err = self.closed_early(["-m", "catlog", "coeff", "--max-n", "2"], 0, unbuffered)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("skew, want", [(0, 0), (1, 1)], ids=["passed", "failed"])
    def test_verify_keeps_its_verdict(self, skew, want):
        script = textwrap.dedent(f"""
            import sys
            from catlog import catalan
            from catlog.cli import main
            real = catalan.coeff_log
            catalan.coeff_log = lambda k, n: real(k, n) + {skew} * ((k, n) == (2, 3))
            sys.exit(main(["verify", "--suite", "series", "--k", "2,3", "--max-n", "30"]))
        """)
        code, err = self.closed_early(["-c", script], 0)
        assert (code, err) == (want, "")

    def test_a_bad_output_path_still_exits_2(self, capsys, tmp_path):
        dst = tmp_path / "missing" / "out.jsonl"
        code, out, err = run(capsys, "enumerate", "--structure", "paths", "--k", "2",
                             "--n", "2", "--output", str(dst))
        assert (code, out) == (2, "") and err.startswith("error: ")


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_block(language: str, needle: str) -> str:
    """The README's first fenced `language` block that contains `needle`."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)
    return next(b for b in blocks if needle in b)


class TestReadme:
    """The README's examples run as written, so a change that breaks one
    fails the suite."""

    def test_quick_tour(self):
        tour = readme_block("python", "import catlog")
        namespace = {}
        exec(compile(tour, "README.md", "exec"), namespace)
        stated = int(re.search(r"orns = .*# (\d+) of them", tour).group(1))
        assert len(namespace["orns"]) == stated == 20

    def test_command_line(self, capsys, monkeypatch):
        lines = readme_block("sh", "catlog ").replace("\\\n", " ").splitlines()
        pipelines = [shlex.split(line) for line in lines
                     if line.strip() and not line.lstrip().startswith("#")]
        assert pipelines
        for words in pipelines:
            text = ""
            stages = [list(g) for bar, g in itertools.groupby(words, "|".__eq__) if not bar]
            for stage in stages:
                if stage[0] == "echo":
                    text = " ".join(stage[1:]) + "\n"
                    continue
                assert stage[0] == "catlog", stage
                feed(monkeypatch, text)
                code, text, err = run(capsys, *stage[1:])
                assert code == 0, (stage, err)
            if stages[0][1] == "enumerate":
                assert json.loads(text.splitlines()[-1])["count"] == 20
