import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import catlog.catalan
from catlog import serialize
from catlog.cli import main
from catlog.paths import GoodPath, MinimalField, to_ornament
from catlog.trees import CycleRootedTree, PlaneTree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed(monkeypatch, text: str):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def run_python(*args):
    """Run a fresh interpreter that imports catlog from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


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

    def test_malformed(self, capsys, monkeypatch):
        feed(monkeypatch, '{"kind":"multiset","k":2,"cycle":[1],"f":{"1":[1]}}')
        code, _, err = run(capsys, "render")
        assert code == 2


SINGLE_PATH = '{"kind":"path","k":2,"steps":"RU","labels":[1]}'
SINGLE_TREE = '{"kind":"tree","k":2,"root":1,"slots":{"1":[null,null]}}'


class TestShapeErrors:
    @pytest.mark.parametrize("text, field", [
        ('{"kind":"multiset","k":2,"cycle":[1],"f":[1]}', "f"),
        ('{"kind":"field","parts":5}', "parts"),
        ('{"kind":"path","k":2,"steps":"RU","labels":5}', "labels"),
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
        # a bool, float, list or non-digit string where an int belongs,
        # among ints or alone
        ('{"kind":"path","k":2,"steps":"RURU","labels":[1,true]}', "expected an integer, got True"),
        ('{"kind":"path","k":2,"steps":"RURU","labels":[1.0,2]}', "expected an integer, got 1.0"),
        ('{"kind":"path","k":2,"steps":"RU","labels":[1.0]}', "expected an integer, got 1.0"),
        ('{"kind":"path","k":2,"steps":"RU","labels":[true]}', "expected an integer, got True"),
        ('{"kind":"path","k":2,"steps":"RU","labels":[[1]]}', "expected an integer, got [1]"),
        ('{"kind":"multiset","k":2,"cycle":[1,2.0],"f":{"1":[1],"2":[1]}}',
         "expected an integer, got 2.0"),
        ('{"kind":"multiset","k":2,"cycle":[1],"f":{"1":[false]}}',
         "expected an integer, got False"),
        ('{"kind":"tree","k":2,"root":1,"slots":{"1":[true,null]}}',
         "expected an integer, got True"),
        ('{"kind":"cycle-tree","k":2,"cycle":[1],"slots":{"1":[2.0,null],"2":[null,null]}}',
         "expected an integer, got 2.0"),
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


def test_python_m_catlog():
    result = run_python("-m", "catlog", "coeff", "--k", "2", "--max-n", "3")
    assert result.returncode == 0, result.stderr
    assert "10/3" in result.stdout
