"""The record contract of every structure and result class: the frozen
dataclass behaviour it replaced, kept exactly."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from catlog import catalan, multisets, paths, serialize, series, trees, verify
from catlog._trusted import Record, trusted

P = paths.GoodPath(2, "RU", (1,))
P_REPR = "GoodPath(k=2, steps='RU', labels=(1,))"
T = trees.PlaneTree(2, 1, {1: (None, None)})
T_REPR = "PlaneTree(k=2, root=1, slots={1: (None, None)})"
ROW = catalan.CoeffRow(1, Fraction(1), None, None)
ROW_REPR = "CoeffRow(n=1, closed_form=Fraction(1, 1), series_value=None, match=None)"
RESULT = verify.CheckResult("c", 2, 3, True)  # message defaults to ""
RESULT_REPR = "CheckResult(name='c', k=2, n=3, passed=True, message='')"

# class, constructor arguments, field names, repr, table field
CASES = [
    (paths.GoodPath, (2, "RU", (1,)), ("k", "steps", "labels"), P_REPR, None),
    (paths.MinimalField, (frozenset({P}),), ("parts",),
     f"MinimalField(parts=frozenset({{{P_REPR}}}))", None),
    (paths.Ornament, (P,), ("rep",), f"Ornament(rep={P_REPR})", None),
    (trees._SlotTable, (), (), "_SlotTable()", None),
    (trees.PlaneTree, (2, 1, {1: (None, None)}), ("k", "root", "slots"), T_REPR, "slots"),
    (trees.RootMinimalForest, (frozenset({T}),), ("parts",),
     f"RootMinimalForest(parts=frozenset({{{T_REPR}}}))", None),
    (trees.CycleRootedTree, (2, (1,), {1: (None, None)}), ("k", "cycle", "slots"),
     "CycleRootedTree(k=2, cycle=(1,), slots={1: (None, None)})", "slots"),
    (multisets.CyclicMultiset, (2, (1,), {1: (1,)}), ("k", "cycle", "f"),
     "CyclicMultiset(k=2, cycle=(1,), f={1: (1,)})", "f"),
    (series.Series, ((1, 2),), ("coeffs",),
     "Series(coeffs=(Fraction(1, 1), Fraction(2, 1)))", None),
    (catalan.CoeffRow, (1, Fraction(1), None, None),
     ("n", "closed_form", "series_value", "match"), ROW_REPR, None),
    (catalan.CoeffTable, (2, 1, (ROW,)), ("k", "power", "rows"),
     f"CoeffTable(k=2, power=1, rows=({ROW_REPR},))", None),
    (verify.CheckResult, ("c", 2, 3, True, ""), ("name", "k", "n", "passed", "message"),
     RESULT_REPR, None),
    (verify.VerificationReport, ("all", (RESULT,)), ("suite", "results"),
     f"VerificationReport(suite='all', results=({RESULT_REPR},))", None),
]


@pytest.mark.parametrize("cls, args, names, shown, table", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, args, names, shown, table):
    x, y = cls(*args), cls(*args)
    values = tuple(getattr(x, f) for f in names)
    assert x == y and x is not y and not x != y
    # a table field is hashed as the tuple of its items
    hashed = tuple(tuple(v.items()) if f == table else v for f, v in zip(names, values))
    assert hash(x) == hash(y) == hash(hashed)
    assert repr(x) == shown
    assert x != values and values != x

    # a record of another class with the very same fields is unequal
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(names)})
    other = trusted(twin, **vars(x))
    assert repr(other) == shown
    assert x != other and other != x

    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in names) == values

    # each arity fault raises the TypeError Python words for a plain
    # __init__ of the same signature, which names the class
    defaults = [vars(cls)[f] for f in names if f in vars(cls)]
    lo = len(names) - len(defaults)
    params = ["self", *names[:lo], *(f"{f}=None" for f in names[lo:])]
    space = {}
    exec(f"def __init__({', '.join(params)}): pass", space)
    plain = space["__init__"]
    plain.__qualname__ = f"{cls.__qualname__}.__init__"
    faults = [((*args, None), {}), ((*args, None, None), {}), (args, {"other": 1})]
    if lo:  # missing arguments
        faults += [((), {}), (args[:lo - 1], {})]
    if names:  # a repeated argument
        faults.append((args, {names[0]: args[0]}))
    for given, kw in faults:
        with pytest.raises(TypeError) as fault:
            cls(*given, **kw)
        with pytest.raises(TypeError) as python:
            plain(None, *given, **kw)
        assert str(fault.value) == str(python.value)
        assert str(fault.value).startswith(f"{cls.__qualname__}.__init__() ")
    # by keyword, and by position with the trailing defaults left out
    assert cls(**dict(zip(names, args))) == x
    assert cls(*args[:lo]) == cls(**dict(zip(names[:lo], args))) == cls(*args[:lo], *defaults)
    assert set(vars(x)) == set(names)  # a record stores its fields and nothing else
    for method in ("__init__", "__eq__", "__hash__"):
        assert getattr(cls, method).__qualname__ == f"{cls.__qualname__}.{method}"


# class, the fields before its table, the table's name, two rows in order
TABLES = [
    (trees.PlaneTree, (2, 1), "slots", {1: (2, None), 2: (None, None)}),
    (trees.CycleRootedTree, (2, (1,)), "slots", {1: (2, None), 2: (None, None)}),
    (multisets.CyclicMultiset, (2, (1, 2)), "f", {1: (2,), 2: (0,)}),
]


@pytest.mark.parametrize("cls, head, table, rows", TABLES, ids=[c[0].__name__ for c in TABLES])
def test_a_table_is_stored_sorted_and_compared_in_order(cls, head, table, rows):
    """Rows given in another order, as a dict or as pairs, build an equal
    record with the same hash and bytes; the same rows stored unsorted
    through `trusted` make an unequal record that verify refuses."""
    x = cls(*head, rows)
    backwards = dict(reversed(rows.items()))
    for given in (backwards, list(backwards.items())):
        y = cls(*head, given)
        assert y == x and hash(y) == hash(x) and serialize.dumps(y) == serialize.dumps(x)
        assert list(getattr(y, table)) == sorted(rows)
    assert verify._valid(x)
    unsorted = trusted(cls, **{**vars(x), table: backwards})
    assert unsorted != x and hash(unsorted) != hash(x)
    assert not verify._valid(unsorted)


def test_importing_catlog_leaves_dataclasses_and_inspect_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, catlog, catlog.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -S: no site-packages start-up hooks, so only catlog's own imports count
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_catlog_compiles_no_source():
    """Defining the records compiles nothing: no code in the package hands
    a source string to the compiler while `catlog` and its CLI import.
    (The standard library may: namedtuple evaluates a string.)"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "callers = []\n"
            "def hook(event, args):\n"
            "    if event == 'compile' and args[1] == '<string>':\n"
            "        callers.append(sys._getframe(1).f_code.co_filename)\n"
            "sys.addaudithook(hook)\n"
            "import catlog, catlog.cli\n"
            "print([f for f in callers if f.startswith(catlog.__path__[0])])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
