"""The record contract of every structure and result class: the frozen
dataclass behaviour it replaced, kept exactly."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from catlog import catalan, multisets, paths, series, trees, verify
from catlog._trusted import Record, trusted

P = paths.GoodPath(2, "RU", (1,))
P_REPR = "GoodPath(k=2, steps='RU', labels=(1,))"
T = trees.PlaneTree(2, 1, {1: (None, None)})
T_REPR = "PlaneTree(k=2, root=1, slots=((1, (None, None)),))"
ROW = catalan.CoeffRow(1, Fraction(1), None, None)
ROW_REPR = "CoeffRow(n=1, closed_form=Fraction(1, 1), series_value=None, match=None)"
RESULT = verify.CheckResult("c", 2, 3, True)  # message defaults to ""
RESULT_REPR = "CheckResult(name='c', k=2, n=3, passed=True, message='')"

# class, constructor arguments, field names, repr, derived attribute
CASES = [
    (paths.GoodPath, (2, "RU", (1,)), ("k", "steps", "labels"), P_REPR, None),
    (paths.MinimalField, (frozenset({P}),), ("parts",),
     f"MinimalField(parts=frozenset({{{P_REPR}}}))", None),
    (paths.Ornament, (P,), ("rep",), f"Ornament(rep={P_REPR})", None),
    (trees._SlotTable, (), (), "_SlotTable()", None),
    (trees.PlaneTree, (2, 1, {1: (None, None)}), ("k", "root", "slots"), T_REPR, "slot_map"),
    (trees.RootMinimalForest, (frozenset({T}),), ("parts",),
     f"RootMinimalForest(parts=frozenset({{{T_REPR}}}))", None),
    (trees.CycleRootedTree, (2, (1,), {1: (None, None)}), ("k", "cycle", "slots"),
     "CycleRootedTree(k=2, cycle=(1,), slots=((1, (None, None)),))", "slot_map"),
    (multisets.CyclicMultiset, (2, (1,), {1: (1,)}), ("k", "cycle", "f"),
     "CyclicMultiset(k=2, cycle=(1,), f=((1, (1,)),))", "f_map"),
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


@pytest.mark.parametrize("cls, args, names, shown, derived", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, args, names, shown, derived):
    x, y = cls(*args), cls(*args)
    values = tuple(getattr(x, f) for f in names)
    assert x == y and x is not y and not x != y
    assert hash(x) == hash(y) == hash(values)
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

    with pytest.raises(TypeError):  # an extra argument
        cls(*args, None)
    if names:
        with pytest.raises(TypeError):  # missing arguments
            cls()
        with pytest.raises(TypeError):  # a repeated argument
            cls(*args, **{names[0]: args[0]})
        assert cls(**dict(zip(names, args))) == x

    if derived:  # the derived table stays out of eq, hash and repr
        z = trusted(cls, **{**vars(x), derived: {}})
        assert z == x and hash(z) == hash(x) and repr(z) == shown


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
