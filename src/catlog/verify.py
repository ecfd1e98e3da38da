"""Cross-checks tying the closed formulas, the series expansions, and the
exhaustive enumerations to each other, grouped into named suites.

Every check is exact; a tolerance would defeat the point. Suites walk a
grid of (k, n) points and report one result per named check per point,
so a single wrong constant anywhere flips the overall verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import catalan, multisets, paths, trees
from . import series as fps
from .arith import factorial
from .errors import DEFAULT_MAX_ENUMERATION


@dataclass(frozen=True)
class CheckResult:
    name: str
    k: int | None
    n: int | None
    passed: bool
    message: str = ""


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    results: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "overall": self.overall,
            "points": [
                {
                    "check": r.name,
                    "k": r.k,
                    "n": r.n,
                    "pass": r.passed,
                    "message": r.message,
                }
                for r in self.results
            ],
        }

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            where = " ".join(
                s for s in (f"k={r.k}" if r.k is not None else "",
                            f"n={r.n}" if r.n is not None else "") if s
            )
            status = "ok" if r.passed else "FAIL"
            tail = f" ({r.message})" if r.message and not r.passed else ""
            lines.append(f"[{self.suite}] {r.name} {where}: {status}{tail}")
        verdict = "PASS" if self.overall else "FAIL"
        lines.append(f"suite {self.suite}: {verdict} ({len(self.results)} checks)")
        return "\n".join(lines)


# the suites in report order; "all" runs every one of them
SUITES = ("series", "counts", "bijections", "statistics")


def _check(name, k, n, passed, message="") -> CheckResult:
    return CheckResult(name, k, n, bool(passed), message)


def suite_series(ks, max_n: int) -> list[CheckResult]:
    """Closed coefficient formulas against series computed from scratch."""
    out = []
    for k in ks:
        g = fps.catalan_series(k, max_n)
        one = fps.Series.one(max_n)
        x = fps.Series.x(max_n)
        residual = g - one - x * g**k
        out.append(_check("functional-equation", k, None, residual.is_zero()))
        lg = g.log()
        out.append(_check("log-exp-roundtrip", k, None, lg.exp() == g))
        closure = lg.exp() - one - x * (k * lg).exp()
        out.append(_check("exp-closure", k, None, closure.is_zero()))
        for n in range(1, max_n + 1):
            got, want = lg[n], catalan.coeff_log(k, n)
            out.append(
                _check("log-coefficient", k, n, got == want, f"{want} vs {got}")
            )
            if k >= 2:
                want_cat = catalan.gen_catalan(k, n)
                out.append(
                    _check("series-coefficient", k, n, g[n] == want_cat,
                           f"{want_cat} vs {g[n]}")
                )
        if k >= 2:
            for a in (2, 3):
                powered = lg**a
                for n in range(1, max_n + 1):
                    got = powered[n]
                    want = catalan.coeff_log_power(k, n, a)
                    out.append(
                        _check(f"log-power-{a}-coefficient", k, n, got == want,
                               f"{want} vs {got}")
                    )
    if any(k == 2 for k in ks):
        for n in range(2, max_n + 1):
            harm = catalan.knuth_log2_coeff(n)
            via_returns = catalan.coeff_log_power(2, n, 2)
            general = catalan.knuth_general_log2(2, n)
            out.append(
                _check("log2-harmonic-form", 2, n,
                       harm == via_returns == general,
                       f"{harm} / {via_returns} / {general}")
            )
    return out


@lru_cache(maxsize=32)
def _grid_structures(k: int, n: int, max_count):
    all_paths = tuple(paths.enumerate_paths(k, range(1, n + 1), max_count))
    ornaments = tuple(paths.enumerate_ornaments(k, n, max_count))
    minimal = tuple(o.rep for o in ornaments)
    all_trees = tuple(trees.enumerate_trees(k, range(1, n + 1), max_count))
    min_trees = tuple(t for t in all_trees if trees.is_root_minimal(t))
    cycle_trees = tuple(trees.enumerate_cycle_rooted(k, n, max_count))
    all_ms = tuple(multisets.enumerate_multisets(k, n, False, max_count))
    rooted_ms = tuple(m for m in all_ms if multisets.root_vertices(m))
    return all_paths, minimal, ornaments, all_trees, min_trees, cycle_trees, all_ms, rooted_ms


def _counterexample(holds, items, *images):
    """The first item x for which holds(x, *its images) is false, or None.

    `images` are lists parallel to `items`: the i-th entry of each is the
    i-th item's image under one bijection."""
    for x, *ys in zip(items, *images):
        if not holds(x, *ys):
            return x
    return None


def _check_all(name, k, n, bad) -> CheckResult:
    """A for-all check; a failure carries its first counterexample as the
    catlog JSON that `catlog map` and `catlog render` read."""
    if bad is None:
        return _check(name, k, n, True)
    # imported here, not at the top: `import catlog` stays free of json
    from . import serialize

    return _check(name, k, n, False, serialize.dumps(bad))


def _rebuilt(x):
    """x built again by the public constructors from its stored fields."""
    return _REBUILD[type(x)](x)


# the public constructor of each structure verify checks, or whose parts
# it checks, fed a structure's stored fields; parts are rebuilt first
_REBUILD = {
    paths.GoodPath: lambda p: paths.GoodPath(p.k, p.steps, p.labels),
    paths.MinimalField: lambda f: paths.MinimalField(frozenset(map(_rebuilt, f.parts))),
    trees.PlaneTree: lambda t: trees.PlaneTree(t.k, t.root, t.slots),
    trees.RootMinimalForest: lambda f: trees.RootMinimalForest(frozenset(map(_rebuilt, f.parts))),
    trees.CycleRootedTree: lambda c: trees.CycleRootedTree(c.k, c.cycle, c.slots),
    multisets.CyclicMultiset: lambda m: multisets.CyclicMultiset(m.k, m.cycle, m.f),
}


def _valid(x) -> bool:
    """x equals its rebuild by the public constructors: every invariant
    holds and every field is stored normalized.

    The enumerators and bijections build through the trusted constructor.
    An image list is checked this way once per image, in the first check
    that reads it, unless a roundtrip equality or a range set equality
    with structures the enumerators built proves it valid."""
    try:
        return _rebuilt(x) == x
    except ValueError:
        return False


def _range_check(name, k, n, images, rooted: set) -> CheckResult:
    """The images are exactly the rooted multisets."""
    got = set(images)
    return _check(name, k, n, got == rooted, f"{len(got)} images vs {len(rooted)} rooted")


def _point_checks(k: int, n: int, max_count, suites) -> dict[str, list[CheckResult]]:
    """The checks of each structure suite in `suites` at one grid point,
    as lists by suite name, each in its suite's order.

    The point's structures and field counts are built once and read by
    every asked suite. Each bijection image is computed once per
    structure and read by every check that needs it. An image list is
    dropped after its last reader, and a suite not asked for builds none
    of the images only it reads."""
    (all_paths, minimal, ornaments, all_trees, min_trees, cycle_trees,
     all_ms, rooted_ms) = _grid_structures(k, n, max_count)
    counts = "counts" in suites
    bijections = "bijections" in suites
    statistics = "statistics" in suites
    cnt, bij, stat = [], [], []
    out = {"counts": cnt, "bijections": bij, "statistics": stat}
    # fields with a parts, for each a up to the largest one an asked suite reads
    top = n if bijections else min(n, 3) if counts else 0
    n_fields = [len(paths.enumerate_fields(k, n, a, max_count)) for a in range(1, top + 1)]

    if counts:
        n_paths = catalan.count_paths(k, n)
        n_orn = catalan.count_ornaments(k, n)
        n_ms = catalan.count_multisets(k, n)
        cnt.append(_check("path-count", k, n, len(all_paths) == n_paths,
                          f"{n_paths} vs {len(all_paths)}"))
        cnt.append(_check("tree-count", k, n, len(all_trees) == n_paths,
                          f"{n_paths} vs {len(all_trees)}"))
        for name, got in (
            ("minimal-path-count", len(minimal)),
            ("ornament-count", len(ornaments)),
            ("minimal-tree-count", len(min_trees)),
            ("cycle-tree-count", len(cycle_trees)),
            ("rooted-multiset-count", len(rooted_ms)),
        ):
            cnt.append(_check(name, k, n, got == n_orn, f"{n_orn} vs {got}"))
        cnt.append(_check("multiset-count", k, n, len(all_ms) == n_ms,
                          f"{n_ms} vs {len(all_ms)}"))
        cnt.append(_check("rooted-fraction", k, n,
                          (k - 1) * len(rooted_ms) == len(all_ms),
                          f"(k-1)*{len(rooted_ms)} vs {len(all_ms)}"))
        total_returns = sum(catalan.returns_count(k, n, p) for p in range(1, n + 1))
        cnt.append(_check("returns-partition", k, n,
                          total_returns == catalan.gen_catalan(k, n)))
        for a in range(1, min(n, 3) + 1):
            got = Fraction(n_fields[a - 1] * factorial(a), factorial(n))
            want = catalan.coeff_log_power(k, n, a)
            cnt.append(_check(f"field-egf-{a}", k, n, got == want,
                              f"{want} vs {got}"))
    if not (bijections or statistics):
        return out

    if bijections:
        rooted = set(rooted_ms)
        fields = [paths.decompose(p) for p in all_paths]
        bij.append(_check_all("path-field-roundtrip", k, n, _counterexample(
            lambda p, f: _valid(f) and paths.recompose(f) == p, all_paths, fields)))
        n_images = len(set(fields))
        del fields
        total_fields = sum(n_fields)
        bij.append(_check("path-field-bijective", k, n,
                          n_images == len(all_paths) == total_fields,
                          f"{len(all_paths)} paths, {n_images} images, "
                          f"{total_fields} fields"))

        forests = [trees.tree_to_forest(t) for t in all_trees]
        bij.append(_check_all("tree-forest-roundtrip", k, n, _counterexample(
            lambda t, f: _valid(f) and trees.forest_to_tree(f) == t, all_trees, forests)))
        bij.append(_check("tree-forest-injective", k, n,
                          len(set(forests)) == len(all_trees)))
        bij.append(_check_all("forest-parts-root-minimal", k, n, _counterexample(
            lambda t, f: all(trees.is_root_minimal(part) for part in f.parts),
            all_trees, forests)))
        del forests

        cycled = [trees.to_cycle_rooted(t) for t in min_trees]
        bad = _counterexample(lambda t, c: _valid(c) and trees.to_root_minimal(c) == t,
                              min_trees, cycled)
        if bad is None:
            bad = _counterexample(
                lambda c: trees.to_cycle_rooted(trees.to_root_minimal(c)) == c,
                cycle_trees)
        bij.append(_check_all("min-cycle-roundtrip", k, n, bad))
        bij.append(_check_all("cycle-length-is-branch-length", k, n, _counterexample(
            lambda t, c: len(c.cycle) == len(trees.rightmost_branch(t)),
            min_trees, cycled)))
        del cycled

    if statistics:
        expected = {
            p: factorial(n) * catalan.returns_count(k, n, p) // p
            for p in range(1, n + 1)
        }
        expected = {p: c for p, c in expected.items() if c}
        touch_dist = dict(Counter(paths.touch_count(o) for o in ornaments))
        cycle_dist = dict(Counter(len(c.cycle) for c in cycle_trees))
        stat.append(_check("touch-distribution", k, n, touch_dist == expected,
                           f"{expected} vs {touch_dist}"))
        stat.append(_check("cycle-length-distribution", k, n,
                           cycle_dist == expected, f"{expected} vs {cycle_dist}"))
        word_dist: Counter = Counter()
        for p in all_paths:
            word_dist[len(paths.diagonal_touches(p))] += 1
        labeled_expected = {p: factorial(n) * catalan.returns_count(k, n, p)
                            for p in range(1, n + 1)}
        labeled_expected = {p: c for p, c in labeled_expected.items() if c}
        stat.append(_check("labeled-touch-distribution", k, n,
                           dict(word_dist) == labeled_expected))
        touch_labels = [{lab for _, lab in paths.diagonal_touches(o.rep)}
                        for o in ornaments]

    # the encodings are proven valid by their range checks, the carried
    # trees are checked in the composed roundtrip; without the bijections
    # suite, the first statistics check that reads each image checks it
    encoded = [multisets.ornament_to_multiset(o) for o in ornaments]
    if bijections:
        bij.append(_check_all("ornament-multiset-roundtrip", k, n, _counterexample(
            lambda o, m: multisets.multiset_to_ornament(m) == o, ornaments, encoded)))
        bij.append(_range_check("ornament-encoding-range", k, n, encoded, rooted))
    if statistics:
        stat.append(_check_all("ornament-root-vertices", k, n, _counterexample(
            lambda o, m, labels: (bijections or _valid(m))
            and multisets.root_vertices(m) == labels,
            ornaments, encoded, touch_labels)))

    tree_codes = [multisets.cycle_tree_to_multiset(c) for c in cycle_trees]
    if bijections:
        bij.append(_check_all("cycle-tree-multiset-roundtrip", k, n, _counterexample(
            lambda c, m: multisets.multiset_to_cycle_tree(m) == c,
            cycle_trees, tree_codes)))
        bij.append(_range_check("cycle-tree-encoding-range", k, n, tree_codes, rooted))
    if statistics:
        stat.append(_check_all("cycle-tree-root-vertices", k, n, _counterexample(
            lambda c, m: (bijections or _valid(m))
            and multisets.root_vertices(m) == set(c.cycle),
            cycle_trees, tree_codes)))
    del tree_codes

    carried = [multisets.multiset_to_cycle_tree(m) for m in encoded]
    del encoded
    if bijections:
        bij.append(_check_all("composed-correspondence-roundtrip", k, n, _counterexample(
            lambda o, c: _valid(c) and multisets.cycle_tree_to_ornament(c) == o,
            ornaments, carried)))
    if statistics:
        stat.append(_check_all("touch-labels-become-roots", k, n, _counterexample(
            lambda o, c, labels: (bijections or _valid(c)) and set(c.cycle) == labels,
            ornaments, carried, touch_labels)))
        del touch_labels
    del carried

    if bijections:
        bij.append(_check_all("rotation-class-constant", k, n, _counterexample(
            lambda o: all(paths.to_ornament(q) == o for q in paths.rotations(o.rep)),
            ornaments)))
    return out


def run_suite(
    suite: str, ks, max_n: int, max_count=DEFAULT_MAX_ENUMERATION
) -> VerificationReport:
    """Run one suite, or every suite for "all": the series suite first,
    then each structure suite's checks from one walk of the (k >= 2, n)
    grid; the report lists the results suite by suite in SUITES order."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ks = sorted(set(ks))
    if not ks or any(k < 1 for k in ks):
        raise ValueError("k values must be >= 1")
    if suite not in ("series", "all") and any(k < 2 for k in ks):
        raise ValueError(f"suite {suite!r} works on structures and needs k >= 2")
    asked = SUITES if suite == "all" else (suite,)
    results: dict[str, list[CheckResult]] = {s: [] for s in SUITES}
    if "series" in asked:
        results["series"] = suite_series(ks, max_n)
    structural = set(asked) - {"series"}
    grid = [(k, n) for k in ks if k >= 2 for n in range(1, max_n + 1)] if structural else []
    for k, n in grid:
        for s, got in _point_checks(k, n, max_count, structural).items():
            results[s] += got
    return VerificationReport(suite, tuple(r for s in SUITES for r in results[s]))
