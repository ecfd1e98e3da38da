"""Cross-checks tying the closed formulas, the series expansions, and the
exhaustive enumerations to each other, grouped into named suites.

Every check is exact; a tolerance would defeat the point. Suites walk a
grid of (k, n) points and report one result per named check per point,
so a single wrong constant anywhere flips the overall verdict.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from . import catalan, multisets, paths, trees
from . import series as fps
from ._trusted import Record
from .arith import factorial
from .errors import DEFAULT_MAX_ENUMERATION, check_ints, check_max_count


class CheckResult(Record):
    name: str
    k: int | None
    n: int | None
    passed: bool
    message: str = ""


class VerificationReport(Record):
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
        e = lg.exp()
        out.append(_check("log-exp-roundtrip", k, None, e == g))
        closure = e - one - x * (k * lg).exp()
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
            powered = lg
            for a in (2, 3):
                powered = powered * lg  # lg**a
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
    """The cyclic multisets of one grid point, walked once: how many there
    are, how many of them have root vertices, and the rooted rank map, one
    byte per multiset rank, 1 at the rank of each rooted multiset.

    It keeps no structure. bench/worker.py reads this cache's statistics,
    which is why the cache and the name stay."""
    # the walk yields the multisets in rank order, so a position is a rank
    rooted = bytes(1 if multisets.root_vertices(m) else 0
                   for m in multisets._multisets(k, n, max_count))
    return len(rooted), rooted.count(1), rooted


def _check_all(name, k, n, bad) -> CheckResult:
    """A for-all check; a failure carries its first counterexample as the
    catlog JSON that `catlog map` and `catlog render` read."""
    if bad is None:
        return _check(name, k, n, True)
    # imported here, not at the top: `import catlog` stays free of json
    from . import serialize

    return _check(name, k, n, False, serialize.dumps(bad))


# each structure verify checks, or whose parts it checks: its constructor's
# checks run on its stored fields, and a stored cycle or labels must come
# back as they are
_IN_PLACE = {
    paths.GoodPath: lambda p: paths._check_path(p.k, p.steps, p.labels) == p.labels,
    paths.MinimalField: lambda f: bool(paths._check_field(f.parts, True)),
    trees.PlaneTree: lambda t: bool(trees._check_tree(t.k, t.root, t.slots, True)),
    trees.RootMinimalForest: lambda f: bool(trees._check_forest(f.parts, True)),
    trees.CycleRootedTree: lambda c: trees._check_cycle_tree(
        c.k, c.cycle, c.slots, True)[0] == c.cycle,
    multisets.CyclicMultiset: lambda m: multisets._check_multiset(
        m.k, m.cycle, m.f, True)[0] == m.cycle,
}


def _valid(x) -> bool:
    """x is stored as its public constructor would store it: the constructor's
    checks run in place on x's stored fields, a field's or forest's parts in one loop.

    The enumerators and bijections build through the trusted constructor.
    An image is checked this way in the first check that reads it, unless
    a roundtrip equality or a range check compares it with structures
    the enumerators built."""
    try:
        return type(x) in _IN_PLACE and _IN_PLACE[type(x)](x)
    except ValueError:
        return False


class _Range:
    """Whether a stream of images is exactly the rooted multisets of one
    grid point, read by rank: one byte per multiset rank, set to 1 at the
    rank of each image."""

    def __init__(self, k: int, n: int, rooted: bytes):
        self.k, self.n, self.rooted = k, n, rooted
        self.seen = bytearray(len(rooted))
        self.others: list = []  # distinct images equal to no multiset of the point

    def add(self, m) -> int | None:
        """Mark the rank of image m and return it; None for an image that
        is no multiset of the point."""
        try:
            r = multisets.multiset_rank(m)
        except ValueError:
            r = None
        if r is not None and (m.k, m.n) == (self.k, self.n):
            self.seen[r] = 1
            return r
        if m not in self.others:  # by equality: an invalid image may not hash
            self.others.append(m)
        return None

    def result(self, name: str) -> CheckResult:
        images = self.seen.count(1) + len(self.others)
        return _check(name, self.k, self.n, not self.others and self.seen == self.rooted,
                      f"{images} images vs {self.rooted.count(1)} rooted")


def _point_checks(k: int, n: int, max_count, suites) -> dict[str, list[CheckResult]]:
    """The checks of each structure suite in `suites` at one grid point,
    as lists by suite name, each in its suite's order.

    One pass per picture walks its private enumerator, one structure at a
    time: the multisets (once per point, in _grid_structures), the paths,
    the plane trees, the cycle-rooted trees, the ornaments, and the fields
    of each part count. Each structure's bijection images are computed as
    it is produced, read by every asked check, and dropped. Touches and
    rightmost branches are walked once per structure, and a forest's parts
    again only if it fails its in-place check. A pass keeps
    counts, distributions, the first counterexample of each for-all check
    in walk order, and the range checks' rank maps. The cycle-tree pass
    also marks each multiset rank whose tree decodes back to itself, valid,
    with the root vertices as its cycle; at a marked rank the ornament pass
    takes the composed checks' verdicts from its own roundtrip and root-vertex
    checks, elsewhere it decodes its image. A pass or an image that no
    asked suite reads is skipped."""
    counts = "counts" in suites
    bijections = "bijections" in suites
    statistics = "statistics" in suites
    labels = range(1, n + 1)
    first: dict = {}  # check name -> its first counterexample
    fail = first.setdefault
    if counts or bijections:
        n_ms, n_rooted, rooted = _grid_structures(k, n, max_count)

    n_paths = 0
    word_dist: Counter = Counter()
    for p in paths._labeled_paths(k, labels, max_count, False):
        n_paths += 1
        touches = paths.diagonal_touches(p) if bijections or statistics else None
        if bijections:
            f = paths.decompose(p, touches)
            if not (_valid(f) and paths.recompose(f) == p):
                fail("path-field-roundtrip", p)
        if statistics:
            word_dist[len(touches)] += 1

    n_trees = n_min_trees = 0
    for t in trees._trees(k, labels, max_count) if counts or bijections else ():
        n_trees += 1
        branch = trees.rightmost_branch(t)
        minimal = min(branch) == t.root
        n_min_trees += minimal
        if not bijections:
            continue
        f = trees.tree_to_forest(t, branch)
        valid = _valid(f)
        if not (valid and trees.forest_to_tree(f) == t):
            fail("tree-forest-roundtrip", t)
        if not (valid or all(trees.is_root_minimal(part) for part in f.parts)):
            fail("forest-parts-root-minimal", t)
        if minimal:
            c = trees.to_cycle_rooted(t, branch)
            if not (_valid(c) and trees.to_root_minimal(c) == t):
                fail("min-cycle-roundtrip", t)
            if len(c.cycle) != len(branch):
                fail("cycle-length-is-branch-length", t)

    # range checks cover the encodings, the composed roundtrip the carried
    # trees; with no bijections suite, the first statistics check that reads
    # an image checks it
    n_cycle_trees = 0
    cycle_dist: Counter = Counter()
    tree_range = _Range(k, n, rooted) if bijections else None
    decoded = bytearray(n_ms if bijections else 0)
    for c in trees._cycle_rooted(k, n, max_count):
        n_cycle_trees += 1
        if not (bijections or statistics):
            continue
        m = multisets.cycle_tree_to_multiset(c)
        # its root vertices, once, for the decoder and the statistics check
        least = multisets._least_root_order(m) if bijections or _valid(m) else None
        roots_ok = least and least[1] == set(c.cycle)
        if bijections:
            # re-walk the opened branch: c.cycle would hide lost links; forward failures come first
            if trees.to_cycle_rooted(trees.to_root_minimal(c)) != c:
                fail("min-cycle-roundtrip", c)
            back = multisets.multiset_to_cycle_tree(m, least)
            if back != c:
                fail("cycle-tree-multiset-roundtrip", c)
            r = tree_range.add(m)
            if r is not None and roots_ok and back == c and _valid(back):
                decoded[r] = 1
        if statistics:
            cycle_dist[len(c.cycle)] += 1
            if not roots_ok:
                fail("cycle-tree-root-vertices", c)

    n_ornaments = 0
    touch_dist: Counter = Counter()
    ornament_range = _Range(k, n, rooted) if bijections else None
    for o in paths._ornaments(k, n, max_count):
        n_ornaments += 1
        if not (bijections or statistics):
            continue
        touches = paths.diagonal_touches(o.rep)
        if statistics:
            touch_dist[len(touches)] += 1
            touch_labels = {lab for _, lab in touches}
        m = multisets.ornament_to_multiset(o)
        least = multisets._least_root_order(m)  # once, for both decoders and the check
        if bijections:
            roundtrip = multisets.multiset_to_ornament(m, least) == o
            if not roundtrip:
                fail("ornament-multiset-roundtrip", o)
            r = ornament_range.add(m)
        roots_ok = statistics and (bijections or _valid(m)) and least[1] == touch_labels
        if statistics and not roots_ok:
            fail("ornament-root-vertices", o)
        # a hit: m decodes to the valid tree decoded from an equal multiset
        # above, which carries o back as m does and has m's roots as its cycle
        hit = bijections and r is not None and decoded[r]
        c = None if hit else multisets.multiset_to_cycle_tree(m, least)
        if bijections and not (roundtrip if hit else _valid(c)
                               and multisets.cycle_tree_to_ornament(c) == o):
            fail("composed-correspondence-roundtrip", o)
        if statistics and not (roots_ok if hit else (bijections or _valid(c))
                               and set(c.cycle) == touch_labels):
            fail("touch-labels-become-roots", o)
        if bijections and not all(paths.to_ornament(q) == o
                                  for q in paths.rotations(o.rep, touches)):
            fail("rotation-class-constant", o)

    # fields with a parts, for each a up to the largest one an asked suite reads
    top = n if bijections else min(n, 3) if counts else 0
    n_fields = [sum(1 for _ in paths._fields(k, n, a, max_count)) for a in range(1, top + 1)]

    def for_all(name):
        return _check_all(name, k, n, first.get(name))

    cnt, bij, stat = [], [], []
    if counts:
        n_paths_want = catalan.count_paths(k, n)
        n_orn = catalan.count_ornaments(k, n)
        n_ms_want = catalan.count_multisets(k, n)
        cnt.append(_check("path-count", k, n, n_paths == n_paths_want,
                          f"{n_paths_want} vs {n_paths}"))
        cnt.append(_check("tree-count", k, n, n_trees == n_paths_want,
                          f"{n_paths_want} vs {n_trees}"))
        for name, got in (
            ("minimal-path-count", n_ornaments),
            ("ornament-count", n_ornaments),
            ("minimal-tree-count", n_min_trees),
            ("cycle-tree-count", n_cycle_trees),
            ("rooted-multiset-count", n_rooted),
        ):
            cnt.append(_check(name, k, n, got == n_orn, f"{n_orn} vs {got}"))
        cnt.append(_check("multiset-count", k, n, n_ms == n_ms_want,
                          f"{n_ms_want} vs {n_ms}"))
        cnt.append(_check("rooted-fraction", k, n, (k - 1) * n_rooted == n_ms,
                          f"(k-1)*{n_rooted} vs {n_ms}"))
        total_returns = sum(catalan.returns_count(k, n, p) for p in range(1, n + 1))
        cnt.append(_check("returns-partition", k, n,
                          total_returns == catalan.gen_catalan(k, n)))
        for a in range(1, min(n, 3) + 1):
            got = Fraction(n_fields[a - 1] * factorial(a), factorial(n))
            want = catalan.coeff_log_power(k, n, a)
            cnt.append(_check(f"field-egf-{a}", k, n, got == want,
                              f"{want} vs {got}"))

    if bijections:
        # a roundtrip that holds for every input proves its map injective;
        # only a failed one needs the images counted
        n_images = n_paths
        if "path-field-roundtrip" in first:
            n_images = len({paths.decompose(p)
                            for p in paths._labeled_paths(k, labels, max_count, False)})
        forests_injective = "tree-forest-roundtrip" not in first or n_trees == len(
            {trees.tree_to_forest(t) for t in trees._trees(k, labels, max_count)})
        total_fields = sum(n_fields)
        bij.append(for_all("path-field-roundtrip"))
        bij.append(_check("path-field-bijective", k, n,
                          n_images == n_paths == total_fields,
                          f"{n_paths} paths, {n_images} images, {total_fields} fields"))
        bij.append(for_all("tree-forest-roundtrip"))
        bij.append(_check("tree-forest-injective", k, n, forests_injective))
        bij.append(for_all("forest-parts-root-minimal"))
        bij.append(for_all("min-cycle-roundtrip"))
        bij.append(for_all("cycle-length-is-branch-length"))
        bij.append(for_all("ornament-multiset-roundtrip"))
        bij.append(ornament_range.result("ornament-encoding-range"))
        bij.append(for_all("cycle-tree-multiset-roundtrip"))
        bij.append(tree_range.result("cycle-tree-encoding-range"))
        bij.append(for_all("composed-correspondence-roundtrip"))
        bij.append(for_all("rotation-class-constant"))

    if statistics:
        labeled_expected = {p: factorial(n) * catalan.returns_count(k, n, p)
                            for p in range(1, n + 1)}
        expected = {p: c // p for p, c in labeled_expected.items()}
        touch_dist, cycle_dist = dict(touch_dist), dict(cycle_dist)
        stat.append(_check("touch-distribution", k, n, touch_dist == expected,
                           f"{expected} vs {touch_dist}"))
        stat.append(_check("cycle-length-distribution", k, n,
                           cycle_dist == expected, f"{expected} vs {cycle_dist}"))
        stat.append(_check("labeled-touch-distribution", k, n,
                           dict(word_dist) == labeled_expected))
        stat.append(for_all("ornament-root-vertices"))
        stat.append(for_all("cycle-tree-root-vertices"))
        stat.append(for_all("touch-labels-become-roots"))
    return {"counts": cnt, "bijections": bij, "statistics": stat}


def run_suite(
    suite: str, ks, max_n: int, max_count=DEFAULT_MAX_ENUMERATION
) -> VerificationReport:
    """Run one suite, or every suite for "all": the series suite first,
    then each structure suite's checks from one walk of the (k >= 2, n)
    grid; the report lists the results suite by suite in SUITES order."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    check_ints("max_n must be >= 1", (max_n, 1))
    check_max_count(max_count)  # before the grid cache hashes it
    try:
        ks = list(ks)
    except TypeError:  # not a collection: refused below as no k values
        ks = []
    check_ints("k values must be >= 1", (len(ks), 1), *((k, 1) for k in ks))
    ks = sorted(set(ks))
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
