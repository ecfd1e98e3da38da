"""One cold trial of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py --workload grid --seed 1 --work DIR [--spans FILE]

Builds the workload's inputs from the seed, imports catlog (timed as
set-up), then runs the fixed job once with one client and one thread,
timing each call into catlog. Each output is checked against the
benchmark's own expectations as soon as it exists. Every REF_EVERY_S, a
timer interrupts the job to time a fixed reference computation, which
samples the machine's speed, in a child process forked before catlog is
imported. Checks and reference slices are left out of the wall time and
the latencies. Prints one JSON object as its last line. With --spans,
wraps catlog's public functions before catlog.cli is imported, writes
the recorded spans to FILE, and samples no reference.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import struct
import sys
import time
from fractions import Fraction
from pathlib import Path

import mapgen

# (check, k, n) of every check the seed commit's run_suite made for these jobs
CHECKS_FILE = Path(__file__).with_name("checks.json")

# (k, max n) of the acceptance grid, as GRID in tests/test_acceptance.py
GRID = ((2, 5), (3, 4), (4, 3))
SERIES_KS, SERIES_ORDER = (2, 3, 5), 30
COEFF_TABLES = ((2, 80, 1), (3, 40, 3))
# the machine's speed is sampled by one reference slice after every
# REF_EVERY_S seconds of a trial, wherever the job is; a call's latency is
# divided by the mean slice from REF_AROUND_S before it to REF_AROUND_S
# after it, as the speed swings within seconds
REF_EVERY_S, REF_AROUND_S = 0.2, 1.0


def reference_slice() -> int:
    """Fixed pure-Python work, independent of catlog and shaped like it:
    small tuples, strings, sets and dicts, a few MB of short-lived
    objects, and exact rational sums. 10-20 ms on a shared 2-core x86-64
    VM under Python 3.11."""
    seen, table, acc = set(), {}, 0
    for i in range(5000):
        word = "RU" * (i % 7) + "R"
        key = (word, tuple(range(i % 5)))
        seen.add(key)
        table[i % 97] = key
        acc += len(word) + len(table)
    objs = [(i, str(i), (i, i + 1)) for i in range(10000)]
    by_name = {o[1]: o for o in objs}
    pairs = frozenset(o[2] for o in objs)
    acc += sum(len(by_name[str(i)][1]) for i in range(0, 10000, 3))
    q = Fraction(0)
    for i in range(1, 200):
        q += Fraction(1, i)
    return acc + len(seen) + len(pairs) + q.denominator % 7


class Reference:
    """Times reference slices in a child process forked before catlog is
    imported, so catlog's heap and collector state cannot reach them. The
    trial blocks while the child works: only one of the two runs at a time."""

    def __init__(self):
        ask_r, self._ask = os.pipe()
        self._answer, answer_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self._ask)
                os.close(self._answer)
                while os.read(ask_r, 1):  # the trial closing its end stops the child
                    t = time.perf_counter()
                    reference_slice()
                    os.write(answer_w, struct.pack("d", (time.perf_counter() - t) * 1000))
            finally:
                os._exit(0)
        os.close(ask_r)
        os.close(answer_w)
        self.sample()  # the child's first slice pays its copy-on-write faults

    def sample(self) -> float:
        """The time of one reference slice, in ms."""
        os.write(self._ask, b".")
        data = b""
        while len(data) < 8:
            data += os.read(self._answer, 8 - len(data))
        return struct.unpack("d", data)[0]

    def close(self) -> None:
        os.close(self._ask)
        os.close(self._answer)
        os.waitpid(self.pid, 0)


class Trial:
    """Latency, failures and wrong answers of one trial's ops. With a
    reference, a timer samples the machine's speed while the job runs."""

    def __init__(self, reference: Reference | None, recorder=None):
        self.reference = reference
        self.recorder = recorder
        self.latencies_ms: list[float | None] = []  # None marks a failed op
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.ref_ms: list[float] = []
        self.ref_at: list[float] = []  # when each slice was timed
        self.outside_s = 0.0  # the benchmark's own checks and reference slices
        if reference:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def _tick(self, signum, frame) -> None:
        """Time a reference slice, keeping its time apart from the job's;
        the timer is armed again only after it, so ticks never nest."""
        t0 = time.perf_counter()
        self.ref_ms.append(self.reference.sample())
        self.ref_at.append(t0)
        self.outside_s += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def stop(self) -> None:
        if self.reference:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.reference.close()

    def timed(self, label: str, ops: int, fn):
        """Run one client call, timing it; a crash fails its `ops` ops.
        Returns (ok, result)."""
        self.attempted += ops
        span = self.recorder.open("bench.request") if self.recorder else None
        outside, t0 = self.outside_s, time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a crash on valid input is a failed op
            self.latencies_ms.append(None)
            self.spans.append((t0, t0))
            self.failed += ops
            self.failures.append(f"{label}: {type(exc).__name__}: {str(exc)[:120]}")
            return False, None
        finally:
            if self.recorder:
                self.recorder.close(span)
        took = time.perf_counter() - t0 - (self.outside_s - outside)
        self.latencies_ms.append(took * 1000)
        self.spans.append((t0, time.perf_counter()))
        return True, out

    def latencies_refs(self) -> list[float | None]:
        """Each op's latency over the mean reference slice timed around it:
        the reference shares the job's CPU and slows down with it."""
        out = []
        for ms, (start, end) in zip(self.latencies_ms, self.spans):
            a = bisect.bisect_left(self.ref_at, start - REF_AROUND_S)
            b = bisect.bisect_right(self.ref_at, end + REF_AROUND_S)
            out.append(None if ms is None else ms / statistics.fmean(self.ref_ms[a:b]))
        return out

    def check(self, fn, *args) -> None:
        """Run an output check, keeping its time apart from the job's."""
        outside, t0 = self.outside_s, time.perf_counter()
        fn(self, *args)
        self.outside_s = outside + time.perf_counter() - t0


def check_report(trial: Trial, report, want: list, what: str) -> None:
    """The report passes, and runs at least the checks the seed ran."""
    if not report.overall:
        bad = [f"{r.name} k={r.k} n={r.n}" for r in report.results if not r.passed]
        trial.wrong.append(f"{what}: failed checks {bad[:5]}")
    missing = {tuple(c) for c in want} - {(r.name, r.k, r.n) for r in report.results}
    if missing:
        trial.wrong.append(f"{what}: missing checks {sorted(missing, key=str)[:5]}")


def run_grid(trial: Trial, want: dict) -> dict:
    from catlog import verify

    for k, n in GRID:
        ok, report = trial.timed(f"run_suite(all, [{k}], {n})", len(want[str(k)]),
                                 lambda: verify.run_suite("all", [k], n))
        if ok:
            trial.check(check_report, report, want[str(k)], f"grid k={k}")
    info = verify._grid_structures.cache_info()
    return {"grid_cache_hits": info.hits, "grid_cache_misses": info.misses}


def run_coeff(trial: Trial, want: list) -> dict:
    from catlog import catalan, verify

    label = f"run_suite(series, {list(SERIES_KS)}, {SERIES_ORDER})"
    ok, report = trial.timed(label, len(want),
                             lambda: verify.run_suite("series", list(SERIES_KS), SERIES_ORDER))
    if ok:
        trial.check(check_report, report, want, "coeff series suite")
    for k, max_n, power in COEFF_TABLES:
        label = f"coeff_table({k}, {max_n}, {power}, check=True)"
        ok, table = trial.timed(label, max_n, lambda: catalan.table_to_json(
            catalan.coeff_table(k, max_n, power, check=True)))
        if ok:
            trial.check(check_table, label, max_n, table)
    return {}


def check_table(trial: Trial, label: str, max_n: int, table: dict) -> None:
    """Parse every row of the table's JSON form, as `catlog coeff --format
    json` prints it: rows n = 1..max_n, each with a series value equal to
    the closed form; the table's own match flag must agree."""
    rows = table["rows"]
    if [row["n"] for row in rows] != list(range(1, max_n + 1)):
        trial.wrong.append(f"{label}: rows are not n = 1..{max_n}")
    for row in rows:
        closed, value = row["closed_form"], row["series_value"]
        if value is None or Fraction(value) != Fraction(closed) or row["match"] is not True:
            trial.wrong.append(f"{label} n={row['n']}: {closed} vs {value}, match={row['match']}")
            return


def run_map_chain(trial: Trial, reqs: list[dict], work: Path) -> dict:
    from catlog import cli

    f = {name: work / name for name in
         ("path.json", "orn.json", "ct.json", "orn2.json", "field.json", "back.json", "pic.txt")}
    steps = [
        ("map", "--target", "ornament", "--input", f["path.json"], "--output", f["orn.json"]),
        ("map", "--target", "cycle-tree", "--input", f["orn.json"], "--output", f["ct.json"]),
        ("map", "--target", "ornament", "--input", f["ct.json"], "--output", f["orn2.json"]),
        ("map", "--target", "field", "--input", f["path.json"], "--output", f["field.json"]),
        ("map", "--target", "path", "--input", f["field.json"], "--output", f["back.json"]),
        ("render", "--input", f["ct.json"], "--output", f["pic.txt"]),
    ]
    steps = [[str(a) for a in step] for step in steps]

    def chain():
        for argv in steps:
            code = cli.main(argv)
            if code != 0:  # valid input refused: a failed request
                raise RuntimeError(f"catlog {argv[0]} {argv[2]} exited with {code}")

    for req in reqs:
        path_obj = {"kind": "path", "k": req["k"], "steps": req["steps"], "labels": req["labels"]}
        f["path.json"].write_text(json.dumps(path_obj, separators=(",", ":")))
        label = f"{req['shape']} k={req['k']} n={req['n']}"
        ok, _ = trial.timed(label, 1, chain)
        if ok:
            trial.check(check_chain, req, path_obj, f, label)
    return {}


def check_chain(trial: Trial, req, path_obj, f, label) -> None:
    """The output checks of one request, against values this benchmark
    computes itself from the input path."""
    k, steps, labels = req["k"], req["steps"], req["labels"]
    orn_text = f["orn.json"].read_bytes()
    if orn_text != f["orn2.json"].read_bytes():
        trial.wrong.append(f"{label}: ornament changed across the cycle-tree round trip")
    if json.loads(f["back.json"].read_text()) != path_obj:
        trial.wrong.append(f"{label}: path -> field -> path did not give the input back")
    touches = mapgen.touch_labels(k, steps, labels)
    i = touches.index(min(touches))
    cycle = touches[i:] + touches[:i]
    if json.loads(f["ct.json"].read_text())["cycle"] != cycle:
        trial.wrong.append(f"{label}: cycle-tree cycle is not the touch labels")
    # the ornament is the rotation that puts the smallest touch label first
    r = u = 0
    for pos, ch in enumerate(steps):
        if ch == "R":
            if u == (k - 1) * r and labels[r] == cycle[0]:
                cut, j = pos, r
                break
            r += 1
        else:
            u += 1
    rep = {"kind": "ornament", "k": k, "steps": steps[cut:] + steps[:cut],
           "labels": labels[j:] + labels[:j]}
    if json.loads(orn_text) != rep:
        trial.wrong.append(f"{label}: ornament is not the minimal-touch rotation")
    lines = f["pic.txt"].read_text().splitlines()
    header = " -> ".join(map(str, cycle)) + f" -> ({cycle[0]})"
    if lines[:2] != [f"cycle-tree k={k}", header] or len(lines) != 2 + len(cycle) + k * req["n"]:
        trial.wrong.append(f"{label}: rendering does not match the cycle-tree")


def main() -> None:
    ap = argparse.ArgumentParser(description="one cold trial of a workload")
    ap.add_argument("--workload", choices=("grid", "coeff", "map_chain", "import"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    # one CPU for every trial and its reference, which then sees the job's
    # slowdowns; a per-CPU slowdown otherwise hits only one of the two
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    want = json.loads(CHECKS_FILE.read_text())
    reqs = mapgen.requests(args.seed) if args.workload == "map_chain" else []
    if not all(mapgen.is_good(r["k"], r["steps"]) for r in reqs):
        raise SystemExit("map_chain generator produced a path that is not good")

    # a traced trial reports spans, not refs: a slice would land in a span
    reference = None if args.workload == "import" or args.spans else Reference()
    recorder = None
    t0 = time.perf_counter()
    import catlog

    if args.spans:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, catlog)
    import catlog.cli  # noqa: F401  (traced: install() imported it, after the other layers)

    setup_s = time.perf_counter() - t0
    if args.workload == "import":
        sys.stdout.write(json.dumps({"setup_s": setup_s, "wrong": []}) + "\n")
        return
    t1 = time.perf_counter()
    trial = Trial(reference, recorder)
    if args.workload == "grid":
        extra = run_grid(trial, want["grid"])
    elif args.workload == "coeff":
        extra = run_coeff(trial, want["coeff"])
    else:
        extra = run_map_chain(trial, reqs, args.work)
    trial.stop()
    wall_s = time.perf_counter() - t1 - trial.outside_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder:
        recorder.write(args.spans)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "latencies_ms": trial.latencies_ms,
        "attempted": trial.attempted,
        "failed": trial.failed,
        "failures": trial.failures,
        "wrong": trial.wrong,
        **extra,
    }
    if reference:
        result.update(wall_refs=wall_s * 1000 / statistics.fmean(trial.ref_ms),
                      latencies_refs=trial.latencies_refs(),
                      ref_ms=statistics.fmean(trial.ref_ms))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
