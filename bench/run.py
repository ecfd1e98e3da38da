"""catlog benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload {grid,coeff,map_chain} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each trial runs the workload's fixed job
once in a fresh interpreter (bench/worker.py), so every trial pays the
cold import and cold caches a `catlog` invocation pays. Trials run one
after another, never two at once, each with one client and one thread,
until the next would end past --seconds (at least MIN_TRIALS of them).

--trace 0 prints the end-to-end metrics: the medians over the trials of
set-up (also over SETUP_TRIALS import-only trials before each trial),
wall time and peak memory, and the latency percentiles over all the
trials' requests, a failed request counting as infinitely slow. Times
after set-up are in refs (see SPEC_FILE). --trace 1 alternates untraced
and traced trials, two of each, asserts that both traced trials made
identical call counts, and prints the per-layer metrics.

A wrong output stops the benchmark with exit code 1 and no numbers; a
crash on valid input is a failed op, counted in `failed` and in
ops_ok_frac. The last line of stdout is the result object; the line
before it records the environment and the times as measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

STARTED = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("grid", "coeff", "map_chain")
MIN_TRIALS = 2
TRACED_TRIALS = 2
SETUP_TRIALS = 4  # import-only trials before each workload trial, for setup_s
DEADLINE_S = 170  # a run ends within 180 s, or fails

# Times after set-up are in "refs": multiples of the mean time of a fixed
# reference slice (worker.reference_slice), which a timer samples all
# through each trial, in a process of its own on the trial's CPU. On a
# shared 2-core VM the speed drifted by 10-30% over minutes, which moves
# the reference and the job alike; the raw times go to the line before
# the result.
# The metric names and units are those of BENCHMARK.json; a run whose
# metrics differ from that list fails.
SPEC_FILE = ROOT / "BENCHMARK.json"

# traced functions: (span name, fields: calls, self_s, errors). Each layer
# (module) also reports the sum over all its spans, and that self time as a
# share of the traced wall time: the most a faster layer can save.
FUNCTIONS = (
    ("series.catalan_series", "cs"), ("series.Series.__mul__", "cs"),
    ("series.Series.__pow__", "cs"), ("series.Series.log", "cs"),
    ("series.Series.exp", "cs"),
    ("catalan.coeff_log_power", "cs"), ("catalan.composition_sum", "cs"),
    ("catalan.returns_count", "cs"), ("catalan.coeff_table", "cs"),
    ("arith.harmonic", "cs"),
    ("paths.enumerate_paths", "cs"), ("paths.enumerate_ornaments", "cs"),
    ("paths.enumerate_fields", "cs"), ("paths.recompose", "cs"),
    ("paths.rotations", "cs"), ("trees.enumerate_trees", "cs"),
    ("trees.enumerate_cycle_rooted", "cs"), ("trees.tree_to_forest", "cs"),
    ("trees.forest_to_tree", "cs"), ("trees.to_cycle_rooted", "cs"),
    ("trees.to_root_minimal", "cs"), ("multisets.enumerate_multisets", "cs"),
    ("paths.decompose", "cse"), ("multisets.root_vertices", "cse"),
    ("multisets.ornament_to_multiset", "cse"), ("multisets.multiset_to_ornament", "cse"),
    ("multisets.cycle_tree_to_multiset", "cse"), ("multisets.multiset_to_cycle_tree", "cse"),
    ("paths.GoodPath.validate", "cs"), ("paths.MinimalField.validate", "cs"),
    ("paths.Ornament.validate", "cs"), ("trees.PlaneTree.validate", "cs"),
    ("trees.RootMinimalForest.validate", "cs"), ("trees.CycleRootedTree.validate", "cs"),
    ("multisets.CyclicMultiset.validate", "cs"),
    ("verify.suite_series", "s"), ("verify.suite_counts", "s"),
    ("verify.suite_bijections", "s"), ("verify.suite_statistics", "s"),
    ("serialize.from_obj", "cs"), ("serialize.dumps", "cs"),
    ("render.render", "cse"), ("cli.main", "cse"),
)
FIELDS = {"c": "calls", "s": "self_s", "e": "errors"}


class WrongOutput(Exception):
    """The program gave a wrong answer; no numbers may be reported."""


def trial(workload: str, seed: int, work: Path, spans_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    if spans_file:
        cmd += ["--spans", str(spans_file)]
    # bytecode goes to the work directory whatever the caller's settings:
    # the first import trial writes it, and every set-up after reads it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    left = DEADLINE_S - (time.perf_counter() - STARTED)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(left, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trial exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["wrong"]:
        raise WrongOutput("\n".join(result["wrong"]))
    return result


def timed_trials(workload: str, seed: int, seconds: float, work: Path) -> tuple[list[dict], list[float]]:
    """Trials one after another until the next would end past `seconds`,
    each after SETUP_TRIALS import-only trials. Returns the trials and
    every set-up time measured."""
    start = time.perf_counter()
    out, setups, took = [], [], []
    while True:
        t0 = time.perf_counter()
        setups += [trial("import", seed, work)["setup_s"] for _ in range(SETUP_TRIALS)]
        out.append(trial(workload, seed, work))
        setups.append(out[-1]["setup_s"])
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(out) >= MIN_TRIALS and elapsed + statistics.median(took) > seconds:
            return out, setups


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_percentiles(trials: list[dict], key: str) -> tuple[float, float]:
    """p50 and p90 over all of a run's calls; a failed call is +inf."""
    lat = [math.inf if v is None else v for t in trials for v in t[key]]
    return percentile(lat, 0.5), percentile(lat, 0.9)


def end_to_end(trials: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """The metrics, and the same times in seconds as measured."""
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    p50, p90 = latency_percentiles(trials, "latencies_refs")
    p50_ms, p90_ms = latency_percentiles(trials, "latencies_ms")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_refs": statistics.median(t["wall_refs"] for t in trials),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in trials),
        "ops_ok_frac": (attempted - failed) / attempted,
        "req_p50_refs": p50,
        "req_p90_refs": p90,
    }
    raw = {
        "wall_s": statistics.median(t["wall_s"] for t in trials),
        "req_p50_ms": p50_ms,
        "req_p90_ms": p90_ms,
        "ref_ms": statistics.median(t["ref_ms"] for t in trials),
    }
    return metrics, raw


def per_layer(workload: str, seed: int, work: Path) -> tuple[dict, list[dict]]:
    """Untraced and traced trials, alternating so that drift in machine
    speed falls on both sides of trace.overhead_frac."""
    runs, untraced = [], []
    for i in range(TRACED_TRIALS):
        untraced.append(trial(workload, seed, work))
        spans_file = work / f"spans-{i}.bin"
        result = trial(workload, seed, work, spans_file)
        runs.append((result, spans.aggregate(spans_file)))
        spans_file.unlink()
    if any(agg["calls"] != runs[0][1]["calls"] for _, agg in runs):
        raise RuntimeError("two traced trials of the same input made different call counts")
    traced_wall = statistics.median(r["wall_s"] for r, _ in runs)
    overhead = traced_wall / statistics.median(t["wall_s"] for t in untraced) - 1
    result, agg = runs[0]
    self_s = {name: statistics.median(a["self_s"].get(name, 0.0) for _, a in runs)
              for name in agg["self_s"]}
    values = {}
    for name, fields in FUNCTIONS:
        for field in map(FIELDS.get, fields):
            values[f"{name}.{field}"] = (self_s.get(name, 0.0) if field == "self_s"
                                         else agg[field].get(name, 0))
    for layer in spans.LAYERS:
        mine = [n for n in agg["calls"] if n.startswith(layer + ".")]
        values[f"{layer}.calls"] = sum(agg["calls"][n] for n in mine)
        values[f"{layer}.self_s"] = sum(self_s[n] for n in mine)
        values[f"{layer}.self_share"] = values[f"{layer}.self_s"] / traced_wall
    items = agg["items"].get("paths.enumerate_ornaments", 0)
    inside = agg["nested"].get(("paths.enumerate_ornaments", "paths.to_ornament"), 0)
    values["paths.enumerate_ornaments.items"] = items
    values["paths.enumerate_ornaments.yield"] = items / inside if inside else 0.0
    values["verify.grid_cache.hits"] = result.get("grid_cache_hits", 0)
    values["verify.grid_cache.misses"] = result.get("grid_cache_misses", 0)
    values["trace.overhead_frac"] = overhead
    return values, untraced


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():  # a plain checkout has none; git would search its parents
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {"python": platform.python_version(), "commit": commit, "seed": seed,
            "nproc": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser(description="catlog benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "catlog" / "__init__.py").is_file():
        print(f"error: no catlog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wanted = json.loads(SPEC_FILE.read_text())["per_layer" if args.trace else "end_to_end"]
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        trial("import", args.seed, work)  # the first import compiles bytecode
        if args.trace:
            values, trials = per_layer(args.workload, args.seed, work)
            raw = {}
        else:
            trials, setups = timed_trials(args.workload, args.seed, args.seconds, work)
            values, raw = end_to_end(trials, setups)
        if set(values) != {m["name"] for m in wanted}:
            raise RuntimeError(f"metrics differ from {SPEC_FILE.name}: "
                               f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except WrongOutput as exc:
        print(f"error: wrong output, no numbers reported:\n{exc}", file=sys.stderr)
        return 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = sorted({f for t in trials for f in t["failures"]})
    env = environment(args.seed)
    units = {"wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms", "ref_ms": "ms"}
    print(json.dumps({"env": env, "workload": args.workload,
                      "measured": {k: {"value": v, "unit": units[k]} for k, v in raw.items()},
                      "trial_wall_s": [round(t["wall_s"], 4) for t in trials],
                      "requests": sum(len(t["latencies_ms"]) for t in trials),
                      "failures": failures}))
    print(json.dumps({
        "correct": True,
        "attempted": sum(t["attempted"] for t in trials),
        "failed": sum(t["failed"] for t in trials),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
