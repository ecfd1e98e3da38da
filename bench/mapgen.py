"""Seeded request generator for the map_chain workload.

Independent of catlog: it builds good paths from their definition, so a
bug in catlog cannot shape its own test inputs. A request is one labeled
good path (k, steps, labels) plus the shape it was drawn as.

Sizes are log-uniform in [N_MIN, N_MAX], stratified: request i of
REQUESTS gets the size at the middle of the i-th equal slice of the log
range. Shapes and k sit at fixed strata, so every seed carries the same
sizes, the same large "hug" paths (which recurse deepest in the
cycle-tree encoding) and the same share of each shape, while the words,
labels and the request order come from the seed. The latency
percentiles of a stream then vary little from seed to seed.

Run `python3 bench/mapgen.py --self-test` to check the generator.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

REQUESTS = 120
N_MIN, N_MAX = 32, 1500
KS = (2, 3, 4)
# stratum index mod 10 -> shape; the other eight of every ten are uniform
HUG_STRATUM, MAX_TOUCH_STRATUM = 9, 4


def is_good(k: int, steps: str) -> bool:
    """n rights and (k-1)n ups, every prefix keeping u <= (k-1)r."""
    r = u = 0
    for ch in steps:
        if ch == "R":
            r += 1
        elif ch == "U":
            u += 1
            if u > (k - 1) * r:
                return False
        else:
            return False
    return r >= 1 and u == (k - 1) * r


def touch_labels(k: int, steps: str, labels) -> list[int]:
    """Labels at the heights where the path meets y = (k-1)x, bottom up;
    the endpoint is the start seen around the circle, so it is left out."""
    out = []
    r = u = 0
    for ch in steps:
        if ch == "R":
            if u == (k - 1) * r:
                out.append(labels[r])
            r += 1
        else:
            u += 1
    return out


def uniform_good_word(rng: random.Random, k: int, n: int) -> str:
    """A uniformly random good word of size n, by the cycle lemma.

    With R worth k-1 and U worth -1, a shuffle of n R's and (k-1)n+1 U's
    sums to -1. Exactly one of its rotations keeps every proper prefix
    sum >= 0: the one starting just after the first place the prefix sum
    reaches its minimum. That rotation ends in its extra U; dropping it
    leaves a good word, and every good word comes from the same number of
    shuffles.
    """
    word = ["R"] * n + ["U"] * ((k - 1) * n + 1)
    rng.shuffle(word)
    total = low = 0
    cut = 0
    for i, ch in enumerate(word):
        total += k - 1 if ch == "R" else -1
        if total < low:
            low, cut = total, i + 1
    rotated = word[cut:] + word[:cut]
    return "".join(rotated[:-1])


def requests(seed: int) -> list[dict]:
    """The seeded request stream: same seed, same list."""
    rng = random.Random(seed)
    span = math.log(N_MAX / N_MIN)
    out = []
    for i in range(REQUESTS):
        n = round(N_MIN * math.exp(span * (i + 0.5) / REQUESTS))
        k = KS[i % len(KS)] if i % 10 not in (HUG_STRATUM, MAX_TOUCH_STRATUM) \
            else KS[(i // 10) % len(KS)]
        if i % 10 == HUG_STRATUM:
            shape = "hug"
            steps = "R" * n + "U" * ((k - 1) * n)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
        elif i % 10 == MAX_TOUCH_STRATUM:
            shape = "max-touch"
            steps = ("R" + "U" * (k - 1)) * n
            labels = list(range(n, 0, -1))
        else:
            shape = "uniform"
            steps = uniform_good_word(rng, k, n)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
        out.append({"shape": shape, "k": k, "n": n, "steps": steps, "labels": labels})
    rng.shuffle(out)
    return out


def self_test() -> None:
    for seed in (1, 2, 3):
        stream = requests(seed)
        if stream != requests(seed):
            raise SystemExit(f"seed {seed} does not repeat its stream")
        for req in stream:
            if not is_good(req["k"], req["steps"]):
                raise SystemExit(f"seed {seed}: bad word for {req['shape']}")
            if sorted(req["labels"]) != list(range(1, req["n"] + 1)):
                raise SystemExit(f"seed {seed}: labels are not a permutation")
    if requests(1) == requests(2):
        raise SystemExit("different seeds gave the same stream")
    # the cycle lemma draw covers every good word of a small size evenly
    rng = random.Random(0)
    counts: dict[str, int] = {}
    for _ in range(6000):
        w = uniform_good_word(rng, 3, 3)
        counts[w] = counts.get(w, 0) + 1
    if len(counts) != 12 or not all(is_good(3, w) for w in counts):
        raise SystemExit(f"expected all 12 good words of k=3 n=3, got {len(counts)}")
    if max(counts.values()) > 1.3 * min(counts.values()):
        raise SystemExit(f"good words are not drawn evenly: {sorted(counts.values())}")
    print("mapgen self-test: ok")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.self_test:
        self_test()
    else:
        for req in requests(args.seed):
            print(req["shape"], req["k"], req["n"], file=sys.stdout)
