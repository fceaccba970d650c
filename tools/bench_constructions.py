"""Per-call cost of the witness route and the rainbow scans it runs.

    python3 tools/bench_constructions.py --label change [--out BENCH_constructions.json]

It times the package in the src/ of the checkout that holds the script.
The result is stored under --label in the output JSON (other labels are
kept), so two checkouts can write into one file. Stdlib only; the test suite does not
import it.

The route is cli._construct_witness, what `rainbow-lab witness` runs before
it writes a certificate: a construction where one applies, else the search
oracle. Inputs: every n in 2..45 with k in {1, 3, 5}, the pairs of the
benchmark's verify-classify certificates, and the primes 1009 and 1301 with
k = 1, those of its large-n workload. Per (n, k) it reports microseconds per
call (best and median of several timed loops), the number of
find_rainbow_triple calls one witness makes (each an O(n^2) scan on a
rainbow-free coloring), the route tag and the color count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rainbow_lab.cli as cli  # noqa: E402
from rainbow_lab import coloring  # noqa: E402

from bench_checking import git_sha, src_sha256  # noqa: E402

SMALL = [(n, k) for k in (1, 3, 5) for n in range(2, 46)]
LARGE = [(1009, 1), (1301, 1)]
LOOPS = 5
MIN_LOOP_S = 0.02  # small pairs repeat the call until one loop takes this long
BUDGET = 60.0


def count_scans(n: int, k: int) -> tuple[int, str, int]:
    """Calls to find_rainbow_triple during one witness, with its route and color count."""
    calls = 0
    real = coloring.find_rainbow_triple

    def counted(c, kk):
        nonlocal calls
        calls += 1
        return real(c, kk)

    coloring.find_rainbow_triple = counted
    try:
        w, route = cli._construct_witness(n, k, BUDGET)
    finally:
        coloring.find_rainbow_triple = real
    return calls, route, w.num_colors()


def us_per_call(n: int, k: int) -> dict:
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            cli._construct_witness(n, k, BUDGET)
        if time.perf_counter() - t0 >= MIN_LOOP_S or reps >= 1 << 16:
            break
        reps *= 4
    times = []
    for _ in range(LOOPS):
        t0 = time.perf_counter()
        for _ in range(reps):
            cli._construct_witness(n, k, BUDGET)
        times.append((time.perf_counter() - t0) / reps * 1e6)
    return {"best": round(min(times), 2), "median": round(statistics.median(times), 2), "reps": reps}


def measure() -> dict:
    witness = {}
    for n, k in SMALL + LARGE:
        scans, route, colors = count_scans(n, k)
        witness[f"n={n},k={k}"] = {
            "us": us_per_call(n, k), "scans": scans, "route": route, "colors": colors,
        }
    small_us = {
        f"k={k}": round(sum(witness[f"n={n},k={k}"]["us"]["median"] for n in range(2, 46)), 1)
        for k in (1, 3, 5)
    }
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sum_of_median_us_n_2_to_45": small_us,
        "witness": witness,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the result is stored under")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_constructions.json"))
    args = parser.parse_args()
    result = measure()
    try:
        with open(args.out) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc[args.label] = result
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({args.label: {k: v for k, v in result.items() if k != "witness"}}, indent=1))
    for key in ("n=1009,k=1", "n=1301,k=1"):
        print(key, result["witness"][key])
    return 0


if __name__ == "__main__":
    sys.exit(main())
