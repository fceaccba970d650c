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
find_rainbow_triple calls one witness makes (each a full scan of a
rainbow-free coloring), the route tag and the color count.

End to end, per n <= 45 pair, it also times one in-process
cli.main(["witness", ..., "--out", path]) and one cli.main(["verify", path])
(median microseconds per call; an embedding program pays this, parser and
certificate file included), and `rainbow-lab witness --out` from a fresh
interpreter for Z_45 and Z_1301 with k = 1 (milliseconds, median of
FRESH_RUNS).

Timings move between runs more than most changes do; the route, color count
and scan count of each witness do not. So when the output file already holds
a `parent` entry and --label is not `parent`, every pair whose route, colors
or scans differ from the parent's is printed and the script exits 1 (after
writing its result).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rainbow_lab.cli as cli  # noqa: E402
from rainbow_lab import coloring  # noqa: E402

from bench_checking import provenance, store  # noqa: E402

SMALL = [(n, k) for k in (1, 3, 5) for n in range(2, 46)]
LARGE = [(1009, 1), (1301, 1)]
FRESH = [(45, 1), (1301, 1)]
FRESH_RUNS = 7
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


def us_per_call(fn) -> dict:
    """Microseconds per fn() call: best and median of LOOPS timed loops."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= MIN_LOOP_S or reps >= 1 << 16:
            break
        reps *= 4
    times = []
    for _ in range(LOOPS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps * 1e6)
    return {"best": round(min(times), 2), "median": round(statistics.median(times), 2), "reps": reps}


def run_main(argv: list[str]) -> None:
    if cli.main(argv) != cli.EXIT_OK:
        raise RuntimeError(f"rainbow-lab {' '.join(argv)} failed")


def cli_us(n: int, k: int, tmpdir: str) -> dict:
    """Median microseconds of one in-process witness --out and one verify of its file."""
    path = os.path.join(tmpdir, f"cert-{n}-{k}.json")
    witness = ["witness", "--n", str(n), "--k", str(k), "--out", path]
    return {
        "witness": us_per_call(lambda: run_main(witness))["median"],
        "verify": us_per_call(lambda: run_main(["verify", path]))["median"],
    }


def fresh_witness_ms(n: int, k: int, tmpdir: str) -> dict:
    """`rainbow-lab witness --out` in a new interpreter, start to exit."""
    path = os.path.join(tmpdir, f"fresh-{n}-{k}.json")
    cmd = [sys.executable, "-m", "rainbow_lab.cli", "witness", "--n", str(n), "--k", str(k), "--out", path]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    walls = []
    for _ in range(FRESH_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        walls.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != cli.EXIT_OK:
            raise RuntimeError(f"{' '.join(cmd)}: exit {proc.returncode}: {proc.stderr}")
    return {"best": round(min(walls), 1), "median": round(statistics.median(walls), 1), "runs": FRESH_RUNS}


def measure() -> dict:
    witness = {}
    for n, k in SMALL + LARGE:
        scans, route, colors = count_scans(n, k)
        witness[f"n={n},k={k}"] = {
            "us": us_per_call(lambda: cli._construct_witness(n, k, BUDGET)),
            "scans": scans, "route": route, "colors": colors,
        }
    small_us = {
        f"k={k}": round(sum(witness[f"n={n},k={k}"]["us"]["median"] for n in range(2, 46)), 1)
        for k in (1, 3, 5)
    }
    with tempfile.TemporaryDirectory() as tmpdir:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for n, k in SMALL:
                witness[f"n={n},k={k}"]["cli_us"] = cli_us(n, k, tmpdir)
        fresh = {f"n={n},k={k}": fresh_witness_ms(n, k, tmpdir) for n, k in FRESH}
    cli_median = {
        cmd: round(statistics.median(witness[f"n={n},k={k}"]["cli_us"][cmd] for n, k in SMALL), 1)
        for cmd in ("witness", "verify")
    }
    return {
        **provenance(),
        "sum_of_median_us_n_2_to_45": small_us,
        "cli_main_median_us_n_2_to_45": cli_median,
        "fresh_witness_out_ms": fresh,
        "witness": witness,
    }


def witness_mismatches(parent: dict, result: dict) -> list[str]:
    """One line per pair whose route, colors or scans differ from the parent's."""
    lines = []
    for name, got in result["witness"].items():
        want = parent.get("witness", {}).get(name, {})
        for field in ("route", "colors", "scans"):
            if want.get(field) != got[field]:
                lines.append(f"{name}: {field} {got[field]}, parent {want.get(field)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the result is stored under")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_constructions.json"))
    args = parser.parse_args()
    result = measure()
    doc = store(args.out, args.label, result)
    print(json.dumps({args.label: {k: v for k, v in result.items() if k != "witness"}}, indent=1))
    for key in ("n=1009,k=1", "n=1301,k=1"):
        print(key, result["witness"][key])
    if args.label != "parent" and "parent" in doc:
        mismatches = witness_mismatches(doc["parent"], result)
        for line in mismatches:
            print(line, file=sys.stderr)
        if mismatches:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
