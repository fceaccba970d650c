"""Per-call cost of the checking layer: the LM classifier and the rainbow scan.

    python3 tools/bench_checking.py --label change [--out BENCH_classify.json]

It times the package in the src/ of the checkout that holds the script.
The result is stored under --label in the output JSON (other labels are
kept), so two checkouts can write into one file. Stdlib only; the test suite does not
import it.

Inputs are those of the benchmark's verify-classify workload: 4,000 seeded
random exact 3-colorings of each of Z_11 and Z_13 with every k in 1..q-1
(88,000 pairs). Classifier time is split by k (k = 2, k = -1, any other k);
scan time is per call on the same pairs, where most calls exit early, and
per scan of long colorings (FULL_SCANS): the rainbow-free k = 1 witnesses of
Z_1009, Z_1301 (3 colors) and Z_1024 (11 colors), the 651-color k = 0
witness of Z_1301, and the Z_1301 k = 1 witness with position 1290
recolored, whose least rainbow triple is found in row 11. Every figure is
the best and the median of several loops over the same inputs.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rainbow_lab as rl  # noqa: E402

QS = (11, 13)
COLORINGS_PER_Q = 4000
SEED = 5
LOOPS = 5
# name -> (n, k, the position recolored to color 1, or None for the witness)
FULL_SCANS = {
    "n=1009": (1009, 1, None),
    "n=1301": (1301, 1, None),
    "n=1024": (1024, 1, None),
    "n=1301,k=0": (1301, 1301, None),
    "n=1301,late": (1301, 1, 1290),
}
FULL_SCAN_LOOPS = 3


def pairs_by_kind() -> dict[str, list]:
    rng = random.Random(SEED)
    kinds: dict[str, list] = {"general_k": [], "k_2": [], "k_minus_1": []}
    for q in QS:
        for _ in range(COLORINGS_PER_Q):
            while True:
                cols = [rng.randrange(3) for _ in range(q)]
                if len(set(cols)) == 3:
                    break
            relabel: dict[int, int] = {}
            c = rl.Coloring(q, tuple(relabel.setdefault(x, len(relabel)) for x in cols))
            for k in range(1, q):
                kind = "k_2" if k == 2 else "k_minus_1" if k == q - 1 else "general_k"
                kinds[kind].append((c, k))
    return kinds


def per_call_us(fn, pairs, loops=LOOPS) -> dict:
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        for c, k in pairs:
            fn(c, k)
        times.append((time.perf_counter() - t0) / len(pairs) * 1e6)
    return {"best": round(min(times), 3), "median": round(statistics.median(times), 3), "calls": len(pairs)}


def full_scan_ms(n: int, k: int, recolored: int | None) -> dict:
    c = rl.witness_general(n, k)
    if recolored is not None:
        c = rl.Coloring(n, c.colors[:recolored] + (1,) + c.colors[recolored + 1:])
    triple = rl.find_rainbow_triple(c, k)
    if (triple is None) != (recolored is None):
        raise RuntimeError(f"Z_{n} k={k} recolored at {recolored}: unexpected scan result {triple}")
    times = []
    for _ in range(FULL_SCAN_LOOPS):
        t0 = time.perf_counter()
        rl.find_rainbow_triple(c, k)
        times.append((time.perf_counter() - t0) * 1e3)
    result = {"best": round(min(times), 2), "median": round(statistics.median(times), 2), "colors": c.num_colors()}
    if triple is not None:
        result["triple"] = list(triple)
    return result


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def src_sha256() -> str:
    """Digest of the package sources, which tells an uncommitted tree from
    the commit git_sha names."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "rainbow_lab", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def provenance() -> dict:
    """What a result was measured on: commit, source digest, cores, Python."""
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def store(path: str, label: str, result: dict) -> dict:
    """Write result under label into the JSON file at path, keeping its
    other labels, and return the whole document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc[label] = result
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def measure() -> dict:
    kinds = pairs_by_kind()
    every = [p for ps in kinds.values() for p in ps]
    classify = {kind: per_call_us(rl.classify_3coloring_LM, ps) for kind, ps in kinds.items()}
    classify["all"] = per_call_us(rl.classify_3coloring_LM, every)
    return {
        **provenance(),
        "classify_us_per_call": classify,
        "scan_us_per_call_workload_pairs": per_call_us(rl.find_rainbow_triple, every),
        "full_scan_ms": {name: full_scan_ms(*shape) for name, shape in FULL_SCANS.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the result is stored under")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_classify.json"))
    args = parser.parse_args()
    result = measure()
    store(args.out, args.label, result)
    json.dump({args.label: result}, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
