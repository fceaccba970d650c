"""Node counts and wall time of the search kernel, and two CLI runs end to end.

    python3 tools/bench_kernel.py --label change [--out BENCH_kernel.json]

It times the package in the src/ of the checkout that holds the script.
The result is stored under --label in the output JSON (other keys are
kept), so two checkouts can write into one file. Stdlib only; the test suite does not
import it.

Instances, each under a 60 s budget:
- rb_oracle on Z_24 k=23, Z_26 k=25, Z_28 k=27, Z_30 k=29, Z_25 k=5 and
  Z_21 k=3; on the slow tier Z_32 k=31, Z_34 k=33, Z_36 k=35, Z_72 k=5 and
  Z_81 k=5 (about 1-15 s each); and on the six rb instances the benchmark's
  oracle-sweep workload draws at seed 23;
- iter_rainbow_free_colorings(min_r=3) on its four enumeration instances;
- rb_oracle seeded as `rb --method both` seeds it, with the general-lift
  construction, on the slow tier and the oracle-sweep rb instances that have
  one (`rb_oracle_seeded`; the wall time includes building the seed).
Per instance it records r_max (for an enumeration, the largest color count
it yields), whether the search was conclusive, the kernel nodes and prunes by
reason per run and the median wall time of 5 runs. The CLI runs
`rainbow-lab table --n-max 24 --k 1` and
`rainbow-lab rb --n 30 --k 29 --method search` in a fresh interpreter each
time, with their exit codes. An instance or a CLI command stops repeating
once its runs add up to 60 s; the number of runs is stored.

A node count is the same on every machine and for every walk order of the
kernel, so when the output file already holds a `parent` entry and --label
is not `parent`, every instance whose node count differs from the parent's
is printed and the script exits 1 (after writing its result). Only the
plain rows are compared: the parent may have no seeded rows.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from rainbow_lab import search  # noqa: E402
from rainbow_lab.cli import _general_lift  # noqa: E402
from rainbow_lab.errors import SearchInconclusiveError  # noqa: E402
from rainbow_lab.modcore import CyclicInstance  # noqa: E402

from bench_checking import provenance, store  # noqa: E402

HARD = [(24, 23), (26, 25), (28, 27), (30, 29), (25, 5), (21, 3)]
# about 1-15 s each: the searches a sharper bound or a seeded start must speed up
SLOW = [(32, 31), (34, 33), (36, 35), (72, 5), (81, 5)]
SWEEP_RB = [(16, 7), (17, 7), (18, 2), (19, 2), (20, 2), (21, 3)]
SWEEP_ENUM = [(16, 2), (18, 1), (20, 3), (17, 13)]
CLI = [
    ["table", "--n-max", "24", "--k", "1"],
    ["rb", "--n", "30", "--k", "29", "--method", "search"],
]
BUDGET = 60.0
RUNS = 5
REPEAT_LIMIT_S = 60.0


class _Recorded(search._Status):
    """Every status record the kernel creates, so enumeration nodes count too."""

    made: list = []

    def __init__(self):
        super().__init__()
        self.made.append(self)


def rb_run(n: int, k: int) -> dict:
    res = search.rb_oracle(CyclicInstance(n, k), search.SearchConfig(time_budget=BUDGET))
    return {"r_max": res.detail["r_max"], "conclusive": res.conclusive}


def seeded_run(n: int, k: int) -> dict:
    seed = _general_lift(n, k)
    res = search.rb_oracle(
        CyclicInstance(n, k), search.SearchConfig(time_budget=BUDGET), seed
    )
    return {
        "r_max": res.detail["r_max"],
        "lower_bound_r": res.detail["lower_bound_r"],
        "conclusive": res.conclusive,
    }


def enum_run(n: int, k: int) -> dict:
    cfg = search.SearchConfig(time_budget=BUDGET)
    r_max = count = 0
    conclusive = True
    try:
        for c in search.iter_rainbow_free_colorings(CyclicInstance(n, k), min_r=3, cfg=cfg):
            r_max = max(r_max, c.num_colors())
            count += 1
    except SearchInconclusiveError:
        conclusive = False
    return {"r_max": r_max, "conclusive": conclusive, "colorings": count}


def repeated(fn) -> tuple[dict, list[float]]:
    """fn's result (the same on every run) and its wall times, RUNS of them
    or fewer once they add up to REPEAT_LIMIT_S."""
    walls: list[float] = []
    while len(walls) < RUNS and sum(walls) < REPEAT_LIMIT_S:
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
    return out, walls


def kernel(fn, n: int, k: int) -> dict:
    _Recorded.made.clear()
    out, walls = repeated(lambda: fn(n, k))
    runs = len(walls)
    out["nodes"] = sum(s.nodes for s in _Recorded.made) // runs
    # a node that both empties a domain and breaks the count bound counts
    # under the reason found first, so only the sum is fixed
    out["prunes"] = {
        "empty_domain": sum(s.empty_domain for s in _Recorded.made) // runs,
        "count_bound": sum(s.count_bound for s in _Recorded.made) // runs,
    }
    out["wall_s_median"] = round(statistics.median(walls), 4)
    out["runs"] = runs
    return out


def cli(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "rainbow_lab.cli", *argv, "--budget-secs", str(BUDGET)]

    def run():
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
        return {"exit": proc.returncode}

    out, walls = repeated(run)
    out["wall_s_median"] = round(statistics.median(walls), 3)
    out["runs"] = len(walls)
    return out


def measure() -> dict:
    rb = {f"Z_{n} k={k}": kernel(rb_run, n, k) for n, k in dict.fromkeys(HARD + SLOW + SWEEP_RB)}
    seeded = {
        f"Z_{n} k={k}": kernel(seeded_run, n, k)
        for n, k in SLOW + SWEEP_RB
        if _general_lift(n, k) is not None
    }
    enum = {f"Z_{n} k={k}": kernel(enum_run, n, k) for n, k in SWEEP_ENUM}
    lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "rainbow_lab"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "rainbow_lab", name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        **provenance(),
        "src_lines": lines,
        "rb_oracle": rb,
        "rb_oracle_seeded": seeded,
        "enumerate_min_r_3": enum,
        "sweep_nodes": sum(rb[f"Z_{n} k={k}"]["nodes"] for n, k in SWEEP_RB)
        + sum(e["nodes"] for e in enum.values()),
        "cli": {"rainbow-lab " + " ".join(argv): cli(argv) for argv in CLI},
    }


def node_mismatches(parent: dict, result: dict) -> list[str]:
    """One line per instance whose node count differs from the parent's."""
    lines = []
    for mode in ("rb_oracle", "enumerate_min_r_3"):
        for name, got in result[mode].items():
            want = parent.get(mode, {}).get(name, {}).get("nodes")
            if want != got["nodes"]:
                lines.append(f"{mode} {name}: nodes {got['nodes']}, parent {want}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the result is stored under")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernel.json"))
    args = parser.parse_args()
    search._Status = _Recorded
    result = measure()
    doc = store(args.out, args.label, result)
    json.dump({args.label: result}, sys.stdout, indent=1, sort_keys=True)
    print()
    if args.label != "parent" and "parent" in doc:
        mismatches = node_mismatches(doc["parent"], result)
        for line in mismatches:
            print(line, file=sys.stderr)
        if mismatches:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
