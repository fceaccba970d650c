"""rainbow-lab benchmark.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root: it benchmarks the package in ./src. Each pass
of the workload runs in a fresh interpreter, one at a time, for about
--seconds in total (at least three passes untraced; with --trace 1, traced
and untraced passes alternate, at least one of each). A few interpreters
that only set up are started first, so set-up time is a median too.

With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer ones. The lines before it print every metric by name and unit,
the per-phase metrics of the workload, the failed operations and the
provenance of the run. Exit code 1 if any output check failed, 2 if the
package or the arguments are unusable.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oracle-sweep", "verify-classify", "large-n")
SETUP_PROBES = 5
RUN_LIMIT = 170.0  # seconds; a run must end within 180

# Times are at reference speed: wall seconds rescaled by the calibration slices
# timed next to them (workloads.calibrate), because this machine's speed
# changes by up to 1.8x from minute to minute. Wall times are printed too.
END_TO_END = {"setup_s": "s", "work_ref_s": "s", "peak_rss_mb": "MB"}

# per-workload phase metrics: name -> (phase, unit, how to read the phase)
PHASE_METRICS = {
    "oracle-sweep": {"rb_sweep_s": ("rb", "s", "wall"), "enum_sweep_s": ("enum", "s", "wall")},
    "verify-classify": {
        "crosscheck_pairs_per_s": ("crosscheck", "1/s", "rate"),
        "certify_s": ("certify", "s", "wall"),
    },
    "large-n": {"budgeted_rb_s": ("budgeted_rb", "s", "wall"), "certify_s": ("certify", "s", "wall")},
}

PER_LAYER = {
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.self_s": "s",
    "search.calls": "count",
    "search.inconclusive": "count",
    "search.index_s": "s",
    "modcore.iter_triples.self_s": "s",
    "modcore.triples": "count",
    "modcore.solutions_by_sum.calls": "count",
    "modcore.solutions_by_sum.self_s": "s",
    "coloring.find_rainbow_triple.calls": "count",
    "coloring.find_rainbow_triple.self_s": "s",
    "coloring.find_rainbow_triple.us_per_call": "us",
    "coloring.find_rainbow_triple.found_frac": "ratio",
    "coloring.classify_3coloring_LM.calls": "count",
    "coloring.classify_3coloring_LM.us_per_call": "us",
    "constructions.calls": "count",
    "constructions.self_s": "s",
    "certificates.calls": "count",
    "certificates.self_s": "s",
    "formulas.calls": "count",
    "formulas.self_s": "s",
    "cli.rb.self_s": "s",
    "cli.witness.self_s": "s",
    "cli.verify.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(p: dict) -> dict:
    """The per-layer metrics of one traced pass."""
    t = p["trace"]
    layers, funcs, names = t["layers"], t["funcs"], t["names"]
    empty = {"calls": 0, "self_s": 0.0, "covered_s": 0.0, "extra": 0.0}

    def lay(name):
        return layers.get(name, empty)

    def fn(name):
        return funcs.get(name, empty)

    def per_call(f):
        return f["covered_s"] / f["calls"] * 1e6 if f["calls"] else 0.0

    frt, lm, it = fn("coloring.find_rainbow_triple"), fn("coloring.classify_3coloring_LM"), fn("modcore.iter_triples")
    search_self = lay("search")["self_s"]
    return {
        "search.nodes": p["nodes"],
        "search.nodes_per_s": p["nodes"] / search_self if search_self else 0.0,
        "search.self_s": search_self,
        "search.calls": lay("search")["calls"],
        "search.inconclusive": p["inconclusive"],
        "search.index_s": names.get("search.iter_triples", empty)["covered_s"],
        "modcore.iter_triples.self_s": it["self_s"],
        "modcore.triples": it["extra"],
        "modcore.solutions_by_sum.calls": fn("modcore.solutions_by_sum")["calls"],
        "modcore.solutions_by_sum.self_s": fn("modcore.solutions_by_sum")["self_s"],
        "coloring.find_rainbow_triple.calls": frt["calls"],
        "coloring.find_rainbow_triple.self_s": frt["self_s"],
        "coloring.find_rainbow_triple.us_per_call": per_call(frt),
        "coloring.find_rainbow_triple.found_frac": frt["extra"] / frt["calls"] if frt["calls"] else 0.0,
        "coloring.classify_3coloring_LM.calls": lm["calls"],
        "coloring.classify_3coloring_LM.us_per_call": per_call(lm),
        "constructions.calls": lay("constructions")["calls"],
        "constructions.self_s": lay("constructions")["self_s"],
        "certificates.calls": lay("certificates")["calls"],
        "certificates.self_s": lay("certificates")["self_s"],
        "formulas.calls": lay("formulas")["calls"],
        "formulas.self_s": lay("formulas")["self_s"],
        "cli.rb.self_s": fn("cli.cmd_rb")["self_s"],
        "cli.witness.self_s": fn("cli.cmd_witness")["self_s"],
        "cli.verify.self_s": fn("cli.cmd_verify")["self_s"],
    }


def tail_percentile(samples: list[float]):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(samples)
    return best, ordered[min(len(ordered) - 1, int(len(ordered) * best / 100))]


def provenance(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the checkout is not a git repository
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(opts: dict, deadline: float) -> tuple[dict | None, str]:
    """Run one pass (or set-up probe) in a fresh interpreter, killed at the
    time.monotonic() deadline."""
    env = dict(os.environ)
    env.pop("RAINBOW_LAB_BUDGET_SECS", None)  # every budget is set explicitly
    env["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    opts = dict(opts, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), json.dumps(opts)],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()), env=env,
        )
    except subprocess.TimeoutExpired:
        return None, f"pass {opts['pass_index']} did not finish within the run's {RUN_LIMIT:.0f} s"
    if proc.returncode != 0:
        return None, f"pass {opts['pass_index']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"pass {opts['pass_index']} printed no result: {proc.stderr.strip()[-2000:]}"


def run_passes(args, out_dir: str, deadline: float):
    """Set-up probes, then passes until --seconds is used up."""
    base = {"workload": args.workload, "seed": args.seed, "out_dir": out_dir, "full_check": False}
    probes, errors = [], []
    for i in range(SETUP_PROBES):
        res, err = spawn(dict(base, pass_index=-1 - i, trace=False, setup_only=True), deadline)
        if res is None:
            return probes, [], [err]
        probes.append(res)

    passes: list[dict] = []
    durations = {False: [], True: []}
    t_start = time.monotonic()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        have_min = len(durations[False]) >= (1 if args.trace else 3) and (
            not args.trace or durations[True]
        )
        if have_min:
            guess = max(durations[traced] or [2.0 * max(durations[False])])
            if time.monotonic() - t_start + guess > args.seconds:
                break
        t0 = time.monotonic()
        res, err = spawn(dict(base, pass_index=i, trace=traced, setup_only=False, full_check=i == 0), deadline)
        durations[traced].append(time.monotonic() - t0)
        if res is None:
            errors.append(err)
            break
        res["traced"] = traced
        passes.append(res)
        i += 1
    return probes, passes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rainbow_lab", "__init__.py")):
        print("error: run from the repository root; src/rainbow_lab is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT
    out_dir = os.path.abspath(".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):  # span dumps of the previous run
        if name.startswith("spans-"):
            os.remove(os.path.join(out_dir, name))
    prov = provenance(args)
    probes, passes, errors = run_passes(args, out_dir, deadline)
    if not passes:
        print("error: " + "; ".join(errors), file=sys.stderr)
        return 2

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = list(errors)
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    for p in passes:
        failures.extend(p["failures"])
    # deterministic outputs must repeat exactly from pass to pass
    for p in passes[1:]:
        attempted += 1
        if p["digests"] != passes[0]["digests"]:
            failed += 1
            failures.append(f"pass {passes.index(p)} produced other certificates than pass 0")

    median = statistics.median
    samples = {
        "setup_s": [p["setup_ref_s"] for p in probes + plain],
        "work_ref_s": [p["work_ref_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    e2e = {name: median(values) for name, values in samples.items()}
    print(f"# rainbow-lab benchmark, workload {args.workload}, seed {args.seed}")
    print("# provenance " + json.dumps(prov))
    print("# instances " + json.dumps(passes[0]["inputs"]))
    for name, unit in END_TO_END.items():
        v = samples[name]
        print(f"{name} = {e2e[name]:.6g} {unit} (median of {len(v)}; range {min(v):.6g}..{max(v):.6g})")
    print(f"wall: setup {median(p['setup_s'] for p in probes + plain):.6g} s, "
          f"work {median(p['work_s'] for p in plain):.6g} s (medians, not rescaled)")
    for name, (phase, unit, kind) in PHASE_METRICS[args.workload].items():
        refs = [p["phases"][phase]["ref"] for p in plain]
        walls = [p["phases"][phase]["wall"] for p in plain]
        ops = [t for p in plain for t in p["phases"][phase]["ops"]]
        per_op = len(plain[0]["phases"][phase]["ops"])
        value = per_op / median(refs) if kind == "rate" else median(refs)
        wall = per_op / median(walls) if kind == "rate" else median(walls)
        tail = tail_percentile(ops)
        tail_txt = f"per-op p{tail[0]:g} {tail[1] * 1e3:.4g} ms" if tail else "per-op tail: too few samples"
        extra = ""
        if "overrun" in plain[0]["phases"][phase]:
            overrun = [o for p in plain for o in p["phases"][phase]["overrun"]]
            extra = f"; overrun (wall - budget) per call median {median(overrun):.4g} s, max {max(overrun):.4g} s"
        if "found" in plain[0]["phases"][phase]:
            extra = f"; found_frac {plain[0]['phases'][phase]['found'] / per_op:.5f} (input property)"
        print(f"{name} = {value:.6g} {unit} (wall {wall:.6g}; median of {len(walls)} passes, "
              f"{per_op} ops per pass; {tail_txt} over {len(ops)} ops{extra})")
    print(f"failed_frac = {failed / attempted:.6g} ratio (failed {failed} of {attempted} attempted)")
    print(f"search.nodes per pass = {[p['nodes'] for p in plain]} next to wall "
          f"{[round(p['work_s'], 4) for p in plain]} s")
    for f in failures[:20]:
        print(f"FAILED: {f}")

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        layer = {name: median(m[name] for m in per_pass) for name in PER_LAYER if name in per_pass[0]}
        layer["trace.overhead_frac"] = median(p["work_ref_s"] for p in traced) / e2e["work_ref_s"] - 1
        for name, unit in PER_LAYER.items():
            print(f"{name} = {layer[name]:.6g} {unit}")
        print(f"# spans: {[p['trace']['spans'] for p in traced]} per traced pass, written to "
              f"{[os.path.relpath(p['spans_file']) for p in traced]}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
