"""Layer bench: the parent's package against this checkout's, in one interpreter.

    python3 tools/bench_layers.py PARENT

PARENT is a directory that holds the parent's src/rainbow_lab, for example
a `git worktree add` or a `git clone` of the base commit. Both packages are
imported into this interpreter as two separate module sets, and every
figure is timed in rounds: each round times both trees, and which tree goes
first alternates from one part of a round to the next and from one round
to the next, so load that lasts a while shifts both trees alike. Per-call
figures are cut into parts of CHUNK calls (a witness part repeats its call
for about PART_S of warm calls; its first call in a round rebuilds what the
other parts evicted from the package's caches). Every figure runs
PER_CALL_ROUNDS rounds, or fewer once its rounds add up to LIMIT_S. For
each tree and each figure BENCH_layers.json (in this checkout) holds the
median and the quartiles over the rounds, `ratio` holds the same of the
per-round change/parent ratio, and `change_lower` counts the rounds in
which the change was lower.
Stdlib only; the test suite imports no tool.

Figures, all for both trees:
- checking layer, on the inputs of the benchmark's verify-classify
  workload (4,000 seeded random exact 3-colorings of each of Z_11 and Z_13
  with every k in 1..q-1, 88,000 pairs): classify_3coloring_LM per call by
  kind of k, and find_rainbow_triple per call; the crosscheck with its
  results kept (crosscheck_kept_us_per_pair): one part runs all 88,000
  pairs through both and keeps every verdict in a list until it ends, as
  the benchmark does, so the garbage collector's cost for results that
  stay alive shows; construction (construct_us_per_pair): one part builds
  the Coloring of every one of the 88,000 pairs and keeps them in a list
  until it ends, as the benchmark's prepare does, so the collector's cost
  for them shows; CyclicInstance(q, k) per call on the same pairs; full
  scans of ten colorings (FULL_SCANS);
- witness route: cli._construct_witness per call for every n in 2..45 with
  k in {1, 3, 5} and for Z_1009, Z_1301 with k = 1 (the benchmark's
  verify-classify and large-n pairs), its route, color count, the
  find_rainbow_triple calls one witness makes and, of those, its scans of
  colorings with three or more colors; the per-k sums over n <= 45;
  in-process cli.main `witness --out` and `verify` of its file (per round,
  the median over the n <= 45 pairs); the whole certify sequence of the
  benchmark's verify-classify workload, `witness --out` then `verify` for
  every n <= 45 pair, run once in a fresh interpreter per round and timed
  inside it after the package's import (cold_certify_ms): the repeated
  calls above find the scan's cached triple lists built, and this figure
  pays their builds once, as a benchmark pass does; `rainbow-lab witness
  --out` from a fresh interpreter for Z_45 and Z_1301;
- kernel: rb_oracle on HARD, SLOW and SWEEP_RB, plain, and seeded as
  `rb --method both` seeds it where a construction exists (the time
  includes building the seed); iter_rainbow_free_colorings(min_r=3) on
  SWEEP_ENUM. Per search: r_max, conclusive, nodes, prunes by reason and
  wall time. The CLI commands in CLI run in a fresh interpreter with their
  own tree's PYTHONPATH: exit code and wall time;
- overrun: the wall time of rb_oracle on Z_100003 k=1 under a 0.05 s
  budget (OVERRUN). The kept rows near the end are built before the first
  node, so this shows whether building them stays inside the budget at
  large n. Its node count depends on the clock and is not compared;
- setup: the wall time of rb_oracle on Z_100003 k=1 under a 1e-9 s budget
  with solutions_by_sum's table cached (SETUP). The search stops at its
  first clock check, which a fixed number of nodes (85) precedes, so this
  is the kernel's set-up before the first node plus those nodes. Its node
  count is compared.

Node counts and each witness's route, color count and scan count do not
depend on the machine or the load. Every difference between the two trees
in those (plain searches only: a change may seed differently), except a
scan count lower in the change, is printed and stored under `mismatches`,
and the script exits 1 after writing.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import glob
import hashlib
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_layers.json")
LIMIT_S = 60.0
PER_CALL_ROUNDS = 21
CHUNK = 2000
PART_S = 0.005
BUDGET = 60.0

QS = (11, 13)
COLORINGS_PER_Q = 4000
SEED = 5
# name -> (n, k, edit, the least rainbow triple or None): the scanned
# coloring is edit applied to the colors of witness_general(n, k), or that
# witness when edit is None. The rainbow-free k = 1 witnesses of Z_1009,
# Z_1301 (3 colors) and Z_1024 (11 colors); the 5-color k = 3 witness of
# Z_1105, whose dense rows differ from those of a 3-color Schur coloring;
# the 651-color k = 0 witness of
# Z_1301; the Z_1301 k = 1 witness recolored at 1290, whose least rainbow
# triple is in row 11, and at 500, whose least rainbow triple is in row 1
# (row 0 of k = 1 has x3 = x2); the alternating 2-coloring of Z_1301; two
# witnesses short enough (n < 64) that the scan walks its cached triple
# list: the 5-color k = 1 witness of Z_63 and the 2-color k = 3 witness of
# Z_43
FULL_SCANS = {
    "n=1009": (1009, 1, None, None),
    "n=1301": (1301, 1, None, None),
    "n=1024": (1024, 1, None, None),
    "n=1105,k=3": (1105, 3, None, None),
    "n=1301,k=0": (1301, 1301, None, None),
    "n=1301,late": (1301, 1, lambda cols: cols[:1290] + (1,) + cols[1291:], (11, 1290, 0)),
    "n=1301,row1": (1301, 1, lambda cols: cols[:500] + (0,) + cols[501:], (1, 499, 500)),
    "n=1301,2-color": (1301, 1, lambda cols: tuple(x % 2 for x in range(len(cols))), None),
    "n=63": (63, 1, None, None),
    "n=43,k=3": (43, 3, None, None),
}

SMALL = [(n, k) for k in (1, 3, 5) for n in range(2, 46)]
LARGE = [(1009, 1), (1301, 1)]
FRESH = [(45, 1), (1301, 1)]
# run in a fresh interpreter with the tree's src first on sys.path and a
# scratch directory as argv[1]; prints the seconds from the end of the
# package's import to the end of the last verify
COLD_CERTIFY = f"""
import contextlib, os, sys, time
from rainbow_lab import cli
t0 = time.perf_counter()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for n, k in {SMALL!r}:
        cert = os.path.join(sys.argv[1], f"{{n}}-{{k}}.json")
        if cli.main(["witness", "--n", str(n), "--k", str(k), "--out", cert]) or cli.main(["verify", cert]):
            sys.exit(f"witness or verify failed for n={{n}}, k={{k}}")
print(time.perf_counter() - t0)
"""

HARD = [(24, 23), (26, 25), (28, 27), (30, 29), (25, 5), (21, 3)]
# about 1-15 s each: the searches a sharper bound or a seeded start must speed up
SLOW = [(32, 31), (34, 33), (36, 35), (72, 5), (81, 5)]
# the oracle-sweep workload's instances at seed 23
SWEEP_RB = [(16, 7), (17, 7), (18, 2), (19, 2), (20, 2), (21, 3)]
SWEEP_ENUM = [(16, 2), (18, 1), (20, 3), (17, 13)]
# (n, k, budget): a budgeted search whose row build alone would overrun the
# budget if its rows were not solved from the shorter side
OVERRUN = (100003, 1, 0.05)
# (n, k, budget): a budget every clock check finds spent, so the search
# stops at its first check
SETUP = (100003, 1, 1e-9)
# the formula command does almost no work: it times interpreter start, the
# package's import and the parser
CLI = [
    ["table", "--n-max", "24", "--k", "1"],
    ["rb", "--n", "30", "--k", "29", "--method", "search"],
    ["rb", "--n", "30", "--k", "29", "--method", "formula"],
]


def _package_modules() -> list[str]:
    return [name for name in sys.modules if name.split(".")[0] == "rainbow_lab"]


class Tree:
    """One rainbow_lab package, imported as a module set of its own: the
    rainbow_lab entries of sys.modules are popped for the import and
    restored after it."""

    def __init__(self, name: str, root: str):
        self.name, self.root = name, root
        self.src = os.path.join(root, "src")
        saved = {mod: sys.modules.pop(mod) for mod in _package_modules()}
        sys.path.insert(0, self.src)
        try:
            self.rl = importlib.import_module("rainbow_lab")
            self.cli = importlib.import_module("rainbow_lab.cli")
        finally:
            sys.path.remove(self.src)
            for mod in _package_modules():
                del sys.modules[mod]
            sys.modules.update(saved)
        self.search, self.coloring = self.rl.search, self.rl.coloring
        # every status record the kernel makes, so enumeration nodes count too
        self.statuses: list = []
        made = self.statuses

        class Recorded(self.search._Status):
            def __init__(self):
                super().__init__()
                made.append(self)

        self.search._Status = Recorded

    def provenance(self) -> dict:
        """Commit (None outside git), digest and line count of the sources."""
        digest, lines = hashlib.sha256(), 0
        for path in sorted(glob.glob(os.path.join(self.src, "rainbow_lab", "*.py"))):
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            lines += data.count(b"\n")
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=self.root, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
        return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines}


def alternate(trees, parts):
    """Time part(tree) for both trees, part after part and round after
    round, swapping which tree goes first each time. Stops after
    PER_CALL_ROUNDS rounds or once they add up to LIMIT_S. Returns per tree
    the seconds of each part in each round, and the value each part
    returned last."""
    times = {t.name: [] for t in trees}
    values = {t.name: [None] * len(parts) for t in trees}
    spent = 0.0
    for r in range(PER_CALL_ROUNDS):
        if spent >= LIMIT_S:
            break
        for t in trees:
            times[t.name].append([])
        for i, part in enumerate(parts):
            for t in trees if (r + i) % 2 == 0 else trees[::-1]:
                t0 = time.perf_counter()
                values[t.name][i] = part(t)
                dt = time.perf_counter() - t0
                times[t.name][-1].append(dt)
                spent += dt
    return times, values


def quartiles(values) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {key: float(f"{v:.4g}") for key, v in (("median", median), ("q1", q1), ("q3", q3))}


def figure(times, scale, select=None, agg=sum) -> dict:
    """Per tree the median and quartiles over the rounds of agg over the
    selected parts of a round, times scale; the same of the per-round
    change/parent ratio, which both trees' load in a round shifts alike;
    and the rounds in which the change was lower."""
    per_round = {
        name: [agg(r[i] for i in (select or range(len(r)))) * scale for r in rounds]
        for name, rounds in times.items()
    }
    pairs = list(zip(per_round["parent"], per_round["change"]))
    out = {name: quartiles(values) for name, values in per_round.items()}
    out["ratio"] = quartiles([c / p for p, c in pairs])
    out["rounds"] = len(pairs)
    out["change_lower"] = sum(c < p for p, c in pairs)
    return out


def checking(trees) -> dict:
    rng = random.Random(SEED)
    shapes, kinds = [], {"general_k": [], "k_2": [], "k_minus_1": []}
    for q in QS:
        for _ in range(COLORINGS_PER_Q):
            while True:
                cols = [rng.randrange(3) for _ in range(q)]
                if len(set(cols)) == 3:
                    break
            relabel: dict[int, int] = {}
            shapes.append((q, tuple(relabel.setdefault(x, len(relabel)) for x in cols)))
            for k in range(1, q):
                kind = "k_2" if k == 2 else "k_minus_1" if k == q - 1 else "general_k"
                kinds[kind].append((len(shapes) - 1, k))
    every = [p for ps in kinds.values() for p in ps]
    # allocated alternately, so neither tree's inputs sit together in memory
    colorings = {t.name: [] for t in trees}
    for q, cols in shapes:
        for t in trees:
            colorings[t.name].append(t.rl.Coloring(q, cols))

    def chunks(fname, pairs):
        """Parts that call the tree's rl.<fname>(c, k) on CHUNK pairs each."""
        def part(t, chunk):
            fn = getattr(t.rl, fname)
            for c, k in chunk[t.name]:
                fn(c, k)

        return [
            functools.partial(part, chunk={
                name: [(cs[j], k) for j, k in pairs[i:i + CHUNK]] for name, cs in colorings.items()
            })
            for i in range(0, len(pairs), CHUNK)
        ]

    parts, where = [], {}
    for kind, pairs in [*kinds.items(), ("scan", every)]:
        new = chunks("find_rainbow_triple" if kind == "scan" else "classify_3coloring_LM", pairs)
        where[kind] = range(len(parts), len(parts) + len(new))
        parts += new
    kept_pairs = {name: [(cs[j], k) for j, k in every] for name, cs in colorings.items()}

    def kept(t):
        """Every pair through the classifier and the scan, each verdict kept
        until the part ends; returns the pairs on which the two disagree."""
        classify, scan = t.rl.classify_3coloring_LM, t.rl.find_rainbow_triple
        not_rf = t.rl.LMCase.NOT_RAINBOW_FREE_FORM
        verdicts = []
        for c, k in kept_pairs[t.name]:
            free = classify(c, k).case is not not_rf
            triple = scan(c, k)
            verdicts.append((free, triple, free == (triple is None)))
        return sum(not v[2] for v in verdicts)

    where["kept"] = len(parts)
    parts.append(kept)
    qks = [(shapes[j][0], k) for j, k in every]

    def construct(t):
        """Every pair's Coloring, built as the benchmark's prepare builds
        them and kept in a list until the part ends."""
        coloring = t.rl.Coloring
        return len([(coloring(q, cols), k) for q, cols in shapes for k in range(1, q)])

    def cyclic(t):
        make = t.rl.CyclicInstance
        for q, k in qks:
            make(q, k)

    where["construct"], where["cyclic"] = len(parts), len(parts) + 1
    parts += [construct, cyclic]
    full = {}
    for name, (n, k, edit, _) in FULL_SCANS.items():
        scanned = {}
        for t in trees:
            c = t.rl.witness_general(n, k)
            scanned[t.name] = c if edit is None else t.rl.Coloring(n, edit(c.colors))
        full[name] = (len(parts), scanned["change"].num_colors())
        parts.append(lambda t, cs=scanned, k=k: t.rl.find_rainbow_triple(cs[t.name], k))
    times, values = alternate(trees, parts)

    for t in trees:
        disagree = values[t.name][where["kept"]]
        if disagree:
            raise RuntimeError(f"{t.name}: classifier and scan disagree on {disagree} pairs")
    classify = {kind: figure(times, 1e6 / len(kinds[kind]), where[kind]) for kind in kinds}
    classify["all"] = figure(times, 1e6 / len(every), [i for kind in kinds for i in where[kind]])
    full_scan_ms = {}
    for name, (i, colors) in full.items():
        triple = values["change"][i]
        if triple != FULL_SCANS[name][3] or values["parent"][i] != triple:
            raise RuntimeError(f"full scan {name}: parent {values['parent'][i]}, change {triple}")
        full_scan_ms[name] = {"colors": colors, "ms": figure(times, 1e3, [i])}
        if triple is not None:
            full_scan_ms[name]["triple"] = list(triple)
    return {
        "classify_us_per_call": classify,
        "scan_us_per_call_workload_pairs": figure(times, 1e6 / len(every), where["scan"]),
        "crosscheck_kept_us_per_pair": figure(times, 1e6 / len(every), [where["kept"]]),
        "construct_us_per_pair": figure(times, 1e6 / len(every), [where["construct"]]),
        "cyclic_instance_us_per_call": figure(times, 1e6 / len(every), [where["cyclic"]]),
        "full_scan_ms": full_scan_ms,
    }


def witness_facts(t, n: int, k: int) -> dict:
    """Route and color count of one witness, the find_rainbow_triple calls
    it makes, and its scans: the calls on a coloring with three or more
    colors, each a full scan of a rainbow-free coloring. Only scans are
    compared between the trees, since a call on a coloring with at most two
    colors finds nothing in either."""
    calls = scans = 0
    real = t.coloring.find_rainbow_triple

    def counted(c, kk):
        nonlocal calls, scans
        calls += 1
        scans += len(set(c.colors)) >= 3
        return real(c, kk)

    t.coloring.find_rainbow_triple = counted
    try:
        w, route = t.cli._construct_witness(n, k, BUDGET)
    finally:
        t.coloring.find_rainbow_triple = real
    return {"route": route, "colors": w.num_colors(), "calls": calls, "scans": scans}


def run_main(argv: list[str]):
    """A part that runs the tree's cli.main(argv), with {tree} replaced by the
    tree's name, and checks that it exits 0."""
    def part(t):
        args = [a.replace("{tree}", t.name) for a in argv]
        if t.cli.main(args) != t.cli.EXIT_OK:
            raise RuntimeError(f"{t.name}: rainbow-lab {' '.join(args)} failed")
    return part


def fresh(argv: list[str]):
    """A part that runs `rainbow-lab argv` in a new interpreter on the tree's
    src and returns its exit code."""
    def part(t):
        cmd = [sys.executable, "-m", "rainbow_lab.cli", *argv]
        env = dict(os.environ, PYTHONPATH=t.src)
        return {"exit": subprocess.run(cmd, env=env, cwd=t.root, capture_output=True).returncode}
    return part


def cold_certify(trees, tmpdir: str) -> dict:
    """The figure of COLD_CERTIFY's own seconds, one fresh interpreter per
    tree and round, so interpreter start-up and the import stay outside it."""
    seconds = {t.name: [] for t in trees}

    def part(t):
        cmd = [sys.executable, "-c", COLD_CERTIFY, tmpdir]
        env = dict(os.environ, PYTHONPATH=t.src)
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        seconds[t.name].append([float(done.stdout)])

    alternate(trees, [part])
    return figure(seconds, 1e3)


def entry(trees, part, scale, key) -> dict:
    """A single-part measurement: each tree's last value, and its figure under key."""
    times, values = alternate(trees, [part])
    return {**{t.name: values[t.name][0] for t in trees}, key: figure(times, scale)}


def witness(trees) -> dict:
    pairs = SMALL + LARGE
    names = [f"n={n},k={k}" for n, k in pairs]
    facts = {t.name: [witness_facts(t, n, k) for n, k in pairs] for t in trees}
    parts, reps = [], []
    for n, k in pairs:
        # sized on a warm call: a cold one also builds caches, such as the
        # scan's triple lists, that the repeats find built
        trees[-1].cli._construct_witness(n, k, BUDGET)
        t0 = time.perf_counter()
        trees[-1].cli._construct_witness(n, k, BUDGET)
        reps.append(max(1, int(PART_S / (time.perf_counter() - t0))))
        parts.append(lambda t, n=n, k=k, rep=reps[-1]: [
            t.cli._construct_witness(n, k, BUDGET) for _ in range(rep)
        ])
    times, _ = alternate(trees, parts)
    for rounds in times.values():
        for r in rounds:
            r[:] = [dt / rep for dt, rep in zip(r, reps)]
    out = {
        "witness": {
            name: {**{t.name: facts[t.name][i] for t in trees}, "us": figure(times, 1e6, [i])}
            for i, name in enumerate(names)
        },
        "witness_us_sum_n_2_to_45": {
            f"k={k}": figure(times, 1e6, [i for i, pair in enumerate(SMALL) if pair[1] == k])
            for k in (1, 3, 5)
        },
    }

    with tempfile.TemporaryDirectory() as tmpdir:
        parts = []
        for n, k in SMALL:
            cert = os.path.join(tmpdir, f"{{tree}}-{n}-{k}.json")
            parts.append(run_main(["witness", "--n", str(n), "--k", str(k), "--out", cert]))
            parts.append(run_main(["verify", cert]))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            times, _ = alternate(trees, parts)
        out["cli_main_median_us_n_2_to_45"] = {
            cmd: figure(times, 1e6, range(j, len(parts), 2), statistics.median)
            for j, cmd in enumerate(("witness", "verify"))
        }
        out["cold_certify_ms"] = cold_certify(trees, tmpdir)
        fresh_out = os.path.join(tmpdir, "fresh.json")
        out["fresh_witness_out_ms"] = {
            f"n={n},k={k}": entry(
                trees, fresh(["witness", "--n", str(n), "--k", str(k), "--out", fresh_out]),
                1e3, "ms",
            )
            for n, k in FRESH
        }
    return out


def searched(run, n: int, k: int):
    """A part that runs run(tree, n, k) and adds the kernel's nodes and
    prunes by reason over every status record the run made."""
    def part(t):
        t.statuses.clear()
        out = run(t, n, k)
        out["nodes"] = sum(s.nodes for s in t.statuses)
        # a node that both empties a domain and breaks the count bound counts
        # under the reason found first, so only the sum is fixed
        out["prunes"] = {
            "empty_domain": sum(s.empty_domain for s in t.statuses),
            "count_bound": sum(s.count_bound for s in t.statuses),
        }
        return out
    return part


def rb_run(t, n: int, k: int, seed=None) -> dict:
    cfg = t.search.SearchConfig(time_budget=BUDGET)
    res = t.search.rb_oracle(t.rl.CyclicInstance(n, k), cfg, seed)
    return {"r_max": res.detail["r_max"], "conclusive": res.conclusive}


def seeded_run(t, n: int, k: int) -> dict:
    seed = t.cli._general_lift(n, k)
    return {**rb_run(t, n, k, seed), "lower_bound_r": None if seed is None else seed.num_colors()}


def enum_run(t, n: int, k: int) -> dict:
    cfg = t.search.SearchConfig(time_budget=BUDGET)
    r_max = count = 0
    conclusive = True
    try:
        for c in t.search.iter_rainbow_free_colorings(t.rl.CyclicInstance(n, k), min_r=3, cfg=cfg):
            r_max = max(r_max, c.num_colors())
            count += 1
    except t.rl.SearchInconclusiveError:
        conclusive = False
    return {"r_max": r_max, "conclusive": conclusive, "colorings": count}


def budgeted(n: int, k: int, budget: float):
    """A part that runs rb_oracle on Z_n, k under the budget and returns
    whether it was conclusive and its nodes."""
    def part(t):
        cfg = t.search.SearchConfig(time_budget=budget)
        res = t.search.rb_oracle(t.rl.CyclicInstance(n, k), cfg)
        return {"conclusive": res.conclusive, "nodes": res.detail["nodes_explored"]}
    return part


def kernel(trees) -> dict:
    def searches(run, instances):
        return {
            f"Z_{n} k={k}": entry(trees, searched(run, n, k), 1.0, "wall_s") for n, k in instances
        }

    out = {
        "rb_oracle": searches(rb_run, dict.fromkeys(HARD + SLOW + SWEEP_RB)),
        "rb_oracle_seeded": searches(
            seeded_run,
            [(n, k) for n, k in SLOW + SWEEP_RB if trees[-1].cli._general_lift(n, k) is not None],
        ),
        "enumerate_min_r_3": searches(enum_run, SWEEP_ENUM),
    }
    out["sweep_nodes"] = {
        t.name: sum(out["rb_oracle"][f"Z_{n} k={k}"][t.name]["nodes"] for n, k in SWEEP_RB)
        + sum(e[t.name]["nodes"] for e in out["enumerate_min_r_3"].values())
        for t in trees
    }
    n, k, budget = OVERRUN
    out["overrun"] = {
        f"Z_{n} k={k} budget={budget}": entry(trees, budgeted(n, k, budget), 1.0, "wall_s")
    }
    n, k, budget = SETUP
    for t in trees:
        t.rl.modcore.solutions_by_sum(n, k)  # built here, so no round times the table
    out["setup"] = {
        f"Z_{n} k={k} budget={budget}": entry(trees, budgeted(n, k, budget), 1e3, "ms")
    }
    out["cli"] = {
        "rainbow-lab " + " ".join(argv):
            entry(trees, fresh([*argv, "--budget-secs", str(BUDGET)]), 1.0, "wall_s")
        for argv in CLI
    }
    return out


def mismatches(doc: dict) -> list[str]:
    """One line per plain search or set-up search whose node count, and per
    witness whose route or colors, differ between the trees, and per witness
    whose scans are higher in the change: a scan fewer is a saving."""
    checks = [(doc[mode], ("nodes",)) for mode in ("rb_oracle", "enumerate_min_r_3", "setup")]
    checks.append((doc["witness"], ("route", "colors", "scans")))
    return [
        f"{name}: {field} {e['change'][field]}, parent {e['parent'][field]}"
        for entries, fields in checks
        for name, e in entries.items()
        for field in fields
        if (e["change"][field] > e["parent"][field] if field == "scans"
            else e["change"][field] != e["parent"][field])
    ]


def figures(node, path=""):
    """(path, figure) for every figure in the result."""
    if "change_lower" in node:
        yield path, node
        return
    for key, sub in node.items():
        if isinstance(sub, dict):
            yield from figures(sub, f"{path}/{key}" if path else key)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory holding the parent's src/rainbow_lab")
    parent = os.path.abspath(parser.parse_args().parent)
    if not os.path.isfile(os.path.join(parent, "src", "rainbow_lab", "__init__.py")):
        parser.error(f"{parent} holds no src/rainbow_lab package")
    t0 = time.perf_counter()
    trees = (Tree("parent", parent), Tree("change", ROOT))
    doc = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "trees": {t.name: t.provenance() for t in trees},
        **checking(trees),
        **witness(trees),
        **kernel(trees),
    }
    doc["mismatches"] = mismatches(doc)
    doc["tool_wall_s"] = round(time.perf_counter() - t0, 1)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for path, fig in figures(doc):
        p, c, ratio = fig["parent"]["median"], fig["change"]["median"], fig["ratio"]
        print(
            f"{path}: {p:g} -> {c:g}, ratio {ratio['median']:.3f}"
            f" [{ratio['q1']:.3f}, {ratio['q3']:.3f}],"
            f" change lower in {fig['change_lower']} of {fig['rounds']}"
        )
    for line in doc["mismatches"]:
        print(line, file=sys.stderr)
    print(f"wrote {OUT} in {doc['tool_wall_s']} s")
    return 1 if doc["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
