"""The benchmark's workloads: seeded inputs, timed phases and output checks.

Inputs are drawn only from the seed (and the reference tables stored beside
this file); the program under test sees nothing but the drawn instances.
Each workload's `prepare` builds its inputs (counted as set-up), `run` times
its phases and then checks every output.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

# 16 <= n <= 21: a Z_22 call alone takes 2-3 s, too long for the ten or so
# passes per run that keep the median steady
ORACLE_NS = tuple(range(16, 22))
ENUM_COMPOSITE_NS = (16, 18, 20)
ENUM_PRIME = 17
COST_TOLERANCE = 0.01
ORACLE_BUDGET = "60"
CROSSCHECK_QS = (11, 13)
CROSSCHECK_COLORINGS_PER_Q = 4000
BRUTE_SUBSAMPLE = 300
CERTIFY_NS = tuple(range(2, 46))
CERTIFY_KS = (1, 3, 5)
LARGE_RANGE = (900, 1400)
LARGE_K = 1
LARGE_BUDGET = 0.5
CROSSCHECK_SPLIT = 4000  # pairs per timed segment
CERTIFY_SPLIT = 24  # CLI calls per timed segment
CALIB_ITERS = 40000
CALIB_COLORS = [(i * 37) % 3 for i in range(64)]
CALIB_REF_S = 0.0045  # calibrate() on an unloaded 2-core x86-64 box, Python 3.11


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def oracle_pool() -> list[tuple[int, int]]:
    """n in ORACLE_NS with k = 1 or a prime k < n; k = 2 only where the
    two-power part 2^a of n has a <= 4 (true for every n in range)."""
    pool = []
    for n in ORACLE_NS:
        for k in [1] + [p for p in range(2, n) if is_prime(p)]:
            if k == 2 and (n & -n).bit_length() - 1 > 4:
                continue
            pool.append((n, k))
    return pool


def key(n: int, k: int) -> str:
    return f"{n},{k}"


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed slice of plain Python work.

    The machine's speed changes by up to 1.8x from minute to minute (other
    tenants share its cores). Timing this slice next to the program's work
    tells how fast the machine ran at that moment.
    """
    cols = CALIB_COLORS
    best = float("inf")
    for _ in range(2):  # the faster of two, so a stray interruption does not count
        acc = 0
        t0 = time.perf_counter()
        for i in range(CALIB_ITERS):
            a, b = cols[i & 63], cols[(i * 7) & 63]
            if a != b:
                acc += (i, a, b)[2]
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, calib: float) -> float:
    """Seconds rescaled to a machine on which calibrate() takes CALIB_REF_S."""
    return seconds * CALIB_REF_S / calib


class Pass:
    """What one pass measured and what its checks found."""

    def __init__(self):
        self.phases: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    @contextlib.contextmanager
    def timed(self, name: str, ops: list[float]):
        """Time a phase as segments the body ends with split().

        Each segment's wall time is rescaled by the mean of the calibration
        slices just before and just after it; the slices themselves are not
        part of the phase's time. The body fills ops with per-op seconds.
        """
        phase = self.phases[name] = {"ops": ops, "wall": 0.0, "ref": 0.0}
        self._phase, self._calib = phase, calibrate()
        self._t0 = time.perf_counter()
        yield phase
        self.split()

    def split(self) -> None:
        seconds = time.perf_counter() - self._t0
        calib = calibrate()
        self._phase["wall"] += seconds
        self._phase["ref"] += at_reference_speed(seconds, (self._calib + calib) / 2)
        self._calib = calib
        self._t0 = time.perf_counter()

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Workload:
    name = ""

    def __init__(self, seed: int, rl):
        self.seed = seed
        self.rl = rl
        self.ref = load_reference()
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = self.draw()

    def draw(self) -> dict:
        raise NotImplementedError

    def prepare(self):
        return None

    def run(self, state, out: Pass, tmpdir: str, full_check: bool, pass_index: int) -> None:
        raise NotImplementedError

    # -- helpers shared by the workloads --------------------------------

    def cli(self, argv: list) -> tuple[object, str, str, float]:
        """rainbow_lab.cli.main in-process; returns (exit code, stdout, stderr, seconds).

        An exception is returned as exit code None with the traceback text.
        """
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.rl.cli.main([str(a) for a in argv])
            except Exception as exc:  # an operation that raises counts as failed
                rc = None
                print(f"{type(exc).__name__}: {exc}", file=err)
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), dt

    def rb_reference(self, n: int, k: int, out: Pass) -> int:
        """rb(Z_n, k) from the CLI, cross-checked against the stored table.

        Uses `rb --method formula` where a closed form exists (k = 1 or prime
        mod n) and the oracle elsewhere, as the CLI itself does.
        """
        expected = self.ref["rb"].get(key(n, k))
        k_red = k % n
        method = "formula" if k_red == 1 or is_prime(k_red) else "search"
        rc, text, err, _ = self.cli(["rb", "--n", n, "--k", k, "--method", method])
        m = checks.RB_LINE.match(text)
        ok = rc == 0 and m is not None and m.group(3) == "=" and int(m.group(4)) == expected
        out.check(ok, f"rb --method {method} n={n} k={k}: exit {rc}, {text.strip() or err.strip()!r}, reference {expected}")
        return expected

    def certify(self, pairs, tmpdir: str, ops: list[float], split=None) -> list[tuple]:
        """`witness --out` then `verify` per (n, k); appends each call's seconds
        to ops and, when timed, calls split() every CERTIFY_SPLIT calls."""
        results = []
        for i, (n, k) in enumerate(pairs):
            path = os.path.join(tmpdir, f"cert-{n}-{k}.json")
            w = self.cli(["witness", "--n", n, "--k", k, "--out", path])
            v = self.cli(["verify", path])
            ops.extend((w[3], v[3]))
            results.append((n, k, path, w, v))
            if split and (2 * i + 2) % CERTIFY_SPLIT == 0:
                split()
        return results

    def check_certificates(self, results, out: Pass, scan: bool) -> list[tuple]:
        """Exit codes, color count = rb - 1, the file itself, and (with scan)
        an independent rainbow-free scan. Returns (n, k, colors) per witness."""
        witnesses = []
        for n, k, path, (wrc, wtext, werr, _), (vrc, vtext, verr, _) in results:
            rb = self.rb_reference(n, k, out)
            r = rb - 1
            m = checks.WITNESS_LINE.match(wtext)
            out.check(
                wrc == 0 and m is not None and int(m.group(3)) == r,
                f"witness n={n} k={k}: exit {wrc}, {wtext.strip() or werr.strip()!r}, expected {r} colors",
            )
            m = checks.VERIFY_LINE.match(vtext.strip())
            out.check(
                vrc == 0 and m is not None and int(m.group(3)) == r,
                f"verify n={n} k={k}: exit {vrc}, {vtext.strip() or verr.strip()!r}",
            )
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                out.check(False, f"certificate n={n} k={k} unreadable: {exc}")
                continue
            problems = checks.certificate_problems(doc, n, k, r)
            if not problems and scan and not checks.is_rainbow_free(doc["colors"], k):
                problems.append("has a rainbow triple (independent scan)")
            out.check(not problems, f"certificate n={n} k={k}: {problems}")
            out.digests[f"cert:{n},{k}"] = checks.coloring_digest([doc.get("colors") or []])
            witnesses.append((n, k, tuple(doc.get("colors") or ())))
        return witnesses

    def check_lm_rainbow_free(self, n: int, k: int, colors, out: Pass) -> None:
        """A rainbow-free exact 3-coloring of a prime modulus must match an LM case."""
        rl = self.rl
        try:
            case = rl.classify_3coloring_LM(rl.Coloring(n, colors), k).case
        except Exception as exc:
            case = exc
        out.check(
            case is not rl.LMCase.NOT_RAINBOW_FREE_FORM and not isinstance(case, Exception),
            f"classify_3coloring_LM on a rainbow-free 3-coloring of Z_{n}, k={k}: {case!r}",
        )


class OracleSweep(Workload):
    """`rb --method both` on one seeded k per n in 16..21, then enumeration of
    every rainbow-free coloring with >= 3 colors on a sub-sample."""

    name = "oracle-sweep"

    def draw(self) -> dict:
        # where the closed form disagrees with the oracle, `rb --method both`
        # exits 3; those instances are listed in the reference and left out
        broken = {key(m["n"], m["k"]) for m in self.ref["formula_mismatches"]}
        pool = [(n, k) for n, k in oracle_pool() if key(n, k) not in broken]
        ks = {n: [k for m, k in pool if m == n] for n in ORACLE_NS}
        # one prime modulus whose enumeration holds exact 3-colorings, so the
        # LM classifier has rainbow-free colorings to agree with on every seed
        enum_ks = dict(ks)
        enum_ks[ENUM_PRIME] = [k for k in ks[ENUM_PRIME] if self.enum_count(ENUM_PRIME, k, 3)]
        rb = self.balanced(ORACLE_NS, ks)
        enum = self.balanced(ENUM_COMPOSITE_NS + (ENUM_PRIME,), enum_ks)
        return {"rb": rb, "enum": enum}

    def entry(self, n: int, k: int) -> dict:
        return self.ref["oracle_pool"][key(n, k)]

    def enum_count(self, n: int, k: int, r: int) -> int:
        return self.entry(n, k)["enum_counts"].get(str(r), 0)

    def balanced(self, ns, ks) -> list[tuple[int, int]]:
        """One seeded k per n, redrawn until the sample's kernel node count
        (stored in the reference) is within COST_TOLERANCE of the sum of
        per-n medians, so that every seed asks for about the same work."""
        def nodes(pairs):
            return sum(self.entry(n, k)["nodes"] for n, k in pairs)

        target = sum(statistics.median(self.entry(n, k)["nodes"] for k in ks[n]) for n in ns)
        while True:
            sample = [(n, self.rng.choice(ks[n])) for n in ns]
            if abs(nodes(sample) - target) <= COST_TOLERANCE * target:
                return sample

    def run(self, state, out, tmpdir, full_check, pass_index):
        rl = self.rl
        rb_runs, ops = [], []
        with out.timed("rb", ops):
            for n, k in self.inputs["rb"]:
                r = self.cli(["rb", "--n", n, "--k", k, "--method", "both", "--budget-secs", ORACLE_BUDGET])
                ops.append(r[3])
                rb_runs.append((n, k, r))
                out.split()

        enum_runs, ops = [], []
        with out.timed("enum", ops):
            for n, k in self.inputs["enum"]:
                t0 = time.perf_counter()
                try:
                    found = [c.colors for c in rl.iter_rainbow_free_colorings(rl.CyclicInstance(n, k), min_r=3)]
                except Exception as exc:
                    found = exc
                ops.append(time.perf_counter() - t0)
                enum_runs.append((n, k, found))
                out.split()

        for n, k, (rc, text, err, _) in rb_runs:
            expected = self.ref["oracle_pool"][key(n, k)]["rb"]
            ok = rc == 0 and text.strip() == f"rb({n},{k}) = {expected}, formula=search"
            out.check(ok, f"rb --method both n={n} k={k}: exit {rc}, {text.strip() or err.strip()!r}, expected {expected}")
        for n, k, found in enum_runs:
            self.check_enumeration(n, k, found, out, full_check)
        # the third route: certify each rb instance's lower bound. k = 2 on
        # even n has no construction, and its witness would rerun the oracle.
        pairs = [(n, k) for n, k in self.inputs["rb"] if not (k == 2 and n % 2 == 0)]
        self.check_certificates(self.certify(pairs, tmpdir, []), out, scan=True)

    def check_enumeration(self, n, k, found, out, full_check):
        ref = self.ref["oracle_pool"][key(n, k)]
        if isinstance(found, Exception):
            out.check(False, f"enumeration n={n} k={k} raised {found!r}")
            return
        counts: dict[str, int] = {}
        shape_ok = True
        for cols in found:
            r = len(set(cols))
            counts[str(r)] = counts.get(str(r), 0) + 1
            shape_ok &= len(cols) == n and r >= 3 and checks.is_canonical(cols) and set(cols) == set(range(r))
        digest = checks.coloring_digest(found)
        problems = []
        if not shape_ok:
            problems.append("a coloring is not canonical, exact, or has < 3 colors")
        if counts != ref["enum_counts"]:
            problems.append(f"counts by r {counts} != reference {ref['enum_counts']}")
        if digest != ref["enum_digest"]:
            problems.append("sequence differs from the reference")
        if full_check:
            triples = checks.distinct_triples(n, k)
            if not all(checks.is_rainbow_free(cols, k, triples) for cols in found):
                problems.append("a coloring has a rainbow triple (independent scan)")
        out.check(not problems, f"enumeration n={n} k={k}: {problems}")
        if is_prime(n):
            for cols in found:
                if len(set(cols)) == 3:
                    self.check_lm_rainbow_free(n, k, cols, out)


class VerifyClassify(Workload):
    """Classifier-versus-scan verdicts on seeded exact 3-colorings of Z_11 and
    Z_13 with every k, then witness + verify for n in 2..45, k in {1, 3, 5}."""

    name = "verify-classify"

    def draw(self) -> dict:
        colorings = []
        for q in CROSSCHECK_QS:
            for _ in range(CROSSCHECK_COLORINGS_PER_Q):
                while True:
                    cols = [self.rng.randrange(3) for _ in range(q)]
                    if len(set(cols)) == 3:
                        break
                relabel: dict[int, int] = {}
                colorings.append(tuple(relabel.setdefault(c, len(relabel)) for c in cols))
        certify = [(n, k) for n in CERTIFY_NS for k in CERTIFY_KS]
        self.rng.shuffle(certify)
        return {"colorings": colorings, "certify": certify}

    def prepare(self):
        rl = self.rl
        return [
            (rl.Coloring(len(cols), cols), k)
            for cols in self.inputs["colorings"]
            for k in range(1, len(cols))
        ]

    def run(self, pairs, out, tmpdir, full_check, pass_index):
        rl = self.rl
        classify, scan = rl.classify_3coloring_LM, rl.find_rainbow_triple
        not_rf = rl.LMCase.NOT_RAINBOW_FREE_FORM
        verdicts, ops = [], []
        with out.timed("crosscheck", ops) as phase:
            for i, (c, k) in enumerate(pairs, 1):
                t0 = time.perf_counter()
                try:
                    free_lm = classify(c, k).case is not not_rf
                    triple = scan(c, k)
                    verdict = (free_lm, triple, free_lm == (triple is None))
                except Exception as exc:
                    verdict = exc
                ops.append(time.perf_counter() - t0)
                verdicts.append(verdict)
                if i % CROSSCHECK_SPLIT == 0:
                    out.split()
        phase["found"] = sum(1 for v in verdicts if isinstance(v, tuple) and v[1] is not None)

        ops = []
        with out.timed("certify", ops):
            results = self.certify(self.inputs["certify"], tmpdir, ops, out.split)

        for (c, k), v in zip(pairs, verdicts):
            if isinstance(v, Exception):
                out.check(False, f"crosscheck {c.colors} k={k} raised {v!r}")
            else:
                out.check(v[2], f"crosscheck {c.colors} k={k}: classifier says rainbow-free={v[0]}, scan found {v[1]}")
        sub = random.Random(f"{self.name}:{self.seed}:{pass_index}").sample(range(len(pairs)), BRUTE_SUBSAMPLE)
        for i in sub:
            (c, k), v = pairs[i], verdicts[i]
            if isinstance(v, Exception):
                continue
            brute = checks.rainbow_triple_nested(c.colors, k)
            ok = v[0] == (brute is None) and (v[1] is None or checks.is_rainbow_triple(c.colors, k, v[1]))
            out.check(ok, f"brute force {c.colors} k={k}: nested loops found {brute}, classifier {v[0]}, scan {v[1]}")
        self.check_certificates(results, out, scan=True)


class LargeN(Workload):
    """A budgeted oracle call, witness and verify on three moduli in [900, 1400]."""

    name = "large-n"

    def draw(self) -> dict:
        """One prime modulus from each third of [900, 1400], in increasing
        order, with k = 1. Redrawn until the sum of n^2 (the triple-index size)
        is within COST_TOLERANCE of its value at the thirds' midpoints.

        Primes with k = 1 keep the work of every seed alike: each witness is
        built without lifts, the index holds n^2 tuples whatever the seed, and
        every witness is an exact 3-coloring the LM classifier also checks.
        """
        lo, hi = LARGE_RANGE
        step = (hi - lo + 1) / 3
        thirds = [range(round(lo + i * step), round(lo + (i + 1) * step)) for i in range(3)]
        primes = [[q for q in third if is_prime(q)] for third in thirds]
        target = sum(((t.start + t.stop - 1) / 2) ** 2 for t in thirds)
        while True:
            moduli = [(self.rng.choice(ps), LARGE_K) for ps in primes]
            if abs(sum(n * n for n, _ in moduli) - target) <= COST_TOLERANCE * target:
                return {"moduli": moduli, "budget_secs": LARGE_BUDGET}

    def run(self, state, out, tmpdir, full_check, pass_index):
        moduli = self.inputs["moduli"]
        runs, ops = [], []
        with out.timed("budgeted_rb", ops) as phase:
            for n, k in moduli:
                r = self.cli(["rb", "--n", n, "--k", k, "--method", "search", "--budget-secs", LARGE_BUDGET])
                ops.append(r[3])
                runs.append((n, k, r))
                out.split()
        phase["overrun"] = [t - LARGE_BUDGET for t in ops]

        ops = []
        with out.timed("certify", ops):
            results = self.certify(moduli, tmpdir, ops, out.split)

        for n, k, (rc, text, err, _) in runs:
            rb = self.rb_reference(n, k, out)
            m = checks.RB_LINE.match(text)
            value = int(m.group(4)) if m else None
            ok = m is not None and (
                (rc == 4 and m.group(3) == ">=" and value <= rb)
                or (rc == 0 and m.group(3) == "=" and value == rb)
            )
            out.check(ok, f"rb --method search --budget-secs {LARGE_BUDGET} n={n} k={k}: exit {rc}, {text.strip() or err.strip()!r}, formula {rb}")
        # the O(n^2) independent scan runs once per run; later passes must
        # reproduce the same certificate bytes (compared by digest in run.py)
        for n, k, colors in self.check_certificates(results, out, scan=full_check):
            if is_prime(n) and len(set(colors)) == 3:
                self.check_lm_rainbow_free(n, k, colors, out)


WORKLOADS = {w.name: w for w in (OracleSweep, VerifyClassify, LargeN)}
