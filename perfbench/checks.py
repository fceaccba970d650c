"""Independent correctness checks for benchmark outputs.

Nothing here imports rainbow_lab: every verdict is recomputed from the
equation x1 + x2 = k*x3 (mod n) itself, so a defect in the package cannot
hide behind a check that shares its code.
"""
from __future__ import annotations

import hashlib
import re

RB_LINE = re.compile(r"^rb\((\d+),(-?\d+)\) (=|>=) (\d+)")
WITNESS_LINE = re.compile(r"^wrote .*: n=(\d+) k=(\d+) colors=(\d+) ")
VERIFY_LINE = re.compile(r"^rainbow-free: n=(\d+) k=(\d+) colors=(\d+) \(exact\)$")


def is_canonical(colors) -> bool:
    seen = 0
    for c in colors:
        if c > seen:
            return False
        if c == seen:
            seen += 1
    return True


def rainbow_triple_nested(colors, k: int):
    """Three nested loops over Z_n^3; the reference for the classifier."""
    n = len(colors)
    for x1 in range(n):
        for x2 in range(n):
            for x3 in range(n):
                if (x1 + x2 - k * x3) % n == 0:
                    c1, c2, c3 = colors[x1], colors[x2], colors[x3]
                    if c1 != c2 and c1 != c3 and c2 != c3:
                        return (x1, x2, x3)
    return None


def distinct_triples(n: int, k: int) -> list[tuple[int, int, int]]:
    """Every solution with pairwise-distinct coordinates (the only ones that
    can be rainbow), listed once per unordered {x1, x2}."""
    out = []
    for x1 in range(n):
        for x3 in range(n):
            x2 = (k * x3 - x1) % n
            if x1 < x2 and x3 != x1 and x3 != x2:
                out.append((x1, x2, x3))
    return out


def is_rainbow_free(colors, k: int, triples=None) -> bool:
    """O(n^2) scan: for each x1 and x3 the equation fixes x2.

    `triples` (from distinct_triples) speeds up many scans of one (n, k);
    without it nothing of size n^2 is held in memory.
    """
    if triples is not None:
        return not any(
            colors[a] != colors[b] and colors[a] != colors[c] and colors[b] != colors[c]
            for a, b, c in triples
        )
    n = len(colors)
    for x1 in range(n):
        c1 = colors[x1]
        for x3 in range(n):
            c3 = colors[x3]
            if c3 != c1:
                c2 = colors[(k * x3 - x1) % n]
                if c2 != c1 and c2 != c3:
                    return False
    return True


def is_rainbow_triple(colors, k: int, t) -> bool:
    n = len(colors)
    x1, x2, x3 = t
    if not all(0 <= x < n for x in t) or (x1 + x2 - k * x3) % n:
        return False
    return len({colors[x1], colors[x2], colors[x3]}) == 3


def coloring_digest(colorings) -> str:
    """sha256 over the colorings in the order they were produced."""
    h = hashlib.sha256()
    for cols in colorings:
        h.update(",".join(map(str, cols)).encode())
        h.update(b"\n")
    return h.hexdigest()


def certificate_problems(doc: dict, n: int, k: int, r: int) -> list[str]:
    """Structural checks on a certificate file; the rainbow-free scan is separate."""
    problems = []
    colors = doc.get("colors")
    if doc.get("n") != n or doc.get("k") != k % n:
        problems.append(f"certificate header n={doc.get('n')} k={doc.get('k')}, expected n={n} k={k % n}")
    if not isinstance(colors, list) or len(colors) != n:
        return problems + ["certificate colors missing or of wrong length"]
    if not is_canonical(colors):
        problems.append("certificate colors are not canonical")
    if set(colors) != set(range(r)):
        problems.append(f"certificate is not an exact {r}-coloring")
    return problems
