"""Shared fixtures and independent brute-force oracles.

The session-scoped fixtures cache the expensive rainbow-free enumerations so
the property suites and the acceptance suite traverse each search space once.
The brute-force helpers deliberately avoid the package's triple index and
solution tables: they are the independent cross-check for the search kernel.
"""
from __future__ import annotations

import pytest

from rainbow_lab import CyclicInstance, SearchConfig
from rainbow_lab.modcore import prime_factorize
from rainbow_lab.search import iter_rainbow_free_colorings

# (n, p) pairs for the prime-coefficient palette/projection suites: n = q*t
# with some prime q != p dividing n, n <= 21.
KP_PAIRS = sorted(
    (n, p)
    for p in (2, 3, 5)
    for n in range(4, 22)
    if any(q != p for q, _ in prime_factorize(n))
)


def canonical_colorings(n, num_colors=None):
    """Every canonical (restricted-growth) coloring of n positions.

    Independent of the package's search; plain recursive set-partition
    enumeration, optionally filtered to an exact color count.
    """
    out = []

    def rec(pos, used, cur):
        if pos == n:
            if num_colors is None or used == num_colors:
                out.append(tuple(cur))
            return
        for col in range(min(used + 1, n)):
            cur.append(col)
            rec(pos + 1, max(used, col + 1), cur)
            cur.pop()

    rec(0, 0, [])
    return out


def brute_rainbow_free(colors, n, k):
    """Rainbow-freeness by three nested loops; no shared code with the kernel."""
    for x1 in range(n):
        for x2 in range(n):
            for x3 in range(n):
                if (x1 + x2 - k * x3) % n == 0:
                    a, b, c = colors[x1], colors[x2], colors[x3]
                    if a != b and a != c and b != c:
                        return False
    return True


def reference_search(n, k, keep_min_r=None):
    """Unbounded reference for the search kernel.

    A plain restricted-growth DFS over the canonical colorings of Z_n that
    prunes only where a rainbow triple closes. Triples come from nested loops
    over Z_n^3, not from the package's index. Returns (r_max, the
    lexicographically least canonical coloring with r_max colors, and, with
    keep_min_r, every rainbow-free canonical coloring with at least
    keep_min_r colors in lexicographic order).
    """
    closing = [set() for _ in range(n)]  # pairs {a, b} closing a triple at max(a, b, x)
    for x1 in range(n):
        for x2 in range(n):
            for x3 in range(n):
                if (x1 + x2 - k * x3) % n == 0 and len({x1, x2, x3}) == 3:
                    a, b, top = sorted((x1, x2, x3))
                    closing[top].add((a, b))
    closing = [sorted(pairs) for pairs in closing]
    colors = [0] * n
    best = [0, None]
    kept = []

    def rec(pos, used):
        for col in range(used + 1):
            nu = used + 1 if col == used else used
            if nu >= 3 and any(
                colors[a] != colors[b] and col != colors[a] and col != colors[b]
                for a, b in closing[pos]
            ):
                continue
            colors[pos] = col
            if pos < n - 1:
                rec(pos + 1, nu)
                continue
            if nu > best[0]:
                best[:] = nu, tuple(colors)
            if keep_min_r is not None and nu >= keep_min_r:
                kept.append(tuple(colors))

    rec(0, 0)
    return best[0], best[1], kept


def has_singleton_class(coloring):
    sizes = [len(xs) for xs in coloring.color_classes().values()]
    return min(sizes) == 1


@pytest.fixture(scope="session")
def rf_k1_by_n():
    """All canonical rainbow-free colorings with >= 3 colors, k=1, n <= 24."""
    cfg = SearchConfig(time_budget=600.0)
    return {
        n: list(iter_rainbow_free_colorings(CyclicInstance(n, 1), min_r=3, cfg=cfg))
        for n in range(2, 25)
    }


@pytest.fixture(scope="session")
def rf_kp_by_np():
    """All canonical rainbow-free colorings with >= 3 colors for k=p prime,
    over the moduli n <= 21 that have a prime factor q != p."""
    cfg = SearchConfig(time_budget=600.0)
    return {
        (n, p): list(
            iter_rainbow_free_colorings(CyclicInstance(n, p), min_r=3, cfg=cfg)
        )
        for n, p in KP_PAIRS
    }


@pytest.fixture(scope="session")
def rf_small_all_k():
    """All canonical rainbow-free colorings with >= 3 colors for every k,
    n <= 12. Colorings with <= 2 colors are rainbow-free by definition and
    are covered by direct arguments in the tests that need them."""
    cfg = SearchConfig(time_budget=600.0)
    return {
        (n, k): list(
            iter_rainbow_free_colorings(CyclicInstance(n, k), min_r=3, cfg=cfg)
        )
        for n in range(2, 13)
        for k in range(n)
    }
