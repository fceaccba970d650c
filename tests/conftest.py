"""Shared fixtures, independent brute-force oracles and test-only helpers.

The session-scoped fixtures cache the expensive rainbow-free enumerations so
the property suites and the acceptance suite traverse each search space once.
The brute-force helpers deliberately avoid the package's triple index and
solution tables: they are the independent cross-check for the search kernel
and the rainbow scan. The exceptions, reference_pair_scan and iter_triples,
are themselves checked against the brute force or by counting. The reference
LM classifier keeps the plain form that tries case 3 at every dilation. The
structural predicates (dilation, dominant colors, symmetry, projections,
divisibility counts) state the paper's lemmas; only the suites use them, so
they live here rather than in the package.
"""
from __future__ import annotations

import math

import pytest

from typing import Iterator, NamedTuple, Optional

from rainbow_lab import CyclicInstance, SearchConfig
from rainbow_lab.coloring import Coloring, LMCase, LMClassification, residue_palettes
from rainbow_lab.errors import InputError
from rainbow_lab.modcore import is_prime, prime_factorize, solutions_by_sum
from rainbow_lab.search import iter_rainbow_free_colorings

# (n, p) pairs for the prime-coefficient palette/projection suites: n = q*t
# with some prime q != p dividing n, n <= 21.
KP_PAIRS = sorted(
    (n, p)
    for p in (2, 3, 5)
    for n in range(4, 22)
    if any(q != p for q, _ in prime_factorize(n))
)


class Triple(NamedTuple):
    x1: int
    x2: int
    x3: int


def color_classes(c):
    """Color -> positions of the coloring c, in order of first occurrence."""
    classes: dict[int, set[int]] = {}
    for x, col in enumerate(c.colors):
        if col in classes:
            classes[col].add(x)
        else:
            classes[col] = {x}
    return classes


def is_symmetric_subset(S, q):
    """True iff S = -S inside Z_q."""
    return all((q - x) % q in S for x in S)


def is_k_periodic_subset(S, k, q):
    """True iff S is a union of cosets of the multiplicative subgroup <k> in Z_q^*.

    Equivalently k*S = S. Periodicity is defined on Z_q^*, so 0 in S is an error.
    """
    if not is_prime(q):
        raise InputError(f"{q} is not prime")
    if math.gcd(k, q) != 1:
        raise InputError(f"k={k} is not invertible mod {q}")
    if 0 in S:
        raise InputError("periodicity is defined on nonzero residues; 0 found in S")
    for x in S:
        if not 0 < x < q:
            raise InputError(f"{x} is not a residue in [1, {q})")
    return {(k * x) % q for x in S} == S


def iter_triples(inst: CyclicInstance) -> Iterator[Triple]:
    """All solutions of x1 + x2 = k*x3 (mod n) in lexicographic order.

    Repeated coordinates are allowed; rainbowness requires three distinct
    colors, which makes repeated elements harmless downstream.
    """
    n = inst.n
    sols = solutions_by_sum(n, inst.k)
    for x1 in range(n):
        for x2 in range(n):
            for x3 in sols[(x1 + x2) % n]:
                yield Triple(x1, x2, x3)


def divisibility_count(t: Triple, q: int) -> int:
    """How many coordinates of the triple are divisible by the prime q (0..3).

    When gcd(q, k) = 1 the value 2 never occurs; that is a module property
    checked by the test suite, not a postcondition.
    """
    if not is_prime(q):
        raise InputError(f"{q} is not prime")
    return sum(1 for x in t if x % q == 0)


def dilate(c: Coloring, m: int) -> Coloring:
    """The coloring x -> c(m*x mod n), for m coprime to n.

    A bijective relabeling of positions: color-class cardinalities and the
    existence of rainbow triples are preserved.
    """
    if math.gcd(m, c.n) != 1:
        raise InputError(f"dilation factor {m} is not coprime to {c.n}")
    return Coloring(c.n, tuple(c.colors[(m * x) % c.n] for x in range(c.n)))


def dominant_colors(c: Coloring) -> set[int]:
    """Colors that appear in every bichromatic string of the coloring.

    Checked on cyclically-adjacent differing pairs; any contiguous bichromatic
    interval contains an adjacent differing pair of its two colors, so the two
    readings agree. A coloring with no differing adjacent pair (monochromatic)
    has every color vacuously dominant.
    """
    dominant: Optional[set[int]] = None
    cols = c.colors
    for i in range(c.n):
        a, b = cols[i], cols[(i + 1) % c.n]
        if a != b:
            pair = {a, b}
            dominant = pair if dominant is None else dominant & pair
            if not dominant:
                return set()
    if dominant is None:
        return set(cols)
    return dominant


def check_symmetry(c: Coloring) -> bool:
    """True iff c(x) = c(-x) for all x."""
    return all(c.colors[x] == c.colors[(c.n - x) % c.n] for x in range(c.n))


def _project_relative(c: Coloring, t: int, base: int) -> Coloring:
    palettes = residue_palettes(c, t)
    p_base = palettes[base]
    alpha = max(c.colors) + 1
    out = []
    for i, p in enumerate(palettes):
        extra = p - p_base
        if len(extra) >= 2:
            raise InputError(
                f"residue class {i} carries {len(extra)} colors outside the "
                f"base palette P_{base}; projection needs at most 1"
            )
        out.append(next(iter(extra)) if extra else alpha)
    return Coloring(t, tuple(out))


def project_schur(c: Coloring, t: int) -> Coloring:
    """Reduce a coloring of Z_{st} to Z_t by the palette of each residue class.

    Position i receives the unique color of P_i \\ P_0 when that set is a
    singleton, and a reserved fresh color (max color id + 1) otherwise.
    Rainbow-free colorings always satisfy the |P_i \\ P_0| <= 1 precondition.
    """
    return _project_relative(c, t, base=0)


def project_general(c: Coloring, t: int) -> Coloring:
    """As project_schur, but relative to a largest palette P_j (ties: smallest j).

    This is the reduction used for the equation with a prime coefficient, where
    the base residue class need not be R_0.
    """
    palettes = residue_palettes(c, t)
    best = max(range(t), key=lambda j: (len(palettes[j]), -j))
    return _project_relative(c, t, base=best)


def canonical_colorings(n, num_colors=None):
    """Every canonical (restricted-growth) coloring of n positions.

    Independent of the package's search; plain recursive set-partition
    enumeration, optionally restricted to an exact color count: color ids
    stay below it, and the leaves are filtered.
    """
    out = []
    cap = n if num_colors is None else num_colors

    def rec(pos, used, cur):
        if pos == n:
            if num_colors is None or used == num_colors:
                out.append(tuple(cur))
            return
        for col in range(min(used + 1, cap)):
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


def reference_rainbow_triple(c, k):
    """The lexicographically least rainbow triple by the plain ordered-pair
    scan: every (x1, x2), then every x3 in increasing order, with the third
    coordinate solved by a loop over Z_n instead of the package's table."""
    n, cols = c.n, c.colors
    for x1 in range(n):
        for x2 in range(n):
            if cols[x1] == cols[x2]:
                continue
            for x3 in range(n):
                if (x1 + x2 - k * x3) % n == 0 and cols[x3] not in (cols[x1], cols[x2]):
                    return Triple(x1, x2, x3)
    return None


def reference_pair_scan(c, k):
    """The lexicographically least rainbow triple by the pair walk alone:
    each unordered pair x1 < x2 of different colors in lexicographic order,
    x3 read from the package's solutions table. It is checked against
    reference_rainbow_triple on small n, and it is the reference on the long
    colorings where the scan's dense rows take their x2 from lists."""
    n, cols = c.n, c.colors
    sols = solutions_by_sum(n, k)
    for x1 in range(n):
        c1 = cols[x1]
        for x2 in range(x1 + 1, n):
            c2 = cols[x2]
            if c1 == c2:
                continue
            for x3 in sols[(x1 + x2) % n]:
                c3 = cols[x3]
                if c3 != c1 and c3 != c2:
                    return Triple(x1, x2, x3)
    return None


def _reference_interval_start(S, q):
    """The start of S if S is a cyclic interval [s, s+|S|-1] mod q, else None."""
    starts = [x for x in S if (x - 1) % q not in S]
    if len(starts) != 1:
        return None
    s = starts[0]
    if all((s + i) % q in S for i in range(len(S))):
        return s
    return None


def reference_classify_LM(c, k):
    """The Llano-Montejano classifier with case 3 tried at every dilation
    a = 1..q-1 on dilated copies of the classes: the plain reference for
    coloring.classify_3coloring_LM, which must agree on (case, dilation) and
    on the message of every InputError."""
    q = c.n
    if not is_prime(q) or q < 3:
        raise InputError(f"classification requires a prime modulus >= 3, got {q}")
    if c.num_colors() != 3:
        raise InputError("classification requires an exact 3-coloring")
    k %= q
    if k == 0:
        raise InputError(f"coefficient k={k} is not invertible mod {q}")
    inv2 = pow(2, -1, q)
    classes = [frozenset(xs) for xs in color_classes(c).values()]
    k_is_2 = k == 2 % q
    k_is_minus1 = k == q - 1

    for i, s in enumerate(classes):
        if s == {0}:
            others = [classes[j] for j in range(3) if j != i]
            if all(is_symmetric_subset(o, q) and is_k_periodic_subset(o, k, q) for o in others):
                return LMClassification(LMCase.CASE1, 1)

    if k_is_2 or k_is_minus1:
        minus2 = (-2) % q
        for i, s in enumerate(classes):
            if len(s) != 1 or 0 in s:
                continue
            (x,) = s
            a = pow(x, -1, q)
            others = [
                frozenset((a * y) % q for y in classes[j]) for j in range(3) if j != i
            ]
            if k_is_2:
                shifted = [frozenset((y - 1) % q for y in o) for o in others]
                if all(
                    is_symmetric_subset(o, q) and is_k_periodic_subset(o, 2, q)
                    for o in shifted
                ):
                    return LMClassification(LMCase.CASE2I, a)
            if k_is_minus1:
                shifted = [
                    frozenset((y + inv2) % q for y in o if y != minus2) for o in others
                ]
                if all(is_symmetric_subset(o, q) for o in shifted):
                    return LMClassification(LMCase.CASE2II, a)

    if k_is_minus1 and min(len(s) for s in classes) >= 2:
        for a in range(1, q):
            dil = [frozenset((a * x) % q for x in s) for s in classes]
            starts = [_reference_interval_start(s, q) for s in dil]
            if all(s is not None for s in starts):
                if sum(starts) % q in (1, 2):
                    return LMClassification(LMCase.CASE3, a)
    return LMClassification(LMCase.NOT_RAINBOW_FREE_FORM)


def has_singleton_class(coloring):
    sizes = [len(xs) for xs in color_classes(coloring).values()]
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
