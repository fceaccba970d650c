"""Colorings of Z_n and the checks the package runs on them.

Canonical labels, rainbow detection, residue palettes, and the
Llano-Montejano classification of rainbow-free 3-colorings of Z_q.
"""
from __future__ import annotations

import functools
from bisect import bisect_right
from collections import Counter
from enum import Enum
from itertools import compress, islice, repeat
from operator import itemgetter, ne
from typing import Optional

from .errors import InputError
from .modcore import _Frozen, is_prime, solutions_by_sum

Palette = frozenset[int]


class Coloring(_Frozen):
    """A length-n assignment of small non-negative int color ids to Z_n.

    A bool is an int, and is accepted as the id 0 or 1; any other id that
    is not an int raises TypeError."""

    __slots__ = ("n", "colors")

    def __init__(self, n: int, colors: tuple[int, ...]):
        if n < 1:
            raise InputError(f"modulus must be positive, got {n}")
        colors = tuple(colors)  # no copy when it is already a tuple
        if len(colors) != n:
            raise InputError(f"expected {n} colors, got {len(colors)}")
        try:
            bytes(colors)  # one C pass; succeeds only if every id is an int in 0..255
        except (TypeError, ValueError):
            if min(colors) < 0:
                raise InputError("color ids must be non-negative") from None
            if not all(isinstance(x, int) for x in colors):
                raise TypeError("color ids must be ints") from None
        set_n, set_colors = self._setters
        set_n(self, n)
        set_colors(self, colors)

    def num_colors(self) -> int:
        return len(set(self.colors))


def canonicalize(colors) -> tuple[int, ...]:
    """Relabel into restricted-growth form: scanning left to right, the first
    occurrence of each new color receives the smallest unused id."""
    mapping: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return tuple(out)


def is_canonical(colors) -> bool:
    """True when canonicalize leaves the colors as they are."""
    colors = tuple(colors)  # no copy when it is already a tuple
    return canonicalize(colors) == colors


# Below this n, the scan walks the cached list of _short_triples(n, k mod n):
# at most 1953 triples (n = 63), about 140 KB, and 9.0 MB for the 64 lists a
# full cache keeps. From it on, rows are finished in one row loop; when a
# walked row visits fewer x2 than this, about n/g, every row is walked.
_ROW_LOOP_MIN_N = 64


@functools.lru_cache(maxsize=64)
def _short_triples(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """Every (x1, x2, x3) with x1 < x2 and k*x3 = x1 + x2 (mod n), in
    lexicographic order: n(n-1)/2 triples or fewer, 1953 at n = 63. With
    g = gcd(k, n) = len(sols[0]), x2 steps over the x1 + x2 that g divides."""
    sols = solutions_by_sum(n, k)
    g = len(sols[0])
    return tuple([
        (x1, x2, x3)
        for x1 in range(n)
        for x2 in range(x1 + 1 + (-2 * x1 - 1) % g, n, g)
        for x3 in sols[(x1 + x2) % n]
    ])


def find_rainbow_triple(c: Coloring, k: int) -> Optional[tuple[int, int, int]]:
    """The lexicographically least triple carrying three distinct colors, if any.

    Returned as a plain (x1, x2, x3) tuple: an exact tuple of ints, unlike
    an instance of a tuple subclass, leaves the cyclic garbage collector at
    its first collection, so full collections never walk the results a
    caller keeps.

    The equation is symmetric in x1 and x2, and the two carry different
    colors, so the least rainbow triple has x1 < x2.

    For n < 64 the scan walks _short_triples(n, k mod n): every triple with
    x1 < x2, in lexicographic order, built once from `solutions_by_sum`'s
    table and cached for the last 64 (n, k mod n), so every k of one n
    fits. The first triple of three colors is returned as it is stored.
    A list holds at most 1953 triples, at n = 63, about 140 KB; a full cache
    of lists at n = 63 holds 9.0 MB. A list takes about as long to build as
    one walk of every pair (Z_45 k = 1: about 94 against 91 us), so a scan
    that runs once per (n, k) gains nothing from it; repeated scans of one
    (n, k) skip the per-pair sum, table lookup and loop set-up.

    For n >= 64, rows x1 are finished in increasing order in one loop: each
    row visits its x2 > x1 in increasing order, skips those of color c(x1),
    and reads x3 from `solutions_by_sum`. A walked row visits every x2
    whose sum x1 + x2 has an x3, which are those with g = gcd(k, n)
    dividing it. When n/g < 64 every row is walked; a row of k = 0 mod n
    visits one x2, -x1. Such a scan counts no colors: walks that short
    cost less than the count, which measured slower on k = 0 mod n and
    k = n/2 colorings and most of all on scans that stop early.

    For n/g >= 64 the scan first counts the positions of each color. With
    fewer than three colors it returns None: a rainbow triple needs three.
    Otherwise each row, as it comes, takes its own position off its color's
    count, so it knows how many x2 of another color it has. A row without
    any is skipped. A row whose color fills at least 7/8 of the positions
    after x1 is dense: it takes its x2 from a list of the positions after
    x1 that carry another color, whether their sum has an x3 or not: at
    most 1/8 of those positions. Every other row is walked.

    A color's list is built, with C-level iterator steps, at its first
    dense row, and cut at x1 with a binary search for its later ones. A
    color that fills 7/8 of the positions after x1 leaves at most 1/7 of
    them to the colors whose lists are built later, so all lists together
    hold at most 7n/48 positions, and the counts one entry per color.
    """
    n = c.n
    cols = c.colors
    if n < _ROW_LOOP_MIN_N:
        for triple in _short_triples(n, k % n):
            x1, x2, x3 = triple
            c1 = cols[x1]
            c2 = cols[x2]
            if c1 != c2:
                c3 = cols[x3]
                if c3 != c1 and c3 != c2:
                    return triple
        return None
    sols = solutions_by_sum(n, k % n)
    # k*x3 = s is solvable iff g = gcd(k, n) divides s; k*x3 = 0 has g
    # solutions. A walk steps from the first x2 > x1 with g | x1 + x2.
    g = len(sols[0])
    counted = n // g >= _ROW_LOOP_MIN_N
    if counted:
        later = dict(Counter(cols))  # color -> its positions from x1 on
        if len(later) < 3:
            return None
        others = {}  # color -> the positions after its first dense row of another color
    for x1 in range(n):
        c1 = cols[x1]
        if counted:
            same = later[c1] - 1  # the positions after x1 colored c1
            later[c1] = same
            span = n - 1 - x1
            if same == span:
                continue  # no x2 of another color
            # a dense row; the 7/8 bounds memory, not time: all lists
            # together hold at most n/8 * (1 + 1/7 + 1/49 + ...) = 7n/48
            if 8 * same >= 7 * span:
                xs = others.get(c1)
                if xs is None:
                    xs = others[c1] = list(compress(
                        range(x1 + 1, n), map(ne, islice(cols, x1 + 1, None), repeat(c1))
                    ))
                else:
                    xs = xs[bisect_right(xs, x1):]
            else:
                xs = range(x1 + 1 + (-2 * x1 - 1) % g, n, g)
        else:  # a walk; building its range on dense rows too reads slower
            xs = range(x1 + 1 + (-2 * x1 - 1) % g, n, g)
        for x2 in xs:
            c2 = cols[x2]
            if c1 == c2:
                continue
            for x3 in sols[(x1 + x2) % n]:
                c3 = cols[x3]
                if c3 != c1 and c3 != c2:
                    return (x1, x2, x3)
    return None


def is_rainbow_free(c: Coloring, k: int) -> bool:
    return find_rainbow_triple(c, k) is None


def residue_palettes(c: Coloring, t: int) -> list[Palette]:
    """P_i = set of colors on positions congruent to i mod t, for 0 <= i < t."""
    if t < 1 or c.n % t != 0:
        raise InputError(f"t={t} does not divide the modulus {c.n}")
    palettes: list[set[int]] = [set() for _ in range(t)]
    for x, col in enumerate(c.colors):
        palettes[x % t].add(col)
    return [frozenset(p) for p in palettes]


class LMCase(Enum):
    CASE1 = "case1"
    CASE2I = "case2i"
    CASE2II = "case2ii"
    CASE3 = "case3"
    NOT_RAINBOW_FREE_FORM = "not-rainbow-free-form"


class LMClassification(_Frozen):
    __slots__ = ("case", "dilation")

    def __init__(self, case: LMCase, dilation: Optional[int] = None):
        set_case, set_dilation = self._setters
        set_case(self, case)
        set_dilation(self, dilation)


_NOT_RAINBOW_FREE_FORM = LMClassification(LMCase.NOT_RAINBOW_FREE_FORM)


@functools.lru_cache(maxsize=256)
def _affine(q: int, m: int, t: int) -> itemgetter:
    """Re-indexes a color tuple of Z_q: u -> c(m*u + t)."""
    return itemgetter(*[(m * u + t) % q for u in range(q)])


def classify_3coloring_LM(c: Coloring, k: int) -> LMClassification:
    """Classify an exact 3-coloring of Z_q (q prime, gcd(k, q) = 1).

    Tries the structural cases in a fixed order and reports the first match
    together with a dilation factor a realizing it. Each condition is a
    comparison of the color tuple with a copy re-indexed by an affine map
    of Z_q. Dilations fix 0 and preserve symmetry and <k>-periodicity, so
    case 1 is tested at a = 1 and cases 2(i)/(ii) only at the unique
    dilation sending a non-zero singleton class {x} to {1}. Case 3 first
    counts runs: along a step d from the smallest class the coloring must
    change color exactly three times, which rejects almost every coloring
    at C speed; only the d that pass are tried, as a = +-d^-1, and the
    least a is reported. A coloring matching no case admits a rainbow
    triple.
    """
    q = c.n
    if not is_prime(q) or q < 3:
        raise InputError(f"classification requires a prime modulus >= 3, got {q}")
    cols = c.colors
    palette = set(cols)
    if len(palette) != 3:
        raise InputError("classification requires an exact 3-coloring")
    k %= q
    if k == 0:
        raise InputError(f"coefficient k={k} is not invertible mod {q}")
    k_is_2 = k == 2 % q
    k_is_minus1 = k == q - 1

    # case 1: {0} singleton, other classes symmetric and <k>-periodic, that
    # is c(-u) = c(u) = c(ku) for u != 0. Both properties are
    # dilation-invariant, so a = 1 suffices.
    if cols.count(cols[0]) == 1 and cols[1:] == cols[:0:-1] and cols == _affine(q, k, 0)(cols):
        return LMClassification(LMCase.CASE1, 1)
    if not (k_is_2 or k_is_minus1):
        return _NOT_RAINBOW_FREE_FORM  # cases 2 and 3 need k in {2, -1}

    # cases 2(i)/(ii): a singleton class {x}, x != 0, dilated to {1} by
    # a = x^-1, the only dilation that can, and shifted: the classes are
    # tested at z = a*u - 1 (2(i)) or w = a*u + 2^-1 (2(ii)). Read back at
    # u = x(z + 1) or u = x(w - 2^-1), each test compares c with c
    # re-indexed by an affine map that fixes or swaps x.
    sizes = list(map(cols.count, palette))
    if 1 in sizes:
        for x in sorted(map(cols.index, palette)):  # classes in order of first occurrence
            if x == 0 or cols.count(cols[x]) > 1:
                continue
            # case 2(i): k = 2, classes symmetric and <2>-periodic in z, that
            # is c(2x - u) = c(u) = c(2u - x); both maps fix u = x (z = 0)
            if k_is_2 and cols == _affine(q, -1, 2 * x)(cols) == _affine(q, 2, -x)(cols):
                return LMClassification(LMCase.CASE2I, pow(x, -1, q))
            # case 2(ii): k = -1, (X \ {-2}) + 2^-1 symmetric in w for the
            # other classes X, that is c(-u - x) = c(u) except at u = x (the
            # singleton, a*u = 1) and u = -2x (the excluded a*u = -2): the
            # reflection swaps these two, whose colors differ. The excluded
            # element is -2 mod q: rainbow-freeness forces c(y) = c(-1-y)
            # away from the pair containing 1, whose partner is -2. For
            # q = 3 the reflection fixes x and swaps the two other
            # positions, whose colors differ too.
            if k_is_minus1 and q > 3 and sum(map(ne, cols, _affine(q, -1, -x)(cols))) == 2:
                return LMClassification(LMCase.CASE2II, pow(x, -1, q))
        return _NOT_RAINBOW_FREE_FORM  # case 3 needs every class of size >= 2
    if not k_is_minus1:
        return _NOT_RAINBOW_FREE_FORM

    # case 3: k = -1, all classes are difference-1 progressions chained as
    # [a1, a2-1], [a2, a3-1], [a3, a1-1] with a1 + a2 + a3 in {1, 2}.
    # a*S is an interval iff S is a progression with difference d = a^-1,
    # which holds for every class iff the walk 0, d, 2d, ... changes color
    # exactly 3 times. One of d, -d leads from x0 = min(S) to another y in
    # the smallest class S, so the steps d = y - x0 give every candidate.
    # With the classes' starts x (c(x - d) != c(x)) summing to s, a*S
    # starts at a*x and a*s must be 1 or 2; at -a the classes start at
    # their ends, which sum to s + d(q - 3), and -a(s + d(q - 3)) = 3 - a*s,
    # so a and -a pass together and the lesser is reported.
    least, smallest = min(zip(sizes, palette))
    y = x0 = cols.index(smallest)
    best = q
    for _ in range(least - 1):
        y = cols.index(smallest, y + 1)
        d = y - x0
        back = cols[-d:] + cols[:-d]  # c(x - d) at x
        if sum(map(ne, cols, back)) == 3:
            a = pow(d, -1, q)
            if a * sum(compress(range(q), map(ne, cols, back))) % q in (1, 2):
                best = min(best, a, q - a)
    return _NOT_RAINBOW_FREE_FORM if best == q else LMClassification(LMCase.CASE3, best)
