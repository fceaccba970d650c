"""Exhaustive structural property suites over small moduli.

Each test realizes one structural statement about triples, rainbow-free
colorings, palettes, or projections, checked over every instance at the
stated sizes (enumerations come from the shared session fixtures).
"""
import itertools
import math

import pytest

from conftest import (
    KP_PAIRS,
    canonical_colorings,
    check_symmetry,
    color_classes,
    dilate,
    divisibility_count,
    dominant_colors,
    has_singleton_class,
    iter_triples,
    project_general,
    project_schur,
)
from rainbow_lab.coloring import Coloring, is_rainbow_free, residue_palettes
from rainbow_lab.modcore import (
    CyclicInstance,
    is_prime,
    multiplicative_order,
    prime_factorize,
)
from rainbow_lab.search import SearchConfig, iter_rainbow_free_colorings


def proper_divisors(n):
    return [t for t in range(2, n) if n % t == 0]


class TestTripleStructure:
    def test_triple_count_is_n_squared(self):
        for n in range(1, 31):
            for k in range(n):
                count = sum(1 for _ in iter_triples(CyclicInstance(n, k)))
                assert count == n * n, (n, k)

    def test_divisibility_count_never_two(self):
        for n in range(2, 31):
            primes = [q for q, _ in prime_factorize(n)]
            for k in range(n):
                relevant = [q for q in primes if math.gcd(q, k) == 1]
                if not relevant:
                    continue
                for t in iter_triples(CyclicInstance(n, k)):
                    for q in relevant:
                        assert divisibility_count(t, q) != 2, (n, k, t, q)


class TestOrderProperties:
    def test_order_divides_group_order(self):
        for q in range(2, 101):
            if not is_prime(q):
                continue
            for a in range(1, q):
                assert (q - 1) % multiplicative_order(a, q) == 0


class TestDilation:
    def test_preserves_rainbow_freeness_and_class_sizes(self, rf_small_all_k):
        for (n, k), colorings in rf_small_all_k.items():
            units = [m for m in range(1, n) if math.gcd(m, n) == 1]
            for c in colorings:
                sizes = sorted(len(s) for s in color_classes(c).values())
                for m in units:
                    d = dilate(c, m)
                    assert is_rainbow_free(d, k), (n, k, c.colors, m)
                    assert sorted(len(s) for s in color_classes(d).values()) == sizes

    def test_both_directions_exhaustively_small(self):
        # dilation is a position bijection, so rainbow-freeness transfers both
        # ways; checked over every canonical coloring of Z_n, n <= 6
        for n in range(2, 7):
            units = [m for m in range(1, n) if math.gcd(m, n) == 1]
            for cols in canonical_colorings(n):
                c = Coloring(n, cols)
                for k in range(n):
                    rf = is_rainbow_free(c, k)
                    for m in units:
                        assert is_rainbow_free(dilate(c, m), k) == rf


class TestAffineSymmetry:
    def test_units_and_translation_map_solutions_to_solutions(self):
        # x -> u*x + t maps a solution to one of u*(x1 + x2 - k*x3) - (k - 2)t,
        # so every unit u and every t with (k - 2)t = 0 (mod n) keep the
        # solution set; the unit dilations and the least such t > 0 generate
        # that group. The images are looked up among the package's solutions.
        for n in range(1, 31):
            units = [u for u in range(n) if math.gcd(u, n) == 1]
            for k in range(n):
                t = next(t for t in range(1, n + 1) if (k - 2) * t % n == 0)
                sols = set(iter_triples(CyclicInstance(n, k)))
                for x1, x2, x3 in sols:
                    assert ((x1 + t) % n, (x2 + t) % n, (x3 + t) % n) in sols, (n, k, t)
                    for u in units:
                        assert (u * x1 % n, u * x2 % n, u * x3 % n) in sols, (n, k, u)


class TestDominance:
    def test_color_of_one_dominant(self, rf_small_all_k):
        for n in range(2, 13):
            for c in rf_small_all_k[(n, 1)]:
                assert c.colors[1] in dominant_colors(c), (n, c.colors)

    def test_color_of_one_dominant_all_color_counts_small(self):
        # includes the r <= 2 colorings the fixture omits
        for n in range(2, 9):
            for cols in canonical_colorings(n):
                c = Coloring(n, cols)
                if is_rainbow_free(c, 1):
                    assert c.colors[1] in dominant_colors(c)

    def test_no_two_non_dominant_repeated_colors(self, rf_small_all_k):
        # with d = c(1) dominant: no two distinct colors other than d may each
        # occupy a cyclically-adjacent same-colored pair
        for n in range(2, 13):
            for c in rf_small_all_k[(n, 1)]:
                d = c.colors[1]
                repeated = {
                    c.colors[i]
                    for i in range(n)
                    if c.colors[i] == c.colors[(i + 1) % n] and c.colors[i] != d
                }
                assert len(repeated) <= 1, (n, c.colors)


class TestPrimeColoringStructure:
    PRIMES = (2, 3, 5, 7, 11, 13)

    def test_singleton_class_in_three_colorings(self, rf_small_all_k):
        for p in self.PRIMES:
            if p <= 12:
                colorings = [c for c in rf_small_all_k[(p, 1)] if c.num_colors() == 3]
            else:
                colorings = list(iter_rainbow_free_colorings(CyclicInstance(p, 1), 3, 3))
            if p >= 5:
                assert colorings
            for c in colorings:
                assert has_singleton_class(c), (p, c.colors)

    def test_symmetry_of_rainbow_free_colorings(self, rf_small_all_k):
        for p in self.PRIMES:
            if p <= 12:
                colorings = rf_small_all_k[(p, 1)]
            else:
                colorings = list(
                    iter_rainbow_free_colorings(CyclicInstance(p, 1), min_r=3)
                )
            for c in colorings:
                assert check_symmetry(c), (p, c.colors)


class TestPalettes:
    def test_limited_colors_k1(self, rf_k1_by_n):
        for n, colorings in rf_k1_by_n.items():
            for t in proper_divisors(n):
                for c in colorings:
                    palettes = residue_palettes(c, t)
                    for i, p_i in enumerate(palettes):
                        assert len(p_i - palettes[0]) <= 1, (n, t, i, c.colors)

    def test_not_too_big_k_prime(self, rf_kp_by_np):
        for (n, p), colorings in rf_kp_by_np.items():
            ts = [n // q for q, _ in prime_factorize(n) if q != p and n // q > 1]
            for t in ts:
                for c in colorings:
                    palettes = residue_palettes(c, t)
                    j = max(range(t), key=lambda i: (len(palettes[i]), -i))
                    for i, p_i in enumerate(palettes):
                        assert len(p_i - palettes[j]) <= 1, (n, p, t, i, c.colors)

    def _samecolors_zeromono(self, colorings, p):
        for c in colorings:
            palettes = residue_palettes(c, p)
            if c.num_colors() >= 3:
                for i in range(1, p):
                    assert palettes[i] == palettes[p - i], (c.colors, i)
            if any(palettes[i] - palettes[0] for i in range(1, p)):
                assert len(palettes[0]) == 1, c.colors

    def test_samecolors_zeromono_z9(self):
        # Z_9, k=3: palettes taken mod 3
        colorings = list(iter_rainbow_free_colorings(CyclicInstance(9, 3), min_r=3))
        assert colorings
        self._samecolors_zeromono(colorings, 3)

    def test_samecolors_zeromono_z25_sampled(self):
        stream = iter_rainbow_free_colorings(
            CyclicInstance(25, 5), 3, 3, SearchConfig(time_budget=600.0)
        )
        sample = list(itertools.islice(stream, 2000))
        assert sample
        self._samecolors_zeromono(sample, 5)


class TestProjections:
    def test_schur_projection_rainbow_free(self, rf_k1_by_n):
        for n, colorings in rf_k1_by_n.items():
            for t in proper_divisors(n):
                for c in colorings:
                    assert is_rainbow_free(project_schur(c, t), 1), (n, t, c.colors)

    def test_general_projection_rainbow_free(self, rf_kp_by_np):
        for (n, p), colorings in rf_kp_by_np.items():
            ts = [n // q for q, _ in prime_factorize(n) if q != p and n // q > 1]
            for t in ts:
                for c in colorings:
                    assert is_rainbow_free(project_general(c, t), p), (n, p, t)

    def test_general_projection_of_lift_recovers_base(self):
        # lift a 2-coloring of Z_3 to Z_21 (q=7, p=3), then project back to
        # Z_3: the result is the base coloring up to color renaming
        from rainbow_lab.coloring import canonicalize
        from rainbow_lab.constructions import lift_general

        base = Coloring(3, (0, 1, 1))
        lifted = lift_general(base, 7, 3)
        projected = project_general(lifted, 3)
        assert projected.colors == (3, 1, 1)
        assert canonicalize(projected.colors) == base.colors
        assert is_rainbow_free(projected, 3)
