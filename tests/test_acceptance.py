"""Acceptance gate: one test per criterion, one printed PASS line each.

Budgets are pinned per criterion. Every oracle run must exhaust within its
budget: the largest ones (Z_25 k=5, Z_21 k=3) finish in well under a second
against a fixed 60 s.
"""
import math
import time

import pytest

from rainbow_lab.coloring import Coloring, classify_3coloring_LM, is_rainbow_free
from rainbow_lab.coloring import LMCase
from rainbow_lab.formulas import rb_general
from rainbow_lab.modcore import CyclicInstance, is_prime, prime_factorize
from rainbow_lab.search import SearchConfig, iter_rainbow_free_colorings, rb_oracle
from rainbow_lab.constructions import witness_general

from conftest import canonical_colorings, color_classes

BUDGET_60S = SearchConfig(time_budget=60.0)


def test_criterion_1_schur_formula_vs_oracle():
    worst = 0.0
    for n in range(2, 17):
        res = rb_oracle(CyclicInstance(n, 1), SearchConfig(time_budget=120.0))
        assert res.conclusive, f"n={n} search did not exhaust within 120 s"
        assert res.detail["elapsed"] < 120.0, f"n={n} took {res.detail['elapsed']:.1f} s"
        expected = rb_general(n, 1).value
        assert res.value == expected, f"n={n}: oracle {res.value} != formula {expected}"
        worst = max(worst, res.detail["elapsed"])
    assert rb_general(12, 1).value == 5 and rb_general(16, 1).value == 6
    print(
        "criterion 1: PASS — rb_oracle(n,1) == rb_general(n,1) for n in [2,16], "
        f"all exhausted (slowest {worst:.2f} s < 120 s)"
    )


def test_criterion_2_prime_schur_values():
    for p, expected in [(2, 3), (3, 3), (5, 4), (7, 4), (11, 4), (13, 4)]:
        res = rb_oracle(CyclicInstance(p, 1))
        assert res.conclusive and res.value == expected, (p, res.value)
    print("criterion 2: PASS — rb_oracle(p,1) exact for p in {2,3,5,7,11,13}")


def test_criterion_3_cross_prime():
    checked = 0
    worst = 0.0
    for p in (2, 3, 5, 7, 11):
        for q in (3, 5, 7, 11, 13):
            if p == q:
                continue
            res = rb_oracle(CyclicInstance(q, p), SearchConfig(time_budget=10.0))
            assert res.conclusive, f"(q={q}, p={p}) not exhausted within 10 s"
            expected = rb_general(q, p).value
            assert res.value == expected, (q, p, res.value, expected)
            worst = max(worst, res.detail["elapsed"])
            checked += 1
    assert rb_general(7, 2).value == 3
    assert rb_general(7, 3).value == 3
    assert rb_general(13, 3).value == 4
    print(
        f"criterion 3: PASS — rb_oracle(q,p) == rb_general(q,p) on {checked} ordered pairs "
        f"(slowest {worst:.2f} s < 10 s)"
    )


def test_criterion_4_prime_powers():
    for p, alpha in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        n = p**alpha
        res = rb_oracle(CyclicInstance(n, p), SearchConfig(time_budget=60.0))
        assert res.conclusive, f"Z_{n}, k={p} not exhausted within 60 s"
        assert res.value == rb_general(p**alpha, p).value, (p, alpha, res.value)

    # Z_27, k=3: witness only
    w27 = witness_general(3**3, 3)
    assert w27.num_colors() == 3 and is_rainbow_free(w27, 3)

    # Z_25, k=5: witness + oracle
    w25 = witness_general(5**2, 5)
    assert w25.num_colors() == 3 and is_rainbow_free(w25, 5)
    res = rb_oracle(CyclicInstance(25, 5), BUDGET_60S)
    assert res.conclusive, "Z_25, k=5 not exhausted within 60 s"
    assert res.value == 4, res.value
    print(
        "criterion 4: PASS — prime powers exact; Z_27 witness ok; Z_25 oracle "
        f"exhausted ({res.detail['elapsed']:.1f} s), rb=4"
    )


def test_criterion_5_general_recursion():
    notes = []
    for n in (6, 12, 15, 21):
        res = rb_oracle(CyclicInstance(n, 3), BUDGET_60S)
        assert res.conclusive, f"Z_{n}, k=3 not exhausted within 60 s"
        expected = rb_general(n, 3).value
        assert res.value == expected, (n, res.value, expected)
        notes.append(f"n={n} rb={res.value} ({res.detail['elapsed']:.1f} s)")
    print(f"criterion 5: PASS — rb_oracle(n,3) == rb_general(n,3): {'; '.join(notes)}")


def test_criterion_6_construction_suite():
    count = 0
    for p in (5, 7, 11, 13):
        w = witness_general(p, 1)
        assert is_rainbow_free(w, 1) and w.num_colors() == rb_general(p, 1).value - 1
        count += 1
    for n in range(2, 25):
        w = witness_general(n, 1)
        assert is_rainbow_free(w, 1) and w.num_colors() == rb_general(n, 1).value - 1
        count += 1
    for p in (3, 5, 7, 11, 13):
        w = witness_general(p, p)
        assert is_rainbow_free(w, p) and w.num_colors() == rb_general(p, p).value - 1
        count += 1
    primes = [p for p in range(2, 18) if is_prime(p)]
    for q in primes:
        for p in primes:
            if p == q or q == 2:
                continue
            if rb_general(q, p).value != 4:
                continue
            w = witness_general(q, p)
            assert is_rainbow_free(w, p) and w.num_colors() == 3
            count += 1
    for p, alpha in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]:
        w = witness_general(p**alpha, p)
        assert is_rainbow_free(w, p)
        assert w.num_colors() == rb_general(p**alpha, p).value - 1
        count += 1
    for p in (3, 5):
        for n in range(2, 46):
            w = witness_general(n, p)
            assert is_rainbow_free(w, p), (n, p)
            assert w.num_colors() == rb_general(n, p).value - 1, (n, p)
            count += 1
    print(
        f"criterion 6: PASS — {count} witnesses rainbow-free with color count rb-1"
    )


def test_criterion_7_property_suites(rf_small_all_k, rf_k1_by_n, rf_kp_by_np):
    # the full suites live in test_properties.py and run as part of this
    # session; re-assert the headline facts here so this criterion stands alone
    from conftest import (
        check_symmetry,
        dilate,
        divisibility_count,
        dominant_colors,
        iter_triples,
        project_general,
        project_schur,
    )
    from rainbow_lab.coloring import residue_palettes

    for n in range(1, 31):
        for k in range(n):
            inst = CyclicInstance(n, k)
            assert sum(1 for _ in iter_triples(inst)) == n * n
            for q, _ in prime_factorize(n):
                if math.gcd(q, k) != 1:
                    continue
                assert all(divisibility_count(t, q) != 2 for t in iter_triples(inst))

    for (n, k), colorings in rf_small_all_k.items():
        units = [m for m in range(1, n) if math.gcd(m, n) == 1]
        for c in colorings:
            sizes = sorted(len(s) for s in color_classes(c).values())
            for m in units:
                d = dilate(c, m)
                assert is_rainbow_free(d, k)
                assert sorted(len(s) for s in color_classes(d).values()) == sizes

    for n in range(2, 13):
        for c in rf_small_all_k[(n, 1)]:
            assert c.colors[1] in dominant_colors(c)

    for p in (2, 3, 5, 7, 11, 13):
        if p <= 12:
            colorings = rf_small_all_k[(p, 1)]
        else:
            colorings = list(iter_rainbow_free_colorings(CyclicInstance(p, 1), min_r=3))
        for c in colorings:
            assert check_symmetry(c)
            if c.num_colors() == 3:
                assert any(len(s) == 1 for s in color_classes(c).values())

    for n, colorings in rf_k1_by_n.items():
        for t in (t for t in range(2, n) if n % t == 0):
            for c in colorings:
                palettes = residue_palettes(c, t)
                assert all(len(p_i - palettes[0]) <= 1 for p_i in palettes)
                assert is_rainbow_free(project_schur(c, t), 1)

    for (n, p), colorings in rf_kp_by_np.items():
        for t in (n // q for q, _ in prime_factorize(n) if q != p and n // q > 1):
            for c in colorings:
                palettes = residue_palettes(c, t)
                j = max(range(t), key=lambda i: (len(palettes[i]), -i))
                assert all(len(p_i - palettes[j]) <= 1 for p_i in palettes)
                assert is_rainbow_free(project_general(c, t), p)

    for c in iter_rainbow_free_colorings(CyclicInstance(9, 3), min_r=3):
        palettes = residue_palettes(c, 3)
        assert palettes[1] == palettes[2]
        if any(palettes[i] - palettes[0] for i in (1, 2)):
            assert len(palettes[0]) == 1

    sampled = 0
    z25 = iter_rainbow_free_colorings(CyclicInstance(25, 5), 3, 3, BUDGET_60S)
    for c in z25:
        palettes = residue_palettes(c, 5)
        assert all(palettes[i] == palettes[5 - i] for i in range(1, 5))
        if any(palettes[i] - palettes[0] for i in range(1, 5)):
            assert len(palettes[0]) == 1
        sampled += 1
        if sampled >= 2000:
            break
    assert sampled > 0

    print("criterion 7: PASS — property suites exact at stated sizes")


def test_criterion_8_lm_classifier_equivalence():
    start = time.monotonic()
    checked = 0
    for q in (5, 7, 11, 13):
        three_colorings = [
            Coloring(q, cols) for cols in canonical_colorings(q, num_colors=3)
        ]
        for k in range(1, q):
            for c in three_colorings:
                result = classify_3coloring_LM(c, k)
                matched = result.case != LMCase.NOT_RAINBOW_FREE_FORM
                assert matched == is_rainbow_free(c, k), (q, k, c.colors)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f} s"
    print(
        f"criterion 8: PASS — classifier equivalence on {checked} (coloring, k) "
        f"pairs in {elapsed:.1f} s < 300 s"
    )
