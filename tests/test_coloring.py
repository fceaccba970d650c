import gc
import itertools
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import (
    Triple,
    check_symmetry,
    color_classes,
    dilate,
    dominant_colors,
    project_general,
    project_schur,
)
from rainbow_lab.coloring import (
    Coloring,
    LMCase,
    canonicalize,
    classify_3coloring_LM,
    find_rainbow_triple,
    is_canonical,
    is_rainbow_free,
    residue_palettes,
)
from rainbow_lab.constructions import witness_general
from rainbow_lab.errors import InputError, UnsupportedCaseError
from rainbow_lab.modcore import CyclicInstance
from rainbow_lab.search import iter_rainbow_free_colorings


class TestColoring:
    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match=r"^expected 3 colors, got 2$"):
            Coloring(3, (0, 1))

    @pytest.mark.parametrize(
        "colors",
        [(0, -1), (-1,), (0, 300, -1), (0, -256), [0, -1], (0, -0.5)],
        ids=["minus_one", "alone", "after_300", "minus_256", "list", "float"],
    )
    def test_negative_color_rejected(self, colors):
        with pytest.raises(InputError, match=r"^color ids must be non-negative$"):
            Coloring(len(colors), colors)

    def test_ids_of_256_and_up_accepted(self):
        # ids past a byte fail the constructor's bytes() pass and are accepted
        # by its fallback
        assert Coloring(2, (0, 300)).colors == (0, 300)
        w = witness_general(1301, 1301)
        assert w.num_colors() == 651 and max(w.colors) >= 256
        assert Coloring(1301, list(w.colors)) == w

    def test_non_integer_id_raises_type_error(self):
        with pytest.raises(TypeError):
            Coloring(2, (0, "1"))

    def test_float_id_raises_type_error(self):
        with pytest.raises(TypeError, match=r"^color ids must be ints$"):
            Coloring(3, (0, 0.5, 2.5))

    def test_none_id_raises_type_error(self):
        with pytest.raises(TypeError):
            Coloring(2, (0, None))

    def test_bool_ids_are_the_ints_0_and_1(self):
        # a bool is an int: it passes the bytes() pass, and past a byte the
        # fallback, as 0 or 1
        c = Coloring(3, (False, True, True))
        assert c == Coloring(3, (0, 1, 1)) and hash(c) == hash(Coloring(3, (0, 1, 1)))
        assert Coloring(3, (True, 300, 0)) == Coloring(3, (1, 300, 0))

    def test_subclass_without_slots_inherits_the_fields(self):
        class Labelled(Coloring):
            pass

        c, parent = Labelled(3, [0, 1, 1]), Coloring(3, (0, 1, 1))
        assert (c.n, c.colors) == (parent.n, parent.colors)
        assert c._values() == parent._values() and c == Labelled(3, (0, 1, 1))
        with pytest.raises(AttributeError):
            c.colors = (1, 0)

    @pytest.mark.parametrize("n", (0, -2))
    def test_nonpositive_modulus_rejected(self, n):
        with pytest.raises(InputError, match=rf"^modulus must be positive, got {n}$"):
            Coloring(n, ())

    def test_list_input_stored_as_tuple(self):
        c = Coloring(3, [0, 1, 1])
        assert type(c.colors) is tuple and c.colors == (0, 1, 1)
        assert c == Coloring(3, (0, 1, 1)) and hash(c) == hash(Coloring(3, (0, 1, 1)))

    def test_no_instance_dict(self):
        # many small colorings are built per check; slots keep each one small
        c = Coloring(2, (0, 1))
        assert not hasattr(c, "__dict__")
        with pytest.raises(AttributeError):
            c.colors = (1, 0)

    def test_repr_and_pickle(self):
        c = Coloring(3, [0, 1, 1])
        assert repr(c) == "Coloring(n=3, colors=(0, 1, 1))"
        assert pickle.loads(pickle.dumps(c)) == c

    def test_num_colors_and_classes(self):
        c = Coloring(5, (0, 1, 2, 2, 1))
        assert c.num_colors() == 3
        assert color_classes(c) == {0: {0}, 1: {1, 4}, 2: {2, 3}}


class TestCanonicalForm:
    def test_canonicalize(self):
        assert canonicalize((5, 3, 3, 5, 1)) == (0, 1, 1, 0, 2)

    def test_is_canonical(self):
        assert is_canonical((0, 1, 1, 0, 2))
        assert not is_canonical((1, 0, 0))
        assert not is_canonical((0, 2, 1))
        # ids canonicalize relabels: a negative or fractional id is never canonical
        assert not is_canonical((-1,))
        assert not is_canonical((0, -1))
        assert not is_canonical((0, 0.5))

    @given(st.lists(st.integers(min_value=-3, max_value=6), max_size=12))
    def test_is_canonical_iff_first_occurrences_count_up(self, colors):
        # restricted-growth form: the distinct ids, in order of first
        # occurrence, are 0, 1, 2, ...
        firsts = list(dict.fromkeys(colors))
        assert is_canonical(colors) == (firsts == list(range(len(firsts))))

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12))
    def test_canonicalize_idempotent_and_canonical(self, colors):
        canon = canonicalize(colors)
        assert is_canonical(canon)
        assert canonicalize(canon) == canon

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12))
    def test_canonicalize_preserves_partition(self, colors):
        canon = canonicalize(colors)
        n = len(colors)
        same = lambda cs: {(i, j) for i in range(n) for j in range(n) if cs[i] == cs[j]}
        assert same(colors) == same(canon)


class TestRainbowDetection:
    def test_symmetric_three_coloring_is_rainbow_free(self):
        assert is_rainbow_free(Coloring(5, (0, 1, 2, 2, 1)), 1)

    def test_returns_lexicographically_least_triple(self):
        assert find_rainbow_triple(Coloring(5, (0, 1, 2, 2, 3)), 1) == Triple(1, 3, 4)

    @pytest.mark.parametrize(
        "recolored, expected",
        [(None, (1, 3, 4)), (1290, (11, 1290, 0))],
        ids=["walked_row", "mask_row"],
    )
    def test_result_is_a_plain_tuple_the_collector_untracks(self, recolored, expected):
        # Z_5 finds its triple in a walked row; the k = 1 witness of Z_1301
        # recolored at 1290 finds it in row 11, a dense row that takes its
        # x2 from its color's list
        if recolored is None:
            c = Coloring(5, (0, 1, 2, 2, 3))
        else:
            cols = witness_general(1301, 1).colors
            c = Coloring(1301, cols[:recolored] + (1,) + cols[recolored + 1:])
        t = find_rainbow_triple(c, 1)
        kept = (True, t, False)
        gc.collect()
        assert t == expected
        assert type(t) is tuple
        # an exact tuple of ints, and a tuple holding only such values, leave
        # the collector at its first collection; a tuple subclass never does
        assert not gc.is_tracked(t)
        assert not gc.is_tracked(kept)

    def test_two_colorings_never_rainbow(self):
        for k in range(6):
            assert is_rainbow_free(Coloring(6, (0, 1, 0, 1, 1, 0)), k)

    def test_exact_three_coloring_of_z3(self):
        assert not is_rainbow_free(Coloring(3, (0, 1, 2)), 1)


class TestDilate:
    def test_example(self):
        assert dilate(Coloring(5, (0, 1, 2, 2, 1)), 2).colors == (0, 2, 1, 1, 2)

    def test_identity(self):
        c = Coloring(7, (0, 1, 2, 2, 2, 2, 1))
        assert dilate(c, 1) == c

    def test_rejects_non_coprime_factor(self):
        with pytest.raises(InputError):
            dilate(Coloring(6, (0,) * 6), 2)

    def test_preserves_class_sizes(self):
        c = Coloring(7, (0, 1, 2, 0, 1, 2, 0))
        for m in range(1, 7):
            d = dilate(c, m)
            assert sorted(len(s) for s in color_classes(d).values()) == [2, 2, 3]


class TestDominantColors:
    def test_monochromatic_all_dominant(self):
        assert dominant_colors(Coloring(4, (0, 0, 0, 0))) == {0}

    def test_alternating_three_colors_none_dominant(self):
        assert dominant_colors(Coloring(6, (0, 1, 2, 0, 1, 2))) == set()

    def test_two_coloring_both_dominant(self):
        assert dominant_colors(Coloring(4, (0, 1, 1, 0))) == {0, 1}

    def test_rainbow_free_witness(self):
        c = Coloring(5, (0, 1, 2, 2, 1))
        assert c.colors[1] in dominant_colors(c)


class TestResiduePalettes:
    def test_examples(self):
        c = Coloring(6, (0, 1, 2, 0, 1, 2))
        assert residue_palettes(c, 3) == [{0}, {1}, {2}]
        assert residue_palettes(c, 1) == [{0, 1, 2}]

    def test_lift_coloring_palettes(self):
        c = Coloring(10, (1, 3, 4, 4, 3, 2, 3, 4, 4, 3))
        assert residue_palettes(c, 5) == [{1, 2}, {3}, {4}, {4}, {3}]

    def test_rejects_non_divisor(self):
        with pytest.raises(InputError):
            residue_palettes(Coloring(6, (0,) * 6), 4)


class TestCheckSymmetry:
    def test_examples(self):
        assert check_symmetry(Coloring(5, (0, 1, 2, 2, 1)))
        assert not check_symmetry(Coloring(5, (0, 1, 2, 1, 2)))


class TestProjection:
    def test_schur_projection_example(self):
        c = Coloring(10, (1, 3, 4, 4, 3, 2, 3, 4, 4, 3))
        assert project_schur(c, 5).colors == (5, 3, 4, 4, 3)

    def test_constant_coloring_projects_to_sentinel(self):
        c = Coloring(6, (0,) * 6)
        assert project_schur(c, 3).colors == (1, 1, 1)
        assert project_general(c, 3).colors == (1, 1, 1)

    def test_violated_precondition_names_residue_class(self):
        # R_1 mod 2 carries colors {1, 2}, both outside P_0 = {0}
        c = Coloring(4, (0, 1, 0, 2))
        with pytest.raises(InputError, match="residue class 1"):
            project_schur(c, 2)

    def test_general_base_is_largest_palette(self):
        # palettes mod 3: P_0 = {0, 1}, P_1 = {0}, P_2 = {0}; base must be P_0
        c = Coloring(6, (0, 0, 0, 1, 0, 0))
        assert project_general(c, 3).colors == (2, 2, 2)
        # symmetric situation with the large palette at index 1
        c2 = Coloring(6, (0, 0, 0, 0, 1, 0))
        assert project_general(c2, 3).colors == (2, 2, 2)


class TestLMClassifier:
    def test_case1_power_orbit_coloring(self):
        orbit = {1, 3, 9, 12, 10, 4}
        cols = tuple(0 if x == 0 else (1 if x in orbit else 2) for x in range(13))
        result = classify_3coloring_LM(Coloring(13, cols), 3)
        assert result.case is LMCase.CASE1

    def test_case2i_for_k_two(self):
        # Z_17, k=2: A = {1}, B = <2> + 1, C = 3<2> + 1. Both cosets of <2>
        # are symmetric (since -1 is a power of 2 mod 17), so the shifted
        # classes B-1 and C-1 are symmetric and <2>-periodic.
        q = 17
        orbit = {pow(2, i, q) for i in range(q)}
        cols = [0] * q
        for x in range(q):
            if x == 1:
                continue
            cols[x] = 1 if (x - 1) % q in orbit else 2
        c = Coloring(q, tuple(cols))
        assert is_rainbow_free(c, 2)
        assert classify_3coloring_LM(c, 2).case is LMCase.CASE2I

    def test_case3_interval_coloring(self):
        # classes {1,2}, {3,4}, {5,6,0} are chained intervals with start sum
        # 1+3+5 = 9 = 2 (mod 7); no singleton class, so only case 3 can match
        c = Coloring(7, (0, 1, 1, 2, 2, 0, 0))
        assert is_rainbow_free(c, 6)
        result = classify_3coloring_LM(c, 6)
        assert result.case is LMCase.CASE3

    def test_case2ii_for_k_minus_one(self):
        # Z_5, k=4: classes {0,1,2}, {3}, {4}; matched via the dilation
        # sending the singleton to {1}
        c = Coloring(5, (0, 0, 0, 1, 2))
        assert is_rainbow_free(c, 4)
        result = classify_3coloring_LM(c, 4)
        assert result.case is LMCase.CASE2II

    def test_rainbow_coloring_matches_no_case(self):
        c = Coloring(7, (0, 1, 2, 0, 0, 0, 0))
        assert not is_rainbow_free(c, 1)
        assert classify_3coloring_LM(c, 1).case is LMCase.NOT_RAINBOW_FREE_FORM

    def test_rejects_composite_modulus(self):
        with pytest.raises(InputError):
            classify_3coloring_LM(Coloring(6, (0, 1, 2, 0, 1, 2)), 1)

    def test_rejects_wrong_color_count(self):
        with pytest.raises(InputError):
            classify_3coloring_LM(Coloring(5, (0, 1, 0, 1, 0)), 1)

    def test_rejects_zero_coefficient(self):
        with pytest.raises(InputError):
            classify_3coloring_LM(Coloring(5, (0, 1, 2, 2, 1)), 5)

    def test_equivalence_on_z7_all_k(self):
        from conftest import canonical_colorings

        for cols in canonical_colorings(7, num_colors=3):
            c = Coloring(7, cols)
            for k in range(1, 7):
                matched = classify_3coloring_LM(c, k).case is not LMCase.NOT_RAINBOW_FREE_FORM
                assert matched == is_rainbow_free(c, k), (cols, k)


def _lm_outcome(classify, c, k):
    try:
        result = classify(c, k)
    except InputError as exc:
        return "InputError", str(exc)
    return result.case, result.dilation


class TestCheckingMatchesReference:
    """The LM classifier and the rainbow scan against the plain references
    in conftest: the same (case, dilation) or InputError message, and the
    same triple."""

    @staticmethod
    def assert_same_classification(c, k):
        from conftest import reference_classify_LM

        got = _lm_outcome(classify_3coloring_LM, c, k)
        assert got == _lm_outcome(reference_classify_LM, c, k), (c.colors, k)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_every_4_label_coloring(self, q):
        for cols in itertools.product(range(4), repeat=q):
            c = Coloring(q, cols)
            for k in range(q + 2):
                self.assert_same_classification(c, k)

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19])
    def test_every_rainbow_free_3_coloring(self, q):
        for k in range(q):
            for c in iter_rainbow_free_colorings(CyclicInstance(q, k), 3, 3):
                self.assert_same_classification(c, k)

    @pytest.mark.parametrize("q", [13, 17, 19, 23])
    def test_random_colorings(self, q):
        rng = random.Random(q)
        for _ in range(5000):
            c = Coloring(q, tuple(rng.randrange(3) for _ in range(q)))
            for k in (1, 2, -1, rng.randrange(q)):
                self.assert_same_classification(c, k)

    def test_every_exact_3_coloring_of_z11(self):
        # the benchmark's modulus: singleton classes (k = 2), progressions
        # (k = -1) and the general path
        from conftest import canonical_colorings

        for cols in canonical_colorings(11, num_colors=3):
            c = Coloring(11, cols)
            for k in (1, 2, 3, 10):
                self.assert_same_classification(c, k)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_scan_returns_the_reference_triple(self, n):
        # every coloring with at most 3 colors, up to relabeling, which
        # leaves the rainbow triples unchanged
        from conftest import canonical_colorings, reference_pair_scan, reference_rainbow_triple

        for cols in canonical_colorings(n):
            if max(cols) > 2:
                continue
            c = Coloring(n, cols)
            for k in range(n):
                expected = reference_rainbow_triple(c, k)
                assert find_rainbow_triple(c, k) == expected, (cols, k)
                assert reference_pair_scan(c, k) == expected, (cols, k)


def _witnesses():
    """(witness_general(n, k), k) for n <= 200 and k in {1, 3, 5, n}, where
    a construction exists."""
    out = []
    for n in range(2, 201):
        for k in (1, 3, 5, n):
            try:
                out.append((witness_general(n, k), k))
            except (InputError, UnsupportedCaseError):
                pass
    return out


def _random_colors(rng, n):
    # non-contiguous ids, some above 255
    ids = rng.sample(range(300 if rng.random() < 0.2 else 40), rng.randrange(2, 7))
    # a dominant color makes rainbow triples rare, so the scan reaches its
    # dense rows, which take their x2 from a list
    dominant = rng.choice((0.0, 0.9, 0.97))
    return tuple(ids[0] if rng.random() < dominant else rng.choice(ids) for _ in range(n))


class TestScanMatchesPairWalk:
    """The scan against conftest.reference_pair_scan on colorings long
    enough (n >= 64) that the scan counts their colors, so that any row may
    be skipped or take its x2 from a list of the other colors' positions,
    and on both sides of n = 64, where the scan switches from walking the
    cached triple list to its row loop."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_colorings(self, seed):
        from conftest import reference_pair_scan

        rng = random.Random(seed)
        for _ in range(100):
            n = rng.randrange(20, 151)
            cols = _random_colors(rng, n)
            c = Coloring(n, cols)
            p = next(d for d in range(2, n + 1) if n % d == 0)
            for k in (0, 1, n - 1, p * rng.randrange(1, 4), rng.randrange(n)):
                assert find_rainbow_triple(c, k) == reference_pair_scan(c, k), (cols, k)
        # every k, so every gcd shape and every k mod n the triple lists are
        # cached by, on seeded colorings and on each witness of Z_n with one
        # position recolored
        for n in (63, 64):
            scanned = [_random_colors(rng, n) for _ in range(4)]
            for k in range(n):
                try:
                    cols = list(witness_general(n, k).colors)
                except (InputError, UnsupportedCaseError):
                    continue
                x = rng.randrange(n)
                cols[x] = rng.choice(sorted(set(cols) - {cols[x]}) + [max(cols) + 1])
                scanned.append(tuple(cols))
            for cols in scanned:
                c = Coloring(n, cols)
                for k in range(n):
                    assert find_rainbow_triple(c, k) == reference_pair_scan(c, k), (cols, k)

    @pytest.mark.parametrize("hole", (2, 3))
    def test_colorings_with_two_dense_colors(self, hole, monkeypatch):
        # 0 alone in color 2, color 1 on +-[1, 9] except +-hole, color 0
        # elsewhere: a pair that sums to 0 is x, -x, of one color, so for
        # k = +-1 no triple through 0 is rainbow and the scan runs to its
        # end. Color 0 fills 7/8 of the positions after row `hole`, and
        # color 1 those after row n - 9 (all but n - hole), so the scan
        # builds one list for each, at those rows
        from conftest import reference_pair_scan

        built = []

        def islice(*args):
            built.append(args[1])
            return itertools.islice(*args)

        monkeypatch.setattr("rainbow_lab.coloring.islice", islice)
        rng = random.Random(hole)
        for n in (131, 160, 199, 200):
            cols = [0] * n
            cols[0] = 2
            for x in range(1, 10):
                if x != hole:
                    cols[x] = cols[n - x] = 1
            c = Coloring(n, tuple(cols))
            p = next(d for d in range(2, n + 1) if n % d == 0)
            for k in (0, 1, n - 1, p * rng.randrange(1, 4), rng.randrange(n)):
                built.clear()
                assert find_rainbow_triple(c, k) == reference_pair_scan(c, k), (n, k)
                if k in (1, n - 1):
                    assert built == [hole + 1, n - 8], (n, k)

    def test_witnesses_are_rainbow_free(self):
        for w, k in _witnesses():
            assert find_rainbow_triple(w, k) is None, (w.n, k)

    def test_witnesses_with_a_late_position_recolored(self):
        from conftest import reference_pair_scan

        rng = random.Random(7)
        for w, k in _witnesses():
            cols = list(w.colors)
            x = w.n - 1 - rng.randrange(min(w.n, 8))
            cols[x] = rng.choice(sorted(set(cols) - {cols[x]}) + [max(cols) + 1])
            c = Coloring(w.n, tuple(cols))
            assert find_rainbow_triple(c, k) == reference_pair_scan(c, k), (w.n, k, x)


class TestScanMemory:
    """The scan holds O(n) memory: lists of the other colors' positions
    for only the colors that fill 7/8 of a row, at most 7n/48 positions in
    all, and one count per color. Each scan allocates under 64 KiB: a full
    scan of the 3-color k = 1 witness of Z_1301, whose dense rows take
    their x2 from a list, and scans of two 250-color colorings of Z_4001
    that find their rainbow triple in row 2; a list of the other colors'
    positions for each of their colors would take megabytes. With k = 1
    (g = gcd(k, n) = 1) the scan counts the colors before row 0; with k = 0
    (g = n) a walked row visits one x2, so every row is walked and no
    counts are taken. For n < 64 the scan walks a cached triple list
    instead, and the cache holds at most 64 lists, 9.0 MB at n = 63."""

    @staticmethod
    def peak(c, k):
        """The scan's result and its tracemalloc peak, the solutions table
        cached by a first scan."""
        find_rainbow_triple(c, k)
        tracemalloc.start()
        try:
            found = find_rainbow_triple(c, k)
            return found, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_full_scan_of_a_witness(self):
        found, peak = self.peak(witness_general(1301, 1), 1)
        assert found is None
        assert peak < 64 * 1024, peak

    def test_scan_of_a_many_colored_coloring(self):
        # c(x) = c(-x) is rainbow-free for k = 0 (x2 = -x1); breaking that
        # at x = 2 gives the least rainbow triple (2, n - 2, 0)
        n = 4001
        cols = [min(x, n - x) % 250 for x in range(n)]
        cols[n - 2] = 249
        found, peak = self.peak(Coloring(n, tuple(cols)), 0)
        assert found == (2, n - 2, 0)
        assert peak < 64 * 1024, peak

    def test_scan_of_a_many_colored_coloring_with_counts(self):
        # blocks of 15 positions per color 1..249, each followed by a 0:
        # c(x + 1) is c(x) or c(1) = 0, so rows 0 and 1 (x3 = x2 and
        # x3 = x2 + 1) close no rainbow triple; row 2 closes (2, 17, 19)
        n = 4001
        cols = [0, 0]
        for color in range(1, 250):
            cols += [color] * 15 + [0]
        cols += [0] * (n - len(cols))
        found, peak = self.peak(Coloring(n, tuple(cols)), 1)
        assert found == (2, 17, 19)
        assert peak < 64 * 1024, peak

    def test_triple_lists_stay_bounded(self):
        # one list per (n, k mod n) with n < 64 is about 2,000 lists, about
        # 140 MB if every one were kept
        tracemalloc.start()
        try:
            for n in range(1, 64):
                c = Coloring(n, (0,) * n)
                for k in range(n):
                    assert find_rainbow_triple(c, k) is None
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 12 * 1024 * 1024, held


class TestScanTime:
    """A long coloring with at most two colors ends its scan at the color
    count: a rainbow triple needs three colors."""

    def test_two_colored_long_coloring_is_not_walked(self):
        # walked pair by pair, the rows of this alternating coloring visit
        # about n^2/2 pairs, which takes seconds at n = 10007
        n = 10007
        c = Coloring(n, tuple(x % 2 for x in range(n)))
        start = time.monotonic()
        found = find_rainbow_triple(c, 1)
        elapsed = time.monotonic() - start
        assert found is None
        assert elapsed < 0.5, f"the scan took {elapsed:.2f} s"
