import pytest

from conftest import check_symmetry, color_classes
from rainbow_lab import coloring, constructions
from rainbow_lab.coloring import Coloring, is_rainbow_free
from rainbow_lab.constructions import lift_general, witness_general
from rainbow_lab.errors import ConstructionError, InputError, UnsupportedCaseError
from rainbow_lab.formulas import rb_general
from rainbow_lab.modcore import CyclicInstance, is_prime, prime_factorize
from rainbow_lab.search import SearchConfig, iter_rainbow_free_colorings, rb_oracle


class TestWitnessSchurPrime:
    """The k = 1 prime witness is witness_general on a prime modulus."""

    def test_explicit_forms(self):
        assert witness_general(5, 1).colors == (0, 1, 2, 2, 1)
        assert witness_general(7, 1).colors == (0, 1, 2, 2, 2, 2, 1)

    def test_color_count_matches_formula(self):
        for p in (5, 7, 11, 13):
            assert witness_general(p, 1).num_colors() == rb_general(p, 1).value - 1


class TestLiftSchur:
    """The k = 1 lift is lift_general with the unit coefficient."""

    def test_examples(self):
        base = Coloring(2, (0, 1))
        assert lift_general(base, 5, 1).colors == (0, 2, 3, 3, 2, 1, 2, 3, 3, 2)
        assert lift_general(base, 2, 1).colors == (0, 2, 1, 2)
        assert lift_general(base, 3, 1).colors == (0, 2, 2, 1, 2, 2)

    def test_rejects_rainbow_base(self):
        with pytest.raises(InputError):
            lift_general(Coloring(5, (0, 1, 2, 2, 3)), 2, 1)

    def test_preserves_rainbow_freeness_over_all_small_bases(self):
        # every rainbow-free base of Z_t, t <= 6 (not only the canonical ones)
        for t in range(2, 7):
            bases = list(iter_rainbow_free_colorings(CyclicInstance(t, 1), min_r=1))
            assert bases
            for base in bases:
                for q in (2, 3, 5):
                    lifted = lift_general(base, q, 1)  # self-verifying
                    added = 1 if q in (2, 3) else 2
                    assert lifted.num_colors() == base.num_colors() + added


class TestWitnessSchur:
    """The k = 1 witness is witness_general with the unit coefficient."""

    @pytest.mark.parametrize("n", range(2, 25))
    def test_color_count_matches_formula(self, n):
        w = witness_general(n, 1)
        assert is_rainbow_free(w, 1)
        assert w.num_colors() == rb_general(n, 1).value - 1

    def test_rejects_n_below_two(self):
        with pytest.raises(InputError):
            witness_general(1, 1)


class TestWitnessKEqualsP:
    """The maximum coloring of Z_p for k = p is witness_general(p, p)."""

    def test_explicit_forms(self):
        assert witness_general(5, 5).colors == (0, 1, 2, 2, 1)
        assert witness_general(7, 7).colors == (0, 1, 2, 3, 3, 2, 1)
        assert witness_general(3, 3).colors == (0, 1, 1)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_count_and_symmetry(self, p):
        w = witness_general(p, p)
        assert w.num_colors() == (p + 1) // 2
        assert check_symmetry(w)
        assert is_rainbow_free(w, p)

    def test_rejects_two(self):
        with pytest.raises(UnsupportedCaseError):
            witness_general(2, 2)


class TestWitnessQP:
    """witness_general on a prime modulus q other than p: {0}, {±p^i}, the rest."""

    def test_power_orbit_classes(self):
        w = witness_general(13, 3)
        classes = color_classes(w)
        assert classes[0] == {0}
        assert classes[1] == {1, 3, 4, 9, 10, 12}
        assert classes[2] == {2, 5, 6, 7, 8, 11}

    def test_color_counts_for_rb4_pairs(self):
        pairs = [
            (q, p)
            for p in (2, 3, 5, 7, 11, 13, 17)
            for q in (3, 5, 7, 11, 13, 17)
            if p != q and rb_general(q, p).value == 4
        ]
        assert (13, 3) in pairs and (17, 2) in pairs
        for q, p in pairs:
            w = witness_general(q, p)
            assert w.num_colors() == 3
            assert is_rainbow_free(w, p)


class TestMaxColoringQSymmetric:
    """The maximum coloring of Z_q for k = p, q prime and p not q, is symmetric
    with {0} a class."""

    def test_rb3_pair_gives_two_coloring(self):
        assert witness_general(7, 3).colors == (0,) + (1,) * 6

    def test_symmetric_with_zero_singleton(self):
        # the witness reads the +-orbit of p, the formula the order of p: two
        # derivations of rb(Z_q, p) that must agree
        primes = [x for x in range(2, 100) if is_prime(x)]
        for q in primes:
            for p in [1] + [x for x in primes if x < 30 and x != q]:
                c = witness_general(q, p)
                assert c.num_colors() == rb_general(q, p).value - 1, (q, p)
                assert check_symmetry(c), (q, p)
                assert color_classes(c)[c.colors[0]] == {0}, (q, p)
                assert is_rainbow_free(c, p), (q, p)


class TestWitnessPrimePower:
    def test_color_counts(self):
        expected = {(3, 1): 2, (3, 2): 3, (3, 3): 3, (5, 1): 3, (5, 2): 3, (7, 1): 4}
        for (p, alpha), colors in expected.items():
            w = witness_general(p**alpha, p)
            assert w.n == p**alpha
            assert w.num_colors() == colors
            assert is_rainbow_free(w, p)

    def test_z27_repeats_z9_pattern(self):
        w27 = witness_general(3**3, 3)
        w9 = witness_general(3**2, 3)
        assert w27.colors == tuple(w9.colors[x % 9] for x in range(27))

    def test_p_two_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            witness_general(2**2, 2)


class TestZ9Certificate:
    def test_cached_witness_matches_regeneration(self):
        # the built-in Z_9 constant is the oracle's lex-least maximum coloring
        cached = witness_general(3**2, 3)
        assert cached.num_colors() == 3
        assert is_rainbow_free(cached, 3)
        regenerated = rb_oracle(CyclicInstance(9, 3), SearchConfig(time_budget=60.0))
        assert regenerated.conclusive
        assert cached == regenerated.witness


class TestLiftGeneral:
    def test_examples(self):
        base = Coloring(3, (0, 1, 1))
        z21 = lift_general(base, 7, 3)
        assert z21.n == 21 and z21.num_colors() == 3
        z39 = lift_general(base, 13, 3)
        assert z39.n == 39 and z39.num_colors() == 4

    def test_rejects_rainbow_base(self):
        with pytest.raises(InputError):
            lift_general(Coloring(5, (0, 1, 2, 2, 3)), 7, 3)

    def test_rejects_q_equal_p(self):
        with pytest.raises(InputError):
            lift_general(Coloring(3, (0, 1, 1)), 3, 3)

    def test_fresh_colors_avoid_base_ids(self):
        # a base whose ids are not 0..r-1 keeps its classes apart from the
        # lifted ones: {0, 2} must not absorb a fresh color
        lifted = lift_general(Coloring(2, (0, 2)), 5, 1)
        assert lifted.num_colors() == 4
        assert is_rainbow_free(lifted, 1)

    @pytest.mark.parametrize("p", (0, 4, 9))
    def test_rejects_p_neither_one_nor_prime(self, p):
        with pytest.raises(InputError, match="neither 1 nor prime"):
            lift_general(Coloring(1, (0,)), 5, p)
        with pytest.raises(InputError, match="neither 1 nor prime"):
            witness_general(10, p)
        # a composite p whose prime factors all divide n
        with pytest.raises(InputError, match="neither 1 nor prime"):
            witness_general(36, 6)

    def test_preserves_rainbow_freeness_over_all_small_bases(self):
        # every rainbow-free base of Z_t, t <= 6 (not only the canonical ones)
        for p, qs in ((3, (2, 5, 7)), (5, (2, 3, 7))):
            for t in range(2, 7):
                bases = list(iter_rainbow_free_colorings(CyclicInstance(t, p), min_r=1))
                assert bases
                for base in bases:
                    for q in qs:
                        lifted = lift_general(base, q, p)  # self-verifying
                        added = rb_general(q, p).value - 2
                        assert lifted.num_colors() == base.num_colors() + added


class TestWitnessGeneral:
    def test_examples(self):
        assert witness_general(15, 3).num_colors() == 3
        assert witness_general(45, 3).num_colors() == 4
        w5 = witness_general(5, 5)
        assert witness_general(25, 5).colors == tuple(w5.colors[x % 5] for x in range(25))
        assert witness_general(5, 3).num_colors() == 2

    @pytest.mark.parametrize("p", (3, 5))
    def test_color_count_matches_formula_up_to_45(self, p):
        for n in range(2, 46):
            w = witness_general(n, p)
            assert is_rainbow_free(w, p)
            assert w.num_colors() == rb_general(n, p).value - 1, (n, p)

    def test_p_two_unsupported_when_two_divides_n(self):
        with pytest.raises(UnsupportedCaseError):
            witness_general(8, 2)

    @pytest.mark.parametrize("p", (1, 3, 5, 7))
    def test_matches_the_chain_of_public_lifts(self, p):
        # the reference chain: the prime-power witness or Z_1, then
        # lift_general over the other prime factors in increasing order
        for n in range(2, 65):
            factors = prime_factorize(n)
            alpha = dict(factors).get(p, 0)
            c = witness_general(p**alpha, p) if alpha else Coloring(1, (0,))
            for q, exp in factors:
                if q != p:
                    for _ in range(exp):
                        c = lift_general(c, q, p)
            assert witness_general(n, p) == c, (n, p)


def _count_scans(monkeypatch):
    calls = []
    real = coloring.find_rainbow_triple

    def counted(c, k):
        calls.append(c.n)
        return real(c, k)

    monkeypatch.setattr(coloring, "find_rainbow_triple", counted)
    return calls


class TestOneScan:
    @pytest.mark.parametrize("n, p", [(32, 1), (45, 1), (45, 3), (1009, 1)])
    def test_witness_general_scans_once(self, monkeypatch, n, p):
        calls = _count_scans(monkeypatch)
        witness_general(n, p)
        assert calls == [n]

    def test_lift_general_scans_base_and_result(self, monkeypatch):
        calls = _count_scans(monkeypatch)
        lift_general(Coloring(3, (0, 1, 1)), 7, 3)
        assert calls == [3, 21]


class TestConstructionError:
    """A builder that produces a rainbow coloring raises ConstructionError."""

    @pytest.fixture(autouse=True)
    def rainbow_pattern(self, monkeypatch):
        monkeypatch.setattr(constructions, "_q_pattern", lambda q, p: list(range(q)))

    def test_witness_general(self):
        with pytest.raises(ConstructionError, match="rainbow triple"):
            witness_general(13, 1)

    def test_lift_general(self):
        with pytest.raises(ConstructionError, match="rainbow triple"):
            lift_general(Coloring(1, (0,)), 13, 1)
