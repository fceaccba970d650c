import pytest

from rainbow_lab.errors import InputError, UnsupportedCaseError
from rainbow_lab.formulas import rb_formula, rb_general, rb_schur
from rainbow_lab.modcore import CyclicInstance
from rainbow_lab.results import Method
from rainbow_lab.search import rb_oracle


class TestRbSchurPrime:
    """rb(Z_q, 1) is rb_general on a prime modulus with the unit coefficient."""

    def test_values(self):
        assert rb_general(2, 1).value == 3
        assert rb_general(3, 1).value == 3
        assert rb_general(5, 1).value == 4
        assert rb_general(13, 1).value == 4


class TestRbSchur:
    """rb(Z_n, 1) is rb_general with the unit coefficient."""

    def test_values(self):
        assert rb_general(12, 1).value == 5  # 2 + 2*1 + 1*1 over 2^2 * 3
        assert rb_general(5, 1).value == 4
        assert rb_general(8, 1).value == 5  # 2 + 3*1

    def test_detail_breakdown(self):
        result = rb_general(12, 1)
        assert result.method is Method.GENERAL_RECURSION
        assert result.detail["base"] == 2
        terms = [(t["q"], t["alpha"], t["rb_q"], t["contribution"]) for t in result.detail["terms"]]
        assert terms == [(2, 2, 3, 2), (3, 1, 3, 1)]

    def test_rejects_n_below_two(self):
        with pytest.raises(InputError):
            rb_general(1, 1)
        with pytest.raises(InputError):
            rb_schur(1)

    def test_multiplicative_recursion_met_with_equality(self):
        for m in range(2, 13):
            for t in range(2, 13):
                assert (
                    rb_general(m * t, 1).value
                    == rb_general(m, 1).value + rb_general(t, 1).value - 2
                )

    def test_rb_schur_is_the_unit_case(self):
        for n in range(2, 40):
            assert rb_schur(n) == rb_general(n, 1)


class TestRbQP:
    def test_values(self):
        assert rb_general(7, 3).value == 3  # 3 generates Z_7^*
        assert rb_general(7, 2).value == 3  # order 3 = (7-1)/2, odd
        assert rb_general(13, 3).value == 4  # order 3, neither condition

    def test_coefficient_reduced_mod_q(self):
        # 23 = 2 (mod 7), so the conditions are those of p = 2
        assert rb_general(7, 23).value == rb_general(7, 2).value == 3


class TestRbPrimePower:
    def test_values(self):
        assert rb_general(3, 3).value == 3
        assert rb_general(3**2, 3).value == 4
        assert rb_general(3**5, 3).value == 4
        assert rb_general(5, 5).value == 4  # (5+1)/2 + 1
        assert rb_general(5**2, 5).value == 4
        assert rb_general(7, 7).value == 5

    def test_p_two_base_is_built_in(self):
        # one value for every exponent
        for a in range(1, 13):
            result = rb_general(2**a, 2)
            assert result.value == 3
            assert result.detail == {"p": 2, "alpha": a, "base": 3, "terms": []}

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            rb_general(9, 9)
        with pytest.raises(InputError):
            rb_general(1, 5)


class TestRbGeneral:
    def test_values(self):
        assert rb_general(15, 3).value == 4  # rb(Z_3,3) + (rb(Z_5,3) - 2) = 3 + 1
        assert rb_general(5, 3).value == 3  # alpha = 0 convention: 2 + 1
        assert rb_general(45, 3).value == 5  # 4 + 1

    def test_detail_breakdown(self):
        result = rb_general(45, 3)
        assert result.detail["alpha"] == 2
        assert result.detail["base"] == 4
        assert [(t["q"], t["contribution"]) for t in result.detail["terms"]] == [(5, 1)]

    @pytest.mark.parametrize("a", range(1, 6))
    def test_p_two_table_matches_oracle(self, a):
        # rb(Z_{2^a}, 2) = 3, re-derived by exhaustive search for a <= 5
        res = rb_oracle(CyclicInstance(2**a, 2))
        assert res.conclusive
        assert rb_general(2**a, 2).value == res.value

    def test_p_two_large_exponent_is_closed(self):
        # 2^6 and past have the same base 3, for any odd part
        assert rb_general(64, 2).value == 3
        assert rb_formula(192, 2).value == 4  # 3 + (rb(Z_3, 2) - 2)

    def test_rejects_composite_coefficient(self):
        with pytest.raises(InputError):
            rb_general(10, 4)


class TestRbFormula:
    def test_dispatch_on_reduced_coefficient(self):
        assert rb_formula(7, 8) == rb_general(7, 1)  # 8 = 1 (mod 7)
        assert rb_formula(10, 13).value == rb_general(10, 3).value  # 13 = 3

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    def test_k_zero_mod_prime_n_matches_oracle(self, p):
        # the paper's k = p on Z_p, reached through k = p and k = 2p
        res = rb_oracle(CyclicInstance(p, p))
        assert res.conclusive
        assert rb_formula(p, p).value == rb_formula(p, 2 * p).value == res.value

    def test_other_coefficients_unsupported(self):
        for n, k in ((7, 4), (6, 0), (1, 1), (10, 9)):
            with pytest.raises(UnsupportedCaseError):
                rb_formula(n, k)

