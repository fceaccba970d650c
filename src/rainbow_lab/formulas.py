"""Closed-form rainbow numbers, composed exactly as the theorems prescribe.

Two public entry points: rb_general, the recursion for rb(Z_n, p) over the
prime factorization of n, and rb_formula, the one place that decides which
(n, k) have a closed form: k mod n equal to 1 or a prime, or 0 with n prime
(the paper's k = p on Z_p). The recursion's two base cases are private
helpers: _rb_q, rb(Z_q, p) for a prime modulus q via the multiplicative
order of p (rb(Z_q, p) is rb_general(q, p)), and _rb_prime_power,
rb(Z_{p^a}, p) for a prime p. k = 1 is the unit case of the recursion:
1 has order 1 in every Z_q^*, so rb(Z_q, 1) is 3 for q in {2, 3} and 4
otherwise, no prime factor equals 1, and the recursion becomes the Schur
factorization formula 2 + sum of alpha_i * (rb(Z_{q_i}, 1) - 2). The k = 2
power-of-two base rb(Z_{2^a}, 2) has no closed form: for a <= 5 it is a
built-in value the exhaustive oracle certifies, and for larger a
rb_general raises UnsupportedCaseError. This module reads no file and
never runs the search: the oracle checks these values, it does not supply
them.
"""
from __future__ import annotations

from .errors import InputError, UnsupportedCaseError
from .modcore import CyclicInstance, is_prime, multiplicative_order, prime_factorize
from .results import Method, RbResult

# rb(Z_{2^a}, 2) for a = 1..5, the values the exhaustive oracle gives (a = 5
# in 0.06 s, 14K nodes; tests/test_formulas.py re-derives every entry).
_TWO_POWER_RB = {1: 3, 2: 3, 3: 3, 4: 3, 5: 3}


def _rb_q(q: int, p: int) -> int:
    """rb(Z_q, p) for a prime q and p = 1 or a prime other than q: 3 iff p
    generates Z_q^* or the order of p is (q-1)/2 with (q-1)/2 odd; otherwise 4."""
    order = multiplicative_order(p % q, q)  # the conditions live in Z_q^*
    half = (q - 1) // 2
    return 3 if order == q - 1 or (order == half and half % 2 == 1) else 4


def _rb_prime_power(p: int, alpha: int) -> int:
    """rb(Z_{p^alpha}, p) for a prime p and alpha >= 1.

    3 for (p, alpha) = (3, 1); 4 for p = 3, alpha >= 2; (p+1)/2 + 1 for
    p >= 5. For p = 2 the built-in oracle-certified value for alpha <= 5;
    a larger alpha raises UnsupportedCaseError.
    """
    if p == 2:
        if alpha not in _TWO_POWER_RB:
            raise UnsupportedCaseError(
                f"no closed form for rb(Z_{{2^{alpha}}}, 2): it is known only "
                f"for exponents up to {max(_TWO_POWER_RB)}"
            )
        return _TWO_POWER_RB[alpha]
    if p == 3:
        return 3 if alpha == 1 else 4
    return (p + 1) // 2 + 1


def rb_general(n: int, p: int) -> RbResult:
    """rb(Z_n, p) for p = 1 or prime p via the recursion over
    n = p^alpha * prod q_i^{alpha_i}:

    rb(Z_{p^alpha}, p) + sum of alpha_i * (rb(Z_{q_i}, p) - 2), with the
    alpha = 0 base taken as 2. For p = 1, alpha is always 0. For p = 2 and
    alpha >= 6 the base has no closed form and this raises
    UnsupportedCaseError.
    """
    if not (p == 1 or is_prime(p)):
        raise InputError(f"coefficient {p} is neither 1 nor prime")
    if n < 2:
        raise InputError(f"rb(Z_n, p) formula requires n >= 2, got {n}")
    alpha = 0
    terms = []
    value = 0
    for prime, exp in prime_factorize(n):
        if prime == p:
            alpha = exp
        else:
            rb_q = _rb_q(prime, p)
            contribution = exp * (rb_q - 2)
            value += contribution
            terms.append(
                {"q": prime, "alpha": exp, "rb_q": rb_q, "contribution": contribution}
            )
    base = _rb_prime_power(p, alpha) if alpha else 2
    return RbResult(
        value=base + value,
        method=Method.GENERAL_RECURSION,
        detail={"p": p, "alpha": alpha, "base": base, "terms": terms},
    )


def rb_schur(n: int) -> RbResult:
    """rb(Z_n, 1), the Schur case, under the name perfbench/make_reference.py imports."""
    return rb_general(n, 1)


def rb_formula(n: int, k: int) -> RbResult:
    """rb(Z_n, k) from the closed forms, the one place that decides which
    (n, k) have one: rb_general(n, k mod n) when k mod n is 1 or a prime,
    and rb_general(n, n) when k = 0 mod a prime n. Any other coefficient,
    and k = 2 with 2^6 | n, raises UnsupportedCaseError; detail["p"] names
    the coefficient the recursion used."""
    k_red = CyclicInstance(n, k).k
    if k_red == 1 or is_prime(k_red):
        return rb_general(n, k_red)
    if k_red == 0 and is_prime(n):
        return rb_general(n, n)
    raise UnsupportedCaseError(
        f"no closed form for (n={n}, k={k}): the formulas cover k = 1 mod n, "
        "prime k mod n, and k = 0 mod a prime n only"
    )
