"""Closed-form rainbow numbers, composed exactly as the theorems prescribe.

Two public entry points: rb_general, the recursion for rb(Z_n, p) over the
prime factorization of n, and rb_formula, the one place that decides which
(n, k) have a closed form; its docstring states the rule. The recursion's
two base cases are private helpers: _rb_q, rb(Z_q, p) for a prime modulus
q via the multiplicative order of p (rb(Z_q, p) is rb_general(q, p)), and
_rb_prime_power, rb(Z_{p^a}, p) for a prime p. k = 1 is the unit case of
the recursion: 1 has order 1 in every Z_q^*, so rb(Z_q, 1) is 3 for q in
{2, 3} and 4 otherwise, no prime factor equals 1, and the recursion
becomes the Schur factorization formula 2 + sum of alpha_i *
(rb(Z_{q_i}, 1) - 2). This module reads no file and never runs the
search: the oracle checks these values, it does not supply them.
"""
from __future__ import annotations

from .errors import UnsupportedCaseError
from .modcore import CyclicInstance, is_prime, multiplicative_order, split_coefficient
from .results import Method, RbResult


def _rb_q(q: int, p: int) -> int:
    """rb(Z_q, p) for a prime q and p = 1 or a prime other than q: 3 iff p
    generates Z_q^* or the order of p is (q-1)/2 with (q-1)/2 odd; otherwise 4."""
    order = multiplicative_order(p % q, q)  # the conditions live in Z_q^*
    half = (q - 1) // 2
    return 3 if order == q - 1 or (order == half and half % 2 == 1) else 4


def _rb_prime_power(p: int, alpha: int) -> int:
    """rb(Z_{p^alpha}, p) for a prime p and alpha >= 1: 4 for p = 3 with
    alpha >= 2, else p // 2 + 2. That is 3 for p = 2 and for (3, 1), and
    (p+1)/2 + 1 for p >= 5.

    p = 2 (aw(Z_{2^m}, 3) = 3 of Jungic et al., Combin. Probab. Comput. 12,
    2003): every triple of x1 + x2 = 2*x3 is a progression (z-d, z+d, z), and
    a 2-coloring has no rainbow triple, so rb >= 3. For rb <= 3 induct on
    alpha; Z_2 has two elements. The evens and the odds each satisfy
    y1 + y2 = 2*y3 mod 2^(alpha-1), so each carries at most 2 colors, sets A
    and B. If z is even with a color outside B, then c(z-d) = c(z+d) for odd
    d, so the odds' coloring is invariant under x -> 2z - x; two such
    reflections compose to a translation by twice their difference. If A
    and B are disjoint, the odds are invariant under the reflections about
    every even z, hence under translation by 4 and under x -> -x, which
    swaps 1 and 3 mod 4: one color, and by symmetry one on the evens. Else
    3 colors need A = {a, s} and B = {b, s}. The a-positions z are closed
    under the reflections about the b-positions w, so the odds are
    invariant under translation by 2(z - (2w - z)) = 4(z-w) with z-w odd,
    that is by 4; the reflection about z swaps z+1 and z-1, the two odd
    classes mod 4, so the odds have one color, against B = {b, s}.
    """
    return 4 if p == 3 and alpha >= 2 else p // 2 + 2


def rb_general(n: int, p: int) -> RbResult:
    """rb(Z_n, p) for p = 1 or prime p via the recursion over
    n = p^alpha * prod q_i^{alpha_i}:

    rb(Z_{p^alpha}, p) + sum of alpha_i * (rb(Z_{q_i}, p) - 2), with the
    alpha = 0 base taken as 2. For p = 1, alpha is always 0.
    """
    alpha, rest = split_coefficient(n, p)
    value = base = _rb_prime_power(p, alpha) if alpha else 2
    terms = []
    for q, exp in rest:
        rb_q = _rb_q(q, p)
        contribution = exp * (rb_q - 2)
        value += contribution
        terms.append({"q": q, "alpha": exp, "rb_q": rb_q, "contribution": contribution})
    return RbResult(
        value=value,
        method=Method.GENERAL_RECURSION,
        detail={"p": p, "alpha": alpha, "base": base, "terms": terms},
    )


def rb_schur(n: int) -> RbResult:
    """rb(Z_n, 1), the Schur case, under the name perfbench/make_reference.py imports."""
    return rb_general(n, 1)


def rb_formula(n: int, k: int) -> RbResult:
    """rb(Z_n, k) from the closed forms, the one place that decides which
    (n, k) have one. The rule: rb_general(n, k mod n) when k mod n is 1 or
    a prime, and rb_general(n, n) when k = 0 mod a prime n (the paper's
    k = p on Z_p). Any other (n, k) raises UnsupportedCaseError;
    detail["p"] names the coefficient the recursion used."""
    k_red = CyclicInstance(n, k).k
    if k_red == 1 or is_prime(k_red):
        return rb_general(n, k_red)
    if k_red == 0 and is_prime(n):
        return rb_general(n, n)
    raise UnsupportedCaseError(
        f"no closed form for (n={n}, k={k}): the formulas cover k = 1 mod n, "
        "prime k mod n, and k = 0 mod a prime n only"
    )
