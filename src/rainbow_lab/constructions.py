"""Deterministic builders for the lower-bound witness colorings.

Every builder verifies its output rainbow-free before returning and raises
ConstructionError instead of handing back an unverified coloring. Witness
color counts always equal the matching closed-form rainbow number minus one.

k = 1 is the unit case of the prime-k builders: the +-orbit of 1 in Z_q^* is
{1, q - 1}, so witness_q_p(q, 1) is the Schur 3-coloring {0}, {1, q - 1},
the rest, and witness_general(n, 1) lifts it over the prime factors of n.
"""
from __future__ import annotations

from .coloring import Coloring, check_symmetry, is_rainbow_free
from .errors import ConstructionError, InputError, UnsupportedCaseError
from .formulas import rb_q_p
from .modcore import is_prime, prime_factorize

# The exhaustive oracle's lex-least maximum coloring of Z_9 for k = 3;
# tests/test_constructions.py re-derives it.
_Z9_WITNESS = (0, 1, 1, 0, 2, 2, 0, 1, 1)


def _verified(colors: list[int], n: int, k: int, what: str) -> Coloring:
    c = Coloring(n, tuple(colors))
    if not is_rainbow_free(c, k):
        raise ConstructionError(f"{what} produced a coloring with a rainbow triple")
    return c


def _pm_power_orbit(q: int, p: int) -> set[int]:
    """{p^i, -p^i mod q : i in Z} inside Z_q^*."""
    orbit = set()
    x = 1
    while x not in orbit:
        orbit.add(x)
        orbit.add((q - x) % q)
        x = (x * p) % q
    return orbit


def _q_pattern(q: int, p: int, rb: int) -> list[int]:
    """Colors of the symmetric maximum coloring of Z_q for k=p, given
    rb = rb(Z_q, p), unverified: {0}, {±p^i}, the rest of Z_q^* when rb = 4,
    else {0}, Z_q^*."""
    if rb != 4:
        return [0] + [1] * (q - 1)
    orbit = _pm_power_orbit(q, p)
    return [0 if x == 0 else (1 if x in orbit else 2) for x in range(q)]


def witness_q_p(q: int, p: int) -> Coloring:
    """The 3-coloring {0}, {±p^i}, rest of Z_q^* for the rb(Z_q, p) = 4 pairs,
    p = 1 or a prime other than q."""
    result = rb_q_p(q, p)
    if result.value != 4:
        which = (
            "p generates Z_q^*"
            if result.detail["generates_full_group"]
            else "the order of p is (q-1)/2 with (q-1)/2 odd"
        )
        raise InputError(
            f"no rainbow-free 3-coloring of Z_{q} for k={p}: {which}"
        )
    return _verified(_q_pattern(q, p, 4), q, p, f"witness_q_p({q}, {p})")


def witness_prime_power(p: int, alpha: int) -> Coloring:
    """Maximum coloring of Z_{p^alpha} for k=p.

    p >= 5: color residue classes R_i and R_{p-i} mod p alike, (p+1)/2 colors;
    for alpha = 1 that is c(x) = min(x, p-x), rainbow-free because every
    solution of x1 + x2 = p*x3 in Z_p has x2 = -x1.
    p = 3, alpha = 1: the 2-coloring [0, 1, 1]. p = 3, alpha >= 2: repeat the
    built-in maximum 3-coloring of Z_9 (the search oracle's witness) through
    x mod 9.
    """
    if p == 2:
        raise UnsupportedCaseError("k = 2 witnesses are outside the constructions")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if alpha < 1:
        raise InputError(f"alpha must be >= 1, got {alpha}")
    n = p**alpha
    if p >= 5:
        colors = [min(x % p, p - x % p) for x in range(n)]
    elif alpha == 1:
        colors = [0, 1, 1]
    else:
        colors = [_Z9_WITNESS[x % 9] for x in range(n)]
    return _verified(colors, n, p, f"witness_prime_power({p}, {alpha})")


def max_coloring_q_symmetric(q: int, p: int) -> Coloring:
    """A maximum rainbow-free coloring of Z_q for k=p with {0} a singleton
    class and every class symmetric."""
    rb = rb_q_p(q, p).value
    colors = _q_pattern(q, p, rb)
    if rb == 4:
        c = _verified(colors, q, p, f"max_coloring_q_symmetric({q}, {p})")
    else:
        c = Coloring(q, tuple(colors))  # two colors: no triple can be rainbow
    if not check_symmetry(c):
        raise ConstructionError(f"max_coloring_q_symmetric({q}, {p}) is not symmetric")
    return c


def lift_general(base: Coloring, q: int, p: int) -> Coloring:
    """Lift a rainbow-free k=p coloring of Z_t to Z_{qt}, q a prime other than
    p, p = 1 or prime.

    Multiples of q inherit the base via x/q; other positions take fresh colors
    by their symmetric maximum pattern mod q, adding rb(Z_q, p) - 2 colors.
    The pattern is not scanned on its own: the lifted coloring is.
    """
    if not is_prime(q) or q == p:
        raise InputError(f"q={q} must be a prime different from p={p}")
    if not is_rainbow_free(base, p):
        raise InputError(f"base coloring is not rainbow-free for k={p}")
    t = base.n
    r = base.num_colors()
    pattern = _q_pattern(q, p, rb_q_p(q, p).value)
    # pattern's nonzero classes already carry ids 1..rb_q_p-2; its {0} class
    # is never hit because q does not divide x here
    colors = []
    for x in range(q * t):
        if x % q == 0:
            colors.append(base.colors[x // q])
        else:
            colors.append(r - 1 + pattern[x % q])
    return _verified(colors, q * t, p, f"lift_general(t={t}, q={q}, p={p})")


def witness_general(n: int, p: int) -> Coloring:
    """Maximum rainbow-free coloring of Z_n for k=p, p = 1 or prime
    (rb_general(n, p) - 1 colors): the prime-power witness, or when p does not
    divide n the symmetric maximum coloring of Z_q for the least prime q | n,
    lifted over the remaining prime factors in increasing order."""
    if not (p == 1 or is_prime(p)):
        raise InputError(f"coefficient {p} is neither 1 nor prime")
    if n < 2:
        raise InputError(f"requires n >= 2, got {n}")
    alpha = 0
    rest: list[int] = []
    for prime, exp in prime_factorize(n):
        if prime == p:
            alpha = exp
        else:
            rest.extend([prime] * exp)
    if alpha > 0:
        c = witness_prime_power(p, alpha)  # raises UnsupportedCaseError for p=2
    else:
        c = max_coloring_q_symmetric(rest.pop(0), p)
    for q in rest:
        c = lift_general(c, q, p)
    return c
