"""Deterministic builders for the lower-bound witness colorings.

The private builders return plain color lists; each public builder scans
the coloring it returns rainbow-free, once, before returning it and raises
ConstructionError instead of handing back an unverified coloring. Witness
color counts always equal the matching closed-form rainbow number minus one.
They are maximum colorings with one known exception, the 3-adic family
(9 | n, p does not divide n, p = 2 mod 3 and p != 2 mod 3^v with v = v_3(n)):
there the closed form is one too low and the witness one color short of the
maximum the exhaustive oracle finds, e.g. 3 colors against 4 on Z_9 with
k = 5, and 4 against 5 on Z_18 with k = 5 and on Z_27 with k = 11.
The builders read no closed form: the prime-modulus pattern comes from the
+-orbit of p alone, so the formulas and the witnesses check each other.

k = 1 is the unit case of the prime-k builders: the +-orbit of 1 in Z_q^* is
{1, q - 1}, so lifting Z_1 over q gives the Schur 3-coloring {0}, {1, q - 1},
the rest, and witness_general(n, 1) lifts over every prime factor of n.
"""
from __future__ import annotations

from .coloring import Coloring, is_rainbow_free
from .errors import ConstructionError, InputError
from .modcore import split_coefficient

# The exhaustive oracle's lex-least maximum coloring of Z_9 for k = 3;
# tests/test_constructions.py re-derives it.
_Z9_WITNESS = (0, 1, 1, 0, 2, 2, 0, 1, 1)


def _verified(colors: list[int], n: int, k: int, what: str) -> Coloring:
    c = Coloring(n, tuple(colors))
    if not is_rainbow_free(c, k):
        raise ConstructionError(f"{what} produced a coloring with a rainbow triple")
    return c


def _q_pattern(q: int, p: int) -> list[int]:
    """Colors of the symmetric maximum coloring of Z_q for k=p, unverified:
    {0}, the orbit {±p^i}, the rest of Z_q^*. The rest is empty, and the
    pattern has two colors, exactly when rb(Z_q, p) = 3: when p generates
    Z_q^*, or its order is (q-1)/2 and odd, so that -1 is not a power of p."""
    orbit = set()
    x = 1
    while x not in orbit:
        orbit.add(x)
        orbit.add(q - x)
        x = (x * p) % q
    return [0 if x == 0 else (1 if x in orbit else 2) for x in range(q)]


def _prime_power_colors(p: int, alpha: int) -> list[int]:
    """Colors of the maximum coloring of Z_{p^alpha} for k=p, p prime and
    alpha >= 1, unverified.

    Residue classes R_i and R_{p-i} mod p share a color, p // 2 + 1 colors:
    parity for p = 2, [0, 1, 1] for Z_3. For alpha = 1 that is
    c(x) = min(x, p-x), rainbow-free because every solution of
    x1 + x2 = p*x3 in Z_p has x2 = -x1. p = 3, alpha >= 2: repeat the
    built-in maximum 3-coloring of Z_9 (the search oracle's witness)
    through x mod 9.
    """
    if p == 3 and alpha >= 2:
        return [_Z9_WITNESS[x % 9] for x in range(p**alpha)]
    return [min(x % p, p - x % p) for x in range(p**alpha)]


def _lift(colors: list[int], q: int, p: int) -> list[int]:
    """The colors lift_general builds from a base's colors, unverified. The
    multiples of q hold a copy of the base, so a rainbow base lifts to a
    rainbow coloring and one scan of the last lift checks every step."""
    top = max(colors)
    pattern = _q_pattern(q, p)
    # fresh ids top + 1 and top + 2 clear any base id; the base then
    # overwrites the {0} class on the multiples of q
    lifted = [top + pattern[x % q] for x in range(q * len(colors))]
    lifted[::q] = colors
    return lifted


def lift_general(base: Coloring, q: int, p: int) -> Coloring:
    """Lift a rainbow-free k=p coloring of Z_t to Z_{qt}, q a prime other than
    p, p = 1 or prime.

    Multiples of q inherit the base via x/q; other positions take fresh colors
    by the symmetric maximum pattern of Z_q, one per pattern class beyond {0}:
    rb(Z_q, p) - 2 colors. From the single color of Z_1 the lift is that
    pattern itself. The base and the lifted coloring are scanned once each.
    """
    # q is a prime other than p exactly when its split around p is q itself
    if split_coefficient(q, p)[1] != [(q, 1)]:
        raise InputError(f"q={q} must be a prime different from p={p}")
    if not is_rainbow_free(base, p):
        raise InputError(f"base coloring is not rainbow-free for k={p}")
    t = base.n
    return _verified(_lift(list(base.colors), q, p), q * t, p, f"lift_general(t={t}, q={q}, p={p})")


def witness_general(n: int, p: int) -> Coloring:
    """Rainbow-free coloring of Z_n for k=p, p = 1 or prime, with
    rb_general(n, p) - 1 colors: the prime-power colors when p divides n,
    else the single color of Z_1, lifted by _lift over every other prime
    factor of n in increasing order. Only the final coloring is scanned.

    It is a maximum coloring except on the 3-adic family named in the module
    docstring (9 | n, p does not divide n, p = 2 mod 3 and p != 2 mod 3^v
    with v = v_3(n)), where it is one color short of the maximum the
    exhaustive oracle finds, e.g. 3 colors against 4 on Z_9 with p = 5."""
    alpha, rest = split_coefficient(n, p)
    # alpha >= 1 only when p is a prime factor of n
    colors = _prime_power_colors(p, alpha) if alpha else [0]
    for q, exp in rest:
        for _ in range(exp):
            colors = _lift(colors, q, p)
    return _verified(colors, n, p, f"witness_general({n}, {p})")
