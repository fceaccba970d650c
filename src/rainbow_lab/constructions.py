"""Deterministic builders for the lower-bound witness colorings.

Every builder verifies its output rainbow-free before returning and raises
ConstructionError instead of handing back an unverified coloring. Witness
color counts always equal the matching closed-form rainbow number minus one.
"""
from __future__ import annotations

import json
from importlib import resources

from .coloring import Coloring, check_symmetry, is_rainbow_free
from .errors import ConfigError, ConstructionError, InputError, UnsupportedCaseError
from .formulas import rb_q_p
from .modcore import is_prime, prime_factorize

_Z9_WITNESS_RESOURCE = "z9_k3_witness.json"


def _verified(colors: list[int], n: int, k: int, what: str) -> Coloring:
    c = Coloring(n, tuple(colors))
    if not is_rainbow_free(c, k):
        raise ConstructionError(f"{what} produced a coloring with a rainbow triple")
    return c


def witness_schur_prime(p: int) -> Coloring:
    """Maximum 3-coloring of Z_p for k=1, p >= 5: {0} alone, {1, p-1} together,
    everything else a third color.

    Any symmetric 2-coloring of Z_p^* plus a unique color on 0 works; this
    split is fixed for determinism.
    """
    if not is_prime(p) or p < 5:
        raise InputError(f"requires a prime >= 5, got {p} (no 3-coloring exists below)")
    colors = [2] * p
    colors[0] = 0
    colors[1] = colors[p - 1] = 1
    return _verified(colors, p, 1, f"witness_schur_prime({p})")


def lift_schur(base: Coloring, p: int) -> Coloring:
    """Lift a rainbow-free k=1 coloring of Z_t to Z_{pt}.

    Multiples of p inherit the base coloring via x/p; residues +-1 mod p get
    one fresh color and the remaining residues a second. For p in {2, 3} the
    second class is empty, adding rb(Z_p,1) - 2 colors either way.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if not is_rainbow_free(base, 1):
        raise InputError("base coloring is not rainbow-free for k=1")
    t = base.n
    r = base.num_colors()
    colors = []
    for x in range(p * t):
        rem = x % p
        if rem == 0:
            colors.append(base.colors[x // p])
        elif rem in (1, p - 1):
            colors.append(r)
        else:
            colors.append(r + 1)
    return _verified(colors, p * t, 1, f"lift_schur(t={t}, p={p})")


def _schur_prime_base(p: int) -> Coloring:
    if p >= 5:
        return witness_schur_prime(p)
    # {0} vs the rest; any exact 2-coloring is rainbow-free
    return Coloring(p, (0,) + (1,) * (p - 1))


def witness_schur(n: int) -> Coloring:
    """Maximum rainbow-free coloring of Z_n for k=1 (rb_schur(n) - 1 colors),
    built by lifting over the prime factors of n in increasing order."""
    if n < 2:
        raise InputError(f"requires n >= 2, got {n}")
    primes = [p for p, alpha in prime_factorize(n) for _ in range(alpha)]
    c = _schur_prime_base(primes[0])
    for p in primes[1:]:
        c = lift_schur(c, p)
    return c


def witness_k_equals_p(p: int) -> Coloring:
    """Maximum coloring of Z_p for k=p: c(x) = min(x, p-x), (p+1)/2 colors.

    Symmetric by construction; every triple has x2 = -x1, so two coordinates
    always share a color.
    """
    if not is_prime(p) or p == 2:
        raise InputError(f"requires an odd prime, got {p}")
    colors = [min(x, p - x) for x in range(p)]
    return _verified(colors, p, p, f"witness_k_equals_p({p})")


def _pm_power_orbit(q: int, p: int) -> set[int]:
    """{p^i, -p^i mod q : i in Z} inside Z_q^*."""
    orbit = set()
    x = 1
    while x not in orbit:
        orbit.add(x)
        orbit.add((q - x) % q)
        x = (x * p) % q
    return orbit


def witness_q_p(q: int, p: int) -> Coloring:
    """The 3-coloring {0}, {±p^i}, rest of Z_q^* for the rb(Z_q, p) = 4 pairs."""
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
    orbit = _pm_power_orbit(q, p)
    colors = [0 if x == 0 else (1 if x in orbit else 2) for x in range(q)]
    return _verified(colors, q, p, f"witness_q_p({q}, {p})")


def _load_z9_witness() -> Coloring:
    """The packaged maximum 3-coloring of Z_9 for k=3 (from the search oracle)."""
    try:
        raw = json.loads(
            resources.files("rainbow_lab").joinpath("data", _Z9_WITNESS_RESOURCE).read_text()
        )
        return Coloring(9, tuple(raw["colors"]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"packaged Z_9 witness data/{_Z9_WITNESS_RESOURCE} is missing or "
            f"malformed: {exc!r}"
        ) from exc


def witness_prime_power(p: int, alpha: int) -> Coloring:
    """Maximum coloring of Z_{p^alpha} for k=p.

    p >= 5: color residue classes R_i and R_{p-i} mod p alike, (p+1)/2 colors.
    p = 3, alpha = 1: the 2-coloring [0, 1, 1]. p = 3, alpha >= 2: repeat the
    packaged maximum 3-coloring of Z_9 (obtained once from the search oracle)
    through x mod 9; ConfigError if that data file is missing or malformed.
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
        w9 = _load_z9_witness()
        colors = [w9.colors[x % 9] for x in range(n)]
    return _verified(colors, n, p, f"witness_prime_power({p}, {alpha})")


def max_coloring_q_symmetric(q: int, p: int) -> Coloring:
    """A maximum rainbow-free coloring of Z_q for k=p with {0} a singleton
    class and every class symmetric."""
    result = rb_q_p(q, p)
    if result.value == 4:
        c = witness_q_p(q, p)
    else:
        c = Coloring(q, (0,) + (1,) * (q - 1))
    if not check_symmetry(c):
        raise ConstructionError(f"max_coloring_q_symmetric({q}, {p}) is not symmetric")
    return c


def lift_general(base: Coloring, q: int, p: int) -> Coloring:
    """Lift a rainbow-free k=p coloring of Z_t to Z_{qt}, q != p prime.

    Multiples of q inherit the base via x/q; other positions take fresh colors
    by their symmetric maximum pattern mod q, adding rb(Z_q, p) - 2 colors.
    """
    if not is_prime(q) or q == p:
        raise InputError(f"q={q} must be a prime different from p={p}")
    if not is_rainbow_free(base, p):
        raise InputError(f"base coloring is not rainbow-free for k={p}")
    t = base.n
    r = base.num_colors()
    pattern = max_coloring_q_symmetric(q, p)
    # pattern's nonzero classes already carry ids 1..rb_q_p-2; its {0} class
    # is never hit because q does not divide x here
    colors = []
    for x in range(q * t):
        if x % q == 0:
            colors.append(base.colors[x // q])
        else:
            colors.append(r - 1 + pattern.colors[x % q])
    return _verified(colors, q * t, p, f"lift_general(t={t}, q={q}, p={p})")


def witness_general(n: int, p: int) -> Coloring:
    """Maximum rainbow-free coloring of Z_n for prime k=p (rb_general(n, p) - 1
    colors): the prime-power witness lifted over the remaining prime factors
    in increasing order. When p does not divide n, the base is the trivial
    1-coloring of Z_1 and the first lift supplies the 2-color base."""
    if not is_prime(p):
        raise InputError(f"coefficient {p} is not prime")
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
        c = Coloring(1, (0,))
    for q in rest:
        c = lift_general(c, q, p)
    return c
