"""Exact modular arithmetic for the equation x1 + x2 = k*x3 in Z_n.

Triple enumeration, divisibility structure of triples, multiplicative orders
and factorization. All functions are pure and operate on small immutable
values.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import InputError

Factorization = list[tuple[int, int]]


@dataclass(frozen=True)
class CyclicInstance:
    """The equation x1 + x2 = k*x3 over Z_n.

    The coefficient is stored reduced into [0, n); the congruence only depends
    on k mod n.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"modulus must be a positive integer, got {self.n}")
        object.__setattr__(self, "k", self.k % self.n)


class Triple(NamedTuple):
    x1: int
    x2: int
    x3: int


@functools.lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factorize(n: int) -> Factorization:
    """Canonical factorization of n >= 1 as an increasing list of (prime, exponent)."""
    if n < 1:
        raise InputError(f"cannot factor {n}; expected n >= 1")
    factors: Factorization = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def solutions_by_sum(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """For each residue s, the increasing tuple of x3 with k*x3 = s (mod n).

    O(n) in size. The tables of the last 64 (n, k mod n) are kept, so repeated
    rainbow checks and searches on one instance share a single table.
    """
    if n < 1:
        raise InputError(f"modulus must be a positive integer, got {n}")
    return _solutions_table(n, k % n)


@functools.lru_cache(maxsize=64)
def _solutions_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    sols: list[list[int]] = [[] for _ in range(n)]
    for x3 in range(n):
        sols[(k * x3) % n].append(x3)
    return tuple(tuple(s) for s in sols)


def iter_triples(inst: CyclicInstance) -> Iterator[Triple]:
    """All solutions of x1 + x2 = k*x3 (mod n) in lexicographic order.

    Repeated coordinates are allowed; rainbowness requires three distinct
    colors, which makes repeated elements harmless downstream.
    """
    n = inst.n
    sols = solutions_by_sum(n, inst.k)
    for x1 in range(n):
        for x2 in range(n):
            for x3 in sols[(x1 + x2) % n]:
                yield Triple(x1, x2, x3)


def multiplicative_order(a: int, q: int) -> int:
    """Smallest e >= 1 with a**e = 1 (mod q), for q prime and a not divisible by q."""
    if not is_prime(q):
        raise InputError(f"{q} is not prime")
    a %= q
    if a == 0:
        raise InputError(f"order of 0 mod {q} is undefined")
    e, power = 1, a
    while power != 1:
        power = (power * a) % q
        e += 1
    return e


def divisibility_count(t: Triple, q: int) -> int:
    """How many coordinates of the triple are divisible by the prime q (0..3).

    When gcd(q, k) = 1 the value 2 never occurs; that is a module property
    checked by the test suite, not a postcondition.
    """
    if not is_prime(q):
        raise InputError(f"{q} is not prime")
    return sum(1 for x in t if x % q == 0)
