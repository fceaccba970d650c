"""Exact modular arithmetic for the equation x1 + x2 = k*x3 in Z_n.

Solution tables, multiplicative orders and factorization. All functions are
pure and operate on small immutable values.
"""
from __future__ import annotations

import functools

from .errors import InputError

Factorization = list[tuple[int, int]]


class _Frozen:
    """Base of all six of the package's records (CyclicInstance, Coloring,
    LMClassification, SearchConfig, RbResult, Certificate), without the
    import of dataclasses. A subclass's fields are its __slots__, set once by
    its __init__ through _setters: each slot's descriptor __set__, bound once
    per class in slot order, so setting a field costs one C call. A subclass
    without __slots__ inherits its parent's fields and setters. Equality,
    hash and repr read the fields in order, as those of a frozen dataclass
    do; a record never equals a tuple, and assignment raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class CyclicInstance(_Frozen):
    """The equation x1 + x2 = k*x3 over Z_n.

    The coefficient is stored reduced into [0, n); the congruence only depends
    on k mod n.
    """

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        if n < 1:
            raise InputError(f"modulus must be a positive integer, got {n}")
        set_n, set_k = self._setters
        set_n(self, n)
        set_k(self, k % n)


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


@functools.lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorize(n) == [(n, 1)]


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
