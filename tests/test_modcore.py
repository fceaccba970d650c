import pickle

import pytest

from conftest import (
    Triple,
    divisibility_count,
    is_k_periodic_subset,
    is_symmetric_subset,
    iter_triples,
)
from rainbow_lab.certificates import Certificate
from rainbow_lab.coloring import Coloring, LMCase, LMClassification
from rainbow_lab.errors import InputError
from rainbow_lab.modcore import (
    CyclicInstance,
    _Frozen,
    is_prime,
    multiplicative_order,
    prime_factorize,
)
from rainbow_lab.results import Method, RbResult
from rainbow_lab.search import SearchConfig


# each record class: a factory for one instance, and its field names
_RECORDS = {
    "CyclicInstance": (lambda: CyclicInstance(5, 7), ("n", "k")),
    "Coloring": (lambda: Coloring(3, (0, 1, 1)), ("n", "colors")),
    "LMClassification": (lambda: LMClassification(LMCase.CASE3, 2), ("case", "dilation")),
    "SearchConfig": (lambda: SearchConfig(5.0), ("time_budget",)),
    "RbResult": (
        lambda: RbResult(4, Method.ORACLE, {"nodes_explored": 7}, True, Coloring(3, (0, 1, 1))),
        ("value", "method", "detail", "conclusive", "witness"),
    ),
    "Certificate": (
        lambda: Certificate(3, 1, (0, 1, 1), {"tool": "rainbow-lab"}),
        ("n", "k", "colors", "meta"),
    ),
}


@pytest.mark.parametrize("make,fields", _RECORDS.values(), ids=_RECORDS)
def test_record_contract(make, fields):
    # every record is a _Frozen value: equal to a same-valued instance of its
    # class, never to the tuple of its fields, read-only, and picklable
    record = make()
    assert record == make() and not record != make()
    values = tuple(getattr(record, f) for f in fields)
    assert record != values and not record == values
    assert isinstance(record, _Frozen)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        with pytest.raises(AttributeError):
            delattr(record, f)
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)


class TestCyclicInstance:
    def test_k_reduced_into_range(self):
        assert CyclicInstance(5, 7).k == 2
        assert CyclicInstance(5, -1).k == 4
        assert CyclicInstance(1, 3).k == 0

    def test_nonpositive_modulus_rejected(self):
        with pytest.raises(InputError):
            CyclicInstance(0, 1)

    def test_value_semantics(self):
        inst = CyclicInstance(5, 7)
        assert inst == CyclicInstance(5, 2) and hash(inst) == hash(CyclicInstance(5, 2))
        assert inst != CyclicInstance(7, 2)
        assert repr(inst) == "CyclicInstance(n=5, k=2)"
        assert not hasattr(inst, "__dict__")
        with pytest.raises(AttributeError):
            inst.k = 3
        with pytest.raises(AttributeError):
            del inst.n

    def test_pickle_round_trip(self):
        inst = CyclicInstance(5, 7)
        back = pickle.loads(pickle.dumps(inst))
        assert back == inst and back.k == 2 and type(back) is CyclicInstance


class TestPrimes:
    def test_is_prime_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        assert {n for n in range(31) if is_prime(n)} == primes
        sieve = [False, False] + [True] * 1998
        for d in range(2, 45):
            if sieve[d]:
                sieve[d * d :: d] = [False] * len(range(d * d, 2000, d))
        assert [is_prime(n) for n in range(-5, 2000)] == [False] * 5 + sieve

    def test_prime_factorize(self):
        assert prime_factorize(12) == [(2, 2), (3, 1)]
        assert prime_factorize(1) == []
        assert prime_factorize(45) == [(3, 2), (5, 1)]

    def test_prime_factorize_rejects_zero(self):
        with pytest.raises(InputError):
            prime_factorize(0)


class TestTriples:
    def test_z2_contains_self_inverse_triple(self):
        assert Triple(1, 1, 0) in list(iter_triples(CyclicInstance(2, 1)))

    def test_counts_are_n_squared(self):
        assert len(list(iter_triples(CyclicInstance(5, 1)))) == 25
        assert len(list(iter_triples(CyclicInstance(6, 2)))) == 36

    def test_lexicographic_order(self):
        triples = list(iter_triples(CyclicInstance(7, 3)))
        assert triples == sorted(triples)


class TestMultiplicativeStructure:
    def test_orders(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(1, 11) == 1
        assert multiplicative_order(3, 7) == 6

    def test_order_of_zero_rejected(self):
        with pytest.raises(InputError):
            multiplicative_order(7, 7)

    def test_order_requires_prime_modulus(self):
        with pytest.raises(InputError):
            multiplicative_order(3, 8)


class TestDivisibilityCount:
    def test_examples(self):
        assert divisibility_count(Triple(5, 5, 0), 5) == 3
        assert divisibility_count(Triple(1, 2, 3), 5) == 0

    def test_requires_prime(self):
        with pytest.raises(InputError):
            divisibility_count(Triple(0, 0, 0), 6)

    def test_never_two_on_z15_k2_q3(self):
        counts = {
            divisibility_count(t, 3) for t in iter_triples(CyclicInstance(15, 2))
        }
        assert 2 not in counts


class TestSubsetPredicates:
    def test_symmetric(self):
        assert is_symmetric_subset({1, 6}, 7)
        assert not is_symmetric_subset({1, 2}, 7)
        assert is_symmetric_subset({0}, 7)

    def test_k_periodic(self):
        assert is_k_periodic_subset({1, 2, 4}, 2, 7)
        assert not is_k_periodic_subset({1, 2}, 2, 7)
        assert is_k_periodic_subset(set(range(1, 5)), 3, 5)

    def test_k_periodic_rejects_zero_element(self):
        with pytest.raises(InputError):
            is_k_periodic_subset({0, 1}, 2, 7)

    def test_k_periodic_rejects_non_invertible_k(self):
        with pytest.raises(InputError):
            is_k_periodic_subset({1}, 7, 7)

    def test_k_periodic_closure_idempotent(self):
        # k*S = S, so applying the dilation by k changes nothing
        q, k = 13, 3
        S = {1, 3, 9}
        assert is_k_periodic_subset(S, k, q)
        assert {(k * x) % q for x in S} == S
