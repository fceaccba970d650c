"""Rebuild perfbench/reference.json, the expected outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Takes about two minutes on 2 cores. rb values are what the closed forms report
(the search oracle where none applies). Where n <= 22 the oracle is run as
well, and every disagreement is listed under "formula_mismatches"; the
oracle-sweep pool leaves those instances out, because `rb --method both`
exits 3 on them. Every enumerated coloring is checked rainbow-free by the
independent scan in checks.py before its digest is stored.
"""
from __future__ import annotations

import json
import os
import sys

import checks
from workloads import CERTIFY_KS, CERTIFY_NS, HERE, LARGE_K, LARGE_RANGE, is_prime, key, oracle_pool

from rainbow_lab import CyclicInstance, SearchConfig, iter_rainbow_free_colorings, rb_general, rb_oracle, rb_schur

BUDGET = SearchConfig(time_budget=600.0)


def formula(n: int, k: int):
    k_red = k % n
    if k_red == 1:
        return rb_schur(n).value
    if is_prime(k_red):
        return rb_general(n, k_red).value
    return None


def oracle(n: int, k: int):
    """(rb, kernel nodes) from the search oracle."""
    res = rb_oracle(CyclicInstance(n, k), BUDGET)
    if not res.conclusive:
        sys.exit(f"oracle ran out of budget on n={n} k={k}")
    return res.value, res.detail["nodes_explored"]


def main() -> None:
    rb: dict[str, int] = {}
    pool: dict[str, dict] = {}
    mismatches: list[dict] = []

    def record(n: int, k: int, by_formula, by_oracle) -> None:
        entry = {"n": n, "k": k, "formula": by_formula, "oracle": by_oracle}
        if by_formula is not None and by_formula != by_oracle and entry not in mismatches:
            mismatches.append(entry)

    for n, k in oracle_pool():
        value, nodes = oracle(n, k)
        record(n, k, formula(n, k), value)
        found = [c.colors for c in iter_rainbow_free_colorings(CyclicInstance(n, k), min_r=3, cfg=BUDGET)]
        triples = checks.distinct_triples(n, k)
        assert all(checks.is_rainbow_free(cols, k, triples) for cols in found)
        counts: dict[str, int] = {}
        for cols in found:
            counts[str(len(set(cols)))] = counts.get(str(len(set(cols))), 0) + 1
        pool[key(n, k)] = {
            "rb": value, "nodes": nodes, "enum_counts": counts, "enum_digest": checks.coloring_digest(found),
        }
        print(n, k, value, counts, flush=True)
    # rb holds what the CLI's closed form reports (the oracle where none applies)
    for n, k in oracle_pool():
        rb[key(n, k)] = formula(n, k)
    for n in CERTIFY_NS:
        for k in CERTIFY_KS:
            value = formula(n, k)
            if value is None or n <= 22:
                checked = oracle(n, k)[0]
                record(n, k, value, checked)
                value = checked if value is None else value
            rb[key(n, k)] = value
    lo, hi = LARGE_RANGE
    for n in range(lo, hi + 1):
        if is_prime(n):
            rb[key(n, LARGE_K)] = formula(n, LARGE_K)
    doc = {"oracle_pool": pool, "rb": rb, "formula_mismatches": mismatches}
    path = os.path.join(HERE, "reference.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    os.replace(path + ".tmp", path)
    print("formula/oracle mismatches:", mismatches)


if __name__ == "__main__":
    main()
