import itertools
import pickle
import time
import tracemalloc

import pytest

from conftest import brute_rainbow_free, canonical_colorings, color_classes, reference_search
from rainbow_lab.cli import _general_lift
from rainbow_lab.coloring import (
    Coloring,
    canonicalize,
    find_rainbow_triple,
    is_canonical,
    is_rainbow_free,
)
from rainbow_lab.errors import InputError, SearchInconclusiveError
from rainbow_lab.formulas import rb_formula
from rainbow_lab import search
from rainbow_lab.modcore import CyclicInstance
from rainbow_lab.results import Method, RbResult
from rainbow_lab.search import (
    SearchConfig,
    iter_rainbow_free_colorings,
    rb_oracle,
)


class TestSearchConfig:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(InputError):
            SearchConfig(time_budget=0)

    @pytest.mark.parametrize("budget", (float("nan"), float("inf")))
    def test_rejects_non_finite_budget(self, budget):
        # a nan or infinite deadline is never passed, so the search never stops
        with pytest.raises(InputError):
            SearchConfig(time_budget=budget)

    def test_value_semantics(self):
        cfg = SearchConfig()
        assert cfg == SearchConfig(60.0) and hash(cfg) == hash(SearchConfig(60.0))
        assert repr(cfg) == "SearchConfig(time_budget=60.0)"
        with pytest.raises(AttributeError):
            cfg.time_budget = 1.0

    def test_pickle_round_trip(self):
        cfg = SearchConfig(time_budget=0.25)
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and back.time_budget == 0.25 and type(back) is SearchConfig


class TestRbResult:
    def test_default_detail_is_not_shared(self):
        first, second = RbResult(3, Method.ORACLE), RbResult(3, Method.ORACLE)
        assert first.detail == {} and first.detail is not second.detail
        assert (first.conclusive, first.witness) == (True, None)


class TestMaxRainbowFreeR:
    """r_max, the largest rainbow-free r, and its witness, as rb_oracle
    reports them."""

    def test_prime_schur(self):
        res = rb_oracle(CyclicInstance(5, 1))
        assert res.detail["r_max"] == 3
        assert res.conclusive
        assert set(res.witness.colors) == set(range(3))
        assert is_rainbow_free(res.witness, 1)

    def test_small_cases(self):
        assert rb_oracle(CyclicInstance(3, 1)).detail["r_max"] == 2
        assert rb_oracle(CyclicInstance(9, 3)).detail["r_max"] == 3

    def test_witness_is_lex_least_canonical(self):
        res = rb_oracle(CyclicInstance(7, 1))
        assert is_canonical(res.witness.colors)
        r_max = res.detail["r_max"]
        stream = iter_rainbow_free_colorings(CyclicInstance(7, 1), r_max, r_max)
        assert res.witness == next(iter(stream))

    def test_deterministic_across_runs(self):
        def run():
            res = rb_oracle(CyclicInstance(10, 1))
            d = res.detail
            return res.value, res.witness, d["r_max"], d["nodes_explored"], d["exhausted"]

        assert run() == run()

    def test_budget_exhaustion_is_inconclusive(self):
        # a lower bound only: whatever was found is rainbow-free, not maximum.
        # The full Z_40 search takes about 90 ms, far past the 5 ms budget;
        # Z_26, which takes 6-8 ms, could finish between two budget checks.
        res = rb_oracle(CyclicInstance(40, 1), SearchConfig(time_budget=0.005))
        assert not res.detail["exhausted"]
        assert res.value == res.detail["r_max"] + 1
        assert res.witness is None or is_rainbow_free(res.witness, 1)


class TestRbOracle:
    def test_examples(self):
        assert rb_oracle(CyclicInstance(5, 1)).value == 4
        assert rb_oracle(CyclicInstance(12, 1)).value == 5

    def test_convention_value_n_plus_one(self):
        result = rb_oracle(CyclicInstance(2, 1))
        assert result.value == 3  # = n + 1: no 2-coloring of Z_2 forces a rainbow

    def test_detail_and_conclusive_flag(self):
        result = rb_oracle(CyclicInstance(6, 1))
        assert result.conclusive
        assert result.detail["exhausted"]
        assert result.detail["r_max"] == result.value - 1
        assert result.detail["nodes_explored"] > 0

    def test_inconclusive_on_tiny_budget(self):
        # as above: a search that takes far longer than the budget
        result = rb_oracle(CyclicInstance(40, 1), SearchConfig(time_budget=0.005))
        assert not result.conclusive

    def test_prune_counts_by_reason(self):
        prunes = rb_oracle(CyclicInstance(21, 3)).detail["prunes"]
        assert set(prunes) == {"empty_domain", "count_bound"}
        assert all(v >= 0 for v in prunes.values())
        assert any(prunes.values())


class TestEnumerateRainbowFree:
    def test_empty_for_z3_three_colors(self):
        assert list(iter_rainbow_free_colorings(CyclicInstance(3, 1), 3, 3)) == []

    def test_single_trivial_coloring(self):
        stream = list(iter_rainbow_free_colorings(CyclicInstance(2, 1), 1, 1))
        assert [c.colors for c in stream] == [(0, 0)]

    def test_z5_three_colorings_have_singleton_class(self):
        stream = list(iter_rainbow_free_colorings(CyclicInstance(5, 1), 3, 3))
        assert stream
        for c in stream:
            assert min(len(s) for s in color_classes(c).values()) == 1

    def test_canonical_unique_lexicographic(self):
        stream = [c.colors for c in iter_rainbow_free_colorings(CyclicInstance(8, 1), 3, 3)]
        assert all(is_canonical(cs) for cs in stream)
        assert len(set(stream)) == len(stream)
        assert stream == sorted(stream)

    def test_budget_exhaustion_raises(self):
        stream = iter_rainbow_free_colorings(
            CyclicInstance(24, 1), 3, 3, SearchConfig(time_budget=0.005)
        )
        with pytest.raises(SearchInconclusiveError):
            list(stream)

    def test_single_pass_matches_per_r_streams(self):
        inst = CyclicInstance(9, 3)
        combined = {c.colors for c in iter_rainbow_free_colorings(inst, min_r=2, max_r=4)}
        per_r = {
            c.colors
            for r in (2, 3, 4)
            for c in iter_rainbow_free_colorings(inst, r, r)
        }
        assert combined == per_r


class TestCountsOfAClosedEnumeration:
    """Node and prune counts reach the status record when the caller stops early."""

    def test_kernel_closed_early_counts_its_nodes(self):
        status = search._Status()
        stream = search._iter_canonical(CyclicInstance(18, 1), status, min_r=3)
        assert len(list(itertools.islice(stream, 100))) == 100
        stream.close()
        assert status.nodes >= 100
        full = search._Status()
        for _ in search._iter_canonical(CyclicInstance(18, 1), full, min_r=3):
            pass
        assert status.nodes < full.nodes
        assert status.empty_domain + status.count_bound > 0

    def test_public_enumeration_closed_early_counts_its_nodes(self, monkeypatch):
        recorded = []

        class Recorded(search._Status):
            def __init__(self):
                super().__init__()
                recorded.append(self)

        monkeypatch.setattr(search, "_Status", Recorded)
        stream = iter_rainbow_free_colorings(CyclicInstance(18, 1), min_r=3)
        next(stream)
        stream.close()
        assert len(recorded) == 1 and recorded[0].nodes > 0


# (n, k, nodes, prune sum) of rb_oracle, and (n, k, nodes, colorings, prune
# sum) of the enumeration with min_r = 3
PINNED_RB = ((24, 23, 22116, 11982), (21, 3, 1448, 746))
PINNED_ENUM = ((18, 1, 5104, 611, 438), (20, 3, 5385, 787, 836), (20, 5, 4590, 593, 1029))


class TestPinnedCounts:
    """Machine-independent counts of the kernel, so that a speed change cannot
    change the search unnoticed. A node that both empties a domain and breaks
    the count bound counts under the reason found first, which depends on the
    walk order; only the sum of the two prune counts is pinned."""

    @pytest.mark.parametrize("n, k, nodes, prunes", PINNED_RB)
    def test_rb_oracle(self, n, k, nodes, prunes):
        detail = rb_oracle(CyclicInstance(n, k)).detail
        assert detail["nodes_explored"] == nodes
        assert sum(detail["prunes"].values()) == prunes

    @pytest.mark.parametrize("n, k, nodes, colorings, prunes", PINNED_ENUM)
    def test_enumeration_min_r_3(self, n, k, nodes, colorings, prunes):
        status = search._Status()
        found = sum(1 for _ in search._iter_canonical(CyclicInstance(n, k), status, min_r=3))
        assert (status.nodes, found) == (nodes, colorings)
        assert status.empty_domain + status.count_bound == prunes


class TestNarrowingPathsAgree:
    """Kept rows and the walk narrow the same domains. At the default _ROW_MAX
    most small searches keep every row and never walk, so each path is run
    on its own here: _ROW_MAX = 0 keeps only the rows of the two end
    positions, which narrow nothing, and a huge _ROW_MAX keeps every row."""

    PATHS = {"walks": 0, "rows": 10**9}

    @staticmethod
    def rb_facts(n, k):
        res = rb_oracle(CyclicInstance(n, k))
        detail = res.detail
        return (
            detail["r_max"],
            res.witness.colors,
            detail["nodes_explored"],
            sum(detail["prunes"].values()),
        )

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("n", range(1, 19))
    def test_rb_oracle_matches_the_default(self, monkeypatch, n, path):
        default = [self.rb_facts(n, k) for k in range(n)]
        monkeypatch.setattr(search, "_ROW_MAX", self.PATHS[path])
        assert [self.rb_facts(n, k) for k in range(n)] == default

    @pytest.mark.parametrize("n", range(1, 13))
    def test_enumeration_matches_unbounded_reference(self, monkeypatch, n):
        for k in range(n):
            kept = reference_search(n, k, 3)[2]
            for row_max in self.PATHS.values():
                monkeypatch.setattr(search, "_ROW_MAX", row_max)
                found = [
                    c.colors for c in iter_rainbow_free_colorings(CyclicInstance(n, k), min_r=3)
                ]
                assert found == kept, (n, k, row_max)

    @pytest.mark.parametrize("path", PATHS)
    def test_pinned_counts(self, monkeypatch, path):
        monkeypatch.setattr(search, "_ROW_MAX", self.PATHS[path])
        pinned = TestPinnedCounts()
        for case in PINNED_RB:
            pinned.test_rb_oracle(*case)
        for case in PINNED_ENUM:
            pinned.test_enumeration_min_r_3(*case)


class TestBruteForceCrossCheck:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_enumeration_matches_unpruned_brute_force(self, n):
        for k in (0, 1, 2, 3):
            found = {
                c.colors
                for c in iter_rainbow_free_colorings(CyclicInstance(n, k), min_r=1)
            }
            expected = {
                cols
                for cols in canonical_colorings(n)
                if brute_rainbow_free(cols, n, k)
            }
            assert found == expected, (n, k)


class TestReferenceCrossCheck:
    """The pruned kernel against the plain DFS of conftest.reference_search."""

    @pytest.mark.parametrize("n", range(1, 19))
    def test_kernel_matches_unbounded_reference(self, n):
        for k in range(n):
            inst = CyclicInstance(n, k)
            r_max, witness, kept = reference_search(n, k, 3 if n <= 12 else None)
            res = rb_oracle(inst)
            assert res.conclusive, (n, k)
            assert (res.detail["r_max"], res.witness.colors) == (r_max, witness), (n, k)
            assert res.value == r_max + 1, (n, k)
            if n <= 12:
                found = [c.colors for c in iter_rainbow_free_colorings(inst, min_r=3)]
                assert found == kept, (n, k)


    @pytest.mark.parametrize("n", range(2, 19))
    def test_seeded_kernel_matches_unbounded_reference(self, n):
        # seeded with the construction wherever there is one; a seed that
        # nothing beats is the witness, so only its color count is checked
        for k in range(n):
            seed = _general_lift(n, k)
            if seed is None:
                continue
            r_max, _, _ = reference_search(n, k)
            res = rb_oracle(CyclicInstance(n, k), lower_bound=seed)
            assert res.conclusive, (n, k)
            assert res.detail["lower_bound_r"] == seed.num_colors(), (n, k)
            assert (res.detail["r_max"], res.value) == (r_max, r_max + 1), (n, k)
            assert set(res.witness.colors) == set(range(r_max)), (n, k)
            assert find_rainbow_triple(res.witness, k) is None, (n, k)
            if seed.num_colors() == r_max:
                assert res.witness.colors == canonicalize(seed.colors), (n, k)


class TestSeededOracle:
    def test_seed_with_a_rainbow_triple_is_rejected(self):
        with pytest.raises(InputError, match="rainbow triple"):
            rb_oracle(CyclicInstance(5, 1), lower_bound=Coloring(5, (0, 1, 2, 2, 2)))

    def test_seed_of_the_wrong_length_is_rejected(self):
        with pytest.raises(InputError, match="Z_6"):
            rb_oracle(CyclicInstance(5, 1), lower_bound=Coloring(6, (0,) * 6))

    @pytest.mark.parametrize(
        "n, k, seed", ((12, 1, (0,) * 12), (12, 1, (0, 1) * 6), (17, 7, (0,) * 17))
    )
    def test_weak_seed_reaches_the_maximum(self, n, k, seed):
        # a seed below r_max is beaten, and the search then finds the
        # lex-least maximum coloring as the plain search does
        r_max, witness, _ = reference_search(n, k)
        res = rb_oracle(CyclicInstance(n, k), lower_bound=Coloring(n, seed))
        assert res.detail["lower_bound_r"] == len(set(seed)) < r_max
        assert (res.detail["r_max"], res.witness.colors) == (r_max, witness)

    def test_unseeded_records_no_lower_bound(self):
        assert rb_oracle(CyclicInstance(7, 1)).detail["lower_bound_r"] is None

    def test_budget_exhaustion_keeps_the_seed(self):
        seed = _general_lift(30, 29)
        r = seed.num_colors()
        res = rb_oracle(
            CyclicInstance(30, 29), SearchConfig(time_budget=0.005), lower_bound=seed
        )
        assert not res.conclusive
        assert res.value >= r + 1
        assert res.detail["r_max"] >= r
        assert find_rainbow_triple(res.witness, 29) is None


class TestDomainsSettleHardCases:
    """k = n - 1 cases that need per-position color domains: with only a
    "no new color" flag per later position, Z_28 k=27 took 31 s and Z_30
    k=29 ran out of a 40 s budget."""

    BUDGET = SearchConfig(time_budget=10.0)

    @pytest.mark.parametrize("n", (24, 30))
    def test_rb_matches_formula(self, n):
        res = rb_oracle(CyclicInstance(n, n - 1), self.BUDGET)
        assert res.conclusive
        assert res.value == rb_formula(n, n - 1).value == 6

    @pytest.mark.parametrize("n", (26, 28))
    def test_witness_is_exact_and_rainbow_free(self, n):
        res = rb_oracle(CyclicInstance(n, n - 1), self.BUDGET)
        assert res.conclusive
        r_max = res.detail["r_max"]
        assert set(res.witness.colors) == set(range(r_max))
        assert find_rainbow_triple(res.witness, n - 1) is None


class TestBudgetAndMemory:
    """The budget covers all the work and memory stays O(n), at large n."""

    # at n = 100003 the rows kept near the end must be solved from the later
    # positions: solved from the earlier partners, building them takes about 1 s
    @pytest.mark.parametrize(
        "n, budget, bound", [(2003, 0.2, 1.0), (100003, 0.05, 0.5)], ids=["2003", "100003"]
    )
    def test_budget_holds_at_large_n(self, n, budget, bound):
        start = time.monotonic()
        result = rb_oracle(CyclicInstance(n, 1), SearchConfig(time_budget=budget))
        elapsed = time.monotonic() - start
        assert not result.conclusive
        assert elapsed < bound, f"{budget} s budget took {elapsed:.2f} s"

    def test_budget_holds_for_a_deep_enumeration(self):
        # the enumeration entry point stops on the same budget; in its first
        # 0.2 s it runs about once down the positions, the later ones walking
        # up to 2002 earlier partners each
        start = time.monotonic()
        stream = iter_rainbow_free_colorings(
            CyclicInstance(2003, 1), min_r=3, cfg=SearchConfig(time_budget=0.2)
        )
        with pytest.raises(SearchInconclusiveError):
            for _ in stream:
                pass
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"0.2 s budget took {elapsed:.2f} s"

    def test_memory_stays_linear_at_large_n(self):
        # tracemalloc slows the kernel, so no wall-time bound here; a
        # modulus of its own keeps the solution table inside the measurement
        tracemalloc.start()
        try:
            result = rb_oracle(CyclicInstance(2011, 1), SearchConfig(time_budget=0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.conclusive
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MB"


class TestMonotonicity:
    def test_feasible_color_counts_are_downward_closed(self, rf_small_all_k):
        # supports rb = r_max + 1: the set of r admitting a rainbow-free exact
        # r-coloring is an interval [1, r_max] (r = 1, 2 always feasible)
        for (n, k), colorings in rf_small_all_k.items():
            feasible = {c.num_colors() for c in colorings}
            if feasible:
                assert feasible == set(range(3, max(feasible) + 1)), (n, k)
