"""Exhaustive, symmetry-reduced backtracking search over exact colorings.

The ground-truth oracle for rb(Z_n, k): positions 0..n-1 are assigned color
ids in restricted-growth (canonical) order, and any branch that completes a
rainbow triple among the assigned positions is pruned via a per-position
triple index. The search is exact when it runs to completion; running out of
time budget yields a first-class inconclusive outcome, never a guess.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .coloring import Coloring
from .errors import InputError, SearchInconclusiveError
from .modcore import CyclicInstance, iter_triples
from .results import Method, RbResult

_BUDGET_CHECK_MASK = 0x1FFF  # check the clock every 8192 nodes


@dataclass(frozen=True)
class SearchConfig:
    time_budget: float = 60.0  # seconds
    max_r: Optional[int] = None

    def __post_init__(self):
        if self.time_budget <= 0:
            raise InputError("time_budget must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    r_max: int
    witness: Optional[Coloring]
    nodes_explored: int
    elapsed: float
    exhausted: bool  # False only on budget exhaustion; r_max is then a lower bound


def _triples_by_max(n: int, k: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each position x, the triples whose maximum coordinate is x."""
    by_max: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for t in iter_triples(CyclicInstance(n, k)):
        by_max[max(t)].append(tuple(t))
    return tuple(tuple(ts) for ts in by_max)


class _Status:
    __slots__ = ("nodes", "exhausted")

    def __init__(self):
        self.nodes = 0
        self.exhausted = True


def _iter_canonical(
    n: int,
    by_max,
    status: _Status,
    min_r: int = 1,
    max_r: Optional[int] = None,
    deadline: Optional[float] = None,
    improving_only: bool = False,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Backtracking core. Yields (r, colors) pairs in lexicographic order.

    Completed colorings are canonical, exact with r colors, and rainbow-free.
    With improving_only, yields only completions that beat the best r seen so
    far.
    """
    if max_r is not None and max_r < 1:
        return
    colors = [-1] * n
    used_before = [0] * (n + 1)
    cand = [0] * n
    best = 0
    nodes = 0
    pos = 0
    last = n - 1
    while pos >= 0:
        u = used_before[pos]
        col = cand[pos]
        limit = u if (max_r is None or u < max_r) else u - 1
        if col > limit:
            pos -= 1
            continue
        cand[pos] = col + 1
        nodes += 1
        if deadline is not None and nodes & _BUDGET_CHECK_MASK == 0:
            if time.monotonic() > deadline:
                status.exhausted = False
                break
        colors[pos] = col
        nu = u + 1 if col == u else u
        # exactness reachability: need min_r colors by the end
        if nu + (n - pos - 1) < min_r:
            continue
        if nu >= 3:
            rainbow = False
            for a, b, c in by_max[pos]:
                ca, cb, cc = colors[a], colors[b], colors[c]
                if ca != cb and ca != cc and cb != cc:
                    rainbow = True
                    break
            if rainbow:
                continue
        if pos == last:
            if nu >= min_r:
                if improving_only:
                    if nu > best:
                        best = nu
                        yield nu, tuple(colors)
                else:
                    yield nu, tuple(colors)
            continue
        used_before[pos + 1] = nu
        pos += 1
        cand[pos] = 0
    status.nodes += nodes


def max_rainbow_free_r(inst: CyclicInstance, cfg: Optional[SearchConfig] = None) -> SearchOutcome:
    """Largest r admitting a rainbow-free exact r-coloring of the instance.

    The witness is the lexicographically least canonical coloring among those
    achieving r_max. With exhausted=False (budget ran out) r_max is only a
    lower bound.
    """
    cfg = cfg or SearchConfig()
    n, k = inst.n, inst.k
    start = time.monotonic()
    by_max = _triples_by_max(n, k)
    status = _Status()
    deadline = start + cfg.time_budget
    best_r, best_colors = 0, None
    for r, cols in _iter_canonical(
        n, by_max, status, max_r=cfg.max_r, deadline=deadline, improving_only=True
    ):
        best_r, best_colors = r, cols
    witness = Coloring(n, best_colors) if best_colors is not None else None
    return SearchOutcome(
        r_max=best_r,
        witness=witness,
        nodes_explored=status.nodes,
        elapsed=time.monotonic() - start,
        exhausted=status.exhausted,
    )


def rb_oracle(inst: CyclicInstance, cfg: Optional[SearchConfig] = None) -> RbResult:
    """rb(Z_n, k) by exhaustive search: r_max + 1, capped at n + 1.

    Merging two color classes of an exact (r+1)-coloring yields an exact
    r-coloring whose rainbow triples survive in the original, so the set of
    feasible r is downward closed and rb = r_max + 1. A budget-exhausted
    search is reported as inconclusive (value is then a lower bound).
    """
    outcome = max_rainbow_free_r(inst, cfg)
    value = min(outcome.r_max + 1, inst.n + 1)
    return RbResult(
        value=value,
        method=Method.ORACLE,
        detail={
            "r_max": outcome.r_max,
            "nodes_explored": outcome.nodes_explored,
            "elapsed": outcome.elapsed,
            "exhausted": outcome.exhausted,
        },
        conclusive=outcome.exhausted,
        witness=outcome.witness,
    )


def enumerate_rainbow_free(
    inst: CyclicInstance, r: int, cfg: Optional[SearchConfig] = None
) -> Iterator[Coloring]:
    """Every canonical exact rainbow-free r-coloring, each exactly once, in
    lexicographic order. Raises SearchInconclusiveError as
    iter_rainbow_free_colorings does."""
    if not 1 <= r <= inst.n:
        raise InputError(f"r={r} out of range [1, {inst.n}]")
    return iter_rainbow_free_colorings(inst, r, r, cfg)


def iter_rainbow_free_colorings(
    inst: CyclicInstance,
    min_r: int = 1,
    max_r: Optional[int] = None,
    cfg: Optional[SearchConfig] = None,
) -> Iterator[Coloring]:
    """All canonical rainbow-free colorings with min_r <= r <= max_r, one pass,
    in lexicographic order.

    If the time budget runs out, SearchInconclusiveError is raised after the
    colorings found so far.
    """
    cfg = cfg or SearchConfig()
    status = _Status()
    deadline = time.monotonic() + cfg.time_budget
    by_max = _triples_by_max(inst.n, inst.k)
    for _, cols in _iter_canonical(
        inst.n, by_max, status, min_r=min_r, max_r=max_r, deadline=deadline
    ):
        yield Coloring(inst.n, cols)
    if not status.exhausted:
        raise SearchInconclusiveError(
            f"enumeration of Z_{inst.n}, k={inst.k} ran out of its "
            f"{cfg.time_budget}s budget after {status.nodes} nodes"
        )
