"""Exhaustive, symmetry-reduced backtracking search over exact colorings.

The ground-truth oracle for rb(Z_n, k): positions 0..n-1 are assigned color
ids in restricted-growth (canonical) order. A branch is pruned when it
completes a rainbow triple among the assigned positions, or when forward
checking shows it cannot reach the number of colors still of interest.
Triples are solved per position from an O(n) table, so memory is O(n) and
the time budget covers all of the work. The search is exact when it runs to
completion; running out of time budget yields a first-class inconclusive
outcome, never a guess.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .coloring import Coloring
from .errors import InputError, SearchInconclusiveError
from .modcore import CyclicInstance, solutions_by_sum
from .results import Method, RbResult

_BUDGET_CHECK_WORK = 4096  # check the clock every 4096 partner visits


@dataclass(frozen=True)
class SearchConfig:
    time_budget: float = 60.0  # seconds

    def __post_init__(self):
        # a nan or infinite deadline never compares past, so it would never stop
        if not (math.isfinite(self.time_budget) and self.time_budget > 0):
            raise InputError(
                f"time_budget must be a positive finite number, got {self.time_budget}"
            )


class _Status:
    __slots__ = ("nodes", "exhausted")

    def __init__(self):
        self.nodes = 0
        self.exhausted = True


def _iter_canonical(
    inst: CyclicInstance,
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

    A later position y is *blocked* once a triple {y, a, b} has two assigned,
    differently colored members a and b: a new color at y would make it
    rainbow. Blocked positions stay blocked deeper in the tree, so a subtree
    whose used colors plus unblocked later positions cannot reach the needed
    r is pruned (forward checking). Triples are solved per position from the
    O(n) table solutions_by_sum; nothing O(n^2) is stored.
    """
    n, k = inst.n, inst.k
    if max_r is not None and max_r < 1:
        return
    sols = solutions_by_sum(n, k)
    colors = [-1] * n
    used_before = [0] * (n + 1)
    cand = [0] * n
    # blocker[y]: shallowest depth whose assignment blocked y, n if unblocked.
    # trail lists the positions blocked since the depth's mark, so each
    # position sits on the trail at most once.
    blocker = [n] * n
    trail: list[int] = []
    mark = [0] * n
    free_before = [0] * n  # unblocked positions after pos, before assigning it
    free_before[0] = n - 1
    need = min_r  # completions must reach this many colors to be reported
    nodes = 0
    work = 0  # partner visits, the unit of cost the budget is checked by
    next_check = _BUDGET_CHECK_WORK
    pos = 0
    last = n - 1
    while pos >= 0:
        m = mark[pos]
        if len(trail) > m:
            for y in trail[m:]:
                blocker[y] = n
            del trail[m:]
        u = used_before[pos]
        col = cand[pos]
        limit = u if (max_r is None or u < max_r) and blocker[pos] == n else u - 1
        if col > limit:
            pos -= 1
            continue
        cand[pos] = col + 1
        nodes += 1
        work += pos + 1
        if work >= next_check:
            next_check = work + _BUDGET_CHECK_WORK
            if deadline is not None and time.monotonic() > deadline:
                status.exhausted = False
                break
        colors[pos] = col
        nu = u + 1 if col == u else u
        free = free_before[pos]
        slack = need - nu  # prune once free < slack
        if free < slack:
            continue
        if nu > 1:
            # one pass over the differently colored partners a: a third
            # coordinate y < pos closes a rainbow triple, y > pos gets blocked
            kp = k * pos
            pruned = False
            for a in range(pos):
                ca = colors[a]
                if ca == col:
                    continue
                for y in sols[(pos + a) % n] + ((kp - a) % n, (k * a - pos) % n):
                    if y < pos:
                        cy = colors[y]
                        if cy != col and cy != ca:
                            pruned = True
                            break
                    elif y > pos and blocker[y] == n:
                        blocker[y] = pos
                        trail.append(y)
                        free -= 1
                        if free < slack:
                            pruned = True
                            break
                if pruned:
                    break
            if pruned:
                continue
        if pos == last:
            yield nu, tuple(colors)
            if improving_only:
                need = nu + 1
            continue
        used_before[pos + 1] = nu
        pos += 1
        cand[pos] = 0
        mark[pos] = len(trail)
        free_before[pos] = free - (blocker[pos] == n)
    status.nodes += nodes


def rb_oracle(inst: CyclicInstance, cfg: Optional[SearchConfig] = None) -> RbResult:
    """rb(Z_n, k) by exhaustive search: r_max + 1.

    r_max is the largest r admitting a rainbow-free exact r-coloring, and the
    witness is the lexicographically least canonical coloring achieving it.
    Merging two color classes of an exact (r+1)-coloring yields an exact
    r-coloring whose rainbow triples survive in the original, so the set of
    feasible r is downward closed and rb = r_max + 1. A budget-exhausted
    search is reported as inconclusive: r_max, and so the value, is then only
    a lower bound, and the witness (None if no coloring was completed) is not
    known to be maximum.
    """
    cfg = cfg or SearchConfig()
    start = time.monotonic()
    status = _Status()
    r_max, best = 0, None
    for r, cols in _iter_canonical(
        inst, status, deadline=start + cfg.time_budget, improving_only=True
    ):
        r_max, best = r, cols
    return RbResult(
        value=r_max + 1,
        method=Method.ORACLE,
        detail={
            "r_max": r_max,
            "nodes_explored": status.nodes,
            "elapsed": time.monotonic() - start,
            "exhausted": status.exhausted,
        },
        conclusive=status.exhausted,
        witness=Coloring(inst.n, best) if best is not None else None,
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
    for _, cols in _iter_canonical(
        inst, status, min_r=min_r, max_r=max_r, deadline=deadline
    ):
        yield Coloring(inst.n, cols)
    if not status.exhausted:
        raise SearchInconclusiveError(
            f"enumeration of Z_{inst.n}, k={inst.k} ran out of its "
            f"{cfg.time_budget}s budget after {status.nodes} nodes"
        )
