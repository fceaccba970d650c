"""Exhaustive, symmetry-reduced backtracking search over exact colorings.

The ground-truth oracle for rb(Z_n, k): positions 0..n-1 are assigned color
ids in restricted-growth (canonical) order. Forward checking keeps, for
every later position, the domain of colors it may take without completing a
rainbow triple; a branch is pruned when a domain empties, or when too few
positions can still take a new color to reach the number of colors of
interest. Each position's partner row, the earlier partners that share a
triple with a later position and those later positions, is built once and
kept for the whole search, and a node narrows the later domains by reading
it. Only where rows would be long, at large n or gcd(k, n), does a node
instead walk its earlier partners. A kept row is solved once from the
shorter side, the earlier partners or the later positions, in O(_ROW_MAX)
work. Triples are solved from an O(n) table and the kept rows hold
O(_ROW_MAX^2) entries whatever n is, so memory is O(n), and the time budget
covers all of the work, row building included. The search is exact when it
runs to completion; running out of time budget yields a first-class
inconclusive outcome, never a guess.

rb_oracle may start from a verified lower bound: a coloring that the plain
rainbow scan passes, whose r colors the search then only has to beat. Such a
seeded search proves that no rainbow-free coloring has r + 1 colors, and its
witness is the (canonicalized) seed when nothing beats it, so it need not be
the lexicographically least maximum coloring.
"""
from __future__ import annotations

import math
import time
from itertools import chain
from typing import Iterator, Optional

from .coloring import Coloring, canonicalize, find_rainbow_triple
from .errors import InputError, SearchInconclusiveError
from .modcore import CyclicInstance, _Frozen, solutions_by_sum
from .results import Method, RbResult

_BUDGET_CHECK_WORK = 4096  # check the clock every 4096 row entries or positions walked
# A position keeps its partner row when (gcd(k, n) + 2) * min(pos, later
# positions), a bound on the row's length, is at most _ROW_MAX.
_ROW_MAX = 64


class SearchConfig(_Frozen):
    __slots__ = ("time_budget",)

    def __init__(self, time_budget: float = 60.0):  # seconds
        # a nan or infinite deadline never compares past, so it would never stop
        if not (math.isfinite(time_budget) and time_budget > 0):
            raise InputError(
                f"time_budget must be a positive finite number, got {time_budget}"
            )
        self._setters[0](self, time_budget)


class _Status:
    __slots__ = ("nodes", "exhausted", "empty_domain", "count_bound")

    def __init__(self):
        self.nodes = 0
        self.exhausted = True
        self.empty_domain = 0  # nodes cut because a later domain emptied
        self.count_bound = 0  # nodes cut because too few colors were reachable


_ALL = -1  # a domain no triple has narrowed: every color, a new one too


def _partner_row(n: int, k: int, sols, pos: int) -> tuple:
    """The partners a < pos that form a triple with pos and some y > pos,
    each with its third coordinates y, deduplicated: ((a, ys), ...) by
    increasing a. Solved from the shorter side, the later positions y when
    fewer of those remain, else the partners a: min(pos, n - 1 - pos) + 1
    steps."""
    kp = k * pos
    thirds: dict[int, dict[int, None]] = {}
    if n - 1 - pos < pos:
        for y in range(pos + 1, n):
            for a in sols[(pos + y) % n] + ((k * y - pos) % n, (kp - y) % n):
                if a < pos:
                    thirds.setdefault(a, {})[y] = None
    else:
        for a in range(pos):
            for y in sols[(pos + a) % n] + ((kp - a) % n, (k * a - pos) % n):
                if y > pos:
                    thirds.setdefault(a, {})[y] = None
    return tuple((a, tuple(ys)) for a, ys in sorted(thirds.items()))


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

    Forward checking: dom[y] is the bitmask of colors a later position y may
    still take, _ALL until a triple {pos, a, y} with a < pos < y and
    differently colored pos and a narrows it to {color(pos), color(a)}; any
    other color at y would make the triple rainbow. A node whose assignment
    empties a domain is pruned, and the candidates at pos are the colors of
    dom[pos]. Every triple is seen from its middle position, so a completed
    coloring is rainbow-free without a separate test. A later position whose
    domain is not _ALL cannot take a new color, so a subtree whose used
    colors plus _ALL later positions cannot reach the needed r is pruned.
    Triples are solved per position from the O(n) table solutions_by_sum.

    The partner row of pos lists each a < pos that forms a triple with pos
    and some y > pos, with those y, deduplicated. Each a has at most
    gcd(k, n) + 2 such y and each y at most that many a, so the row has at
    most (gcd + 2) * min(pos, later positions) entries; the row is built
    before the search and kept when that bound is at most _ROW_MAX. A node
    at such a position skips the partners of its own color and narrows the
    y of the others. Every row is kept when (gcd + 2) * ((n - 1) // 2) is
    at most _ROW_MAX, so for every n <= 44 at gcd 1; at larger n only about
    2 * _ROW_MAX / (gcd + 2) positions near the two ends keep theirs, so
    the kept rows hold O(_ROW_MAX^2) entries whatever n is. A row is solved
    from the shorter side: near the end from the later positions y, with
    a = k*y - pos, a = k*pos - y and k*a = pos + y, the same three
    relations solved for a. So each costs O(_ROW_MAX) steps whatever n is,
    and building them counts toward the work the budget is checked by.

    A node at any other position walks: it visits the partners a < pos and
    solves each pair for its third coordinates y > pos, the triples the row
    would list. Node order, outputs and node counts do not depend on the
    path; the prune reason a node is counted under can, when a node would
    be cut for both.
    """
    n, k = inst.n, inst.k
    if max_r is not None and max_r < 1:
        return
    sols = solutions_by_sum(n, k)
    last = n - 1
    # rows[pos]: the kept partner row of pos, or None where pos walks;
    # cost[pos]: the work a node at pos adds, entries of its row or
    # positions of its walk, plus one
    rows: list[Optional[tuple]] = [None] * n
    cost = list(range(1, n + 1))
    work = 0  # the unit of cost the budget is checked by
    span = _ROW_MAX // (math.gcd(k, n) + 2)
    # the positions with min(pos, last - pos) <= span, in increasing order
    head = min(span + 1, n)
    for pos in chain(range(head), range(max(head, last - span), n)):
        rows[pos] = row = _partner_row(n, k, sols, pos)
        work += min(pos, last - pos) + 1
        cost[pos] = len(row) + 1
    colors = [-1] * n
    bits = [0] * n  # bits[a] = 1 << colors[a], read by the kept rows
    used_before = [0] * (n + 1)
    cand = [0] * n  # bitmask of the colors pos has still to try
    cand[0] = 1
    dom = [_ALL] * n
    # trail: flat (y, old dom[y]) pairs, undone in reverse down to the
    # depth's mark; a domain narrows at most twice along a path (_ALL, a
    # pair, one color), so the trail holds at most 2n pairs
    trail: list[int] = []
    mark = [0] * n
    free_before = [0] * n  # later positions with domain _ALL, before assigning pos
    free_before[0] = n - 1
    need = min_r  # completions must reach this many colors to be reported
    nodes = empty_domain = count_bound = 0
    next_check = _BUDGET_CHECK_WORK
    pos = 0
    try:
        while pos >= 0:
            m = mark[pos]
            t = len(trail)
            if t > m:
                while t > m:
                    t -= 2
                    dom[trail[t]] = trail[t + 1]
                del trail[m:]
            rem = cand[pos]
            if not rem:
                pos -= 1
                continue
            bit = rem & -rem
            cand[pos] = rem ^ bit
            col = bit.bit_length() - 1
            nodes += 1
            work += cost[pos]
            if work >= next_check:
                next_check = work + _BUDGET_CHECK_WORK
                if deadline is not None and time.monotonic() > deadline:
                    status.exhausted = False
                    break
            colors[pos] = col
            bits[pos] = bit
            u = used_before[pos]
            nu = u + 1 if col == u else u
            free = free_before[pos]
            slack = need - nu  # prune once free < slack
            if free < slack:
                count_bound += 1
                continue
            if nu > 1 and pos != last:
                pruned = False
                row = rows[pos]
                if row is not None:
                    # the kept row: each differently colored partner a keeps
                    # only the colors of pos and a at its third coordinates
                    for a, ys in row:
                        ba = bits[a]
                        if ba == bit:
                            continue
                        pair = bit | ba
                        for y in ys:
                            d = dom[y]
                            nd = d & pair
                            if nd != d:
                                if not nd:
                                    empty_domain += 1
                                    pruned = True
                                    break
                                trail.append(y)
                                trail.append(d)
                                dom[y] = nd
                                if d == _ALL:
                                    free -= 1
                                    if free < slack:
                                        count_bound += 1
                                        pruned = True
                                        break
                        if pruned:
                            break
                else:
                    kp = k * pos
                    # one pass over the differently colored partners a: each
                    # third coordinate y > pos keeps only the colors of pos and a
                    for a in range(pos):
                        ca = colors[a]
                        if ca == col:
                            continue
                        pair = bit | (1 << ca)
                        for y in sols[(pos + a) % n] + ((kp - a) % n, (k * a - pos) % n):
                            if y > pos:
                                d = dom[y]
                                nd = d & pair
                                if nd != d:
                                    if not nd:
                                        empty_domain += 1
                                        pruned = True
                                        break
                                    trail.append(y)
                                    trail.append(d)
                                    dom[y] = nd
                                    if d == _ALL:
                                        free -= 1
                                        if free < slack:
                                            count_bound += 1
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
            mark[pos] = len(trail)
            d = dom[pos]
            if d == _ALL:
                free_before[pos] = free - 1
                cand[pos] = (2 << nu) - 1 if max_r is None or nu < max_r else (1 << nu) - 1
            else:
                free_before[pos] = free
                cand[pos] = d
    finally:
        # also when the caller closes the generator before the loop ends
        status.nodes += nodes
        status.empty_domain += empty_domain
        status.count_bound += count_bound


def rb_oracle(
    inst: CyclicInstance,
    cfg: Optional[SearchConfig] = None,
    lower_bound: Optional[Coloring] = None,
) -> RbResult:
    """rb(Z_n, k) by exhaustive search: r_max + 1.

    r_max is the largest r admitting a rainbow-free exact r-coloring, and the
    witness is the lexicographically least canonical coloring achieving it.
    Merging two color classes of an exact (r+1)-coloring yields an exact
    r-coloring whose rainbow triples survive in the original, so the set of
    feasible r is downward closed and rb = r_max + 1. A budget-exhausted
    search is reported as inconclusive: r_max, and so the value, is then only
    a lower bound, and the witness (None if no coloring was completed) is not
    known to be maximum.

    lower_bound, a rainbow-free coloring of Z_n with r colors, starts the
    search at r: within the budget it is checked with find_rainbow_triple
    (InputError if it has a rainbow triple or the wrong length), and the
    search then looks only for colorings with more than r colors. If none
    exists, r_max = r and the witness is the canonicalized seed, which need
    not be lexicographically least; a coloring that beats the seed is found
    as in the plain search. detail["lower_bound_r"] is r, or None unseeded.

    detail["prunes"] counts the cut nodes by reason. A node that both empties
    a domain and breaks the count bound is counted under the reason the
    kernel finds first, so the split depends on the walk order; only the sum
    is fixed.
    """
    cfg = cfg or SearchConfig()
    start = time.monotonic()
    status = _Status()
    r_max, best, seed_r = 0, None, None
    if lower_bound is not None:
        if lower_bound.n != inst.n:
            raise InputError(
                f"lower bound colors Z_{lower_bound.n}, not Z_{inst.n}"
            )
        triple = find_rainbow_triple(lower_bound, inst.k)
        if triple is not None:
            raise InputError(
                f"lower bound has the rainbow triple {triple} for k={inst.k}"
            )
        best = canonicalize(lower_bound.colors)
        r_max = seed_r = max(best) + 1
    for r, cols in _iter_canonical(
        inst,
        status,
        min_r=r_max + 1,
        deadline=start + cfg.time_budget,
        improving_only=True,
    ):
        r_max, best = r, cols
    return RbResult(
        value=r_max + 1,
        method=Method.ORACLE,
        detail={
            "r_max": r_max,
            "lower_bound_r": seed_r,
            "nodes_explored": status.nodes,
            "elapsed": time.monotonic() - start,
            "exhausted": status.exhausted,
            "prunes": {
                "empty_domain": status.empty_domain,
                "count_bound": status.count_bound,
            },
        },
        conclusive=status.exhausted,
        witness=Coloring(inst.n, best) if best is not None else None,
    )


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
