"""Certified search for epsilon-Nash equilibria of anonymous games.

The search space is the finite set of quantized mixed strategies (all
probability vectors on the 1/(2^k z) grid).  For every way to split the
n players among those strategies, a bipartite feasibility problem decides
whether players can be assigned so that everyone plays a near-best
response; feasible assignments are then certified by the exact regret
computation, so the answer never depends on the unestimated constants of
the cover construction: a returned equilibrium is proven, and the loop
escalates z when none is found.

Whether a player may take sigma under split theta depends only on the
opponents' split theta - e_sigma (n-1 players), so one search computes
each player's best-response bitmask against each such split once, and
rejects a split before any flow when some sigma has fewer willing players
than theta puts on it.  The search holds the grid in one form, the integer
compositions of 2^k z that it enumerates, and folds opponents' splits from
them with the lattice kernel directly; `Fraction` rows are built only for
the profile it returns.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import GuardExceeded
from .games import (AnonymousGame, MixedProfile, as_fraction,
                    enumerate_partitions, iter_partitions, partition_count,
                    partition_rank)
from .guards import check_guard
from .sumdist import _fold, _payoff_numerators, regret_profile, sum_distribution


@dataclass(frozen=True)
class QuantizedStrategySet:
    """All distributions over [k] on the 1/(2^k z) grid, lex ordered."""

    k: int
    z: int
    strategies: tuple

    def __len__(self) -> int:
        return len(self.strategies)


def _strategy_count(k: int, z: int) -> int:
    """|S|, the size of the 1/(2^k z) grid, checked against the guard
    before anything is built."""
    if k < 2 or z < 1:
        raise ValueError("need k >= 2 and z >= 1")
    count = partition_count((2 ** k) * z, k)
    check_guard(count, f"quantized strategy set for k={k}, z={z}")
    return count


def enumerate_quantized_strategies(k: int, z: int) -> QuantizedStrategySet:
    _strategy_count(k, z)
    units = (2 ** k) * z
    return QuantizedStrategySet(k=k, z=z, strategies=tuple(
        tuple(Fraction(c, units) for c in comp) for comp in enumerate_partitions(units, k)))


def enumerate_theta(n: int, num_strategies: int) -> Iterator[tuple[int, ...]]:
    """All ways to split n players among the quantized strategies, in
    ascending lex order, lazily."""
    if n < 1 or num_strategies < 1:
        raise ValueError("need n >= 1 and at least one strategy")
    check_guard(partition_count(n, num_strategies),
                f"partitions of {n} players into {num_strategies} strategies")
    return iter_partitions(n, num_strategies)


def _support_masks(rows: Sequence[Sequence]) -> list[int]:
    """supports[sigma]: the bitmask of the pure strategies row sigma plays."""
    return [sum(1 << s for s, v in enumerate(sigma) if v > 0) for sigma in rows]


def _response_masks(game: AnonymousGame, counts: Sequence[int], den: int,
                    delta: Fraction) -> tuple[int, ...]:
    """B_p for every player p: the bitmask of p's pure strategies within
    delta (non-strict) of p's best pure response when the other n-1
    players' partition has law counts / den (in lowest terms or not).

    With payoffs v_s / scale and delta = a / b, the test v_s >= max(v) - delta
    is the integer cross-multiplication v_s * b >= max(v) * b - a * scale,
    which scaling counts and den alike leaves unchanged."""
    a, b = delta.numerator, delta.denominator
    masks = []
    for p in range(game.n):
        nums, scale = _payoff_numerators(game, counts, den, p)
        cut = max(nums) * b - a * scale
        masks.append(sum(1 << s for s, v in enumerate(nums) if v * b >= cut))
    return tuple(masks)


def _edge_lists(theta: Sequence[int], supports: Sequence[int], masks_of,
                n: int, prune: bool) -> list[list[int]] | None:
    """Adjacency lists, in sigma order: player p may take sigma iff theta
    puts someone on sigma and supp sigma is inside B_p(theta - e_sigma), as
    `masks_of` gives it for the ascending tuple of the opponents' strategy
    indices.  With `prune`, None as soon as some sigma has fewer than
    theta[sigma] players that may take it."""
    edges: list[list[int]] = [[] for _ in range(n)]
    players = [tau for tau, count in enumerate(theta) if count for _ in range(count)]
    at = 0
    while at < n:
        sigma_idx = players[at]
        count = theta[sigma_idx]
        masks = masks_of(tuple(players[:at] + players[at + 1:]))
        support = supports[sigma_idx]
        accepting = [p for p, mask in enumerate(masks) if mask & support == support]
        if prune and len(accepting) < count:
            return None
        for p in accepting:
            edges[p].append(sigma_idx)
        at += count
    return edges


def best_response_edges(game: AnonymousGame, strat_set: QuantizedStrategySet,
                        theta: Sequence[int], delta) -> list[list[int]]:
    """Adjacency lists of the assignment graph: player i may take strategy
    index sigma iff theta puts someone on sigma and every pure strategy in
    sigma's support is within delta of i's best pure response against the
    remaining theta (one unit removed from sigma).  The delta comparison
    is non-strict."""
    if sum(theta) != game.n:
        raise ValueError("theta must split exactly n players")
    delta = as_fraction(delta)
    rows = strat_set.strategies

    def masks_of(opponents):
        dist = sum_distribution([rows[tau] for tau in opponents], k=game.k)
        return _response_masks(game, dist.counts, dist.den, delta)

    return _edge_lists(theta, _support_masks(rows), masks_of, game.n, prune=False)


def max_flow_assign(edges: Sequence[Sequence[int]], theta: Sequence[int],
                    n: int) -> list[int] | None:
    """Assign each player a strategy index so that exactly theta[sigma]
    players land on sigma and every pair is an allowed edge, or None when
    no such assignment exists.

    Standard BFS augmenting paths on the unit-capacity player side with
    capacity theta[sigma] into the sink; integer capacities make the
    maximum flow integral, and the assignment is read off the saturated
    player->strategy edges.
    """
    num_sigma = len(theta)
    source, sink = 0, 1 + n + num_sigma
    num_nodes = sink + 1
    cap: list[dict[int, int]] = [dict() for _ in range(num_nodes)]

    def add_edge(u, v, c):
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    for p in range(n):
        add_edge(source, 1 + p, 1)
        for sigma_idx in edges[p]:
            add_edge(1 + p, 1 + n + sigma_idx, 1)
    for sigma_idx, count in enumerate(theta):
        if count > 0:
            add_edge(1 + n + sigma_idx, sink, count)

    flow = 0
    while True:
        parent = [-1] * num_nodes
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and parent[v] == -1:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] == -1:
            break
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1

    if flow != n:
        return None
    assignment = []
    for p in range(n):
        chosen = [s for s in edges[p] if cap[1 + p][1 + n + s] == 0]
        assignment.append(chosen[0])
    return assignment


@dataclass(frozen=True)
class SolveResult:
    certified: bool
    profile: MixedProfile | None
    support_gap: Fraction | None
    approx_regret: Fraction | None
    theta: tuple | None
    thetas_checked: int
    z: int
    epsilon: Fraction


def ptas_solve(game: AnonymousGame, epsilon, z: int) -> SolveResult:
    """Search all player splits over the quantized strategies for the first
    (lex order) one whose assignment graph has a perfect flow.

    delta for edge construction equals epsilon, and an edge admits a
    player to sigma against the very leave-one-out law that the exact
    certification uses, so every perfect flow is an epsilon-Nash profile.
    The exact support gap is still computed and checked, so soundness
    never leans on that argument or on the cover constants.  When no split
    has a perfect flow the result is uncertified, with no profile.

    The edge test for (theta, sigma) depends only on the opponents' split
    theta - e_sigma, so each player's best-response bitmask against such a
    split is computed once per call and kept in a memo that lives only for
    this call, folded from the grid's integer compositions over the scale
    (2^k z)^(n-1).  A split is rejected without a flow as soon as some sigma
    has fewer than theta[sigma] players that may take it.
    """
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # both guards run once, before the grid is built: the split count is
    # known from |S| alone, and the grid can hold up to 10^7 strategies
    splits = enumerate_theta(game.n, _strategy_count(game.k, z))
    units = (2 ** game.k) * z
    grid = enumerate_partitions(units, game.k)
    den = units ** (game.n - 1)
    supports = _support_masks(grid)
    memo: dict[tuple, tuple] = {}

    def masks_of(opponents):
        masks = memo.get(opponents)
        if masks is None:
            counts = _fold([grid[tau] for tau in opponents], game.k)
            masks = memo[opponents] = _response_masks(game, counts, den, epsilon)
        return masks

    for idx, theta in enumerate(splits):
        edges = _edge_lists(theta, supports, masks_of, game.n, prune=True)
        if edges is None or not all(edges):
            continue
        assignment = max_flow_assign(edges, theta, game.n)
        if assignment is None:
            continue
        profile = MixedProfile(probs=tuple(tuple(Fraction(c, units) for c in grid[s])
                                           for s in assignment))
        report = regret_profile(game, profile)
        if report.max_support_gap > epsilon:
            raise RuntimeError(f"split {theta} has a perfect flow but support gap "
                               f"{report.max_support_gap} > epsilon; this cannot "
                               f"happen and indicates a bug")
        return SolveResult(True, profile, report.max_support_gap,
                           report.max_approx_regret, theta, idx + 1, z, epsilon)
    checked = partition_count(game.n, len(grid))
    return SolveResult(False, None, None, None, None, checked, z, epsilon)


def solve_escalating(game: AnonymousGame, epsilon, z: int,
                     budget: float | None = None,
                     max_rounds: int = 8) -> SolveResult:
    """Retry with z doubled until certified, the round budget (seconds,
    checked between rounds) runs out, or max_rounds is hit.  Returns the
    certified result, or else the first round's uncertified one."""
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    start = time.monotonic()
    first: SolveResult | None = None
    current_z = z
    for round_no in range(max_rounds):
        try:
            result = ptas_solve(game, epsilon, current_z)
        except GuardExceeded:
            if round_no == 0:
                raise          # not even the requested z fits the cap
            break              # report the first round's result
        if result.certified:
            return result
        if first is None:
            first = result
        current_z *= 2
        if budget is not None and time.monotonic() - start > budget:
            break
    return first


# --- independent oracle ----------------------------------------------------

def _direct_support_gap(game: AnonymousGame, rows: Sequence) -> Fraction:
    """Exact support gap by direct enumeration over all opponent pure
    tuples; shares no code with the lattice convolution path."""
    n, k = game.n, game.k
    utilities = game.utilities
    worst = Fraction(0)
    for p in range(n):
        others = [rows[q] for q in range(n) if q != p]
        payoff = [Fraction(0)] * k
        for combo in product(range(k), repeat=n - 1):
            prob = Fraction(1)
            for vec, s in zip(others, combo):
                prob *= vec[s]
            if prob == 0:
                continue
            counts = [0] * k
            for s in combo:
                counts[s] += 1
            rank = partition_rank(tuple(counts), m=n - 1, k=k)
            for i in range(k):
                payoff[i] += prob * utilities[p][i][rank]
        best = max(payoff)
        gap = max(best - payoff[i] for i in range(k) if rows[p][i] > 0)
        worst = max(worst, gap)
    return worst


@dataclass(frozen=True)
class OracleResult:
    profile: MixedProfile
    support_gap: Fraction


def brute_force_oracle(game: AnonymousGame, grid: int) -> OracleResult:
    """Scan every profile with entries on the 1/grid grid and return the
    minimum exact support gap.  Only for tiny games; the candidate count
    is capped at 10^7."""
    total = partition_count(grid, game.k) ** game.n
    check_guard(total, f"brute-force grid of {total} profiles")
    best_gap = None
    best_rows = None
    for combo in product(enumerate_partitions(grid, game.k), repeat=game.n):
        rows = tuple(tuple(Fraction(c, grid) for c in comp) for comp in combo)
        gap = _direct_support_gap(game, rows)
        if best_gap is None or gap < best_gap:
            best_gap, best_rows = gap, rows
            if gap == 0:
                break
    return OracleResult(profile=MixedProfile(probs=best_rows), support_gap=best_gap)

