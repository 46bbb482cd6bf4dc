"""Certified search for epsilon-Nash equilibria of anonymous games.

The search space is the finite set of quantized mixed strategies (all
probability vectors on the 1/(2^k z) grid).  For every way to split the
n players among those strategies, a bipartite feasibility problem decides
whether players can be assigned so that everyone plays a near-best
response; feasible assignments are then certified by the exact regret
computation, so the answer never depends on the unestimated constants of
the cover construction: a returned equilibrium is proven, and the loop
escalates z when none is found.
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterator, Sequence

from .errors import GuardExceeded
from .games import (AnonymousGame, MixedProfile, as_fraction,
                    enumerate_partitions, iter_partitions, partition_count,
                    partition_rank)
from .guards import check_guard
from .sumdist import payoff_rows, regret_profile, sum_distribution


@dataclass(frozen=True)
class QuantizedStrategySet:
    """All distributions over [k] on the 1/(2^k z) grid, lex ordered."""

    k: int
    z: int
    strategies: tuple

    def __len__(self) -> int:
        return len(self.strategies)


def enumerate_quantized_strategies(k: int, z: int) -> QuantizedStrategySet:
    if k < 2 or z < 1:
        raise ValueError("need k >= 2 and z >= 1")
    grid = (2 ** k) * z
    count = partition_count(grid, k)
    check_guard(count, f"quantized strategy set for k={k}, z={z}")
    strategies = tuple(tuple(Fraction(c, grid) for c in comp)
                       for comp in enumerate_partitions(grid, k))
    return QuantizedStrategySet(k=k, z=z, strategies=strategies)


def enumerate_theta(n: int, num_strategies: int) -> Iterator[tuple[int, ...]]:
    """All ways to split n players among the quantized strategies, in
    ascending lex order, lazily."""
    if n < 1 or num_strategies < 1:
        raise ValueError("need n >= 1 and at least one strategy")
    check_guard(partition_count(n, num_strategies),
                f"partitions of {n} players into {num_strategies} strategies")
    return iter_partitions(n, num_strategies)


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
    edges: list[list[int]] = [[] for _ in range(game.n)]
    for sigma_idx, count in enumerate(theta):
        if count == 0:
            continue
        sigma = strat_set.strategies[sigma_idx]
        opponents = []
        for tau_idx, tau_count in enumerate(theta):
            copies = tau_count - (1 if tau_idx == sigma_idx else 0)
            opponents.extend([strat_set.strategies[tau_idx]] * copies)
        dist = sum_distribution(opponents, k=game.k)
        payoffs = payoff_rows(game, dist, range(game.n))
        support = [s for s in range(game.k) if sigma[s] > 0]
        for p in range(game.n):
            best = max(payoffs[p])
            if all(payoffs[p][s] >= best - delta for s in support):
                edges[p].append(sigma_idx)
    return edges


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


def _hits(game, strat_set, indexed, epsilon):
    """(idx, theta, profile, support gap, approx regret) for each indexed
    split whose assignment graph has a perfect flow, lazily, in input
    order.  The gaps are the exact certification of those profiles."""
    for idx, theta in indexed:
        edges = best_response_edges(game, strat_set, theta, epsilon)
        if any(not e for e in edges):
            continue
        assignment = max_flow_assign(edges, theta, game.n)
        if assignment is None:
            continue
        profile = MixedProfile(probs=tuple(strat_set.strategies[s] for s in assignment))
        report = regret_profile(game, profile)
        yield idx, theta, profile, report.max_support_gap, report.max_approx_regret


def _theta_block_worker(args):
    return list(_hits(*args))


def _feasible_splits(game, strat_set, epsilon, jobs):
    """The hits of every split in lex order: evaluated lazily in this
    process, or in blocks of splits over `jobs` worker processes."""
    indexed = enumerate(enumerate_theta(game.n, len(strat_set)))
    if jobs == 1:
        yield from _hits(game, strat_set, indexed, epsilon)
        return
    block_size = 256
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending: deque = deque()
        while True:
            while len(pending) < jobs * 2:
                block = list(islice(indexed, block_size))
                if not block:
                    break
                pending.append(pool.submit(
                    _theta_block_worker, (game, strat_set, block, epsilon)))
            if not pending:
                return
            yield from pending.popleft().result()


def ptas_solve(game: AnonymousGame, epsilon, z: int, jobs: int = 1) -> SolveResult:
    """Search all player splits over the quantized strategies for the first
    (lex order) one whose assignment graph has a perfect flow.

    delta for edge construction equals epsilon, and an edge admits a
    player to sigma against the very leave-one-out law that the exact
    certification uses, so every perfect flow is an epsilon-Nash profile.
    The exact support gap is still computed and checked, so soundness
    never leans on that argument or on the cover constants.  When no split
    has a perfect flow the result is uncertified, with no profile.
    """
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    strat_set = enumerate_quantized_strategies(game.k, z)

    with closing(_feasible_splits(game, strat_set, epsilon, jobs)) as hits:
        hit = next(hits, None)
    if hit is None:
        checked = partition_count(game.n, len(strat_set))
        return SolveResult(False, None, None, None, None, checked, z, epsilon)
    idx, theta, profile, gap, approx = hit
    if gap > epsilon:
        raise RuntimeError(f"split {theta} has a perfect flow but support gap "
                           f"{gap} > epsilon; this cannot happen and indicates a bug")
    return SolveResult(True, profile, gap, approx, theta, idx + 1, z, epsilon)


def solve_escalating(game: AnonymousGame, epsilon, z: int,
                     budget: float | None = None, jobs: int = 1,
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
            result = ptas_solve(game, epsilon, current_z, jobs=jobs)
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
                payoff[i] += prob * game.utilities[p][i][rank]
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
    per_player = enumerate_partitions(grid, game.k)
    total = len(per_player) ** game.n
    check_guard(total, f"brute-force grid of {total} profiles")
    best_gap = None
    best_rows = None
    for combo in product(per_player, repeat=game.n):
        rows = tuple(tuple(Fraction(c, grid) for c in comp) for comp in combo)
        gap = _direct_support_gap(game, rows)
        if best_gap is None or gap < best_gap:
            best_gap, best_rows = gap, rows
            if gap == 0:
                break
    return OracleResult(profile=MixedProfile(probs=best_rows), support_gap=best_gap)


def bit_bound(n: int, z: int, k: int, u_min) -> int:
    """ceil(1 + n(k + log2 z) + log2(1/u_min)): the bit budget sufficient
    for exact expected-utility values when all strategies live on the
    quantized grid and u_min is the smallest non-zero payoff."""
    u_min = as_fraction(u_min)
    if u_min <= 0:
        raise ValueError("u_min must be positive")
    return math.ceil(1 + n * (k + math.log2(z)) + math.log2(1 / float(u_min)))
