"""Exact laws of sums of independent categorical unit vectors.

The sum of n independent draws, each a unit vector e_l with probability
p_i(l), lives on the partition lattice Pi^k_n.  The full distribution is
computed by iterative convolution, growing the lattice one vector at a
time.  The arithmetic is exact and runs on integers: each row is written
as integer numerators over the lcm d_i of its denominators (float inputs
are promoted to their exact dyadic values first), the fold multiplies and
adds those integers over the one denominator d_1 * ... * d_n, and the
division happens once, when the finished masses become `Fraction`s.
Expected payoffs contract integer numerators the same way.  Callers that
want floats (the total-variation experiments) convert the finished law
with `SumDistribution.to_floats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import GameFormatError
from .games import (AnonymousGame, MixedProfile, as_fraction,
                    enumerate_partitions, partition_count)


@dataclass(frozen=True)
class SumDistribution:
    """Probability mass over Pi^k_m, indexed by canonical partition rank."""

    m: int
    k: int
    mass: tuple

    def support(self) -> tuple:
        return enumerate_partitions(self.m, self.k)

    def as_dict(self) -> dict:
        return dict(zip(self.support(), self.mass))

    def to_floats(self) -> "SumDistribution":
        return SumDistribution(self.m, self.k, tuple(float(v) for v in self.mass))

    def to_csv(self) -> str:
        lines = ["partition_rank,mass"]
        lines += [f"{r},{float(v)!r}" for r, v in enumerate(self.mass)]
        return "\n".join(lines) + "\n"


def _check_vector(vec) -> tuple[int, list[int]]:
    """(d, ints): the row as integer numerators over d, the lcm of its
    denominators.  Entries must be non-negative and sum to exactly 1."""
    vals = [as_fraction(v) for v in vec]
    d = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (d // v.denominator) for v in vals]
    if any(a < 0 for a in ints):
        raise ValueError("negative probability entry")
    if sum(ints) != d:
        raise ValueError("probability vector must sum to exactly 1")
    return d, ints


@lru_cache(maxsize=None)
def _successors(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """succ[l][r]: the rank in Pi^k_{m+1} of partition r of Pi^k_m plus e_l."""
    rank = {part: r for r, part in enumerate(enumerate_partitions(m + 1, k))}
    return tuple(tuple(rank[part[:ell] + (part[ell] + 1,) + part[ell + 1:]]
                       for part in enumerate_partitions(m, k))
                 for ell in range(k))


def sum_distribution(vectors: Sequence[Sequence],
                     k: int | None = None) -> SumDistribution:
    """Exact law of the sum of independent unit vectors.

    vectors[i][l] is the probability that draw i lands on strategy l.  The
    lattice grows with the fold (after i vectors the state lives on
    Pi^k_i), which keeps memory at the final lattice size.  The fold runs
    on integers: row i enters as numerators over its own denominator d_i,
    the state holds numerators over d_1 * ... * d_i, and each mass is
    divided by that product once, at the end.  An empty input is the
    convolution identity: a point mass at the all-zero partition (k must
    then be given explicitly).
    """
    vectors = list(vectors)
    if k is None:
        if not vectors:
            raise ValueError("k is required for an empty vector list")
        k = len(vectors[0])
    if k < 1:
        raise ValueError("k must be >= 1")
    if any(len(v) != k for v in vectors):
        raise ValueError("all vectors must have length k")

    counts = [1]
    den = 1
    for m, vec in enumerate(vectors):
        d, ints = _check_vector(vec)
        nxt = [0] * partition_count(m + 1, k)
        for succ, a in zip(_successors(m, k), ints):
            if a:
                for r, c in zip(succ, counts):
                    nxt[r] += c * a
        counts = nxt
        den *= d

    assert sum(counts) == den
    mass = tuple(Fraction(c, den) for c in counts)
    return SumDistribution(m=len(vectors), k=k, mass=mass)


def tv_distance(p: SumDistribution, q: SumDistribution):
    """Total variation distance, (1/2) * sum |P(a) - Q(a)|.

    Exact when both masses are rational, float otherwise.
    """
    if (p.m, p.k) != (q.m, q.k):
        raise ValueError(f"mismatched lattices: Pi^{p.k}_{p.m} vs Pi^{q.k}_{q.m}")
    return sum(abs(a - b) for a, b in zip(p.mass, q.mass)) / 2


def poisson_binomial_pmf(probs: Sequence, exact: bool = True) -> tuple:
    """pmf of a sum of independent Bernoullis over {0..n}.  Exact mode is
    the k=2 law of sum_distribution (partition (j, n-j) has rank j); float
    mode is the standard one-row DP."""
    ps = [as_fraction(p) if exact else float(p) for p in probs]
    if any(p < 0 or p > 1 for p in ps):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    if exact:
        return sum_distribution([(p, 1 - p) for p in ps], k=2).mass
    pmf = [1.0]
    for p in ps:
        nxt = [0.0] * (len(pmf) + 1)
        for j, mass in enumerate(pmf):
            if mass == 0:
                continue
            nxt[j] += mass * (1 - p)
            nxt[j + 1] += mass * p
        pmf = nxt
    return tuple(pmf)


def payoff_rows(game: AnonymousGame, dist: SumDistribution,
                players: Iterable[int]) -> list:
    """rows[j][s]: the exact expected utility E[u^p_s(x)] of pure strategy
    s for p = players[j] when the opponents' partition x has law `dist`,
    which must live on Pi^k_{n-1}.

    The contraction runs on integers: the masses become counts over den,
    the lcm of their denominators, each utility row becomes numerators
    over its own lcm L, and each payoff is one division by den * L."""
    if (dist.m, dist.k) != (game.n - 1, game.k):
        raise ValueError(f"opponent law on Pi^{dist.k}_{dist.m}, expected "
                         f"Pi^{game.k}_{game.n - 1}")
    den = math.lcm(*(m.denominator for m in dist.mass))
    counts = [m.numerator * (den // m.denominator) for m in dist.mass]
    rows = []
    for p in players:
        payoffs = []
        for row in game.utilities[p]:
            lcm = math.lcm(*(u.denominator for u in row))
            num = sum(u.numerator * (lcm // u.denominator) * c
                      for u, c in zip(row, counts))
            payoffs.append(Fraction(num, den * lcm))
        rows.append(tuple(payoffs))
    return rows


@dataclass(frozen=True)
class RegretReport:
    """Exact per-player payoff and regret summary for a mixed profile.

    support_gap is the epsilon-Nash quantity: the worst shortfall of a
    strategy actually played (positive probability) from the best pure
    response.  approx_regret is the weaker expectation gap.  A profile is
    an eps-Nash equilibrium iff max_support_gap <= eps (a gap of exactly
    eps is accepted: the definition's trigger is a strict inequality).
    """

    payoffs: tuple          # payoffs[p][i] = E[u^p_i], exact
    approx_regret: tuple
    support_gap: tuple

    @property
    def max_approx_regret(self) -> Fraction:
        return max(self.approx_regret)

    @property
    def max_support_gap(self) -> Fraction:
        return max(self.support_gap)

    def is_epsilon_nash(self, epsilon) -> bool:
        return self.max_support_gap <= as_fraction(epsilon)


def regret_profile(game: AnonymousGame, profile: MixedProfile) -> RegretReport:
    """Exact regrets of every player under `profile` (rational arithmetic)."""
    if profile.n != game.n or profile.k != game.k:
        raise GameFormatError("profile dimensions disagree with the game")
    payoffs = []
    approx = []
    gaps = []
    for p in range(game.n):
        others = [profile.probs[q] for q in range(game.n) if q != p]
        dist = sum_distribution(others, k=game.k)
        row_payoffs, = payoff_rows(game, dist, [p])
        best = max(row_payoffs)
        mix = profile.probs[p]
        approx.append(best - sum(w * v for w, v in zip(mix, row_payoffs)))
        gaps.append(max(best - row_payoffs[i] for i in range(game.k) if mix[i] > 0))
        payoffs.append(row_payoffs)
    return RegretReport(payoffs=tuple(payoffs), approx_regret=tuple(approx),
                        support_gap=tuple(gaps))
