"""Exact laws of sums of independent categorical unit vectors.

The sum of n independent draws, each a unit vector e_l with probability
p_i(l), lives on the partition lattice Pi^k_n.  The full distribution is
computed by iterative convolution, growing the lattice one vector at a
time.  The arithmetic is exact: float inputs are promoted to their
exact dyadic values, and every mass is a rational.  Callers that want
floats (the total-variation experiments) convert the finished law with
`SumDistribution.to_floats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GameFormatError
from .games import (AnonymousGame, MixedProfile, as_fraction,
                    enumerate_partitions)


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


def _check_vector(vec) -> tuple:
    vals = tuple(as_fraction(v) for v in vec)
    if any(v < 0 for v in vals):
        raise ValueError("negative probability entry")
    if sum(vals) != 1:
        raise ValueError("probability vector must sum to exactly 1")
    return vals


def sum_distribution(vectors: Sequence[Sequence],
                     k: int | None = None) -> SumDistribution:
    """Exact law of the sum of independent unit vectors.

    vectors[i][l] is the probability that draw i lands on strategy l.  The
    lattice grows with the fold (after i vectors the state lives on
    Pi^k_i), which keeps memory at the final lattice size.  An empty input
    is the convolution identity: a point mass at the all-zero partition
    (k must then be given explicitly).
    """
    vectors = list(vectors)
    if k is None:
        if not vectors:
            raise ValueError("k is required for an empty vector list")
        k = len(vectors[0])
    if any(len(v) != k for v in vectors):
        raise ValueError("all vectors must have length k")

    zero, one = Fraction(0), Fraction(1)
    state = {(0,) * k: one}
    for vec in vectors:
        vals = _check_vector(vec)
        nxt: dict = {}
        for part, mass in state.items():
            for ell, p in enumerate(vals):
                if p == 0:
                    continue
                key = part[:ell] + (part[ell] + 1,) + part[ell + 1:]
                if key in nxt:
                    nxt[key] = nxt[key] + mass * p
                else:
                    nxt[key] = mass * p
        state = nxt

    m = len(vectors)
    mass = tuple(state.get(part, zero) for part in enumerate_partitions(m, k))
    assert sum(mass) == 1
    return SumDistribution(m=m, k=k, mass=mass)


def tv_distance(p: SumDistribution, q: SumDistribution):
    """Total variation distance, (1/2) * sum |P(a) - Q(a)|.

    Exact when both masses are rational, float otherwise.
    """
    if (p.m, p.k) != (q.m, q.k):
        raise ValueError(f"mismatched lattices: Pi^{p.k}_{p.m} vs Pi^{q.k}_{q.m}")
    return sum(abs(a - b) for a, b in zip(p.mass, q.mass)) / 2


def poisson_binomial_pmf(probs: Sequence, exact: bool = True) -> tuple:
    """pmf of a sum of independent Bernoullis over {0..n}, by the standard
    one-row DP.  Exact mode matches the k=2 marginal of sum_distribution."""
    if exact:
        ps = [as_fraction(p) for p in probs]
        zero, one = Fraction(0), Fraction(1)
    else:
        ps = [float(p) for p in probs]
        zero, one = 0.0, 1.0
    if any(p < 0 or p > 1 for p in ps):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    pmf = [one]
    for p in ps:
        nxt = [zero] * (len(pmf) + 1)
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
    which must live on Pi^k_{n-1}."""
    if (dist.m, dist.k) != (game.n - 1, game.k):
        raise ValueError(f"opponent law on Pi^{dist.k}_{dist.m}, expected "
                         f"Pi^{game.k}_{game.n - 1}")
    return [tuple(sum(u * m for u, m in zip(row, dist.mass))
                  for row in game.utilities[p]) for p in players]


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
