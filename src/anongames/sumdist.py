"""Exact laws of sums of independent categorical unit vectors.

The sum of n independent draws, each a unit vector e_l with probability
p_i(l), lives on the partition lattice Pi^k_n.  The full distribution is
computed by iterative convolution, growing the lattice one vector at a
time.  The arithmetic is exact and runs on integers: each row is written
as integer numerators over the lcm d_i of its denominators (float inputs
are promoted to their exact dyadic values first), and the fold multiplies
and adds those integers over the one denominator d_1 * ... * d_n.  The
finished law is kept in that form, as integer counts over one denominator
in lowest terms.  The fold itself (`_fold`) takes integer rows: those of
`sum_distribution` after its checks, or the solver's grid compositions of
2^k z as they are.  Expected payoffs contract the counts directly with each
player's integer utility table (`AnonymousGame.tables`); callers
that want floats (the total-variation experiments) read
`SumDistribution.floats`, and `SumDistribution.mass` gives the exact
`Fraction`s.  The fold's one-row step y -> y + e_l reads one successor
table per level (`_successors`), built by rank arithmetic and cached up to
TABLE_BUDGET entries.

A leave-one-out law, the law of every row but one, comes from the full
law by exact division (`leave_one_out`): the fold's one-row step run
backwards over the same successor table.  The quotient is the fold of the
other rows, with the same counts over the same denominator.  Every
division and every cell it does not divide are checked, so a row that is
not a factor raises ValueError instead of yielding a law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Sequence

from .errors import GameFormatError
from .games import (AnonymousGame, MixedProfile, as_fraction,
                    enumerate_partitions, partition_count)


@dataclass(frozen=True)
class SumDistribution:
    """Probability mass over Pi^k_m, indexed by canonical partition rank:
    cell r has mass counts[r] / den, with gcd(den, *counts) == 1, so two
    laws are equal exactly when they compare equal."""

    m: int
    k: int
    counts: tuple
    den: int

    def __post_init__(self):
        # O(1) shape checks only, in one condition because a search builds
        # many small laws; sign, sum and lowest terms are proved by the two
        # producers, sum_distribution and leave_one_out
        m, k, den = self.m, self.k, self.den
        if not (type(m) is type(k) is type(den) is int and m >= 0 and k >= 1
                and den >= 1 and len(self.counts) == partition_count(m, k)):
            raise ValueError(f"a sum distribution needs integers m >= 0, k >= 1 and "
                             f"den >= 1 and one count per cell of Pi^k_m; got m={m!r}, "
                             f"k={k!r}, den={den!r} and {len(self.counts)} counts")

    @property
    def mass(self) -> tuple:
        """The exact masses, as `Fraction`s in lowest terms."""
        return tuple(Fraction(c, self.den) for c in self.counts)

    def floats(self) -> tuple:
        """The masses as correctly rounded floats (int / int rounds once)."""
        return tuple(c / self.den for c in self.counts)

    def support(self) -> tuple:
        return enumerate_partitions(self.m, self.k)

    def as_dict(self) -> dict:
        return dict(zip(self.support(), self.mass))

    def to_csv(self) -> str:
        lines = ["partition_rank,mass"]
        lines += [f"{r},{v!r}" for r, v in enumerate(self.floats())]
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


TABLE_BUDGET = 1 << 17   # successor-table entries cached; larger tables are built per call
_tables: dict = {}
_table_entries = 0


def _successors(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """succ[l][r]: the rank in Pi^k_{m+1} of partition r of Pi^k_m plus e_l.

    The only lattice table, built by rank arithmetic: the cells sharing
    their first i coordinates (an i-block) are |Pi^{k-i}_{r_i}| consecutive
    ranks, r_i = m minus the prefix sum, and succ[l][r] - r is
    |Pi^{k-1}_{m+1}| minus the sizes of r's i-blocks for i = 1..l.  So
    succ[l] is one range per l-block, and succ[k-1] = succ[k-2] - 1.  The
    blocks of each level are expanded from the previous level's, with no
    recursion, in time linear in the table.
    """
    global _table_entries
    tables = _tables.get((m, k))
    if tables:
        return tables
    if k == 1:
        return ((0,),)
    blocks = [(partition_count(m + 1, k - 1), m)]   # (succ[l] of first cell, r) per l-block
    tables = []
    for w in range(k, 1, -1):
        size = [partition_count(r, w) for r in range(m + 1)]
        if w < k:
            nxt = []
            for t, r in blocks:
                for rr in range(r, -1, -1):
                    nxt.append((t - size[rr], rr))
                    t += size[rr]
            blocks = nxt
        tables.append(tuple(chain.from_iterable(range(t, t + size[r]) for t, r in blocks)))
    tables.append(tuple(chain.from_iterable(range(t - 1, t + r) for t, r in blocks)))
    tables = tuple(tables)
    if _table_entries + k * len(tables[0]) <= TABLE_BUDGET:
        _tables[m, k] = tables
        _table_entries += k * len(tables[0])
    return tables


def _fold(rows: Sequence[Sequence[int]], k: int) -> list[int]:
    """The fold of `sum_distribution` on unchecked integer rows: with row i
    as numerators over its own scale d_i, cell r has mass counts[r] / prod
    d_i, in lowest terms only when each row's numerators are coprime."""
    counts = [1]
    for m, ints in enumerate(rows):
        nxt = [0] * partition_count(m + 1, k)
        for succ, a in zip(_successors(m, k), ints):
            if a:
                for r, c in zip(succ, counts):
                    nxt[r] += c * a
        counts = nxt
    return counts


def sum_distribution(vectors: Sequence[Sequence],
                     k: int | None = None) -> SumDistribution:
    """Exact law of the sum of independent unit vectors.

    vectors[i][l] is the probability that draw i lands on strategy l.  The
    lattice grows with the fold (after i vectors the state lives on
    Pi^k_i), which keeps memory at the final lattice size.  The fold runs
    on integers: row i enters as numerators over its own denominator d_i,
    and the state holds numerators over d_1 * ... * d_i, which is the
    finished law, in lowest terms.  An empty input is the
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

    checked = [_check_vector(vec) for vec in vectors]
    counts = _fold([ints for _, ints in checked], k)
    den = math.prod(d for d, _ in checked)
    # Lowest terms already: each row's numerators are coprime (d is the lcm
    # of reduced denominators), and the counts are the coefficients of the
    # product of the rows' linear forms, so by Gauss's lemma they are too.
    assert sum(counts) == den
    return SumDistribution(m=len(vectors), k=k, counts=tuple(counts), den=den)


def leave_one_out(full: SumDistribution, row: Sequence) -> SumDistribution:
    """The law of the other rows, given the law `full` of all of them and
    one of its rows: the exact quotient G of full = G * row.

    With the row as integer numerators a over d, F[y] = sum_l a_l
    G[y - e_l].  With l0 the first l with a_l > 0, the quotient cells x are
    visited by descending rank: the other terms of F[x + e_l0], from
    G[x + e_l0 - e_l] with l > l0, rank above x and are already taken off,
    so G[x] is one exact division by a_l0, and a_l G[x] is then taken off
    F[x + e_l] for each other l.  The result is the fold of the other rows,
    with the same counts over the same denominator den / d (in lowest terms
    by the Gauss's-lemma argument of `sum_distribution`).

    The division proves itself: a den that d does not divide, a non-zero
    remainder, a cell never divided that G * row does not reproduce, or a
    negative quotient count (an exact factor of a hand-built law need not
    be a law) raises ValueError, so a row that is not a factor never
    yields a law.
    """
    if len(row) != full.k:
        raise ValueError(f"row has length {len(row)}, expected k={full.k}")
    if full.m < 1:
        raise ValueError("no row to remove from the law of an empty sum")
    d, ints = _check_vector(row)
    if full.den % d:
        raise ValueError("row is not a factor of the law: its denominator "
                         "does not divide the law's")
    succ = _successors(full.m - 1, full.k)
    l0 = next(ell for ell, a in enumerate(ints) if a)
    a0, pivot = ints[l0], succ[l0]
    others = [(succ[ell], ints[ell]) for ell in range(l0 + 1, full.k) if ints[ell]]
    rest = list(full.counts)
    quotient = [0] * len(pivot)
    for x in range(len(pivot) - 1, -1, -1):
        y = pivot[x]
        q, rem = divmod(rest[y], a0)
        if rem:
            raise ValueError("row is not a factor of the law: "
                             "a division leaves a remainder")
        rest[y] = 0
        quotient[x] = q
        for s, a in others:
            rest[s[x]] -= a * q
    if any(rest):
        raise ValueError("row is not a factor of the law: the quotient "
                         "misses an unread cell")
    if min(quotient) < 0:
        raise ValueError("row is not a factor of the law: "
                         "the quotient has a negative count")
    return SumDistribution(m=full.m - 1, k=full.k, counts=tuple(quotient),
                           den=full.den // d)


def tv_distance(p: SumDistribution, q: SumDistribution) -> Fraction:
    """Exact total variation distance, (1/2) * sum |P(a) - Q(a)|."""
    if (p.m, p.k) != (q.m, q.k):
        raise ValueError(f"mismatched lattices: Pi^{p.k}_{p.m} vs Pi^{q.k}_{q.m}")
    return Fraction(sum(abs(a * q.den - b * p.den) for a, b in zip(p.counts, q.counts)),
                    2 * p.den * q.den)


def poisson_binomial_pmf(probs: Sequence) -> tuple:
    """Exact pmf of a sum of independent Bernoullis over {0..n}: the k=2
    law of sum_distribution (partition (j, n-j) has rank j)."""
    ps = [as_fraction(p) for p in probs]
    if any(p < 0 or p > 1 for p in ps):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    return sum_distribution([(p, 1 - p) for p in ps], k=2).mass


def _payoff_numerators(game: AnonymousGame, counts: Sequence[int], den: int,
                       p: int) -> tuple[list[int], int]:
    """(nums, scale): player p's expected utility of pure strategy s against
    the opponents' law counts / den on Pi^k_{n-1} is nums[s] / scale, with
    scale = den * L_p for every s, so the payoffs compare as integers.  Each
    numerator is the integer dot product of p's utility numerators with the
    counts."""
    lcm, rows = game.tables[p]
    return [sum(map(mul, row, counts)) for row in rows], den * lcm


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
    """Exact regrets of every player under `profile`.  The payoffs, the
    best response and both regrets are integers over one scale per
    player; only the reported values become `Fraction`s."""
    if profile.n != game.n or profile.k != game.k:
        raise GameFormatError("profile dimensions disagree with the game")
    payoffs = []
    approx = []
    gaps = []
    for p in range(game.n):
        others = [profile.probs[q] for q in range(game.n) if q != p]
        dist = sum_distribution(others, k=game.k)
        nums, scale = _payoff_numerators(game, dist.counts, dist.den, p)
        best = max(nums)
        d, weights = _check_vector(profile.probs[p])
        approx.append(Fraction(best * d - sum(map(mul, weights, nums)), scale * d))
        gaps.append(Fraction(best - min(v for v, w in zip(nums, weights) if w), scale))
        payoffs.append(tuple(Fraction(v, scale) for v in nums))
    return RegretReport(payoffs=tuple(payoffs), approx_regret=tuple(approx),
                        support_gap=tuple(gaps))
