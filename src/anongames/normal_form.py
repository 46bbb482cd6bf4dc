"""Grid search for approximate equilibria of small normal-form games.

Restricting every player to mixed strategies whose entries are multiples
of delta = eps/(2*p*s) is enough: rounding any exact equilibrium onto
that grid (support-preserving, per-entry error at most delta) moves every
expected utility by at most eps/2, so the grid always contains an
eps-approximate equilibrium and exhaustive search must find one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .discretize import largest_remainder_round
from .errors import GameFormatError
from .games import (_dump_json, _frac_str, _load_json, as_fraction,
                    enumerate_partitions, partition_count, require_int)
from .guards import check_guard

EXACT_NE_TOL = Fraction(1, 10 ** 9)


@dataclass(frozen=True)
class NormalFormGame:
    """p players, s strategies each; utilities[player][profile_rank] where
    profile_rank is the mixed-radix index of the pure profile with player
    1's digit most significant."""

    p: int
    s: int
    utilities: tuple

    def __post_init__(self):
        require_int("normal-form game", p=self.p, s=self.s)
        if self.p < 1 or self.s < 1:
            raise GameFormatError("normal-form game needs p >= 1 and s >= 1")
        if len(self.utilities) != self.p:
            raise GameFormatError("table size mismatch: one row per player")
        size = self.s ** self.p
        coerced = []
        for row in self.utilities:
            if len(row) != size:
                raise GameFormatError(
                    f"table size mismatch: expected {size} entries per player")
            vals = tuple(as_fraction(v) for v in row)
            if any(v < 0 or v > 1 for v in vals):
                raise GameFormatError("utility out of range [0, 1]")
            coerced.append(vals)
        object.__setattr__(self, "utilities", tuple(coerced))

    def profile_rank(self, actions: Sequence[int]) -> int:
        rank = 0
        for a in actions:
            rank = rank * self.s + a
        return rank

    def utility(self, player: int, actions: Sequence[int]) -> Fraction:
        return self.utilities[player][self.profile_rank(actions)]


def parse_nf_game(data: bytes | str) -> NormalFormGame:
    return _load_json(data, "normal-form", ("p", "s", "utilities"), lambda obj: NormalFormGame(
        p=obj["p"], s=obj["s"], utilities=obj["utilities"]))


def serialize_nf_game(game: NormalFormGame) -> bytes:
    return _dump_json({"p": game.p, "s": game.s,
                       "utilities": [[_frac_str(v) for v in row] for row in game.utilities]})


def expected_payoffs(game: NormalFormGame, rows: Sequence[Sequence[Fraction]]) -> list:
    """payoffs[i][j]: exact expected utility of player i for pure strategy
    j against the others' mixed strategies `rows` (exact, one per player,
    of length s), by one pass over the pure profiles in rank order."""
    out = [[Fraction(0)] * game.s for _ in range(game.p)]
    for actions, *utils in zip(product(range(game.s), repeat=game.p), *game.utilities):
        probs = [row[a] for row, a in zip(rows, actions)]
        for i, u in enumerate(utils):
            others = probs[:i] + probs[i + 1:]
            if u and all(others):
                out[i][actions[i]] += math.prod(others, start=u)
    return out


@dataclass(frozen=True)
class NfRegretReport:
    payoffs: tuple
    regret: tuple     # best pure response minus current expected payoff

    @property
    def max_regret(self) -> Fraction:
        return max(self.regret)


def nf_regret(game: NormalFormGame, profile: Sequence[Sequence]) -> NfRegretReport:
    rows = [tuple(as_fraction(v) for v in r) for r in profile]
    if len(rows) != game.p or any(len(r) != game.s for r in rows):
        raise ValueError("profile dimensions disagree with the game")
    payoffs = expected_payoffs(game, rows)
    regret = []
    for i in range(game.p):
        best = max(payoffs[i])
        current = sum(w * v for w, v in zip(rows[i], payoffs[i]))
        regret.append(best - current)
    return NfRegretReport(payoffs=tuple(tuple(r) for r in payoffs),
                          regret=tuple(regret))


def grid_delta(game: NormalFormGame, epsilon) -> tuple[Fraction, int]:
    """(delta, units): delta = eps/(2 p s) and the number of grid units per
    strategy vector, units = ceil(1/delta)."""
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    delta = epsilon / (2 * game.p * game.s)
    units = math.ceil(1 / delta)
    return delta, units


@dataclass(frozen=True)
class QuasiResult:
    profile: tuple
    regret: tuple
    delta: Fraction
    grid_units: int


def quasi_solve(game: NormalFormGame, epsilon) -> QuasiResult:
    """First profile (lex order over the per-player grids) whose exact
    regret is at most epsilon.

    The per-player grid is every composition of `units` grid units, so
    vectors sum to exactly 1 by construction and both endpoints 0 and 1
    are available.  Exhaustion without a hit is impossible (an exact
    equilibrium always rounds onto the grid); it is surfaced as a bug.
    """
    epsilon = as_fraction(epsilon)
    delta, units = grid_delta(game, epsilon)
    count = partition_count(units, game.s)
    check_guard(count ** game.p, f"quasi grid of {count}^{game.p} profiles")
    for combo in product(enumerate_partitions(units, game.s), repeat=game.p):
        rows = tuple(tuple(Fraction(c, units) for c in comp) for comp in combo)
        report = nf_regret(game, rows)
        if report.max_regret <= epsilon:
            return QuasiResult(profile=rows, regret=report.regret,
                               delta=delta, grid_units=units)
    raise RuntimeError("no grid profile met the regret target; "
                       "this cannot happen and indicates a bug")


@dataclass(frozen=True)
class PerturbationResult:
    passed: bool
    rounded: tuple
    regret: tuple
    delta: Fraction


def perturbation_check(game: NormalFormGame, exact_ne: Sequence[Sequence],
                       epsilon) -> PerturbationResult:
    """Round a (near-)exact equilibrium onto the delta grid, support
    preserved, and check the rounded profile is an eps-approximate
    equilibrium.  This is a theorem, so a failure flags a bug."""
    epsilon = as_fraction(epsilon)
    rows = [tuple(as_fraction(v) for v in r) for r in exact_ne]
    before = nf_regret(game, rows)
    if before.max_regret > EXACT_NE_TOL:
        raise ValueError(f"input regret {float(before.max_regret)!r} too large "
                         "to be an exact equilibrium")
    _, units = grid_delta(game, epsilon)
    rounded = tuple(tuple(largest_remainder_round(r, units)) for r in rows)
    report = nf_regret(game, rounded)
    return PerturbationResult(passed=report.max_regret <= epsilon,
                              rounded=rounded, regret=report.regret,
                              delta=Fraction(1, units))
