"""The benchmark's four workloads: seeded inputs, one library call per op,
and the output checks that run outside the timed interval.

Ops call the library through the `anongames` package namespace, so a
tracer that rebinds the package's functions sees them.  Checks and
canonical forms call the library too, so they must run while no tracer
is installed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import anongames as ag
from anongames.discretize import DEFAULT_ALPHA
from anongames.games import partition_count
from anongames.tdp import floor_root_power
from anongames.tvlab import mix_trial_seed

PINNED_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, int], list]   # (seed, count) -> first `count` op inputs
    run: Callable                             # op input -> output
    check: Callable                           # (input, output) -> failure text or None
    canonical: Callable                       # (input, output) -> exact text
    derived: Callable                         # (input, output) -> counters read off the output
    pool: int          # op inputs generated per run; ops cycle through them
    pinned_ops: int    # ops of the pinned seed whose outputs are digested
    nominal_ops_per_s: float   # sizes the fixed op list of a traced run


def _child_seeds(tag: str, seed: int):
    rng = random.Random(f"{tag}:{seed}")
    while True:
        yield rng.getrandbits(63)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rows(rows) -> str:
    return ";".join(",".join(_frac(v) for v in row) for row in rows)


def _discretization_failure(orig_rows, disc_rows, z: int) -> str | None:
    """Grid membership, at most 1/z error per coordinate, zeros kept."""
    if len(orig_rows) != len(disc_rows):
        return "discretized profile lost players"
    for orig, disc in zip(orig_rows, disc_rows):
        unit = (2 ** len(orig)) * z
        if sum(disc) != 1:
            return "discretized row does not sum to 1"
        for a, b in zip(disc, orig):
            if (a * unit).denominator != 1:
                return "entry off the 1/(2^k z) grid"
            if abs(a - b) > Fraction(1, z):
                return "entry moved by more than 1/z"
            if b == 0 and a != 0:
                return "support grew"
    return None


# --- solve: the theta-split search ------------------------------------------

SOLVE_N, SOLVE_K, SOLVE_Z = 4, 2, 1
SOLVE_EPS = Fraction(1, 1000)


def _solve_inputs(seed: int, count: int) -> list:
    seeds = _child_seeds("solve", seed)
    return [ag.random_game(SOLVE_N, SOLVE_K, next(seeds)) for _ in range(count)]


def _solve_run(game):
    return ag.ptas_solve(game, SOLVE_EPS, SOLVE_Z)


def _solve_check(game, res) -> str | None:
    strategies = partition_count((2 ** game.k) * SOLVE_Z, game.k)
    if res.certified and not res.support_gap <= SOLVE_EPS:
        return "certified result has a gap above eps"
    if not res.certified and res.thetas_checked != partition_count(game.n, strategies):
        return "uncertified result did not search every split"
    if res.profile is not None:
        report = ag.regret_profile(game, res.profile)
        if (report.max_support_gap != res.support_gap
                or report.max_approx_regret != res.approx_regret):
            return "reported gap disagrees with the recomputed regret"
    return None


def _solve_derived(game, res) -> dict:
    return {"solver.thetas_visited": res.thetas_checked}


def _solve_canonical(game, res) -> str:
    if res.profile is None:
        return f"{res.certified}|{res.thetas_checked}|none"
    return (f"{res.certified}|{res.thetas_checked}|{res.theta}|"
            f"{_rows(res.profile.probs)}|{_frac(res.support_gap)}|"
            f"{_frac(res.approx_regret)}")


# --- tv-sweep: rows of the n-independence experiment ------------------------

TV_K, TV_Z, TV_DENOMINATOR = 3, 20, 1000
# n = 8 appears twice so that the median op falls inside the n = 8 rows and
# p90 inside the n = 16 rows, never on the edge between two row sizes.
TV_CYCLE = (2, 4, 8, 8, 16)


def _tv_inputs(seed: int, count: int) -> list:
    trials = dict.fromkeys(TV_CYCLE, 0)
    out = []
    for i in range(count):
        n = TV_CYCLE[i % len(TV_CYCLE)]
        row_seed = mix_trial_seed(seed, TV_Z, n, trials[n])
        trials[n] += 1
        out.append(ag.random_profile(n, TV_K, row_seed, denominator=TV_DENOMINATOR))
    return out


def _tv_run(profile):
    return ag.discretization_tv(profile, TV_Z, DEFAULT_ALPHA)


def _tv_check(profile, out) -> str | None:
    tv, loo = out
    if not (0 <= tv <= 1 and 0 <= loo <= 1):
        return "total variation outside [0, 1]"
    disc = ag.discretize_profile(profile, TV_Z, DEFAULT_ALPHA)
    return _discretization_failure(profile.probs, disc.probs, TV_Z)


def _tv_canonical(profile, out) -> str:
    disc = ag.discretize_profile(profile, TV_Z, DEFAULT_ALPHA)
    return f"{_rows(disc.probs)}|{out[0]:.12e}|{out[1]:.12e}"


# --- certify: exact regrets of solver-shaped profiles -----------------------

CERT_N, CERT_K, CERT_Z = 12, 3, 2     # rows on the 1/(2^k z) = 1/16 grid
CERT_GAMES = 16                       # op i uses game i % CERT_GAMES
CERT_ROW_CHOICES = 3


def _certify_inputs(seed: int, count: int) -> list:
    seeds = _child_seeds("certify", seed)
    games = [ag.random_game(CERT_N, CERT_K, next(seeds))
             for _ in range(min(count, CERT_GAMES))]
    grid = ag.enumerate_quantized_strategies(CERT_K, CERT_Z).strategies
    rng = random.Random(f"certify-rows:{seed}")
    out = []
    for i in range(count):
        chosen = rng.sample(grid, CERT_ROW_CHOICES)
        rows = tuple(rng.choice(chosen) for _ in range(CERT_N))
        out.append((games[i % CERT_GAMES], ag.MixedProfile(probs=rows)))
    return out


def _certify_run(inp):
    game, profile = inp
    return ag.regret_profile(game, profile)


def _certify_check(inp, report) -> str | None:
    game, profile = inp
    if len(report.support_gap) != game.n or len(report.payoffs) != game.n:
        return "report does not cover every player"
    for gap, approx, payoffs in zip(report.support_gap, report.approx_regret,
                                    report.payoffs):
        if not 0 <= approx <= gap:
            return "expectation regret outside [0, support gap]"
        if any(not 0 <= v <= 1 for v in payoffs):
            return "expected payoff outside [0, 1]"
    return None


def _certify_canonical(inp, report) -> str:
    return "|".join([_rows(report.payoffs), _rows([report.approx_regret]),
                     _rows([report.support_gap])])


def multisets(n: int, epsilon: Fraction) -> int:
    """Multisets of n values the minimax grid search scores at pitch eps."""
    levels = epsilon.denominator + 1
    return math.comb(n + levels - 1, levels - 1)


def _no_counters(inp, out) -> dict:
    return {}


# --- offlattice: minimax, quasi, discretize and bound checks ----------------

MINIMAX_N, MINIMAX_EPS = 8, Fraction(1, 12)
QUASI_EPS = Fraction(1, 10)
DISC_N, DISC_K, DISC_Z = 200, 5, 40
DISC_PROFILES = 16   # discretize ops cycle through these: an op's time hardly
                     # depends on the profile, and drawing profiles is set-up
# discretize appears twice so that the median op falls inside the discretize
# ops, whose times cluster, rather than among the quasi ops, whose times
# spread over two orders of magnitude with the equilibrium's lex position.
OFF_KINDS = ("minimax", "quasi", "discretize", "discretize", "bounds")


def _has_pure_equilibrium(game) -> bool:
    u0, u1 = game.utilities
    for a in range(2):
        for b in range(2):
            if (u0[2 * a + b] >= u0[2 * (1 - a) + b]
                    and u1[2 * a + b] >= u1[2 * a + 1 - b]):
                return True
    return False


def _quasi_game(rng):
    while True:
        game = ag.NormalFormGame(p=2, s=2, utilities=tuple(
            tuple(Fraction(rng.randint(0, 24), 24) for _ in range(4))
            for _ in range(2)))
        if not _has_pure_equilibrium(game):
            return game


def _bounds_params(rng):
    z = rng.randint(16, 150)
    alpha = Fraction(rng.randint(3, 7), 10)
    thr = Fraction(floor_root_power(z, alpha), z)
    probs = [Fraction(rng.randint(0, thr.numerator), thr.denominator)
             for _ in range(rng.randint(1, 50))]
    translated = tuple(rng.uniform(lo, hi) for lo, hi in
                       ((2, 40), (1, 20), (2, 40), (1, 20)))
    plain = (rng.uniform(0.5, 50), rng.uniform(0.01, 10))
    return probs, z, alpha, translated, plain


def _offlattice_inputs(seed: int, count: int) -> list:
    rng = random.Random(f"offlattice:{seed}")
    seeds = _child_seeds("offlattice-profiles", seed)
    profiles: list = []
    discretize_ops = 0
    out = []
    for i in range(count):
        kind = OFF_KINDS[i % len(OFF_KINDS)]
        if kind == "minimax":
            payload = ag.ObjectiveFunctions(n=MINIMAX_N, tables=tuple(
                tuple(Fraction(rng.randint(0, 60), 60) for _ in range(MINIMAX_N + 1))
                for _ in range(2)))
        elif kind == "quasi":
            payload = _quasi_game(rng)
        elif kind == "discretize":
            if len(profiles) < DISC_PROFILES:
                profiles.append(ag.random_profile(DISC_N, DISC_K, next(seeds)))
            payload = profiles[discretize_ops % DISC_PROFILES]
            discretize_ops += 1
        else:
            payload = _bounds_params(rng)
        out.append((kind, payload))
    return out


def _offlattice_run(inp):
    kind, x = inp
    if kind == "minimax":
        return ag.minimax_ptas(x, MINIMAX_EPS)
    if kind == "quasi":
        return ag.quasi_solve(x, QUASI_EPS)
    if kind == "discretize":
        return ag.discretize_profile(x, DISC_Z)
    probs, z, alpha, translated, plain = x
    return (ag.poisson_tv_check(probs, z, alpha),
            ag.translated_poisson_tv_check(*translated),
            ag.poisson_poisson_tv_check(*plain))


def _offlattice_check(inp, out) -> str | None:
    kind, x = inp
    if kind == "minimax":
        if len(out.probs) != x.n or list(out.probs) != sorted(out.probs):
            return "minimax multiset malformed"
        if any((p / out.epsilon).denominator != 1 or not 0 <= p <= 1
               for p in out.probs):
            return "minimax probability off the eps grid"
        if abs(out.value - float(ag.objective_value(x, out.probs))) > 1e-9:
            return "minimax value disagrees with the exact objective"
        return None
    if kind == "quasi":
        if any((v * out.grid_units).denominator != 1 for row in out.profile for v in row):
            return "quasi profile off its grid"
        if ag.nf_regret(x, out.profile).max_regret > QUASI_EPS:
            return "quasi profile regret above eps"
        return None
    if kind == "discretize":
        return _discretization_failure(x.probs, out.probs, DISC_Z)
    if not all(chk.passed for chk in out):
        return "a Poisson bound check failed"
    return None


def _offlattice_derived(inp, out) -> dict:
    kind, x = inp
    if kind == "minimax":
        return {"minimax.multisets": multisets(x.n, out.epsilon)}
    if kind == "discretize":
        return {"discretize.discretize_profile.players": out.n}
    return {}


def _offlattice_canonical(inp, out) -> str:
    kind, _ = inp
    if kind == "minimax":
        return f"minimax|{_rows([out.probs])}|{out.value:.12e}"
    if kind == "quasi":
        return f"quasi|{_rows(out.profile)}|{_rows([out.regret])}"
    if kind == "discretize":
        return f"discretize|{_rows(out.probs)}"
    return "bounds|" + ",".join(str(chk.passed) for chk in out)


WORKLOADS = {
    w.name: w for w in (
        Workload("solve", _solve_inputs, _solve_run, _solve_check,
                 _solve_canonical, _solve_derived, pool=512, pinned_ops=8,
                 nominal_ops_per_s=20.0),
        Workload("tv-sweep", _tv_inputs, _tv_run, _tv_check, _tv_canonical,
                 _no_counters, pool=320, pinned_ops=5, nominal_ops_per_s=9.0),
        Workload("certify", _certify_inputs, _certify_run, _certify_check,
                 _certify_canonical, _no_counters, pool=256, pinned_ops=4,
                 nominal_ops_per_s=14.0),
        Workload("offlattice", _offlattice_inputs, _offlattice_run,
                 _offlattice_check, _offlattice_canonical,
                 _offlattice_derived, pool=200,
                 pinned_ops=5, nominal_ops_per_s=9.0),
    )
}
