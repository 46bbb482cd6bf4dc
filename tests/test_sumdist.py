import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import (AnonymousGame, MixedProfile, RegretReport,
                       SumDistribution, leave_one_out, random_profile,
                       regret_profile, sum_distribution, tv_distance)
from anongames.games import as_fraction, enumerate_partitions, partition_count
from anongames.solver import _direct_support_gap
from anongames import sumdist
from anongames.sumdist import _fold, _payoff_numerators
from anongames.tdp import floor_root_power
from anongames.tvlab import (_poisson_pmf_truncated, _tv_aligned,
                             poisson_binomial_pmf, poisson_tv_check)


def anti_coordination(n=2):
    """u^p_i(x) = 1 iff some other player plays the other strategy (k=2)."""
    # partitions of n-1 players over 2 strategies, lex order: (0,n-1)..(n-1,0)
    table = []
    for p in range(n):
        per_strategy = []
        for i in range(2):
            row = []
            for x1 in range(n):          # partition (x1, n-1-x1) has rank x1
                other = 1 - i
                count_other = x1 if other == 0 else (n - 1 - x1)
                row.append(F(1) if count_other > 0 else F(0))
            per_strategy.append(tuple(row))
        table.append(tuple(per_strategy))
    return AnonymousGame(n=n, k=2, utilities=tuple(table))


def constant_game(n, k, c):
    from anongames.games import partition_count
    size = partition_count(n - 1, k)
    row = tuple([F(c)] * size)
    return AnonymousGame(n=n, k=k, utilities=tuple(
        tuple(row for _ in range(k)) for _ in range(n)))


def test_single_vector():
    d = sum_distribution([(F(3, 10), F(7, 10))])
    assert d.as_dict() == {(0, 1): F(7, 10), (1, 0): F(3, 10)}


def test_two_fair_coins():
    d = sum_distribution([(F(1, 2), F(1, 2))] * 2)
    assert d.as_dict() == {(0, 2): F(1, 4), (1, 1): F(1, 2), (2, 0): F(1, 4)}


def test_empty_input_is_point_mass():
    d = sum_distribution([], k=3)
    assert d.as_dict() == {(0, 0, 0): F(1)}


def test_empty_input_requires_k():
    with pytest.raises(ValueError):
        sum_distribution([])


def test_rejects_bad_vectors():
    with pytest.raises(ValueError):
        sum_distribution([(F(1, 2), F(1, 3))])
    with pytest.raises(ValueError):
        sum_distribution([(F(3, 2), F(-1, 2))])


def test_masses_sum_to_one_exactly():
    for seed in range(10):
        prof = random_profile(5, 3, seed=seed)
        d = sum_distribution(prof.probs)
        assert sum(d.mass) == 1


def test_order_invariance():
    prof = random_profile(5, 3, seed=42)
    rows = list(prof.probs)
    d1 = sum_distribution(rows)
    rng = random.Random(0)
    for _ in range(3):
        rng.shuffle(rows)
        assert sum_distribution(rows).mass == d1.mass


def test_k2_marginal_matches_poisson_binomial():
    for seed in range(5):
        prof = random_profile(6, 2, seed=seed)
        d = sum_distribution(prof.probs)
        pb = poisson_binomial_pmf([row[0] for row in prof.probs])
        # partition (j, n-j) has rank j
        assert d.mass == pb


def test_monte_carlo_cross_check():
    prof = random_profile(4, 3, seed=17)
    d = sum_distribution(prof.probs)
    rng = np.random.default_rng(1234)
    trials = 100_000
    rows = [np.array([float(v) for v in r]) for r in prof.probs]
    counts = {}
    draws = [rng.choice(3, size=trials, p=r / r.sum()) for r in rows]
    for t in range(trials):
        part = [0, 0, 0]
        for d_i in draws:
            part[d_i[t]] += 1
        key = tuple(part)
        counts[key] = counts.get(key, 0) + 1
    for part, mass in d.as_dict().items():
        p = float(mass)
        got = counts.get(part, 0) / trials
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(got - p) <= 3 * sigma + 1e-12, (part, got, p)


def test_float_mode_input_tolerance():
    # float entries are promoted to their exact dyadic values, so a row of
    # dyadic floats is accepted and any drift from a sum of 1 is rejected
    assert sum_distribution([(0.25, 0.75)]).mass == (F(3, 4), F(1, 4))
    with pytest.raises(ValueError):
        sum_distribution([(0.3 + 2e-10, 0.7)])
    with pytest.raises(ValueError):
        sum_distribution([(0.3, 0.7)])      # 0.3 + 0.7 is not 1 in dyadics


def test_tv_basic_cases():
    d1 = sum_distribution([(F(1), F(0))])
    d2 = sum_distribution([(F(0), F(1))])
    assert tv_distance(d1, d1) == 0
    assert tv_distance(d1, d2) == 1
    a = sum_distribution([(F(3, 10), F(7, 10))])
    b = sum_distribution([(F(1, 2), F(1, 2))])
    assert tv_distance(a, b) == F(1, 5)


def test_tv_rejects_mismatched_lattices():
    a = sum_distribution([(F(1), F(0))])
    b = sum_distribution([(F(1), F(0))] * 2)
    with pytest.raises(ValueError):
        tv_distance(a, b)


def test_tv_symmetry_and_triangle():
    dists = [sum_distribution(random_profile(4, 3, seed=s).probs) for s in range(3)]
    a, b, c = dists
    assert tv_distance(a, b) == tv_distance(b, a)
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)


def payoffs(game, dist, players):
    """The payoff rows of `players` against the opponents' law `dist`, read
    as Fractions off the integer numerators."""
    rows = []
    for p in players:
        nums, scale = _payoff_numerators(game, dist.counts, dist.den, p)
        rows.append(tuple(F(v, scale) for v in nums))
    return rows


def test_expected_utility_anti_coordination():
    game = anti_coordination()
    pure = sum_distribution([(F(0), F(1))])
    assert payoffs(game, pure, [0]) == reference_payoff_rows(game, pure, [0]) == [(1, 0)]
    half = sum_distribution([(F(1, 2), F(1, 2))])
    assert (payoffs(game, half, [0, 1]) == reference_payoff_rows(game, half, [0, 1])
            == [(F(1, 2), F(1, 2))] * 2)


def test_expected_utility_constant_game():
    game = constant_game(3, 2, F(2, 5))
    for seed in range(3):
        prof = random_profile(2, 2, seed=seed)
        dist = sum_distribution(prof.probs)
        assert (payoffs(game, dist, range(3)) == reference_payoff_rows(game, dist, range(3))
                == [(F(2, 5), F(2, 5))] * 3)


def test_regret_anti_coordination_mixed():
    game = anti_coordination()
    prof = MixedProfile(probs=((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    report = regret_profile(game, prof)
    assert report.max_support_gap == 0
    assert report.max_approx_regret == 0
    assert report.is_epsilon_nash(0)


def test_regret_anti_coordination_pure_clash():
    game = anti_coordination()
    prof = MixedProfile(probs=((F(1), F(0)), (F(1), F(0))))
    report = regret_profile(game, prof)
    assert report.support_gap == (F(1), F(1))


def test_regret_constant_game():
    game = constant_game(2, 2, F(1, 3))
    prof = MixedProfile(probs=((F(1), F(0)), (F(1, 4), F(3, 4))))
    report = regret_profile(game, prof)
    assert report.max_support_gap == 0
    assert report.max_approx_regret == 0


def test_epsilon_boundary_is_inclusive():
    # gap of exactly eps is accepted: the definition triggers on strict >
    game = anti_coordination()
    prof = MixedProfile(probs=((F(1), F(0)), (F(1), F(0))))
    report = regret_profile(game, prof)
    assert report.is_epsilon_nash(1)
    assert not report.is_epsilon_nash(F(99, 100))


# --- the integer lattice kernel against the Fraction reference ---------------

def reference_sum_distribution(vectors, k):
    """The Fraction dict fold the integer kernel replaced: one exact
    rational multiply-add per (cell, strategy) pair."""
    state = {(0,) * k: F(1)}
    for vec in vectors:
        vals = [as_fraction(v) for v in vec]
        nxt = {}
        for part, mass in state.items():
            for ell, p in enumerate(vals):
                if p == 0:
                    continue
                key = part[:ell] + (part[ell] + 1,) + part[ell + 1:]
                nxt[key] = nxt.get(key, F(0)) + mass * p
        state = nxt
    return tuple(state.get(part, F(0)) for part in enumerate_partitions(len(vectors), k))


def reference_payoff_rows(game, dist, players):
    utilities, mass = game.utilities, dist.mass
    return [tuple(sum(u * m for u, m in zip(row, mass)) for row in utilities[p])
            for p in players]


def _composition(total, k):
    """k non-negative integers summing to total, zeros included."""
    cuts = st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)
    return cuts.map(lambda c: [b - a for a, b in zip([0] + sorted(c), sorted(c) + [total])])


def _grid_row(k, denominators=(1, 2, 7, 16, 160, 1000)):
    return st.sampled_from(denominators).flatmap(
        lambda d: _composition(d, k).map(lambda c: tuple(F(x, d) for x in c)))


def _dyadic_float_row(k):
    return st.integers(0, 10).flatmap(
        lambda bits: _composition(2 ** bits, k).map(
            lambda c: tuple(x / 2 ** bits for x in c)))


_UTILITIES = (F(0), F(1), F(1, 2), F(1, 3), F(2, 7), F(5, 16), F(999, 1000), F(0.1))
# a float's 2^53 denominator next to large primes: a player's lcm L_p and
# the payoff scale den * L_p pass 2^64
_WIDE_UTILITIES = (F(2 / 3), F(0.1), F(500000, 999983), F(2 ** 61 - 2, 2 ** 61 - 1),
                   F(1, 2 ** 61 - 1), F(1))


@st.composite
def _game(draw, n, k, values=_UTILITIES):
    size = partition_count(n - 1, k)
    entry = st.sampled_from(values)
    return AnonymousGame(n=n, k=k, utilities=tuple(
        tuple(tuple(draw(st.lists(entry, min_size=size, max_size=size)))
              for _ in range(k)) for _ in range(n)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(2, 4), st.integers(0, 9)).flatmap(
    lambda kn: st.tuples(st.just(kn[0]), st.lists(
        _grid_row(kn[0]) | _dyadic_float_row(kn[0]), min_size=kn[1], max_size=kn[1]))))
def test_integer_fold_matches_fraction_fold(case):
    k, rows = case
    assert sum_distribution(rows, k=k).mass == reference_sum_distribution(rows, k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(2, 4), st.integers(0, 9)).flatmap(
    lambda kn: st.tuples(st.just(kn[0]), st.lists(
        st.sampled_from((1, 4, 6, 16, 160, 999983, 2 ** 61 - 1)).flatmap(
            lambda d: st.tuples(st.just(d), _composition(d, kn[0]))),
        min_size=kn[1], max_size=kn[1]))))
def test_fold_of_compositions_matches_the_checked_fold(case):
    # integer compositions, unreduced ones (2, 2) over 4 included, against
    # the same rows as Fractions: the counts agree once both are scaled to
    # one denominator
    k, rows = case
    counts = _fold([c for _, c in rows], k)
    scale = math.prod(d for d, _ in rows)
    dist = sum_distribution([tuple(F(x, d) for x in c) for d, c in rows], k=k)
    assert sum(counts) == scale
    assert [c * dist.den for c in counts] == [c * scale for c in dist.counts]


def reference_regret_profile(game, rows):
    """Payoffs and both regrets by Fraction arithmetic on the Fraction fold."""
    payoffs, approx, gaps = [], [], []
    for p in range(game.n):
        others = [rows[q] for q in range(game.n) if q != p]
        mass = reference_sum_distribution(others, game.k)
        row = tuple(sum(u * m for u, m in zip(us, mass)) for us in game.utilities[p])
        best = max(row)
        approx.append(best - sum(w * v for w, v in zip(rows[p], row)))
        gaps.append(max(best - v for w, v in zip(rows[p], row) if w > 0))
        payoffs.append(row)
    return RegretReport(payoffs=tuple(payoffs), approx_regret=tuple(approx),
                        support_gap=tuple(gaps))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(2, 4), st.integers(2, 3)).flatmap(
    lambda nk: st.tuples(_game(*nk) | _game(*nk, values=_WIDE_UTILITIES), st.lists(
        _grid_row(nk[1], denominators=(16,))
        | _grid_row(nk[1], denominators=(999983, 2 ** 61 - 1)),
        min_size=nk[0], max_size=nk[0]))))
def test_integer_payoffs_match_fraction_contraction_and_oracle(case):
    game, rows = case
    dist = sum_distribution(rows[1:], k=game.k)
    players = range(game.n)
    assert payoffs(game, dist, players) == reference_payoff_rows(game, dist, players)
    report = regret_profile(game, MixedProfile(probs=tuple(rows)))
    assert report == reference_regret_profile(game, rows)
    assert report.max_support_gap == _direct_support_gap(game, rows)


# --- the law format: counts over one denominator, in lowest terms -----------

@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(2, 4), st.integers(0, 9)).flatmap(
    lambda kn: st.tuples(st.just(kn[0]), st.lists(
        _grid_row(kn[0]) | _grid_row(kn[0], denominators=(999983, 2 ** 61 - 1))
        | _dyadic_float_row(kn[0]), min_size=kn[1], max_size=kn[1]),
        st.randoms(use_true_random=False))))
def test_law_is_reduced_counts_with_exact_floats(case):
    # the prime denominators put den above 2^53 after a few rows, where a
    # float(c) / float(den) shortcut would round three times
    k, rows, rng = case
    d = sum_distribution(rows, k=k)
    assert math.gcd(d.den, *d.counts) == 1
    assert sum(d.counts) == d.den
    assert [x.hex() for x in d.floats()] == [float(m).hex() for m in d.mass]
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert sum_distribution(shuffled, k=k) == d


# --- leave-one-out laws by exact division of the full law -------------------

_WIDE_GRIDS = (1, 2, 7, 16, 160, 1000, 999983, 2 ** 61 - 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(2, 4), st.integers(1, 9)).flatmap(
    lambda kn: st.tuples(st.just(kn[0]), st.lists(
        _grid_row(kn[0], denominators=_WIDE_GRIDS) | _dyadic_float_row(kn[0]),
        min_size=kn[1], max_size=kn[1]), st.integers(0, kn[1] - 1))))
def test_leave_one_out_is_the_fold_of_the_other_rows(case):
    k, rows, j = case
    others = rows[:j] + rows[j + 1:]
    loo = leave_one_out(sum_distribution(rows, k=k), rows[j])
    assert loo == sum_distribution(others, k=k)      # same counts, same den
    assert loo.mass == reference_sum_distribution(others, k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(2, 4), st.integers(1, 6)).flatmap(
    lambda kn: st.tuples(st.just(kn[0]), st.lists(
        _grid_row(kn[0], denominators=(2, 4, 7, 16)), min_size=kn[1],
        max_size=kn[1]), _grid_row(kn[0], denominators=(2, 4, 7, 16)))))
def test_leave_one_out_rejects_every_row_that_is_not_a_factor(case):
    # the rows are linear forms, which are irreducible, so a row divides
    # the law exactly when it is one of them
    k, rows, row = case
    full = sum_distribution(rows, k=k)
    if row in rows:
        j = rows.index(row)
        assert leave_one_out(full, row) == sum_distribution(rows[:j] + rows[j + 1:], k=k)
    else:
        with pytest.raises(ValueError, match="not a factor"):
            leave_one_out(full, row)


def test_leave_one_out_rejections_name_the_failed_check():
    quarter = sum_distribution([(F(1, 4), F(3, 4))] * 2, k=2)   # (x + 3)^2 / 16
    # 3 does not divide den = 16
    with pytest.raises(ValueError, match="denominator"):
        leave_one_out(sum_distribution([(F(1, 2), F(1, 2))] * 2), (F(1, 3), F(2, 3)))
    # (3x + 1) / 4: the first division, 1 / 3, leaves a remainder
    with pytest.raises(ValueError, match="remainder"):
        leave_one_out(quarter, (F(3, 4), F(1, 4)))
    # (x + 1) / 2: every division is exact and the quotient x + 5 is
    # non-negative, but (x + 5)(x + 1) misses the unread cell x^0 by 4
    with pytest.raises(ValueError, match="unread cell"):
        leave_one_out(quarter, (F(1, 2), F(1, 2)))
    # 1 + x^3 = (1 + x)(1 - x + x^2): an exact quotient that is not a law
    with pytest.raises(ValueError, match="negative"):
        leave_one_out(SumDistribution(m=3, k=2, counts=(1, 0, 0, 1), den=2),
                      (F(1, 2), F(1, 2)))


def test_leave_one_out_rejects_malformed_calls():
    full = sum_distribution([(F(1, 2), F(1, 2))] * 2)
    with pytest.raises(ValueError):
        leave_one_out(full, (F(1, 2), F(1, 4), F(1, 4)))
    with pytest.raises(ValueError):
        leave_one_out(full, (F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        leave_one_out(sum_distribution([], k=2), (F(1, 2), F(1, 2)))
    assert leave_one_out(sum_distribution([(1,)] * 3), (1,)) == sum_distribution([(1,)] * 2)


_PIVOT_OTHERS = {1: [(1,), (1,)],
                 3: [(F(1, 2), F(1, 4), F(1, 4)), (0, F(1, 3), F(2, 3)),
                     (F(1, 5), F(3, 5), F(1, 5))]}


@pytest.mark.parametrize("row", [
    (0, F(1, 2), F(1, 2)),          # a zero first entry
    (0, 1, 0),                      # only a middle entry
    (0, 0, 1),                      # only the last entry
    (1,),                           # k = 1
    (F(1, 10), F(3, 5), F(3, 10)),  # the first non-zero entry is the smallest
    (F(1, 7), 0, F(6, 7)),          # a zero between the pivot and the rest
])
def test_leave_one_out_pivots_on_the_first_nonzero_entry(row):
    others = _PIVOT_OTHERS[len(row)]
    for j in range(len(others) + 1):
        rows = others[:j] + [row] + others[j:]
        full = sum_distribution(rows, k=len(row))
        assert leave_one_out(full, row) == sum_distribution(others, k=len(row))


def reference_successors(m, k):
    """The dict-built successor table rank arithmetic replaced."""
    rank = {part: r for r, part in enumerate(enumerate_partitions(m + 1, k))}
    return tuple(tuple(rank[part[:ell] + (part[ell] + 1,) + part[ell + 1:]]
                       for part in enumerate_partitions(m, k))
                 for ell in range(k))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.integers(0, 25 if k <= 4 else 12), st.just(k))))
def test_successor_tables_match_the_dict_built_tables(case):
    m, k = case
    assert sumdist._successors(m, k) == reference_successors(m, k)
    cached = sum(kk * len(t[0]) for (_, kk), t in sumdist._tables.items())
    assert cached == sumdist._table_entries <= sumdist.TABLE_BUDGET


def test_large_fold_keeps_its_tables_within_the_budget():
    # a k=3 fold of 100 pure rows: the arithmetic is trivial, so the peak is
    # the lattice tables; keeping every level's tables would hold about
    # 19 MB, the budget holds about 5 MB
    code = ("import tracemalloc; from anongames.sumdist import sum_distribution; "
            "tracemalloc.start(); "
            "sum_distribution([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0)] * 25, k=3); "
            "print(tracemalloc.get_traced_memory()[1])")
    env = dict(os.environ, PYTHONPATH=str(Path(sumdist.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10 * 2 ** 20


def test_sum_distribution_rejects_a_malformed_shape():
    # Pi^2_2 has three cells, so two counts are no law on it
    with pytest.raises(ValueError, match="one count per cell"):
        SumDistribution(m=2, k=2, counts=(1, 1), den=2)
    for m, k, den in [(-1, 2, 1), (1, 0, 1), (0, 2, 0), (1.0, 2, 1), (1, 2, True)]:
        with pytest.raises(ValueError):
            SumDistribution(m=m, k=k, counts=(1, 1), den=den)
    assert SumDistribution(m=0, k=3, counts=(1,), den=1) == sum_distribution([], k=3)


def reference_float_poisson_binomial(probs):
    """The float one-row DP that poisson_tv_check used before it read the
    exact pmf."""
    pmf = [1.0]
    for p in map(float, probs):
        nxt = [0.0] * (len(pmf) + 1)
        for j, mass in enumerate(pmf):
            if mass == 0:
                continue
            nxt[j] += mass * (1 - p)
            nxt[j + 1] += mass * p
        pmf = nxt
    return np.array(pmf)


@st.composite
def _admissible_bernoullis(draw):
    z = draw(st.integers(2, 200))
    alpha = F(draw(st.integers(1, 9)), 10)
    threshold = F(floor_root_power(z, alpha), z)
    numerators = st.integers(0, threshold.numerator)
    probs = draw(st.lists(numerators, max_size=60))
    return [F(a, threshold.denominator) for a in probs], z, alpha


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_admissible_bernoullis())
def test_poisson_check_on_exact_pmf_matches_float_dp(case):
    probs, z, alpha = case
    chk = poisson_tv_check(probs, z, alpha)
    old_tv = _tv_aligned(reference_float_poisson_binomial(probs), 0,
                         _poisson_pmf_truncated(float(sum(probs))), 0)
    # the float DP rounds about twice per player and cell, so its TV drifts
    # by up to a few units of 2^-53 per player (12.7 units seen at n = 50)
    assert abs(chk.tv - old_tv) <= 4 * (len(probs) + 1) * 2.0 ** -53
    assert chk.passed == (old_tv <= chk.bound)
