import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import (GuardExceeded, MixedProfile, RegretReport,
                       partition_count, random_game, regret_profile,
                       sum_distribution)
from anongames.solver import (SolveResult, best_response_edges,
                              brute_force_oracle, enumerate_quantized_strategies,
                              enumerate_theta, max_flow_assign, ptas_solve,
                              solve_escalating)
from anongames.sumdist import _check_vector, _fold
from tests.test_sumdist import (_game, anti_coordination, constant_game,
                                reference_payoff_rows)


def test_quantized_strategies_k2_z1():
    ss = enumerate_quantized_strategies(2, 1)
    assert ss.strategies == (
        (F(0), F(1)), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 2)),
        (F(3, 4), F(1, 4)), (F(1), F(0)))


def test_quantized_strategies_counts():
    assert len(enumerate_quantized_strategies(2, 2)) == 9
    for k, z in ((2, 1), (2, 3), (3, 1)):
        ss = enumerate_quantized_strategies(k, z)
        assert len(ss) <= ((2 ** k) * z) ** k          # the loose closed-form cap
        assert all(sum(s) == 1 for s in ss.strategies)


def test_quantized_strategies_guard():
    with pytest.raises(GuardExceeded):
        enumerate_quantized_strategies(6, 1000)


def test_theta_enumeration():
    assert list(enumerate_theta(1, 2)) == [(0, 1), (1, 0)]
    thetas = list(enumerate_theta(2, 3))
    assert len(thetas) == 6 == partition_count(2, 3)
    assert len(set(thetas)) == 6
    assert thetas == sorted(thetas)
    for n, K in ((2, 3), (3, 4), (1, 5)):
        assert partition_count(n, K) <= (n + 1) ** (K - 1)


def test_best_response_edges_anti_coordination():
    game = anti_coordination()
    ss = enumerate_quantized_strategies(2, 1)
    # theta: one player on pure 1 (index 4), one on pure 2 (index 0)
    theta = (1, 0, 0, 0, 1)
    edges = best_response_edges(game, ss, theta, F(0))
    assert 4 in edges[0] and 4 in edges[1]     # pure 1 against pure 2 pays 1
    assert 0 in edges[0] and 0 in edges[1]


def test_best_response_edges_gates_on_theta():
    game = anti_coordination()
    ss = enumerate_quantized_strategies(2, 1)
    theta = (0, 0, 2, 0, 0)
    edges = best_response_edges(game, ss, theta, F(1))
    # delta 1 admits everything with theta support, nothing else
    assert edges == [[2], [2]]
    with pytest.raises(ValueError):
        best_response_edges(game, ss, (1, 0, 0, 0, 0), F(0))


def test_max_flow_simple_cases():
    # complete graph, feasible theta
    assignment = max_flow_assign([[0, 1], [0, 1]], (1, 1), 2)
    assert sorted(assignment) == [0, 1]
    # isolated player
    assert max_flow_assign([[0], []], (2, 0), 2) is None
    # anti-coordination: each player can take either pure strategy
    assignment = max_flow_assign([[0, 4], [0, 4]], (1, 0, 0, 0, 1), 2)
    assert sorted(assignment) == [0, 4]


def exhaustive_assignment_exists(edges, theta, n):
    """Backtracking oracle, no flow machinery shared."""
    remaining = list(theta)

    def place(p):
        if p == n:
            return True
        for s in edges[p]:
            if remaining[s] > 0:
                remaining[s] -= 1
                if place(p + 1):
                    return True
                remaining[s] += 1
        return False

    return place(0)


def test_max_flow_matches_exhaustive_matching():
    rng = random.Random(123)
    agree = 0
    for case in range(200):
        n = rng.randint(1, 8)
        num_sigma = rng.randint(1, 5)
        # random theta: composition of n
        theta = [0] * num_sigma
        for _ in range(n):
            theta[rng.randrange(num_sigma)] += 1
        edges = [sorted(rng.sample(range(num_sigma), rng.randint(0, num_sigma)))
                 for _ in range(n)]
        got = max_flow_assign(edges, tuple(theta), n)
        want = exhaustive_assignment_exists(edges, tuple(theta), n)
        assert (got is not None) == want, (n, theta, edges)
        if got is not None:
            agree += 1
            counts = [0] * num_sigma
            for p, s in enumerate(got):
                assert s in edges[p]
                counts[s] += 1
            assert counts == theta
    assert agree > 10    # the sweep actually exercises both outcomes


def test_ptas_anti_coordination_certifies_half_half():
    game = anti_coordination()
    res = ptas_solve(game, F(1, 10), z=1)
    assert res.certified
    assert res.profile.probs == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert res.support_gap == 0


def test_ptas_constant_game_first_theta_wins():
    res = ptas_solve(constant_game(2, 2, F(1, 2)), F(1, 10), z=1)
    assert res.certified and res.thetas_checked == 1 and res.support_gap == 0


def test_ptas_pure_coordination():
    from anongames import AnonymousGame
    from anongames.games import enumerate_partitions
    parts = enumerate_partitions(2, 2)
    table = tuple(
        tuple(tuple(F(1) if x[i] == 2 else F(0) for x in parts) for i in range(2))
        for _ in range(3))
    game = AnonymousGame(n=3, k=2, utilities=table)
    res = ptas_solve(game, F(1, 10), z=1)
    assert res.certified and res.support_gap == 0
    assert len(set(res.profile.probs)) == 1          # everyone matches
    assert set(res.profile.probs[0]) == {F(0), F(1)}  # on a pure strategy


def test_ptas_result_profile_is_quantized_and_certified():
    for seed in range(4):
        game = random_game(3, 2, seed=seed)
        res = solve_escalating(game, F(1, 5), 1, max_rounds=3)
        assert res.certified
        grid = (2 ** game.k) * res.z
        for row in res.profile.probs:
            assert all((v * grid).denominator == 1 for v in row)
        # the multiset of assigned strategies realizes the winning theta
        ss = enumerate_quantized_strategies(game.k, res.z)
        expanded = []
        for idx, count in enumerate(res.theta):
            expanded.extend([ss.strategies[idx]] * count)
        assert sorted(expanded) == sorted(res.profile.probs)
        report = regret_profile(game, res.profile)
        assert report.max_support_gap == res.support_gap <= F(1, 5)


def reference_best_response_edges(game, strat_set, theta, delta):
    """The per-split edge construction the memoized search replaced: one
    opponent fold and one set of payoff rows per sigma in supp theta."""
    edges = [[] for _ in range(game.n)]
    for sigma_idx, count in enumerate(theta):
        if count == 0:
            continue
        sigma = strat_set.strategies[sigma_idx]
        opponents = []
        for tau_idx, tau_count in enumerate(theta):
            copies = tau_count - (1 if tau_idx == sigma_idx else 0)
            opponents.extend([strat_set.strategies[tau_idx]] * copies)
        payoffs = reference_payoff_rows(game, sum_distribution(opponents, k=game.k),
                                        range(game.n))
        support = [s for s in range(game.k) if sigma[s] > 0]
        for p in range(game.n):
            best = max(payoffs[p])
            if all(payoffs[p][s] >= best - delta for s in support):
                edges[p].append(sigma_idx)
    return edges


def reference_ptas_solve(game, epsilon, z):
    """The lex-ordered search over every split with the reference edges."""
    strat_set = enumerate_quantized_strategies(game.k, z)
    for idx, theta in enumerate(enumerate_theta(game.n, len(strat_set))):
        edges = reference_best_response_edges(game, strat_set, theta, epsilon)
        assignment = max_flow_assign(edges, theta, game.n)
        if assignment is None:
            continue
        profile = MixedProfile(probs=tuple(strat_set.strategies[s] for s in assignment))
        report = regret_profile(game, profile)
        return SolveResult(True, profile, report.max_support_gap,
                           report.max_approx_regret, theta, idx + 1, z, epsilon)
    checked = partition_count(game.n, len(strat_set))
    return SolveResult(False, None, None, None, None, checked, z, epsilon)


EPSILONS = (F(1, 10 ** 6), F(1, 1000), F(1, 10), F(1, 5))


def _random_theta(n, num_strategies):
    return st.lists(st.integers(0, num_strategies - 1), min_size=n, max_size=n).map(
        lambda picks: tuple(picks.count(s) for s in range(num_strategies)))


def _edge_case(nkz):
    n, k, z = nkz
    num_strategies = len(enumerate_quantized_strategies(k, z))
    return st.tuples(st.just(nkz), st.integers(0, 2 ** 16),
                     _random_theta(n, num_strategies),
                     st.sampled_from((F(0),) + EPSILONS))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(2, 5), st.integers(2, 3), st.integers(1, 2))
       .flatmap(_edge_case))
def test_edges_match_reference_construction(case):
    (n, k, z), seed, theta, delta = case
    game = random_game(n, k, seed)
    strat_set = enumerate_quantized_strategies(k, z)
    assert (best_response_edges(game, strat_set, theta, delta)
            == reference_best_response_edges(game, strat_set, theta, delta))


@st.composite
def _boundary_case(draw):
    """A game over few utility values and a delta equal to some player's
    exact payoff gap against one of theta's opponent splits, so that
    payoffs land on max - delta itself."""
    n, k = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    game = draw(_game(n, k, values=(F(0), F(1, 4), F(1, 2), F(1))))
    strat_set = enumerate_quantized_strategies(k, 1)
    theta = draw(_random_theta(n, len(strat_set)))
    sigma = draw(st.sampled_from([s for s, c in enumerate(theta) if c]))
    opponents = [strat_set.strategies[tau] for tau, c in enumerate(theta)
                 for _ in range(c - (tau == sigma))]
    rows = reference_payoff_rows(game, sum_distribution(opponents, k=k), range(n))
    delta = draw(st.sampled_from(sorted({max(row) - v for row in rows for v in row})))
    return game, strat_set, theta, delta


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_boundary_case())
def test_edges_match_reference_on_the_delta_boundary(case):
    game, strat_set, theta, delta = case
    assert (best_response_edges(game, strat_set, theta, delta)
            == reference_best_response_edges(game, strat_set, theta, delta))


# (n, k, z) whose every search, exhaustive ones included, the reference
# loop finishes in well under a second: at most 1287 splits
SMALL_SEARCHES = tuple((n, k, z) for n in range(2, 6) for k in (2, 3) for z in (1, 2)
                       if partition_count(n, len(enumerate_quantized_strategies(k, z)))
                       <= 1287)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SMALL_SEARCHES), st.integers(0, 2 ** 16),
       st.sampled_from(EPSILONS))
def test_memoized_search_matches_reference_search(nkz, seed, epsilon):
    n, k, z = nkz
    game = random_game(n, k, seed)
    assert ptas_solve(game, epsilon, z) == reference_ptas_solve(game, epsilon, z)


def test_ptas_matches_reference_search():
    # one certified search and one that finds nothing within eps and so
    # visits every split (C(4 + 5 - 1, 4) = 70 of them)
    for game, eps, z in ((random_game(3, 2, seed=2), F(1, 5), 2),
                         (random_game(4, 2, seed=1), F(1, 10 ** 6), 1)):
        a = ptas_solve(game, eps, z=z)
        assert a == reference_ptas_solve(game, eps, z)
    assert not a.certified
    assert a.thetas_checked == partition_count(4, 5) == 70


def test_search_folds_each_opponent_split_at_most_once(monkeypatch):
    # the edge test for (theta, sigma) depends only on theta - e_sigma, a
    # split of the 3 opponents over 5 strategies: at most C(3 + 5 - 1, 3)
    # = 35 folds, against one per (theta, sigma in supp theta) per split
    folds = Counter()

    def counted(rows, k):
        folds[tuple(sorted(map(tuple, rows)))] += 1
        return _fold(rows, k)

    monkeypatch.setattr("anongames.solver._fold", counted)
    res = ptas_solve(random_game(4, 2, seed=1), F(1, 10 ** 6), z=1)
    assert not res.certified and res.thetas_checked == 70
    assert 0 < sum(folds.values()) <= partition_count(3, 5) == 35
    assert max(folds.values()) == 1


def test_search_folds_grid_compositions_without_checking_rows(monkeypatch):
    # the grid rows are the integer compositions of 2^k z the search
    # enumerates, so no row goes through the Fraction check on the way in
    calls = Counter()

    def counted(vec):
        calls[tuple(vec)] += 1
        return _check_vector(vec)

    monkeypatch.setattr("anongames.sumdist._check_vector", counted)
    res = ptas_solve(random_game(4, 2, seed=1), F(1, 10 ** 6), z=1)
    assert not res.certified and res.thetas_checked == 70
    assert sum(calls.values()) == 0


def test_ptas_certifies_or_exhausts_with_no_profile():
    # a perfect flow is always an eps-Nash profile, so the search either
    # certifies or visits every split and has nothing to report
    outcomes = set()
    for n in (3, 4):
        for seed in range(6):
            res = ptas_solve(random_game(n, 2, seed=seed), F(1, 1000), z=1)
            outcomes.add(res.certified)
            if res.certified:
                assert res.profile is not None and res.support_gap <= F(1, 1000)
            else:
                assert res.profile is None and res.support_gap is None
                assert res.theta is None
                assert res.thetas_checked == partition_count(n, 5)
    assert outcomes == {True, False}


def test_ptas_failed_certification_is_a_bug(monkeypatch):
    def inflated(game, profile):
        report = regret_profile(game, profile)
        return RegretReport(payoffs=report.payoffs,
                            approx_regret=report.approx_regret,
                            support_gap=tuple(g + 1 for g in report.support_gap))

    monkeypatch.setattr("anongames.solver.regret_profile", inflated)
    with pytest.raises(RuntimeError, match="indicates a bug"):
        ptas_solve(anti_coordination(), F(1, 10), z=1)


def test_escalation_reaches_off_grid_equilibrium():
    # skewed pennies: unique NE ((3/5,2/5),(1/5,4/5)) sits off every coarse
    # grid; nothing is feasible below z=16 at eps=1/100, then it certifies
    from anongames import AnonymousGame
    u_p0 = ((F(0), F(1)), (F(1, 4), F(0)))
    u_p1 = ((F(3, 4), F(0)), (F(0), F(1, 2)))
    game = AnonymousGame(n=2, k=2, utilities=(u_p0, u_p1))
    assert not ptas_solve(game, F(1, 100), 8).certified
    res = solve_escalating(game, F(1, 100), 1, max_rounds=6)
    assert res.certified and res.z == 16
    assert res.support_gap == F(1, 128)
    assert res.profile.probs[0] == (F(19, 32), F(13, 32))


@pytest.mark.parametrize("max_rounds", [0, -1])
def test_escalation_rejects_fewer_than_one_round(max_rounds):
    with pytest.raises(ValueError, match="max_rounds"):
        solve_escalating(random_game(2, 2, seed=0), F(1, 5), 1,
                         max_rounds=max_rounds)


def test_brute_force_oracle_anti_coordination():
    res = brute_force_oracle(anti_coordination(), 4)
    assert res.support_gap == 0


def test_brute_force_oracle_constant():
    res = brute_force_oracle(constant_game(2, 2, F(1, 3)), 4)
    assert res.support_gap == 0


def test_brute_force_oracle_guard_fires_before_the_grid_is_built(monkeypatch):
    # 300 units over 4 strategies is 4,545,901 rows, squared 2.07e13 profiles
    def unbuilt(*args):
        raise AssertionError("the per-player grid was built before the guard")

    monkeypatch.setattr("anongames.solver.enumerate_partitions", unbuilt)
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded, match="brute-force grid"):
        brute_force_oracle(random_game(2, 4, 0), 300)
    assert time.perf_counter() - t0 < 1


def test_oracle_vs_ptas_cross_check():
    for seed in range(5):
        game = random_game(2, 2, seed=seed + 50)
        res = solve_escalating(game, F(1, 5), 1, max_rounds=3)
        oracle = brute_force_oracle(game, 8)
        assert res.certified
        assert oracle.support_gap <= res.support_gap + F(1, 5)
