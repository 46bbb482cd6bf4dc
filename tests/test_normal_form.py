import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import (GameFormatError, GuardExceeded, NormalFormGame,
                       nf_regret, parse_nf_game, perturbation_check,
                       quasi_solve, serialize_nf_game)
from anongames.normal_form import expected_payoffs


def nf_from_payoff_matrix(a, b):
    """2x2 game from player payoff matrices a, b (row player = 0)."""
    u0, u1 = [], []
    for r in range(2):
        for c in range(2):
            u0.append(a[r][c])
            u1.append(b[r][c])
    return NormalFormGame(p=2, s=2, utilities=(tuple(u0), tuple(u1)))


def matching_pennies():
    # normalized to [0, 1]: matcher gets 1 on a match, mismatcher gets 1 otherwise
    a = [[1, 0], [0, 1]]
    b = [[0, 1], [1, 0]]
    return nf_from_payoff_matrix(a, b)


def exact_2x2_ne(game):
    """Closed-form equilibrium of a 2x2 game: pure if one exists, else the
    unique indifference mix.  Entirely independent of the search code."""
    u = [[[game.utility(i, (r, c)) for c in range(2)] for r in range(2)]
         for i in range(2)]
    for r in range(2):
        for c in range(2):
            if (u[0][r][c] >= u[0][1 - r][c]
                    and u[1][r][c] >= u[1][r][1 - c]):
                x = (F(1), F(0)) if r == 0 else (F(0), F(1))
                y = (F(1), F(0)) if c == 0 else (F(0), F(1))
                return (x, y)
    # mixed: row mixes to make column indifferent and vice versa
    den_y = u[0][0][0] - u[0][0][1] - u[0][1][0] + u[0][1][1]
    den_x = u[1][0][0] - u[1][1][0] - u[1][0][1] + u[1][1][1]
    q = (u[0][1][1] - u[0][0][1]) / den_y      # P(column plays 0)
    p = (u[1][1][1] - u[1][1][0]) / den_x      # P(row plays 0)
    assert 0 <= p <= 1 and 0 <= q <= 1
    return ((p, 1 - p), (q, 1 - q))


def test_nf_regret_matching_pennies():
    game = matching_pennies()
    half = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    report = nf_regret(game, half)
    assert report.regret == (F(0), F(0))
    pure = ((F(1), F(0)), (F(1), F(0)))
    report = nf_regret(game, pure)
    assert report.regret == (F(0), F(1))    # column player should flip


def test_nf_regret_constant_game():
    game = NormalFormGame(p=2, s=2, utilities=((F(1, 3),) * 4, (F(1, 3),) * 4))
    for probs in (((F(1), F(0)), (F(0), F(1))),
                  ((F(1, 4), F(3, 4)), (F(2, 3), F(1, 3)))):
        assert nf_regret(game, probs).max_regret == 0


def test_nf_roundtrip():
    game = matching_pennies()
    blob = serialize_nf_game(game)
    assert parse_nf_game(blob).utilities == game.utilities
    assert serialize_nf_game(parse_nf_game(blob)) == blob


def test_nf_rejects_bad_tables():
    with pytest.raises(GameFormatError):
        NormalFormGame(p=2, s=2, utilities=((F(1),) * 3, (F(0),) * 4))
    with pytest.raises(GameFormatError):
        NormalFormGame(p=2, s=2, utilities=((F(2),) * 4, (F(0),) * 4))


def test_quasi_matching_pennies():
    game = matching_pennies()
    res = quasi_solve(game, F(3, 10))
    assert max(res.regret) <= F(3, 10)
    for row in res.profile:
        assert sum(row) == 1
        assert all((v * res.grid_units).denominator == 1 for v in row)
    assert res.delta == F(3, 10) / 8


def test_quasi_grid_count_closed_form():
    import math
    from anongames.games import enumerate_partitions
    from anongames.normal_form import grid_delta
    game = matching_pennies()
    for eps in (F(3, 10), F(1, 2), F(1, 7)):
        delta, units = grid_delta(game, eps)
        assert delta == eps / (2 * game.p * game.s)
        per_player = enumerate_partitions(units, game.s)
        assert len(per_player) == math.comb(units + game.s - 1, game.s - 1)
        assert len(per_player) ** game.p <= ((units + 1) ** game.s) ** game.p


def test_quasi_pure_coordination_hits_pure_ne():
    a = [[1, 0], [0, 1]]
    game = nf_from_payoff_matrix(a, a)
    res = quasi_solve(game, F(1, 2))
    assert max(res.regret) == 0


def test_quasi_constant_game_first_grid_point():
    game = NormalFormGame(p=2, s=2, utilities=((F(0),) * 4, (F(0),) * 4))
    res = quasi_solve(game, F(1, 2))
    assert max(res.regret) == 0
    assert res.profile[0] == (F(0), F(1))     # lex-first grid vector


def test_quasi_guard():
    game = NormalFormGame(p=3, s=3, utilities=tuple((F(0),) * 27 for _ in range(3)))
    with pytest.raises(GuardExceeded):
        quasi_solve(game, F(1, 100))


def reference_expected_payoffs(game, rows):
    """The per-player contraction the one-pass walk replaced: for each
    player, every pure profile of the others, then each own strategy."""
    out = []
    for i in range(game.p):
        per_strategy = [F(0)] * game.s
        others = [q for q in range(game.p) if q != i]
        for combo in product(range(game.s), repeat=game.p - 1):
            prob = F(1)
            for q, a in zip(others, combo):
                prob *= rows[q][a]
            if prob == 0:
                continue
            actions = [0] * game.p
            for q, a in zip(others, combo):
                actions[q] = a
            for j in range(game.s):
                actions[i] = j
                per_strategy[j] += prob * game.utility(i, actions)
        out.append(per_strategy)
    return out


def _rational_row(s):
    weights = st.lists(st.integers(0, 12), min_size=s, max_size=s).filter(any)
    return weights.map(lambda w: tuple(F(x, sum(w)) for x in w))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda ps: st.tuples(
        st.lists(st.lists(st.fractions(0, 1, max_denominator=30),
                          min_size=ps[1] ** ps[0], max_size=ps[1] ** ps[0]),
                 min_size=ps[0], max_size=ps[0]).map(
            lambda u: NormalFormGame(p=ps[0], s=ps[1], utilities=u)),
        st.lists(_rational_row(ps[1]), min_size=ps[0], max_size=ps[0]))))
def test_one_pass_payoffs_match_the_per_player_contraction(case):
    game, rows = case
    assert expected_payoffs(game, rows) == reference_expected_payoffs(game, rows)
    report = nf_regret(game, rows)
    assert report.payoffs == tuple(map(tuple, reference_expected_payoffs(game, rows)))


def test_nf_regret_rejects_a_misshapen_profile():
    game = matching_pennies()
    for rows in ([(F(1), F(0))], [(F(1), F(0))] * 3, [(F(1),), (F(1),)]):
        with pytest.raises(ValueError, match="profile dimensions"):
            nf_regret(game, rows)


def test_perturbation_matching_pennies():
    game = matching_pennies()
    ne = exact_2x2_ne(game)
    res = perturbation_check(game, ne, F(3, 10))
    assert res.passed


def test_perturbation_pure_ne_is_identity():
    a = [[1, 0], [0, 1]]
    game = nf_from_payoff_matrix(a, a)
    ne = exact_2x2_ne(game)
    res = perturbation_check(game, ne, F(1, 10))
    assert res.passed
    assert res.rounded == ne
    assert max(res.regret) == 0


def test_perturbation_rejects_non_equilibrium():
    game = matching_pennies()
    with pytest.raises(ValueError):
        perturbation_check(game, ((F(1), F(0)), (F(1), F(0))), F(1, 10))


def test_perturbation_random_2x2_sweep():
    rng = random.Random(11)
    done = 0
    while done < 10:
        a = [[F(rng.randint(0, 24), 24) for _ in range(2)] for _ in range(2)]
        b = [[F(rng.randint(0, 24), 24) for _ in range(2)] for _ in range(2)]
        game = nf_from_payoff_matrix(a, b)
        try:
            ne = exact_2x2_ne(game)
        except (ZeroDivisionError, AssertionError):
            continue    # degenerate draw without a clean closed form
        assert nf_regret(game, ne).max_regret == 0
        res = perturbation_check(game, ne, F(3, 10))
        assert res.passed
        done += 1
