import random
from fractions import Fraction as F

import pytest

from anongames import (GameFormatError, ObjectiveFunctions, minimax_oracle,
                       minimax_ptas, objective_value, parse_functions,
                       serialize_functions)
from anongames.minimax import normalize_epsilon


def linear_pair(n):
    """f1(j) = j/n increasing, f2(j) = 1 - j/n decreasing."""
    f1 = tuple(F(j, n) for j in range(n + 1))
    f2 = tuple(1 - F(j, n) for j in range(n + 1))
    return ObjectiveFunctions(n=n, tables=(f1, f2))


def random_functions(n, seed, m=2):
    rng = random.Random(seed)
    tables = tuple(tuple(F(rng.randint(0, 60), 60) for _ in range(n + 1))
                   for _ in range(m))
    return ObjectiveFunctions(n=n, tables=tables)


def test_objective_scalar_cases():
    funcs = linear_pair(1)
    assert objective_value(funcs, [F(1, 2)]) == F(1, 2)
    const = ObjectiveFunctions(n=2, tables=((F(1, 3),) * 3, (F(1, 3),) * 3))
    assert objective_value(const, [F(1, 7), F(6, 7)]) == F(1, 3)
    two = linear_pair(2)
    assert objective_value(two, [F(1), F(0)]) == F(1, 2)


def test_objective_permutation_invariant_exactly():
    rng = random.Random(3)
    funcs = random_functions(5, seed=8)
    probs = [F(rng.randint(0, 10), 10) for _ in range(5)]
    base = objective_value(funcs, probs)
    for _ in range(5):
        rng.shuffle(probs)
        assert objective_value(funcs, probs) == base


def test_objective_dimension_check():
    with pytest.raises(ValueError):
        objective_value(linear_pair(2), [F(1, 2)])


def test_normalize_epsilon():
    assert normalize_epsilon(F(1, 4)) == F(1, 4)
    assert normalize_epsilon(F(3, 10)) == F(1, 4)   # 1/ceil(10/3)
    with pytest.raises(ValueError):
        normalize_epsilon(0)


def test_ptas_linear_n1():
    res = minimax_ptas(linear_pair(1), F(1, 2))
    assert res.value == 0.5
    assert res.probs == (F(1, 2),)


def test_ptas_zero_floor():
    f = ObjectiveFunctions(n=3, tables=((F(0), F(1), F(1), F(1)),))
    res = minimax_ptas(f, F(1, 2))
    assert res.value == 0.0
    assert res.probs == (F(0), F(0), F(0))


def test_ptas_n2_linear_lex_first_argmin():
    res = minimax_ptas(linear_pair(2), F(1, 2))
    assert res.value == 0.5
    assert res.probs == (F(0), F(1))    # ties resolved to the lex-first multiset


def test_oracle_same_grid_matches_ptas():
    funcs = random_functions(4, seed=2)
    a = minimax_ptas(funcs, F(1, 4))
    b = minimax_oracle(funcs, 4)
    assert a.value == b.value and a.probs == b.probs


def test_oracle_fine_grid_n1():
    res = minimax_oracle(linear_pair(1), 32)
    assert res.value == 0.5
    assert res.probs == (F(1, 2),)


def test_nesting_inequality_exact():
    for seed in range(20):
        funcs = random_functions(4, seed=seed)
        coarse = minimax_ptas(funcs, F(1, 4))
        fine = minimax_oracle(funcs, 8)
        assert coarse.value >= fine.value, (seed, coarse.value, fine.value)


def test_value_non_increasing_as_eps_halves():
    for seed in range(5):
        funcs = random_functions(3, seed=seed + 100)
        v8 = minimax_ptas(funcs, F(1, 8)).value
        v4 = minimax_ptas(funcs, F(1, 4)).value
        v2 = minimax_ptas(funcs, F(1, 2)).value
        assert v2 >= v4 >= v8


def test_more_than_two_functions():
    funcs = random_functions(3, seed=4, m=4)
    res = minimax_ptas(funcs, F(1, 2))
    assert 0 <= res.value <= 1
    assert float(objective_value(funcs, res.probs)) == pytest.approx(res.value)


def test_maximin_flag_complements():
    funcs = linear_pair(1)
    mini = minimax_ptas(funcs, F(1, 2))
    maxi = minimax_ptas(funcs, F(1, 2), maximin=True)
    # max_p min_k for this symmetric pair is also 1/2 at p = 1/2
    assert maxi.value == pytest.approx(0.5)
    assert maxi.probs == mini.probs
    skew = ObjectiveFunctions(n=1, tables=((F(0), F(1)),))
    assert minimax_ptas(skew, F(1, 2)).value == 0.0          # min at p=0
    assert minimax_ptas(skew, F(1, 2), maximin=True).value == 1.0   # max at p=1


def test_function_file_roundtrip():
    funcs = random_functions(3, seed=9)
    blob = serialize_functions(funcs)
    assert parse_functions(blob).tables == funcs.tables
    assert serialize_functions(parse_functions(blob)) == blob
    with pytest.raises(GameFormatError):
        parse_functions(b'{"n":1,"functions":[[0.5]]}')   # wrong length
