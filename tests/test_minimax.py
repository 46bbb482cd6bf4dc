import math
import random
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations_with_replacement, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import (GameFormatError, GuardExceeded, ObjectiveFunctions,
                       minimax_oracle, minimax_ptas, objective_value,
                       parse_functions, serialize_functions)
from anongames import minimax
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


# --- the trie search against the flat batch it replaced ---------------------

def reference_batch_values(funcs, levels, idx_rows):
    """The flat evaluator the trie replaced: each multiset's pmf rebuilt
    from the empty sum, one Bernoulli step per parameter."""
    n = funcs.n
    pmf = np.zeros((idx_rows.shape[0], n + 1))
    pmf[:, 0] = 1.0
    for t in range(n):
        p = levels[idx_rows[:, t]][:, None]
        nxt = pmf * (1.0 - p)
        nxt[:, 1:] += pmf[:, :-1] * p
        pmf = nxt
    tables = np.array([[float(v) for v in row] for row in funcs.tables])
    return np.max(pmf @ tables.T, axis=1)


def reference_search(funcs, level_fracs, maximin=False, chunk=65536):
    """Chunked argmin over combinations_with_replacement: lex order, first
    minimum wins."""
    if maximin:
        funcs = funcs.complement()
    levels = np.array([float(v) for v in level_fracs])
    best_value = best_idx = None
    it = combinations_with_replacement(range(len(level_fracs)), funcs.n)
    while batch := list(islice(it, chunk)):
        values = reference_batch_values(funcs, levels, np.array(batch, dtype=np.int64))
        local = int(np.argmin(values))
        if best_value is None or values[local] < best_value:
            best_value, best_idx = float(values[local]), batch[local]
    if maximin:
        best_value = 1.0 - best_value
    return best_value, tuple(level_fracs[i] for i in best_idx)


# values on a coarse grid, so that equal objective values (ties) are common
@st.composite
def objective_functions(draw):
    n = draw(st.integers(1, 7))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    tables = draw(st.lists(st.lists(st.integers(0, den), min_size=n + 1, max_size=n + 1),
                           min_size=1, max_size=4))
    return ObjectiveFunctions(n=n, tables=tuple(tuple(F(v, den) for v in row)
                                                for row in tables))


def assert_matches_reference(funcs, eps_den, grid):
    for maximin in (False, True):
        ptas = minimax_ptas(funcs, F(1, eps_den), maximin=maximin)
        want = reference_search(funcs, [F(i, eps_den) for i in range(eps_den + 1)], maximin)
        assert (ptas.value, ptas.probs) == want
        oracle = minimax_oracle(funcs, grid, maximin=maximin)
        want = reference_search(funcs, [F(i, grid) for i in range(grid + 1)], maximin)
        assert (oracle.value, oracle.probs) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(objective_functions(), st.integers(1, 9), st.integers(1, 9))
def test_trie_matches_flat_batch_bit_for_bit(funcs, eps_den, grid):
    assert_matches_reference(funcs, eps_den, grid)


@contextmanager
def one_prefix_a_block(depth):
    """Split the trie at `depth`, one prefix a block (None: the real plan)."""
    with pytest.MonkeyPatch.context() as patch:
        if depth is not None:
            patch.setattr(minimax, "_trie_plan", lambda n, num_levels, what: (depth, 1))
        yield


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(objective_functions(), st.integers(1, 5), st.data())
def test_values_do_not_depend_on_the_blocks(funcs, eps_den, data):
    # at depth n every leaf is its own block, so every block boundary is crossed
    with one_prefix_a_block(data.draw(st.integers(0, funcs.n))):
        assert_matches_reference(funcs, eps_den, eps_den)


@pytest.mark.parametrize("depth", [None, 0, 1, 2, 3, 4])
def test_exact_ties_go_to_the_lex_first_multiset(depth):
    # f = (1, 0, 0, 0, 0) scores the chance of no success: exactly 0.0 for
    # every multiset holding p = 1, and (0, 0, 0, 1) is the first of them;
    # maximin over its complement ties the same multisets at 1.0
    with one_prefix_a_block(depth):
        first_one = ObjectiveFunctions(n=4, tables=((F(1),) + (F(0),) * 4,))
        res = minimax_ptas(first_one, F(1, 6))
        assert (res.value, res.probs) == (0.0, (F(0),) * 3 + (F(1),))
        res = minimax_ptas(first_one.complement(), F(1, 6), maximin=True)
        assert (res.value, res.probs) == (1.0, (F(0),) * 3 + (F(1),))


def test_split_depth_follows_the_cell_count(monkeypatch):
    monkeypatch.delenv("ANON_GUARD_CELLS", raising=False)
    # offlattice shape: one subtree per first level (50388 leaves) fits;
    # parity at n=6 on 1/32 needs depth 2 (58905 leaves a subtree)
    assert minimax._trie_plan(8, 13, "x") == (1, 50388)
    assert minimax._trie_plan(6, 33, "x") == (2, 58905)
    assert minimax._trie_plan(2, 3, "x") == (0, 6)


def test_cell_guard_runs_before_anything_is_built(monkeypatch):
    # 200001 multisets pass the multiset guard, but any split of the trie
    # holds over 4e10 pmf cells; the flat batch allocated 65536 rows of
    # n+1 floats instead
    monkeypatch.delenv("ANON_GUARD_CELLS", raising=False)
    n = 200_000
    funcs = ObjectiveFunctions(n=n, tables=((F(1, 2),) * (n + 1),))
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded) as info:
        minimax_ptas(funcs, 1)
    assert time.perf_counter() - t0 < 0.1
    assert info.value.size == (n + 1) * 2 * (n // 2 + 1)


def test_peak_memory_stays_within_the_block_bound(monkeypatch):
    monkeypatch.delenv("ANON_GUARD_CELLS", raising=False)
    n, num_levels = 8, 13
    funcs = random_functions(n, seed=5)
    depth, leaves = minimax._trie_plan(n, num_levels, "x")
    bound_bytes = 8 * (n + 1) * (math.comb(depth + num_levels - 1, num_levels - 1) + leaves)
    minimax_ptas(funcs, F(1, 12))            # numpy imported outside the trace
    tracemalloc.start()
    try:
        minimax_ptas(funcs, F(1, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * bound_bytes, (peak, bound_bytes)
