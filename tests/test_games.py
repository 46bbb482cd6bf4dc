import gc
import json
import math
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from anongames import (AnonymousGame, GameFormatError, GuardExceeded,
                       enumerate_partitions, parse_game,
                       parse_profile, partition_count, partition_rank,
                       random_game, random_profile, serialize_game,
                       serialize_profile)
from anongames.games import as_fraction


def test_enumerate_small_cases():
    assert enumerate_partitions(1, 2) == ((0, 1), (1, 0))
    assert enumerate_partitions(0, 3) == ((0, 0, 0),)
    assert enumerate_partitions(2, 3) == (
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0))


def test_enumerate_counts_distinct_sorted():
    for m, k in [(m, k) for m in range(9) for k in range(1, 6)] + [(3, 40), (1, 153)]:
        parts = enumerate_partitions(m, k)
        assert len(parts) == math.comb(m + k - 1, k - 1) == partition_count(m, k)
        assert len(set(parts)) == len(parts)
        assert list(parts) == sorted(parts)
        assert all(sum(p) == m and min(p) >= 0 for p in parts)


def test_rank_is_inverse_of_enumerate():
    for m in range(7):
        for k in range(1, 5):
            for i, p in enumerate(enumerate_partitions(m, k)):
                assert partition_rank(p, m=m, k=k) == i


def test_rank_examples():
    assert partition_rank((0, 1), m=1, k=2) == 0
    assert partition_rank((2, 0, 0), m=2, k=3) == 5
    assert partition_rank((1, 1, 0), m=2, k=3) == 4


def test_rank_rejects_malformed():
    with pytest.raises(ValueError):
        partition_rank((-1, 2))
    with pytest.raises(ValueError):
        partition_rank((1, 1), m=3)
    with pytest.raises(ValueError):
        partition_rank((1, 1, 1), k=2)


def test_game_roundtrip_is_canonical_fixed_point():
    game = random_game(3, 2, seed=11)
    blob = serialize_game(game)
    again = serialize_game(parse_game(blob))
    assert blob == again


def test_game_roundtrip_preserves_exact_rationals():
    game = random_game(2, 3, seed=5)
    parsed = parse_game(serialize_game(game))
    assert parsed.utilities == game.utilities


# --- the storage contract: integer tables, a Fraction view on access --------

def reference_serialize_game(game):
    """The canonical form written straight from the `utilities` view."""
    table = [[[f"{v.numerator}/{v.denominator}" for v in row] for row in per]
             for per in game.utilities]
    return (json.dumps({"k": game.k, "n": game.n, "utilities": table},
                       separators=(",", ":"), sort_keys=True) + "\n").encode()


MIXED_GAME = (b'{"k":2,"n":2,"utilities":[[[0.1,"1/3"],[1,"2/7"]],'
              b'[["999982/999983",0],[0.5,"1e-3"]]]}')


@pytest.mark.parametrize("game", [random_game(3, 3, seed=4), parse_game(MIXED_GAME)])
def test_storage_roundtrip_view_and_value_equality(game):
    parsed = parse_game(serialize_game(game))
    assert parsed == game and hash(parsed) == hash(game)
    assert serialize_game(game) == reference_serialize_game(game)
    utilities = game.utilities          # the view is rebuilt on each access
    for p in range(game.n):
        for s in range(game.k):
            for rank, x in enumerate(enumerate_partitions(game.n - 1, game.k)):
                assert game.utility(p, s, x) == utilities[p][s][rank]
    for name in ("n", "tables", "utilities"):
        with pytest.raises(AttributeError):
            setattr(game, name, None)


def test_game_retains_no_fraction_table():
    # about 45 B an entry as integers over one lcm per player; a table of
    # Fractions beside them retains about 125 B an entry
    random_game(12, 3, seed=0)          # first-call caches are not the game's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        game = random_game(12, 3, seed=1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * game.n * game.k * partition_count(game.n - 1, game.k)


def test_coprime_denominators_hit_the_table_guard(monkeypatch):
    # n=40, k=3 over 2460 distinct denominators near 10^6 per player would
    # scale every numerator to an lcm of tens of thousands of bits, hundreds
    # of MB in all; the guard stops it within player 0's table
    monkeypatch.delenv("ANON_GUARD_CELLS", raising=False)
    size = partition_count(39, 3)
    row = lambda s: [F(1, 10**6 + s * size + r) for r in range(size)]
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded, match=r"^integer utility table for "
                       r"n=40, k=3 \(64-bit words\) has size \d+, exceeding the "
                       r"cap of 1000000 "):
        AnonymousGame(n=40, k=3, utilities=[[row(s) for s in range(3)]] * 40)
    assert time.perf_counter() - t0 < 2
    # dyadic floats keep L_p within one word: one word an entry fits
    assert random_game(40, 3, seed=0).n == 40


def test_parse_accepts_floats_and_strings():
    blob = (b'{"k":2,"n":2,"utilities":['
            b'[[0.5,"1/4"],[0.25,0.75]],[["1/3","2/3"],[0,1]]]}')
    game = parse_game(blob)
    assert game.utility(0, 0, (0, 1)) == F(1, 2)
    assert game.utility(1, 0, (0, 1)) == F(1, 3)


def test_parse_rejects_out_of_range_utility():
    blob = b'{"k":2,"n":2,"utilities":[[[1.5,0],[0,0]],[[0,0],[0,0]]]}'
    with pytest.raises(GameFormatError, match="out of range"):
        parse_game(blob)


def test_parse_rejects_wrong_table_length():
    blob = b'{"k":2,"n":2,"utilities":[[[0.5],[0,0]],[[0,0],[0,0]]]}'
    with pytest.raises(GameFormatError, match="table size mismatch"):
        parse_game(blob)


def test_parse_rejects_tiny_n_k():
    blob = b'{"k":1,"n":2,"utilities":[[[0.5]],[[0.5]]]}'
    with pytest.raises(GameFormatError):
        parse_game(blob)


def test_random_game_deterministic_and_in_range():
    a = random_game(2, 2, seed=7)
    b = random_game(2, 2, seed=7)
    assert a.utilities == b.utilities
    c = random_game(3, 3, seed=7)
    d = random_game(3, 3, seed=8)
    assert c.utilities != d.utilities
    assert all(0 <= v <= 1 for per in c.utilities for row in per for v in row)


def test_random_profile_rows_sum_to_one():
    prof = random_profile(6, 3, seed=3)
    for row in prof.probs:
        assert sum(row) == 1
        assert all(v >= 0 for v in row)
    assert prof.probs == random_profile(6, 3, seed=3).probs


def test_profile_roundtrip():
    prof = random_profile(4, 3, seed=9)
    blob = serialize_profile(prof)
    assert parse_profile(blob).probs == prof.probs
    assert serialize_profile(parse_profile(blob)) == blob


def test_profile_rejects_bad_sum():
    blob = b'{"k":2,"n":1,"probs":[["1/2","1/3"]]}'
    with pytest.raises(GameFormatError, match="sum"):
        parse_profile(blob)


@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "2.5E+4301"])
def test_huge_decimal_exponent_rejected_quickly(text):
    # Fraction would expand the exponent into a ten-million-digit integer
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exponent"):
        as_fraction(text)
    assert time.perf_counter() - t0 < 0.1


def test_moderate_decimal_exponents_still_parse():
    assert as_fraction("1e300") == 10 ** 300
    assert as_fraction("1e-300") == F(1, 10 ** 300)
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction("1.5e3") == 1500
