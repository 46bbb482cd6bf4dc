import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import (MixedProfile, discretize_profile,
                       largest_remainder_round, random_profile, round_cell)
from anongames.games import profile_support
from anongames.tdp import build_tdp_tree
from anongames.tvlab import discretization_tv
from tests.test_tdp import (GATE_ALPHAS, GATE_SETTINGS, GATE_ZS, gate_profiles,
                            ref_signature, ref_tree)


def test_largest_remainder_spec_trace():
    out = largest_remainder_round([F(32, 100), F(57, 100)], 10)
    assert out == [F(3, 10), F(6, 10)]
    assert abs(sum(out) - F(89, 100)) <= F(1, 10)


def test_largest_remainder_identity_on_grid():
    vals = [F(2, 10), F(5, 10), F(3, 10)]
    assert largest_remainder_round(vals, 10) == vals


def test_largest_remainder_tie_goes_to_lower_index():
    assert largest_remainder_round([F(15, 100), F(15, 100)], 10) == [F(2, 10), F(1, 10)]


def test_largest_remainder_properties_sweep():
    for seed in range(50):
        prof = random_profile(1, 6, seed=seed, denominator=997)
        vals = list(prof.probs[0])
        for z in (3, 7, 10):
            out = largest_remainder_round(vals, z)
            assert all((v * z).denominator == 1 for v in out)
            assert all(abs(a - b) <= F(1, z) for a, b in zip(out, vals))
            assert abs(sum(out) - sum(vals)) <= F(1, z)
            assert all(0 <= v <= 1 for v in out)
            assert all(b == 0 for a, b in zip(vals, out) if a == 0)


@pytest.mark.parametrize("z", [2.5, 10.0, F(10), True, "10"])
def test_largest_remainder_rejects_a_non_int_z(z):
    with pytest.raises(ValueError, match="z must be an int"):
        largest_remainder_round([F(1, 3)], z)


@pytest.mark.parametrize("z", [2.5, 10.0, F(10), True, "10"])
def test_discretize_rejects_a_non_int_z(z):
    prof = random_profile(3, 3, seed=1)
    with pytest.raises(ValueError, match="z must be an int"):
        discretize_profile(prof, z)
    with pytest.raises(ValueError, match="z must be an int"):
        discretization_tv(prof, z)


def test_round_cell_single_member():
    tree = build_tdp_tree([0, 1], [F(32, 100), F(68, 100)])
    (pairs,) = round_cell([tree], 10)
    assert pairs == [(F(3, 10), F(7, 10))]


def test_round_cell_identity_on_grid():
    tree = build_tdp_tree([0, 1], [F(3, 10), F(7, 10)])
    (pairs,) = round_cell([tree], 10)
    assert pairs == [(F(3, 10), F(7, 10))]


def test_round_cell_two_members_share_budget():
    # same cell: both leaves ordered (0, 1); fractional parts 0.2 and 0.3
    # sum to 0.5, so exactly one member rounds up (the larger remainder)
    t1 = build_tdp_tree([0, 1], [F(32, 100), F(68, 100)])
    t2 = build_tdp_tree([0, 1], [F(43, 100), F(57, 100)])
    got = round_cell([t1, t2], 10)
    assert got[0] == [(F(3, 10), F(7, 10))]
    assert got[1] == [(F(5, 10), F(5, 10))]
    before = F(32, 100) + F(43, 100)
    after = F(3, 10) + F(5, 10)
    assert abs(after - before) <= F(1, 10)


def test_round_cell_rejects_shape_mismatch():
    t1 = build_tdp_tree([0, 1], [F(1, 3), F(2, 3)])
    t2 = build_tdp_tree([0, 1, 2], [F(1, 3)] * 3)
    with pytest.raises(ValueError, match="signature mismatch"):
        round_cell([t1, t2], 10)


def grid_denominator(vec, unit):
    return all((v * unit).denominator == 1 for v in vec)


def test_discretize_profile_invariants_sweep():
    for n, k in ((3, 2), (6, 3), (10, 3), (20, 4)):
        for z in (5, 10, 50):
            prof = random_profile(n, k, seed=n * 1000 + z)
            disc = discretize_profile(prof, z)
            unit = (2 ** k) * z
            for row, orig in zip(disc.probs, prof.probs):
                assert sum(row) == 1
                assert grid_denominator(row, unit)
                assert all(abs(a - b) <= F(1, z) for a, b in zip(row, orig))
                assert all(a == 0 for a, b in zip(row, orig) if b == 0)


def test_discretize_deterministic():
    prof = random_profile(8, 3, seed=77)
    a = discretize_profile(prof, 20)
    b = discretize_profile(prof, 20)
    assert a.probs == b.probs


def test_discretize_passthrough_for_singleton_and_explicit_zero():
    prof = MixedProfile(probs=(
        (F(1), F(0), F(0)),                 # singleton support
        (F(0), F(37, 100), F(63, 100)),     # support 2 with a leading zero
        (F(1, 3), F(1, 3), F(1, 3)),
    ))
    disc = discretize_profile(prof, 10)
    assert disc.probs[0] == (F(1), F(0), F(0))
    assert disc.probs[1][0] == 0
    assert sum(disc.probs[1]) == 1


def test_discretize_identity_on_fixed_points():
    # supports of size <= 2 whose leaf values sit on the 1/z grid already
    prof = MixedProfile(probs=(
        (F(3, 10), F(7, 10), F(0)),
        (F(0), F(0), F(1)),
        (F(9, 10), F(0), F(1, 10)),
    ))
    disc = discretize_profile(prof, 10)
    assert disc.probs == prof.probs


def test_discretize_idempotent_when_leaves_stay_on_grid():
    # (1/4, 1/2, 1/4) at z=4: every leaf value is a multiple of 1/4
    prof = MixedProfile(probs=((F(1, 4), F(1, 2), F(1, 4)),
                               (F(1, 4), F(1, 2), F(1, 4))))
    once = discretize_profile(prof, 4)
    assert once.probs == prof.probs
    twice = discretize_profile(MixedProfile(probs=once.probs), 4)
    assert twice.probs == once.probs


def test_within_cell_sum_preserved_to_one_z():
    # all members share one cell: identical supports and orderings
    n, z = 7, 10
    rows = tuple((F(30 + i, 100), F(70 - i, 100)) for i in range(n))
    prof = MixedProfile(probs=rows)
    disc = discretize_profile(prof, z)
    before = sum(r[0] for r in rows)
    after = sum(r[0] for r in disc.probs)
    assert abs(after - before) <= F(1, z)


def test_discretize_checks_alpha_without_a_typed_leaf():
    pure = MixedProfile(probs=((F(1), F(0)), (F(0), F(1))))
    for alpha in (F(7), F(0), F(1)):
        with pytest.raises(ValueError, match="alpha must lie strictly between"):
            discretize_profile(pure, 10, alpha)


def test_discretize_refuses_a_float_alpha():
    from anongames.tdp import ROOT_POWER_BITS   # see test_tdp's twin test
    assert F(0.6).denominator * (5).bit_length() > ROOT_POWER_BITS
    with pytest.raises(ValueError, match="alpha denominator .* too large"):
        discretize_profile(MixedProfile(probs=((F(1, 2), F(1, 2)),)), 5, alpha=0.6)


# --- equality gate: the Fraction rounding and fold the integer ones replaced ---

def ref_largest_remainder_round(values, z):
    vals = [F(v) for v in values]
    scaled = [v * z for v in vals]
    floors = [math.floor(x) for x in scaled]
    fracs = [x - f for x, f in zip(scaled, floors)]
    bumps = math.floor(sum(fracs) + F(1, 2))
    out = list(floors)
    for i in sorted(range(len(vals)), key=lambda i: (-fracs[i], i))[:bumps]:
        out[i] += 1
    return [F(c, z) for c in out]


def ref_round_cell(trees, z):
    """trees are (root, leaves) pairs of the reference construction."""
    rounded = [[None] * len(trees[0][1]) for _ in trees]
    for j in range(len(trees[0][1])):
        leaves = [t[1][j] for t in trees]
        firsts = ref_largest_remainder_round([leaf.probs[0] for leaf in leaves], z)
        for i, leaf in enumerate(leaves):
            rounded[i][j] = ((F(1),) if len(leaf.strategies) == 1
                             else (firsts[i], 1 - firsts[i]))
    return rounded


def ref_discretize(profile, z, alpha):
    trees, cells, out = {}, {}, [None] * profile.n
    for i, row in enumerate(profile.probs):
        support = profile_support(row)
        if len(support) <= 1:
            out[i] = tuple(row)
            continue
        trees[i] = ref_tree(support, [row[s] for s in support])
        cells.setdefault(ref_signature(trees[i][0], z, alpha), []).append(i)
    for members in cells.values():
        for i, pairs in zip(members, ref_round_cell([trees[i] for i in members], z)):
            acc = [F(0)] * profile.k
            for leaf, pair in zip(trees[i][1], pairs):
                for s, p in zip(leaf.strategies, pair):
                    acc[s] += F(1, 2 ** leaf.depth) * p
            out[i] = tuple(acc)
    return tuple(out)


@GATE_SETTINGS
@given(gate_profiles(max_n=12), GATE_ZS, GATE_ALPHAS)
def test_discretize_equals_the_fraction_pipeline(profile, z, alpha):
    assert discretize_profile(profile, z, alpha).probs == ref_discretize(profile, z, alpha)


def test_discretize_equals_the_fraction_pipeline_on_random_profiles():
    for seed, (n, k, den) in enumerate([(20, 3, 1000), (12, 4, 997), (30, 5, 60),
                                        (16, 2, 7), (40, 3, 12)]):
        profile = random_profile(n, k, seed=seed, denominator=den)
        for z in (2, 3, 5, 20, 40):
            assert (discretize_profile(profile, z).probs
                    == ref_discretize(profile, z, F(3, 5)))


_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6, 10, 12, 20, 97, 100, 997, 1000])
_UNIT_VALUES = _DENOMINATORS.flatmap(
    lambda d: st.integers(0, d).map(lambda a: F(a, d)))


@GATE_SETTINGS
@given(st.lists(_UNIT_VALUES, max_size=12).flatmap(
           # repeated values tie in probability and in remainder
           lambda vs: st.lists(st.sampled_from(vs), max_size=12) if vs else st.just([])),
       st.sampled_from([1, 2, 3, 4, 5, 7, 10, 20, 40]))
def test_largest_remainder_equals_the_fraction_rounding(values, z):
    assert largest_remainder_round(values, z) == ref_largest_remainder_round(values, z)


@GATE_SETTINGS
@given(gate_profiles(max_n=6), GATE_ZS, GATE_ALPHAS)
def test_round_cell_equals_the_fraction_rounding(profile, z, alpha):
    # every row on its own, then all rows of one cell together
    by_cell = {}
    for row in profile.probs:
        support = profile_support(row)
        probs = [row[s] for s in support]
        tree, ref = build_tdp_tree(support, probs), ref_tree(support, probs)
        assert round_cell([tree], z) == ref_round_cell([ref], z)
        if len(support) >= 2:
            by_cell.setdefault(ref_signature(ref[0], z, alpha), []).append((tree, ref))
    for group in by_cell.values():
        assert (round_cell([t for t, _ in group], z)
                == ref_round_cell([r for _, r in group], z))
