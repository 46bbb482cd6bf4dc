import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import TdpStructureError
from anongames.tdp import (build_tdp_tree, cell_signature, classify_leaf,
                           floor_root_power, format_tree, iter_nodes,
                           node_ordering_ok, reconstruct_distribution,
                           sample_strategy, tree_shape_key)

ALPHA = F(3, 5)


def random_positive_dist(k, seed, denominator=720):
    """Strictly positive rational distribution on {0..k-1}."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, denominator), k - 1)) if k > 1 else []
    edges = [0] + cuts + [denominator]
    return [F(edges[i + 1] - edges[i], denominator) for i in range(k)]


def test_two_strategy_input_is_single_leaf():
    t = build_tdp_tree([1, 2], [F(3, 4), F(1, 4)])
    assert t.root.is_leaf
    assert t.root.strategies == (2, 1)          # largest probability second
    assert t.root.probs == (F(1, 4), F(3, 4))
    assert reconstruct_distribution(t) == {1: F(3, 4), 2: F(1, 4)}


def test_uniform_three_trace():
    t = build_tdp_tree([1, 2, 3], [F(1, 3)] * 3)
    assert t.root.strategies == (2, 1, 3)
    left, right = t.root.left, t.root.right
    assert set(left.strategies) == {1, 2}
    assert left.prob_of(2) == F(2, 3) and left.prob_of(1) == F(1, 3)
    assert set(right.strategies) == {1, 3}
    assert right.prob_of(1) == F(1, 3) and right.prob_of(3) == F(2, 3)
    assert reconstruct_distribution(t) == {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)}


def test_343_trace():
    t = build_tdp_tree([1, 2, 3], [F(3, 10), F(4, 10), F(3, 10)])
    assert t.root.strategies == (1, 2, 3)
    left, right = t.root.left, t.root.right
    assert left.prob_of(1) == F(3, 5) and left.prob_of(2) == F(2, 5)
    assert right.prob_of(2) == F(2, 5) and right.prob_of(3) == F(3, 5)
    assert reconstruct_distribution(t) == {1: F(3, 10), 2: F(2, 5), 3: F(3, 10)}


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_tdp_tree([1, 2], [F(1, 2), F(0)])
    with pytest.raises(ValueError):
        build_tdp_tree([1, 2], [F(1, 2), F(1, 3)])
    with pytest.raises(ValueError):
        build_tdp_tree([], [])


def test_duplicated_strategy_vanishes_when_halves_split_evenly():
    # prefix mass exactly 1/2 forces t = 0: the pivot drops out of the left set
    t = build_tdp_tree([1, 2, 3], [F(1, 4), F(1, 2), F(1, 4)])
    assert t.root.strategies == (1, 2, 3)
    assert t.root.left.strategies in ((1, 2), (2, 1))
    assert t.root.left.prob_of(1) == F(1, 2) and t.root.left.prob_of(2) == F(1, 2)
    assert reconstruct_distribution(t) == {1: F(1, 4), 2: F(1, 2), 3: F(1, 4)}


def test_exact_reconstruction_property_sweep():
    for k in range(2, 7):
        for seed in range(200):
            probs = random_positive_dist(k, seed * 31 + k)
            t = build_tdp_tree(list(range(k)), probs)
            rec = reconstruct_distribution(t)
            assert rec == {s: p for s, p in enumerate(probs)}
            assert len(t.leaves) <= max(k - 1, 1)
            assert max(leaf.depth for leaf in t.leaves) <= k
            for node in iter_nodes(t):
                assert sum(node.probs) == 1
                assert node_ordering_ok(node)


def test_sampling_law_statistical():
    t = build_tdp_tree([0, 1, 2], [F(1, 3)] * 3)
    rng = random.Random(2024)
    trials = 100_000
    counts = [0, 0, 0]
    for _ in range(trials):
        counts[sample_strategy(t, rng)] += 1
    sigma = (1 / 3 * 2 / 3 / trials) ** 0.5
    for c in counts:
        assert abs(c / trials - 1 / 3) <= 3 * sigma


def test_sampling_deterministic_given_seed():
    t = build_tdp_tree([0, 1, 2], [F(1, 6), F(1, 2), F(1, 3)])
    seq1 = [sample_strategy(t, random.Random(99)) for _ in range(50)]
    # one generator reused across draws, reseeded identically
    rng = random.Random(99)
    seq2 = []
    for _ in range(50):
        seq2.append(sample_strategy(t, rng))
    rng = random.Random(99)
    seq3 = [sample_strategy(t, rng) for _ in range(50)]
    assert seq2 == seq3
    assert seq1[0] == seq2[0]


def test_floor_root_power():
    assert floor_root_power(100, F(3, 5)) == 15
    assert floor_root_power(100, F(1, 2)) == 10
    assert floor_root_power(20, F(3, 5)) == 6
    assert floor_root_power(2, F(1, 2)) == 1
    for z in (2, 5, 10, 1000):
        for alpha in (F(1, 3), F(2, 5), F(3, 5), F(9, 10)):
            t = floor_root_power(z, alpha)
            p, q = alpha.numerator, alpha.denominator
            assert t ** q <= z ** p < (t + 1) ** q


def test_classify_leaf_thresholds():
    z, alpha = 100, F(3, 5)       # floor(z^alpha)/z = 15/100
    leaf_a = build_tdp_tree([0, 1], [F(1, 10), F(9, 10)]).root
    leaf_b = build_tdp_tree([0, 1], [F(3, 10), F(7, 10)]).root
    boundary = build_tdp_tree([0, 1], [F(15, 100), F(85, 100)]).root
    assert classify_leaf(leaf_a, z, alpha) == "A"
    assert classify_leaf(leaf_b, z, alpha) == "B"
    assert classify_leaf(boundary, z, alpha) == "A"   # inclusive threshold


def test_classify_leaf_rejects_singleton():
    t = build_tdp_tree([4], [F(1)])
    with pytest.raises(ValueError):
        classify_leaf(t.root, 10, ALPHA)


def test_signatures_equal_for_same_cell():
    a = build_tdp_tree([1, 2, 3], [F(3, 10), F(4, 10), F(3, 10)])
    b = build_tdp_tree([1, 2, 3], [F(29, 100), F(41, 100), F(30, 100)])
    assert cell_signature(a, 100, ALPHA) == cell_signature(b, 100, ALPHA)


def test_signatures_differ_when_leaf_order_flips():
    a = build_tdp_tree([1, 2, 3], [F(3, 10), F(4, 10), F(3, 10)])
    b = build_tdp_tree([1, 2, 3], [F(2, 10), F(5, 10), F(3, 10)])
    assert cell_signature(a, 100, ALPHA) != cell_signature(b, 100, ALPHA)


def test_identical_distributions_share_signature():
    probs = [F(1, 5), F(2, 5), F(1, 5), F(1, 5)]
    a = build_tdp_tree([0, 1, 2, 3], probs)
    b = build_tdp_tree([0, 1, 2, 3], probs)
    assert cell_signature(a, 20, ALPHA) == cell_signature(b, 20, ALPHA)
    assert tree_shape_key(a) == tree_shape_key(b)


def test_cell_count_bounded_for_k3():
    g3 = 3 ** 9 * 2 ** 2 * 2 ** 3 * 6      # shape-count bound for k = 3
    sigs = set()
    for seed in range(400):
        probs = random_positive_dist(3, seed)
        sigs.add(cell_signature(build_tdp_tree([0, 1, 2], probs), 20, ALPHA))
    assert len(sigs) <= g3


def test_format_tree_mentions_types_and_rationals():
    t = build_tdp_tree([1, 2, 3], [F(1, 3)] * 3)
    out = format_tree(t, z=100, alpha=ALPHA)
    assert "1/3" in out and "leaf[" in out and out.endswith("\n")


# small weights make ties (the split rule's hard case) common; large ones
# give awkward denominators
_weights = st.lists(st.integers(1, 12) | st.integers(1, 10 ** 9),
                    min_size=3, max_size=9)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_weights)
def test_split_uniqueness_guard_is_quiet_on_valid_inputs(weights):
    # TdpStructureError should never fire for positive exact inputs
    probs = [F(w, sum(weights)) for w in weights]
    try:
        t = build_tdp_tree(list(range(len(probs))), probs)
    except TdpStructureError as exc:   # pragma: no cover
        pytest.fail(f"uniqueness violated: {exc}")
    assert reconstruct_distribution(t) == dict(enumerate(probs))
    assert all(node_ordering_ok(node) for node in iter_nodes(t))
