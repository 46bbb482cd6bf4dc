import random
import time
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import MixedProfile, TdpStructureError
from anongames.tdp import (build_tdp_tree, cell_signature, classify_leaf,
                           floor_root_power, format_tree, iter_nodes,
                           node_ordering_ok, reconstruct_distribution,
                           sample_strategy, tree_shape_key)
from anongames.games import profile_support

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


def test_nodes_keep_integer_numerators_over_the_row_denominator():
    t = build_tdp_tree([1, 2, 3], [F(3, 10), F(4, 10), F(3, 10)])
    assert t.root.nums == (3, 4, 3) and t.root.den == 10
    for node in iter_nodes(t):
        assert node.den == 10 and sum(node.nums) == 10
        assert node.probs == tuple(F(a, 10) for a in node.nums)
    # the row's denominator is the lcm of its entries' denominators
    assert build_tdp_tree([0, 1, 2], [F(1, 6), F(1, 2), F(1, 3)]).root.den == 6


def reference_floor_root_power(z, alpha):
    """The float-seeded walk the integer Newton seed replaced."""
    p, q = alpha.numerator, alpha.denominator
    target = z ** p
    t = max(int(round(z ** float(alpha))), 0)
    while t ** q > target:
        t -= 1
    while (t + 1) ** q <= target:
        t += 1
    return t


def test_floor_root_power_matches_the_float_seeded_walk():
    for alpha in (F(3, 5), F(1, 2), F(1, 3), F(9, 10)):
        for z in range(1, 10 ** 4 + 1):
            assert floor_root_power(z, alpha) == reference_floor_root_power(z, alpha)


@pytest.mark.parametrize("z", [10 ** 36, 10 ** 40, 10 ** 400, 2 ** 1024 - 1],
                         ids=["1e36", "1e40", "1e400", "2^1024-1"])
def test_floor_root_power_on_a_huge_z_is_fast(z):
    # the float seed overflowed past 2**1024 and walked one step at a time
    # across its own error below that: 10**36 took seconds
    for alpha in (F(3, 5), F(1, 2), F(1, 3), F(9, 10)):
        t0 = time.perf_counter()
        t = floor_root_power(z, alpha)
        assert time.perf_counter() - t0 < 1
        p, q = alpha.numerator, alpha.denominator
        assert t ** q <= z ** p < (t + 1) ** q


def test_floor_root_power_refuses_a_huge_alpha_denominator():
    # imported here so that, without the size check, the test stops at the
    # import instead of starting a power with ~10**16 bits
    from anongames.tdp import ROOT_POWER_BITS
    alpha = F(0.6)              # the float's exact value: denominator 2**53
    assert alpha.denominator * (5).bit_length() > ROOT_POWER_BITS
    with pytest.raises(ValueError, match="alpha denominator .* too large"):
        floor_root_power(5, alpha)
    # a denominator within the cap still gets the exact floor
    p, q = 1000, 1001
    t = floor_root_power(1000, F(p, q))
    assert t ** q <= 1000 ** p < (t + 1) ** q


# --- equality gate: the Fraction construction the integer trees replaced ----

@dataclass(frozen=True)
class RefNode:
    strategies: tuple
    probs: tuple
    depth: int
    left: "RefNode | None" = None
    right: "RefNode | None" = None


def ref_order_support(strategies, probs):
    items = sorted(zip(strategies, probs))
    if len(items) == 1:
        return (items[0][0],), (items[0][1],)
    max_p = max(p for _, p in items)
    second = min(s for s, p in items if p == max_p)
    rest = sorted(((s, p) for s, p in items if s != second), key=lambda t: (t[1], t[0]))
    ordered = [rest[0]] + [(second, max_p)] + rest[1:]
    return tuple(s for s, _ in ordered), tuple(p for _, p in ordered)


def ref_split_index(probs):
    prefix, total, hits = F(0), sum(probs), []
    for ell in range(1, len(probs)):
        suffix = total - prefix - probs[ell - 1]
        if prefix <= F(1, 2) and suffix < F(1, 2):
            hits.append(ell)
        prefix += probs[ell - 1]
    assert len(hits) == 1, (probs, hits)
    return hits[0]


def ref_build(strategies, probs, depth, leaves):
    strategies, probs = ref_order_support(strategies, probs)
    if len(strategies) <= 2:
        node = RefNode(strategies, probs, depth)
        leaves.append(node)
        return node
    ell = ref_split_index(probs)
    left_items = [(strategies[j], 2 * probs[j]) for j in range(ell - 1)]
    t = 1 - sum(p for _, p in left_items)
    if t != 0:
        left_items.append((strategies[ell - 1], t))
    right_rest = [(strategies[j], 2 * probs[j]) for j in range(ell, len(strategies))]
    right_items = [(strategies[ell - 1], 1 - sum(p for _, p in right_rest))] + right_rest
    left = ref_build([s for s, _ in left_items], [p for _, p in left_items],
                     depth + 1, leaves)
    right = ref_build([s for s, _ in right_items], [p for _, p in right_items],
                      depth + 1, leaves)
    return RefNode(strategies, probs, depth, left, right)


def ref_tree(strategies, probs):
    """(root, preorder leaves) of the Fraction construction."""
    leaves = []
    root = ref_build(list(strategies), [F(p) for p in probs], 0, leaves)
    return root, leaves


def ref_leaf_type(leaf, z, alpha):
    return "A" if leaf.probs[0] <= F(floor_root_power(z, alpha), z) else "B"


def ref_signature(node, z, alpha):
    if node.left is None:
        return ("L", node.strategies, ref_leaf_type(node, z, alpha))
    return ("N", node.strategies, ref_signature(node.left, z, alpha),
            ref_signature(node.right, z, alpha))


def ref_format(node, z=None, alpha=None, lines=None):
    lines = [] if lines is None else lines
    body = ", ".join(f"{s}:{p}" for s, p in zip(node.strategies, node.probs))
    tag = "node"
    if node.left is None:
        tag = "leaf"
        if z is not None and len(node.strategies) == 2:
            tag += f"[{ref_leaf_type(node, z, alpha)}]"
    lines.append(f"{'  ' * node.depth}{tag} depth={node.depth} ({body})")
    if node.left is not None:
        ref_format(node.left, z, alpha, lines)
        ref_format(node.right, z, alpha, lines)
    return "\n".join(lines) + "\n"


def ref_reconstruct(leaves):
    acc = {}
    for leaf in leaves:
        for s, p in zip(leaf.strategies, leaf.probs):
            acc[s] = acc.get(s, F(0)) + F(1, 2 ** leaf.depth) * p
    return acc


def _row_from_weights(weights):
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


# rows drawn as a template scaled by c plus per-entry noise: similar rows
# over different denominators, so they share cells; small weights give
# ties in probability and split prefixes of exactly 1/2, zeros drop out
@st.composite
def gate_profiles(draw, max_n=8):
    k = draw(st.integers(1, 6))
    templates = draw(st.lists(st.lists(st.integers(0, 12), min_size=k, max_size=k),
                              min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, max_n))):
        base = draw(st.sampled_from(templates))
        scale = draw(st.sampled_from([1, 1, 2, 3, 7, 50, 997]))
        noise = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        weights = [b * scale + (e if draw(st.booleans()) else 0)
                   for b, e in zip(base, noise)]
        if sum(weights) == 0:
            weights[0] = 1
        rows.append(_row_from_weights(weights))
    return MixedProfile(probs=tuple(rows))


GATE_ZS = st.sampled_from([2, 3, 4, 5, 10, 20, 40])
GATE_ALPHAS = st.sampled_from([F(3, 5), F(1, 2), F(1, 3), F(9, 10)])
GATE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)


@GATE_SETTINGS
@given(gate_profiles(), GATE_ZS, GATE_ALPHAS)
def test_integer_trees_equal_the_fraction_construction(profile, z, alpha):
    for row in profile.probs:
        support = profile_support(row)
        probs = [row[s] for s in support]
        tree = build_tdp_tree(support, probs)
        root, leaves = ref_tree(support, probs)
        assert format_tree(tree) == ref_format(root)
        assert reconstruct_distribution(tree) == ref_reconstruct(leaves)
        assert [leaf.probs for leaf in tree.leaves] == [leaf.probs for leaf in leaves]
        if len(support) >= 2:
            assert format_tree(tree, z=z, alpha=alpha) == ref_format(root, z, alpha)
            assert cell_signature(tree, z, alpha) == ref_signature(root, z, alpha)
