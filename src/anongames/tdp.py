"""Trickle-down decomposition of a mixed strategy into a binary tree.

A distribution over m >= 3 strategies is split into two halves whose
probability masses each round to 1/2: one strategy may be duplicated
across the halves, each half's probabilities are doubled, and the halves
are decomposed recursively.  Leaves carry at most two strategies, so a
draw reduces to a fair-coin walk down the tree followed by a single
biased two-way choice at the leaf.

Every node keeps its strategies in a fixed canonical order: the largest
probability sits second, the remaining entries are nondecreasing, and
ties are resolved by strategy index (smallest tied index becomes the
second element; the rest sort by (probability, index)).  Cell keys and
per-leaf rounding both depend on this order, so it is part of the data,
not a display choice.

All arithmetic is exact and runs on integers.  A row with probabilities
a_s/D (D the lcm of its denominators) keeps that D at every node of its
tree: doubling maps a to 2a, a complement is D minus a sum, and the
split test compares 2 * prefix with D.  `TdpNode.probs` is a Fraction
view of a node's numerators over D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import TdpStructureError
from .games import as_fraction

# bit size allowed for the exact comparison t**q <= z**p behind
# floor(z**(p/q)); an alpha with a huge denominator (a float's 2**53, say)
# would otherwise start an unbounded power
ROOT_POWER_BITS = 1 << 20


@dataclass(frozen=True)
class TdpNode:
    strategies: tuple[int, ...]     # canonical order, largest probability second
    nums: tuple[int, ...]           # aligned with `strategies`, sums to `den`
    den: int                        # the row's denominator, shared by its whole tree
    depth: int
    left: "TdpNode | None" = None
    right: "TdpNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The node's probabilities, aligned with `strategies`."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    def prob_of(self, strategy: int) -> Fraction:
        return Fraction(self.nums[self.strategies.index(strategy)], self.den)


@dataclass(frozen=True)
class TdpTree:
    root: TdpNode
    leaves: tuple[TdpNode, ...]     # preorder (left before right)


def order_support(strategies: Sequence[int], probs: Sequence):
    """Canonical node order: largest probability second, rest nondecreasing.

    Among strategies tied for the maximum, the smallest index is placed
    second; the remaining strategies sort ascending by (probability, index).
    """
    items = sorted(zip(probs, strategies))
    if len(items) > 1:
        j = len(items) - 1
        while j and items[j - 1][0] == items[-1][0]:
            j -= 1
        items.insert(1, items.pop(j))
    probs, strategies = zip(*items)
    return strategies, probs


def _split_index(nums: Sequence[int], den: int) -> int:
    """The unique 1-based position l* with prefix sum <= 1/2 and suffix
    sum < 1/2, for numerators over den summing to den.  Uniqueness is
    re-checked on every call and violations are surfaced as
    TdpStructureError."""
    prefix = 0
    hits = []
    for ell in range(1, len(nums)):   # l* < m
        suffix = den - prefix - nums[ell - 1]
        if 2 * prefix <= den and 2 * suffix < den:
            hits.append(ell)
        prefix += nums[ell - 1]
    if len(hits) != 1:
        raise TdpStructureError(
            f"split index not unique for numerators {nums} over {den}: candidates {hits}")
    return hits[0]


def _build(strategies, nums, den: int, depth: int, leaves: list) -> TdpNode:
    strategies, nums = order_support(strategies, nums)
    if len(strategies) <= 2:
        node = TdpNode(strategies, nums, den, depth)
        leaves.append(node)
        return node

    ell = _split_index(nums, den)
    pivot = strategies[ell - 1]
    left_s = list(strategies[:ell - 1])
    left_a = [2 * a for a in nums[:ell - 1]]
    t = den - sum(left_a)
    if t:
        left_s.append(pivot)
        left_a.append(t)
    right_s = [pivot, *strategies[ell:]]
    right_a = [2 * a for a in nums[ell:]]
    right_a.insert(0, den - sum(right_a))

    left = _build(left_s, left_a, den, depth + 1, leaves)
    right = _build(right_s, right_a, den, depth + 1, leaves)
    return TdpNode(strategies, nums, den, depth, left, right)


def build_tdp_tree(strategies: Sequence[int], probs: Sequence) -> TdpTree:
    """Decompose an exact distribution with strictly positive entries.

    strategies and probs are aligned; the probabilities must be exactly
    positive rationals summing to exactly 1.  Inputs of support size 1 or
    2 come back as a single (ordered) leaf.
    """
    probs = [as_fraction(p) for p in probs]
    if len(strategies) != len(probs) or not strategies:
        raise ValueError("need one probability per strategy, at least one strategy")
    if len(set(strategies)) != len(strategies):
        raise ValueError("duplicate strategy in support")
    if any(p.numerator <= 0 for p in probs):
        raise ValueError("trickle-down input requires strictly positive probabilities")
    den = math.lcm(*(p.denominator for p in probs))
    nums = [p.numerator * (den // p.denominator) for p in probs]
    if sum(nums) != den:
        raise ValueError("probabilities must sum to exactly 1")
    leaves: list[TdpNode] = []
    root = _build(strategies, nums, den, 0, leaves)
    return TdpTree(root=root, leaves=tuple(leaves))


def reconstruct_distribution(tree: TdpTree) -> dict[int, Fraction]:
    """Exact inverse of the decomposition: p(l) = sum over leaves containing
    l of 2^-depth * p_leaf(l)."""
    acc: dict[int, Fraction] = {}
    for leaf in tree.leaves:
        w = Fraction(1, 2 ** leaf.depth)
        for s, p in zip(leaf.strategies, leaf.probs):
            acc[s] = acc.get(s, Fraction(0)) + w * p
    return acc


def sample_strategy(tree: TdpTree, rng) -> int:
    """Draw one strategy: fair-coin walk to a leaf, then the leaf's two-way
    choice.  The marginal law equals reconstruct_distribution(tree)."""
    node = tree.root
    while not node.is_leaf:
        node = node.left if rng.random() < 0.5 else node.right
    if len(node.strategies) == 1:
        return node.strategies[0]
    return node.strategies[0] if rng.random() < node.probs[0] else node.strategies[1]


def check_alpha(alpha) -> Fraction:
    """alpha as a Fraction, which must lie strictly between 0 and 1."""
    alpha = as_fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return alpha


def floor_root_power(z: int, alpha: Fraction) -> int:
    """floor(z**alpha) for rational alpha, in exact integer arithmetic.

    With alpha = p/q the answer t satisfies t**q <= z**p < (t+1)**q.  Those
    powers have about q * log2(z) bits, so an alpha whose denominator makes
    that more than ROOT_POWER_BITS is refused before any power is taken.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    alpha = check_alpha(alpha)
    p, q = alpha.numerator, alpha.denominator
    if q * z.bit_length() > ROOT_POWER_BITS:
        raise ValueError(f"alpha denominator {q} is too large for an exact "
                         f"floor(z**alpha) at z={z}")
    target = z ** p

    def newton(t):
        return ((q - 1) * t + target // t ** (q - 1)) // q

    # seed 2**(alpha * log2 z), from the top bits of z: log2 z < 2**20 (the
    # bound above), so its float error is under 2**-33 and the margin below
    # (2**-30 of t, plus 2) puts t above the answer.  From there integer
    # Newton steps descend onto the answer, quadratically, and stop.
    e = math.log2(z) * p / q
    whole = int(e)
    t = int(2.0 ** (e - whole + 52)) << whole >> 52
    t += (t >> 30) + 2
    while (s := newton(t)) < t:
        t = s
    assert t ** q <= target < (t + 1) ** q
    return t


def leaf_threshold(z: int, alpha) -> int:
    """floor(z**alpha) for a grid z >= 2: a support-2 leaf is type 'A'
    when its smaller probability is at most this many multiples of 1/z."""
    if z < 2:
        raise ValueError("z must be >= 2")
    return floor_root_power(z, alpha)


def _signature(node: TdpNode, z: int, threshold: int) -> tuple:
    """cell_signature below `node`, with floor(z**alpha) given: a leaf is
    type 'A' when its smaller probability a/D has a * z <= threshold * D."""
    if node.is_leaf:
        if len(node.strategies) != 2:
            raise ValueError("only support-2 leaves have a type")
        kind = "A" if node.nums[0] * z <= threshold * node.den else "B"
        return ("L", node.strategies, kind)
    return ("N", node.strategies, _signature(node.left, z, threshold),
            _signature(node.right, z, threshold))


def classify_leaf(leaf: TdpNode, z: int, alpha) -> str:
    """'A' when the leaf's smaller probability is at most floor(z^alpha)/z
    (the threshold is inclusive), else 'B'."""
    if len(leaf.strategies) != 2:
        raise ValueError("only support-2 leaves have a type")
    return _signature(leaf, z, leaf_threshold(z, alpha))[2]


def cell_signature(tree: TdpTree, z: int, alpha) -> tuple:
    """Canonical cell key: tree shape, each node's ordered strategy list,
    and each leaf's type.  Two strategies share a cell exactly when their
    keys are equal."""
    return _signature(tree.root, z, leaf_threshold(z, alpha))


def tree_shape_key(tree: TdpTree) -> tuple:
    """Like cell_signature but without leaf types; used to confirm that a
    group of trees can be rounded together (leaf positions align)."""

    def sig(node: TdpNode) -> tuple:
        if node.is_leaf:
            return ("L", node.strategies)
        return ("N", node.strategies, sig(node.left), sig(node.right))

    return sig(tree.root)


def node_ordering_ok(node: TdpNode) -> bool:
    """Check the canonical-order invariant at one node."""
    ps = node.probs
    if len(ps) == 1:
        return True
    if any(p <= 0 for p in ps) or sum(ps) != 1:
        return False
    if max(ps) != ps[1]:
        return False
    rest = ps[:1] + ps[2:]
    return all(rest[j] <= rest[j + 1] for j in range(len(rest) - 1))


def iter_nodes(tree: TdpTree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)


def format_tree(tree: TdpTree, z: int | None = None, alpha=None) -> str:
    """Indented text dump with exact rationals, one node per line.  Leaf
    types are included when z (and alpha) are given."""

    def fmt(node: TdpNode, lines: list):
        pad = "  " * node.depth
        body = ", ".join(f"{s}:{p}" for s, p in zip(node.strategies, node.probs))
        if node.is_leaf:
            tag = "leaf"
            if z is not None and len(node.strategies) == 2:
                tag += f"[{classify_leaf(node, z, alpha)}]"
        else:
            tag = "node"
        lines.append(f"{pad}{tag} depth={node.depth} ({body})")
        if not node.is_leaf:
            fmt(node.left, lines)
            fmt(node.right, lines)

    lines: list[str] = []
    fmt(tree.root, lines)
    return "\n".join(lines) + "\n"
