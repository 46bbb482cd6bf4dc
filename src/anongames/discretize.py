"""Per-cell rounding of mixed profiles onto the 1/(2^k z) grid.

Players are grouped by the cell key of their trickle-down trees; within a
cell, each leaf's first-ordered probability is rounded across the whole
group by the largest-remainder method, and the rounded trees are folded
back into probability vectors.  The construction guarantees, exactly:

  * every output entry is an integer multiple of 1/(2^k * z);
  * every entry moves by at most 1/z;
  * zero entries stay zero;
  * within each cell and leaf, the group sum of the rounded first-strategy
    probabilities stays within 1/z of the original group sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .games import MixedProfile, as_fraction, profile_support
from .tdp import TdpTree, _signature, build_tdp_tree, floor_root_power, tree_shape_key

DEFAULT_ALPHA = Fraction(3, 5)


@dataclass(frozen=True)
class DiscretizedProfile:
    """A mixed profile whose entries are multiples of 1/(2^k z)."""

    probs: tuple
    z: int
    alpha: Fraction

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def k(self) -> int:
        return len(self.probs[0])

    def to_profile(self) -> MixedProfile:
        return MixedProfile(probs=self.probs)


def _check_z(z, least: int) -> None:
    """The grid parameter must be an int (not a bool) of at least `least`."""
    if not isinstance(z, int) or isinstance(z, bool):
        raise ValueError(f"z must be an int, got {z!r}")
    if z < least:
        raise ValueError(f"z must be >= {least}")


def _round_numerators(nums: Sequence[int], dens: Sequence[int], z: int) -> list[int]:
    """Largest-remainder rounding of the values a_i/D_i to c_i/z: c_i is
    floor(a_i z / D_i) plus one for the round(sum of fractional parts)
    largest fractional parts (a_i z mod D_i)/D_i, ties to the lower index;
    the half-way group sum rounds up.  Fractional parts are compared as
    integers over the lcm L of the D_i."""
    lcm = math.lcm(*dens)
    out = []
    keys = []
    for a, d in zip(nums, dens):
        c, r = divmod(a * z, d)
        out.append(c)
        keys.append(r * (lcm // d))
    bumps = (2 * sum(keys) + lcm) // (2 * lcm)
    if bumps:
        # a stable descending sort keeps tied remainders in index order
        for i in sorted(range(len(keys)), key=keys.__getitem__, reverse=True)[:bumps]:
            out[i] += 1
    return out


def largest_remainder_round(values: Sequence, z: int) -> list[Fraction]:
    """Round each value to a multiple of 1/z, preserving the group sum to
    within 1/z: floors first, then distribute round(sum of fractional
    parts) single increments to the largest fractional parts (ties by
    index; the half-way group sum rounds up)."""
    _check_z(z, 1)
    vals = [as_fraction(v) for v in values]
    if any(v.numerator < 0 or v.numerator > v.denominator for v in vals):
        raise ValueError("values must lie in [0, 1]")
    out = _round_numerators([v.numerator for v in vals], [v.denominator for v in vals], z)
    return [Fraction(c, z) for c in out]


def _round_trees(trees: Sequence[TdpTree], z: int) -> list[tuple[int, ...]]:
    """Per tree, the rounded first probability of each leaf in preorder,
    as a numerator over z.  Each leaf position is rounded jointly across
    the group; every node of a tree shares the tree's denominator."""
    dens = [t.root.den for t in trees]
    columns = [_round_numerators([t.leaves[j].nums[0] for t in trees], dens, z)
               for j in range(len(trees[0].leaves))]
    return list(zip(*columns))


def round_cell(trees: Sequence[TdpTree], z: int) -> list[list[tuple[Fraction, Fraction]]]:
    """Round a group of same-cell trees leaf by leaf.

    Returns, per tree, the rounded (first, second) probability pair of each
    leaf in preorder.  The first-ordered strategy of each leaf is rounded
    jointly across the group; the second gets the complement, so every leaf
    distribution stays valid.  Trees whose shapes disagree cannot be
    aligned and are rejected.
    """
    if not trees:
        return []
    key = tree_shape_key(trees[0])
    if any(tree_shape_key(t) != key for t in trees[1:]):
        raise ValueError("signature mismatch among cell members")
    _check_z(z, 1)
    return [[(Fraction(1),) if len(leaf.strategies) == 1
             else (Fraction(c, z), Fraction(z - c, z))
             for leaf, c in zip(tree.leaves, firsts)]
            for tree, firsts in zip(trees, _round_trees(trees, z))]


def _fold(tree: TdpTree, firsts: Sequence[int], z: int, k: int) -> tuple:
    """The probability vector of a tree whose support-2 leaves were
    rounded to (c/z, 1 - c/z): integers over 2^K z, K the deepest leaf."""
    depth = max(leaf.depth for leaf in tree.leaves)
    acc = [0] * k
    for leaf, c in zip(tree.leaves, firsts):
        w = 1 << (depth - leaf.depth)
        first, second = leaf.strategies
        acc[first] += c * w
        acc[second] += (z - c) * w
    den = z << depth
    return tuple(Fraction(a, den) for a in acc)


def discretize_profile(profile: MixedProfile, z: int,
                       alpha=DEFAULT_ALPHA) -> DiscretizedProfile:
    """Full pipeline: build a tree per player, group players by cell,
    round each cell, and fold the rounded leaves back into vectors.

    Players whose support is a single strategy pass through unchanged
    (their vector is already exact on any grid).  Zero entries are pruned
    before tree construction, so supports of size two with an explicit
    zero are handled the same way.  alpha is checked even when no leaf
    needs a type.  Deterministic in all inputs.
    """
    _check_z(z, 2)
    alpha = as_fraction(alpha)
    threshold = floor_root_power(z, alpha)
    n, k = profile.n, profile.k

    trees: dict[int, TdpTree] = {}
    cells: dict[tuple, list[int]] = {}
    out_rows: list = [None] * n
    for i, row in enumerate(profile.probs):
        support = profile_support(row)
        if len(support) <= 1:
            out_rows[i] = tuple(row)
            continue
        tree = build_tdp_tree(support, [row[s] for s in support])
        trees[i] = tree
        cells.setdefault(_signature(tree.root, z, threshold), []).append(i)

    # a tree of support >= 2 has only support-2 leaves, which _fold expects
    for members in cells.values():
        group = [trees[i] for i in members]
        for i, tree, firsts in zip(members, group, _round_trees(group, z)):
            out_rows[i] = _fold(tree, firsts, z, k)

    return DiscretizedProfile(probs=tuple(out_rows), z=z, alpha=alpha)
