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
from .tdp import TdpTree, build_tdp_tree, cell_signature, tree_shape_key

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


def largest_remainder_round(values: Sequence, z: int) -> list[Fraction]:
    """Round each value to a multiple of 1/z, preserving the group sum to
    within 1/z: floors first, then distribute round(sum of fractional
    parts) single increments to the largest fractional parts (ties by
    index; the half-way group sum rounds up)."""
    _check_z(z, 1)
    vals = [as_fraction(v) for v in values]
    if any(v < 0 or v > 1 for v in vals):
        raise ValueError("values must lie in [0, 1]")
    scaled = [v * z for v in vals]
    floors = [math.floor(s) for s in scaled]
    fracs = [s - f for s, f in zip(scaled, floors)]
    bumps = math.floor(sum(fracs) + Fraction(1, 2))
    order = sorted(range(len(vals)), key=lambda i: (-fracs[i], i))
    out = list(floors)
    for i in order[:bumps]:
        out[i] += 1
    return [Fraction(c, z) for c in out]


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
    n_leaves = len(trees[0].leaves)
    rounded: list[list] = [[None] * n_leaves for _ in trees]
    for j in range(n_leaves):
        leaves = [t.leaves[j] for t in trees]
        firsts = largest_remainder_round([leaf.probs[0] for leaf in leaves], z)
        for i, leaf in enumerate(leaves):
            if len(leaf.strategies) == 1:
                rounded[i][j] = (Fraction(1),)
            else:
                rounded[i][j] = (firsts[i], 1 - firsts[i])
    return rounded


def discretize_profile(profile: MixedProfile, z: int,
                       alpha=DEFAULT_ALPHA) -> DiscretizedProfile:
    """Full pipeline: build a tree per player, group players by cell,
    round each cell, and fold the rounded leaves back into vectors.

    Players whose support is a single strategy pass through unchanged
    (their vector is already exact on any grid).  Zero entries are pruned
    before tree construction, so supports of size two with an explicit
    zero are handled the same way.  Deterministic in all inputs.
    """
    _check_z(z, 2)
    alpha = as_fraction(alpha)
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
        cells.setdefault(cell_signature(tree, z, alpha), []).append(i)

    for members in cells.values():
        rounded = round_cell([trees[i] for i in members], z)
        for i, leaf_probs in zip(members, rounded):
            acc = [Fraction(0)] * k
            for leaf, pair in zip(trees[i].leaves, leaf_probs):
                w = Fraction(1, 2 ** leaf.depth)
                for s, p in zip(leaf.strategies, pair):
                    acc[s] += w * p
            out_rows[i] = tuple(acc)

    return DiscretizedProfile(probs=tuple(out_rows), z=z, alpha=alpha)
