"""Grid minimax over Bernoulli-sum expectations (threat points).

Minimize, over n Bernoulli parameters, the largest of several expected
scores of the sum.  The objective only sees the multiset of parameters
(the sum is exchangeable), so the grid search runs over multisets of
values from {0, eps, 2*eps, ..., 1} rather than the full product grid.
Restricting to the grid costs the optimum only a discretization loss
that vanishes with eps; the nesting of coarse grids inside fine ones is
what the oracle comparison checks, exactly.

Exchangeability also lets multisets that share a sorted prefix share that
prefix's partial pmf: the search walks a trie of non-decreasing level
sequences in lex order, one Bernoulli step per trie edge, in blocks of
subtrees whose float cells are bounded by LATTICE_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import GameFormatError
from .games import _dump_json, _frac_str, _load_json, as_fraction, require_int
from .guards import LATTICE_CAP, active_cap, check_guard
from .sumdist import poisson_binomial_pmf


@dataclass(frozen=True)
class ObjectiveFunctions:
    """One or more score tables over {0..n}, values in [0, 1]."""

    n: int
    tables: tuple

    def __post_init__(self):
        require_int("objective functions", n=self.n)
        if self.n < 1:
            raise GameFormatError("need n >= 1")
        if len(self.tables) < 1:
            raise GameFormatError("need at least one function")
        coerced = []
        for row in self.tables:
            if len(row) != self.n + 1:
                raise GameFormatError(
                    f"each function needs {self.n + 1} values f(0)..f(n)")
            vals = tuple(as_fraction(v) for v in row)
            if any(not 0 <= v.numerator <= v.denominator for v in vals):
                raise GameFormatError("function value out of range [0, 1]")
            coerced.append(vals)
        object.__setattr__(self, "tables", tuple(coerced))

    def complement(self) -> "ObjectiveFunctions":
        return ObjectiveFunctions(
            n=self.n, tables=tuple(tuple(1 - v for v in row) for row in self.tables))


def parse_functions(data: bytes | str) -> ObjectiveFunctions:
    return _load_json(data, "function", ("n", "functions"), lambda obj: ObjectiveFunctions(
        n=obj["n"], tables=obj["functions"]))


def serialize_functions(funcs: ObjectiveFunctions) -> bytes:
    return _dump_json({"functions": [[_frac_str(v) for v in row] for row in funcs.tables],
                       "n": funcs.n})


def objective_value(funcs: ObjectiveFunctions, probs: Sequence) -> Fraction:
    """max over functions of E[f(sum of Bernoulli(p_i))], in exact rational
    arithmetic (hence exactly permutation-invariant)."""
    if len(probs) != funcs.n:
        raise ValueError(f"expected {funcs.n} Bernoulli parameters")
    pmf = poisson_binomial_pmf(probs)
    return max(sum(f * m for f, m in zip(row, pmf)) for row in funcs.tables)


def normalize_epsilon(epsilon) -> Fraction:
    """Grids must nest, so eps is forced to the reciprocal of an integer:
    any other request is served by 1/ceil(1/eps) <= eps."""
    eps = as_fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if eps.numerator != 1:
        eps = Fraction(1, math.ceil(1 / eps))
    return eps


@dataclass(frozen=True)
class MinimaxResult:
    value: float
    probs: tuple          # optimal multiset, ascending, exact rationals
    epsilon: Fraction     # grid pitch actually used


def _trie_plan(n: int, num_levels: int, what: str) -> tuple[int, int]:
    """(split depth d, leaves per block) of the trie search.

    With L levels, P(t) = C(t+L-1, L-1) counts the prefixes of length t,
    and the largest subtree under one of them (the all-zero prefix) has
    P(n-t) leaves.  The search holds the pmf rows of all P(d) prefixes
    of length d and one block of at most P(n-d) leaves below them, each
    row n+1 floats: (n+1) (P(d) + P(n-d)) cells.  That count is symmetric
    and convex in d, so its least value, at d = n//2, is checked against
    LATTICE_CAP before anything is built, and d is the shallowest depth
    whose count fits.
    """
    def cells(d: int) -> int:
        return (n + 1) * (math.comb(d + num_levels - 1, num_levels - 1)
                          + math.comb(n - d + num_levels - 1, num_levels - 1))

    check_guard(cells(n // 2), f"{what} (pmf cells held at once)", LATTICE_CAP)
    cap = active_cap(LATTICE_CAP)
    depth = next(d for d in range(n // 2 + 1) if cells(d) <= cap)
    return depth, math.comb(n - depth + num_levels - 1, num_levels - 1)


def _children(levels, pmf, last):
    """One trie level down: each prefix (a pmf row and its last level
    index) followed by each level from its last one up, in lex order.
    Returns the children's pmf rows, parent rows and last levels."""
    import numpy as np
    counts = len(levels) - last
    parent = np.repeat(np.arange(last.size), counts)
    child_last = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts - last,
                                                    counts)
    p = levels[child_last][:, None]
    grown = pmf[parent]
    nxt = grown * (1.0 - p)
    grown[:, :-1] *= p
    nxt[:, 1:] += grown[:, :-1]
    return nxt, parent, child_last


def _grid_search(funcs: ObjectiveFunctions, level_fracs: list[Fraction],
                 what: str, maximin: bool) -> tuple[float, tuple]:
    """(value, multiset) of the best multiset of `level_fracs`: the one
    evaluator of both grid searches.  With maximin the search minimizes
    over the complemented tables and flips the value back, so the largest
    smallest score is found.

    Multisets are the leaves of a prefix trie over non-decreasing level
    sequences.  The trie is built level by level in lex order down to the
    split depth of `_trie_plan`; below it, runs of consecutive prefixes
    of at most the plan's leaf count form blocks, each grown to its
    leaves.  A child's pmf is its parent's after one more Bernoulli step,
    the same float operations in the same order as a row rebuilt from the
    empty sum, so a multiset's value depends on the multiset alone: not on
    the block sizes and not on the grid it sits in.  That is what makes
    the grid comparisons exact.  Within a block the first minimum wins,
    across blocks only a strictly smaller one, so ties go to the
    lex-first multiset.
    """
    n = funcs.n
    num_levels = len(level_fracs)
    check_guard(math.comb(n + num_levels - 1, num_levels - 1), what)
    depth, block_leaves = _trie_plan(n, num_levels, what)
    import numpy as np
    if maximin:
        funcs = funcs.complement()
    levels = np.array([float(v) for v in level_fracs])
    tables = np.array([[float(v) for v in row] for row in funcs.tables])
    pmf = np.zeros((1, n + 1))
    pmf[0, 0] = 1.0
    last = np.zeros(1, dtype=np.intp)
    top = []                    # (parent, last) per level above the blocks
    for _ in range(depth):
        pmf, parent, last = _children(levels, pmf, last)
        top.append((parent, last))
    below = [math.comb(n - depth + num_levels - level - 1, num_levels - level - 1)
             for level in range(num_levels)]
    ends = np.cumsum(np.array(below)[last])
    best_value = best_idx = None
    start = 0
    while start < last.size:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + block_leaves, side="right")))
        rows, row_last = pmf[start:stop], last[start:stop]
        steps = []
        for _ in range(n - depth):
            rows, parent, row_last = _children(levels, rows, row_last)
            steps.append((parent, row_last))
        values = np.max(rows @ tables.T, axis=1)
        i = int(np.argmin(values))
        if best_value is None or values[i] < best_value:
            best_value = float(values[i])
            idx = []
            for parent, lv in reversed(steps):
                idx.append(int(lv[i]))
                i = int(parent[i])
            i += start
            for parent, lv in reversed(top):
                idx.append(int(lv[i]))
                i = int(parent[i])
            best_idx = idx[::-1]
        start = stop
    if maximin:
        best_value = 1.0 - best_value
    return best_value, tuple(level_fracs[i] for i in best_idx)


def minimax_ptas(funcs: ObjectiveFunctions, epsilon,
                 maximin: bool = False) -> MinimaxResult:
    """Best multiset of Bernoulli parameters on the eps grid.

    Ties go to the lexicographically first multiset.  With maximin=True
    the inner max becomes a min and the outer min a max, served by
    complementing the score tables inside [0, 1].
    """
    eps = normalize_epsilon(epsilon)
    level_fracs = [i * eps for i in range(eps.denominator + 1)]
    value, probs = _grid_search(funcs, level_fracs,
                                f"minimax multiset grid at eps={eps}", maximin)
    return MinimaxResult(value=value, probs=probs, epsilon=eps)


def minimax_oracle(funcs: ObjectiveFunctions, grid: int,
                   maximin: bool = False) -> MinimaxResult:
    """Same search at resolution 1/grid.  When (1/eps) divides grid the
    eps-grid candidates are a subset evaluated identically, so
    minimax_ptas(eps).value >= minimax_oracle(grid).value holds exactly."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    level_fracs = [Fraction(i, grid) for i in range(grid + 1)]
    value, probs = _grid_search(funcs, level_fracs,
                                f"minimax multiset grid at 1/{grid}", maximin)
    return MinimaxResult(value=value, probs=probs, epsilon=Fraction(1, grid))
