"""Grid minimax over Bernoulli-sum expectations (threat points).

Minimize, over n Bernoulli parameters, the largest of several expected
scores of the sum.  The objective only sees the multiset of parameters
(the sum is exchangeable), so the grid search runs over multisets of
values from {0, eps, 2*eps, ..., 1} rather than the full product grid.
Restricting to the grid costs the optimum only a discretization loss
that vanishes with eps; the nesting of coarse grids inside fine ones is
what the oracle comparison checks, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from typing import Sequence

from .errors import GameFormatError
from .games import _dump_json, _frac_str, _load_json, as_fraction, require_int
from .guards import check_guard
from .sumdist import poisson_binomial_pmf

_CHUNK = 65536


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
            if any(v < 0 or v > 1 for v in vals):
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


def _batch_values(funcs: ObjectiveFunctions, levels, idx_rows):
    """Objective for a batch of multisets given as level-index rows: a
    numpy float array of the levels and an int array of index rows in,
    one float per row out.

    Row results depend only on the row, so chunking never changes values;
    both grid searches share this evaluator, which is what makes their
    comparisons exact.
    """
    import numpy as np
    n = funcs.n
    batch = idx_rows.shape[0]
    pmf = np.zeros((batch, n + 1))
    pmf[:, 0] = 1.0
    for t in range(n):
        p = levels[idx_rows[:, t]][:, None]
        nxt = pmf * (1.0 - p)
        nxt[:, 1:] += pmf[:, :-1] * p
        pmf = nxt
    tables = np.array([[float(v) for v in row] for row in funcs.tables])
    return np.max(pmf @ tables.T, axis=1)


@dataclass(frozen=True)
class MinimaxResult:
    value: float
    probs: tuple          # optimal multiset, ascending, exact rationals
    epsilon: Fraction     # grid pitch actually used


def _grid_search(funcs: ObjectiveFunctions, level_fracs: list[Fraction],
                 what: str, maximin: bool) -> tuple[float, tuple]:
    """(value, multiset) of the best multiset of `level_fracs`.  With
    maximin the search minimizes over the complemented tables and flips
    the value back, so the largest smallest score is found."""
    import numpy as np
    if maximin:
        funcs = funcs.complement()
    n = funcs.n
    num_levels = len(level_fracs)
    check_guard(math.comb(n + num_levels - 1, num_levels - 1), what)
    levels = np.array([float(v) for v in level_fracs])
    best_value = None
    best_idx = None
    it = combinations_with_replacement(range(num_levels), n)
    while True:
        chunk = list(islice(it, _CHUNK))
        if not chunk:
            break
        rows = np.array(chunk, dtype=np.int64)
        values = _batch_values(funcs, levels, rows)
        local = int(np.argmin(values))
        if best_value is None or values[local] < best_value:
            best_value = float(values[local])
            best_idx = chunk[local]
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
