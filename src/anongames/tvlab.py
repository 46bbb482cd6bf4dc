"""Empirical total-variation checks for the discretization and the
Poisson-style approximation bounds it leans on.

The headline distance bound has an unestimated dimension constant, so it
cannot be checked numerically as stated; the operational proxies are
(a) flatness of the discretization TV in the number of vectors and
(b) monotone decrease in the grid parameter z, both over shared random
profiles.  The appendix-style closed-form bounds (Bernoulli sums vs
Poisson, two Poissons, two translated Poissons) are proven facts and are
checked directly: a failure means an implementation bug, not new science.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .discretize import DEFAULT_ALPHA, discretize_profile
from .games import (MixedProfile, as_fraction, partition_count, random_profile)
from .guards import LATTICE_CAP, check_guard
from .sumdist import leave_one_out, poisson_binomial_pmf, sum_distribution
from .tdp import floor_root_power

PMF_TAIL = 1e-12   # truncate Poisson-family pmfs where the tail is below this


def _poisson_pmf_truncated(lam: float) -> list[float]:
    """Poisson pmf on 0..N with P(X > N) < PMF_TAIL, as a list of floats.

    Built from the mode by the ratio pmf(j+1) / pmf(j) = lam / (j+1).
    Beyond the mode that ratio falls with j, so the tail past N is at most
    the geometric series pmf(N+1) / (1 - lam/(N+2)), which is what stops
    the upward walk.
    """
    if lam < 0:
        raise ValueError("rate must be non-negative")
    if lam == 0:
        return [1.0]
    mode = math.floor(lam)
    pmf = [math.exp(mode * math.log(lam) - lam - math.lgamma(mode + 1))]
    for j in range(mode, 0, -1):
        pmf.append(pmf[-1] * j / lam)
    pmf.reverse()
    nxt = pmf[-1] * lam / (mode + 1)
    while nxt / (1 - lam / (len(pmf) + 1)) >= PMF_TAIL:
        pmf.append(nxt)
        nxt *= lam / len(pmf)
    return pmf


def _tv_aligned(p: Sequence[float], off_p: int, q: Sequence[float],
                off_q: int) -> float:
    """TV of two truncated integer pmfs given their support offsets.

    Both are padded with zeros onto one support and every sum is a
    correctly rounded `math.fsum`.  The truncated tails (< PMF_TAIL each)
    are added in full, making the result a slight over-estimate; every
    bound check here compares with a <=, so the conservative direction is
    the safe one.
    """
    lo = min(off_p, off_q)
    hi = max(off_p + len(p), off_q + len(q))

    def pad(pmf, off):
        return [0.0] * (off - lo) + list(pmf) + [0.0] * (hi - off - len(pmf))

    tails = (1.0 - math.fsum(p)) + (1.0 - math.fsum(q))
    diff = math.fsum(abs(a - b) for a, b in zip(pad(p, off_p), pad(q, off_q)))
    return 0.5 * (diff + max(tails, 0.0))


@dataclass(frozen=True)
class BoundCheck:
    tv: float
    bound: float
    passed: bool


def poisson_tv_check(probs: Sequence, z: int, alpha) -> BoundCheck:
    """Bernoulli sum vs Poisson at the same mean.

    Requires every parameter at most floor(z^alpha)/z; the distance is then
    at most 1/z^(1-alpha).
    """
    alpha = as_fraction(alpha)
    threshold = Fraction(floor_root_power(z, alpha), z)
    ps = [as_fraction(p) for p in probs]
    if any(p > threshold for p in ps):
        raise ValueError(f"all Bernoulli parameters must be <= {threshold}")
    pb = [float(m) for m in poisson_binomial_pmf(ps)]
    lam = float(sum(ps))
    po = _poisson_pmf_truncated(lam)
    tv = _tv_aligned(pb, 0, po, 0)
    bound = float(z) ** (float(alpha) - 1.0)
    return BoundCheck(tv=tv, bound=bound, passed=tv <= bound)


def translated_poisson_pmf(mu: float, var: float) -> tuple[int, list[float]]:
    """Poisson(var + frac(mu - var)) shifted by floor(mu - var); returns
    (offset, pmf over offset..offset+N as a list of floats)."""
    if var <= 0:
        raise ValueError("variance must be positive")
    shift = math.floor(mu - var)
    lam = var + ((mu - var) - shift)
    return shift, _poisson_pmf_truncated(lam)


def translated_poisson_tv_check(mu1: float, var1: float,
                                mu2: float, var2: float) -> BoundCheck:
    """Two translated Poissons: distance at most
    |mu1-mu2|/sigma1 + (|var1-var2| + 1)/var1, with the parameter pair of
    smaller floor(mu - var) playing the role of the first (swapped in if
    needed)."""
    if var1 <= 0 or var2 <= 0:
        raise ValueError("variances must be positive")
    if math.floor(mu1 - var1) > math.floor(mu2 - var2):
        mu1, var1, mu2, var2 = mu2, var2, mu1, var1
    off1, p1 = translated_poisson_pmf(mu1, var1)
    off2, p2 = translated_poisson_pmf(mu2, var2)
    tv = _tv_aligned(p1, off1, p2, off2)
    bound = abs(mu1 - mu2) / math.sqrt(var1) + (abs(var1 - var2) + 1.0) / var1
    return BoundCheck(tv=tv, bound=bound, passed=tv <= bound)


def poisson_poisson_tv_check(lam0: float, d: float) -> BoundCheck:
    """Poisson(lam0 + d) vs Poisson(lam0): distance at most d*sqrt(2/lam0)."""
    if lam0 <= 0:
        raise ValueError("lam0 must be positive")
    if d <= 0:
        raise ValueError("d must be positive")
    p = _poisson_pmf_truncated(lam0 + d)
    q = _poisson_pmf_truncated(lam0)
    tv = _tv_aligned(p, 0, q, 0)
    bound = d * math.sqrt(2.0 / lam0)
    return BoundCheck(tv=tv, bound=bound, passed=tv <= bound)


def discretization_tv(profile: MixedProfile, z: int,
                      alpha=DEFAULT_ALPHA) -> tuple[float, float]:
    """(full-sum TV, max over dropped players of the leave-one-out TV)
    between a profile and its discretization.  The laws are exact; only
    the final distances are floats.  The work is two folds, of the
    profile and of its discretization, and 2n exact divisions
    (`leave_one_out`), one per dropped player on each side."""
    disc = discretize_profile(profile, z, alpha)
    k = profile.k

    def tv_of(law_a, law_b):
        return sum(abs(a - b) for a, b in zip(law_a.floats(), law_b.floats())) / 2

    full_a = sum_distribution(profile.probs, k=k)
    full_b = sum_distribution(disc.probs, k=k)
    loo = 0.0
    for row_a, row_b in zip(profile.probs, disc.probs):
        loo = max(loo, tv_of(leave_one_out(full_a, row_a),
                             leave_one_out(full_b, row_b)))
    return tv_of(full_a, full_b), loo


@dataclass(frozen=True)
class TvExperimentRow:
    k: int
    z: int
    alpha: Fraction
    n: int
    trial: int
    seed: int
    tv: float
    tv_loo_max: float


CSV_HEADER = "k,z,alpha,n,trial,seed,tv,tv_loo_max"


def rows_to_csv(rows: Sequence[TvExperimentRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.k},{r.z},{r.alpha},{r.n},{r.trial},{r.seed},"
                     f"{r.tv!r},{r.tv_loo_max!r}")
    return "\n".join(lines) + "\n"


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix_trial_seed(base_seed: int, z: int, n: int, trial: int) -> int:
    """Per-trial profile seed.  z is accepted for interface symmetry but
    deliberately ignored: a sweep over z must reuse the identical random
    profiles so per-z medians are comparable."""
    del z
    x = _splitmix64(base_seed & _MASK64)
    x = _splitmix64(x ^ (n & _MASK64))
    x = _splitmix64(x ^ (trial & _MASK64))
    return x >> 1   # keep it a non-negative int63 for any seed consumer


def _run_trial(args) -> TvExperimentRow:
    k, z, alpha_s, n, trial, seed, denominator = args
    alpha = Fraction(alpha_s)
    profile = random_profile(n, k, seed, denominator=denominator)
    tv, loo = discretization_tv(profile, z, alpha)
    return TvExperimentRow(k=k, z=z, alpha=alpha, n=n, trial=trial,
                           seed=seed, tv=tv, tv_loo_max=loo)


def n_independence_experiment(k: int, z_list: Sequence[int], n_list: Sequence[int],
                              trials: int, base_seed: int,
                              alpha=DEFAULT_ALPHA, denominator: int = 1000,
                              jobs: int = 1) -> list[TvExperimentRow]:
    """Discretization TV for every (z, n, trial), rows ordered by (z, n,
    trial) regardless of how the work is scheduled.  Profiles depend on
    (base_seed, n, trial) only, so z-sweeps see the same draws."""
    if (k < 2 or trials < 1 or jobs < 1 or not z_list or not n_list
            or any(n < 1 for n in n_list)):
        raise ValueError("need k >= 2, trials >= 1, jobs >= 1, at least one z "
                         "and at least one n, every n >= 1")
    alpha = as_fraction(alpha)
    check_guard(max(partition_count(n, k) for n in n_list),
                f"partition lattice for k={k}, n={max(n_list)}", LATTICE_CAP)
    tasks = [(k, z, str(alpha), n, trial,
              mix_trial_seed(base_seed, z, n, trial), denominator)
             for z in z_list for n in n_list for trial in range(trials)]
    workers = min(jobs, len(tasks))   # a forked pool starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_trial, tasks, chunksize=-(-len(tasks) // (4 * workers))))
    else:
        rows = [_run_trial(t) for t in tasks]
    return rows
