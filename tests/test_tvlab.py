import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import (DEFAULT_ALPHA, MixedProfile, discretize_profile,
                       random_profile, sum_distribution)
from anongames import cli
from anongames.tvlab import (CSV_HEADER, PMF_TAIL, _poisson_pmf_truncated,
                             discretization_tv, mix_trial_seed,
                             n_independence_experiment, poisson_binomial_pmf,
                             poisson_poisson_tv_check, poisson_tv_check,
                             rows_to_csv, translated_poisson_pmf,
                             translated_poisson_tv_check)


def test_poisson_binomial_small_cases():
    assert poisson_binomial_pmf([F(1, 2), F(1, 2)]) == (F(1, 4), F(1, 2), F(1, 4))
    assert poisson_binomial_pmf([]) == (F(1),)
    assert poisson_binomial_pmf([F(3, 10), F(7, 10)]) == (
        F(21, 100), F(58, 100), F(21, 100))


def test_poisson_binomial_matches_k2_marginal_exactly():
    for n in (1, 4, 8, 12):
        prof = random_profile(n, 2, seed=n)
        d = sum_distribution(prof.probs)
        assert d.mass == poisson_binomial_pmf([r[0] for r in prof.probs])


def test_poisson_check_spec_case():
    chk = poisson_tv_check([F(1, 100)] * 50, z=100, alpha=F(1, 2))
    assert chk.bound == pytest.approx(0.1)
    assert chk.tv <= 0.1
    assert chk.passed


def test_poisson_check_empty_is_exact_zero():
    chk = poisson_tv_check([], z=100, alpha=F(1, 2))
    assert chk.tv <= 2e-12
    assert chk.passed


def test_poisson_check_rejects_large_parameters():
    with pytest.raises(ValueError):
        poisson_tv_check([F(1, 2)], z=100, alpha=F(1, 2))


def test_poisson_check_random_admissible_sweep():
    rng = np.random.default_rng(20)
    for _ in range(20):
        z = int(rng.integers(16, 200))
        alpha = F(int(rng.integers(2, 8)), 10)
        from anongames.tdp import floor_root_power
        thr = F(floor_root_power(z, alpha), z)
        n = int(rng.integers(1, 60))
        probs = [F(int(rng.integers(0, thr.numerator + 1)), thr.denominator)
                 for _ in range(n)]
        chk = poisson_tv_check(probs, z, alpha)
        assert chk.passed, (z, alpha, chk)


@pytest.mark.parametrize("lam", [1e-6, 0.3, 7, 60, 700])
def test_poisson_pmf_truncated_tail_and_mean(lam):
    pmf = _poisson_pmf_truncated(lam)
    assert pmf[0] == pytest.approx(math.exp(-lam), rel=1e-9)
    n = len(pmf) - 1
    tail = math.fsum(math.exp(j * math.log(lam) - lam - math.lgamma(j + 1))
                     for j in range(n + 1, n + 1000))
    assert tail < PMF_TAIL
    mean = math.fsum(j * m for j, m in enumerate(pmf))
    assert mean == pytest.approx(lam, rel=1e-9, abs=1e-9)


def test_translated_poisson_pmf_shift():
    off, pmf = translated_poisson_pmf(10.0, 4.0)   # floor(mu - var) = 6
    assert off == 6
    mean = sum((off + j) * m for j, m in enumerate(pmf))
    assert mean == pytest.approx(10.0, abs=1e-6)


def test_translated_poisson_identical_parameters():
    chk = translated_poisson_tv_check(10, 5, 10, 5)
    assert chk.tv <= 2e-12
    assert chk.passed


def test_translated_poisson_spec_case():
    chk = translated_poisson_tv_check(10, 5, 10.5, 5)
    assert chk.bound == pytest.approx(0.5 / np.sqrt(5) + 1 / 5)
    assert chk.tv <= chk.bound
    assert chk.passed


def test_translated_poisson_swaps_and_sweeps():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu1 = float(rng.uniform(2, 40))
        mu2 = float(rng.uniform(2, 40))
        v1 = float(rng.uniform(1, 20))
        v2 = float(rng.uniform(1, 20))
        chk = translated_poisson_tv_check(mu1, v1, mu2, v2)
        assert chk.passed, (mu1, v1, mu2, v2, chk)


def test_translated_poisson_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        translated_poisson_tv_check(1, 0, 2, 1)


def test_poisson_poisson_cases():
    near = poisson_poisson_tv_check(1.0, 1e-9)
    assert near.tv < 1e-6
    spec = poisson_poisson_tv_check(4, 1)
    assert spec.bound == pytest.approx(np.sqrt(2) / 2)
    assert spec.tv <= spec.bound
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam0 = float(rng.uniform(0.5, 50))
        d = float(rng.uniform(0.01, 10))
        chk = poisson_poisson_tv_check(lam0, d)
        assert chk.passed, (lam0, d, chk)
    with pytest.raises(ValueError):
        poisson_poisson_tv_check(0, 1)


def test_discretization_tv_zero_at_fixed_points():
    prof = MixedProfile(probs=((F(3, 10), F(7, 10), F(0)),
                               (F(0), F(0), F(1))))
    tv, loo = discretization_tv(prof, 10)
    assert tv == 0 and loo == 0
    assert (tv, loo) == reference_discretization_tv(prof, 10)


def test_discretization_tv_single_vector_bound():
    # n = 1: tv is half the l1 error, at most k/(2z)
    for seed in range(5):
        prof = random_profile(1, 3, seed=seed)
        tv, loo = discretization_tv(prof, 20)
        assert tv <= 3 / (2 * 20) + 1e-12
        assert loo == 0    # removing the only player leaves the empty sum


def test_discretization_tv_matches_bruteforce_convolution():
    # independent float-space convolution over pure-strategy tuples
    from itertools import product
    prof = random_profile(8, 3, seed=7)
    z = 20
    disc = discretize_profile(prof, z)

    def brute_law(rows):
        acc = {}
        for combo in product(range(3), repeat=len(rows)):
            pr = 1.0
            for r, s in zip(rows, combo):
                pr *= float(r[s])
            if pr == 0:
                continue
            key = tuple(sum(1 for s in combo if s == j) for j in range(3))
            acc[key] = acc.get(key, 0.0) + pr
        return acc

    a, b = brute_law(prof.probs), brute_law(disc.probs)
    keys = set(a) | set(b)
    expected = 0.5 * sum(abs(a.get(t, 0.0) - b.get(t, 0.0)) for t in keys)
    tv, _ = discretization_tv(prof, z)
    assert tv == pytest.approx(expected, abs=1e-12)


def reference_discretization_tv(profile, z, alpha=DEFAULT_ALPHA):
    """The refold loop discretization_tv ran before it divided: every
    leave-one-out law folded from scratch, on both sides."""
    disc = discretize_profile(profile, z, alpha)
    n, k = profile.n, profile.k

    def tv_of(rows_a, rows_b):
        pa = sum_distribution(rows_a, k=k).floats()
        pb = sum_distribution(rows_b, k=k).floats()
        return sum(abs(a - b) for a, b in zip(pa, pb)) / 2

    tv = tv_of(profile.probs, disc.probs)
    loo = 0.0
    for j in range(n):
        rows_a = [profile.probs[i] for i in range(n) if i != j]
        rows_b = [disc.probs[i] for i in range(n) if i != j]
        loo = max(loo, tv_of(rows_a, rows_b))
    return tv, loo


@st.composite
def _tv_case(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 16))
    denominator = draw(st.sampled_from((7, 1000)))
    probs = list(random_profile(n, k, draw(st.integers(0, 2 ** 32)),
                                denominator=denominator).probs)
    for i in draw(st.sets(st.integers(0, n - 1))):   # single-strategy rows
        s = draw(st.integers(0, k - 1))
        probs[i] = tuple(F(int(s == ell)) for ell in range(k))
    return MixedProfile(probs=tuple(probs)), draw(st.sampled_from((2, 5, 20)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_tv_case())
def test_discretization_tv_is_bit_identical_to_the_refold(case):
    profile, z = case
    assert discretization_tv(profile, z) == reference_discretization_tv(profile, z)


def test_tv_experiment_csv_is_pinned(tmp_path):
    # the digest of the CSV the refold implementation wrote for these flags
    out = tmp_path / "tv.csv"
    assert cli.main(["tv-experiment", "--k", "3", "--z", "5,20", "--n", "2,4,8,16",
                     "--trials", "2", "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "09fb44dc8c87630e520acb1a0500ebd9d59388c95ec3c00d85ddd7c1334a4655")


def test_mix_trial_seed_ignores_z_only():
    assert mix_trial_seed(1, 10, 4, 0) == mix_trial_seed(1, 40, 4, 0)
    assert mix_trial_seed(1, 10, 4, 0) != mix_trial_seed(1, 10, 5, 0)
    assert mix_trial_seed(1, 10, 4, 0) != mix_trial_seed(1, 10, 4, 1)
    assert mix_trial_seed(1, 10, 4, 0) != mix_trial_seed(2, 10, 4, 0)


def test_experiment_rows_deterministic_and_ordered():
    rows1 = n_independence_experiment(2, [5, 10], [2, 3], trials=2, base_seed=3)
    rows2 = n_independence_experiment(2, [5, 10], [2, 3], trials=2, base_seed=3)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    assert [(r.z, r.n, r.trial) for r in rows1] == [
        (z, n, t) for z in (5, 10) for n in (2, 3) for t in range(2)]
    assert rows_to_csv(rows1).splitlines()[0] == CSV_HEADER


def test_experiment_jobs_do_not_change_rows():
    rows1 = n_independence_experiment(2, [5], [2, 3], trials=2, base_seed=3)
    rows4 = n_independence_experiment(2, [5], [2, 3], trials=2, base_seed=3, jobs=4)
    assert rows_to_csv(rows1) == rows_to_csv(rows4)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool it was asked for
    and maps in this process, so no worker is ever started."""

    calls = []

    def __init__(self, max_workers):
        self.call = {"max_workers": max_workers}
        _RecordingPool.calls.append(self.call)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.call["chunksize"] = chunksize
        return map(fn, items)


@pytest.mark.parametrize("jobs, trials, pools", [
    (64, 1, []),                                        # one task: no pool
    (64, 3, [{"max_workers": 3, "chunksize": 1}]),      # never more workers than tasks
    (2, 8, [{"max_workers": 2, "chunksize": 1}]),       # 8 tasks spread over both workers
    (2, 24, [{"max_workers": 2, "chunksize": 3}]),
])
def test_experiment_pool_is_sized_by_its_tasks(monkeypatch, jobs, trials, pools):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    rows = n_independence_experiment(2, [5], [2], trials=trials, base_seed=3, jobs=jobs)
    assert _RecordingPool.calls == pools
    assert rows_to_csv(rows) == rows_to_csv(
        n_independence_experiment(2, [5], [2], trials=trials, base_seed=3))


def test_experiment_shares_profiles_across_z():
    rows = n_independence_experiment(2, [5, 10], [3], trials=3, base_seed=9)
    seeds_z5 = [r.seed for r in rows if r.z == 5]
    seeds_z10 = [r.seed for r in rows if r.z == 10]
    assert seeds_z5 == seeds_z10
