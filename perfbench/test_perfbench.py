"""Tests of the benchmark's own arithmetic, tracing and contract."""

import json
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import anongames
from benchstats import percentile, quartile_spread, samples_beyond
from benchtrace import Tracer, self_times
from layers import SPEC, TARGETS, layer_metrics
from run import MIN_OPS

HERE = Path(__file__).resolve().parent


def test_percentile_interpolates_between_order_statistics():
    assert percentile(list(range(1, 101)), 0.5) == 50.5
    assert percentile(list(range(1, 101)), 0.9) == pytest.approx(90.1)
    assert percentile([5, 1, 3], 0.5) == 3
    assert percentile([2.5], 0.9) == 2.5
    data = [0.3, 0.1, 0.7, 0.2, 0.9, 0.5, 0.4]
    deciles = statistics.quantiles(data, n=10, method="inclusive")
    assert percentile(data, 0.9) == pytest.approx(deciles[8])
    assert percentile(data, 0.5) == statistics.median(data)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_samples_beyond_p90_and_the_minimum_run_length():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(92, 0.9) == 10
    assert samples_beyond(91, 0.9) == 9
    assert samples_beyond(1, 0.9) == 0
    assert samples_beyond(MIN_OPS, 0.9) >= 10


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)


def test_self_time_is_span_minus_direct_children():
    spans = [["op", 0.0, 10.0, -1, 0],
             ["a", 1.0, 6.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0],
             ["b", 4.0, 5.5, 1, 0],
             ["a", 7.0, 8.0, 0, 0]]
    got = self_times(spans)
    assert got["op"] == pytest.approx(10 - 5 - 1)
    assert got["a"] == pytest.approx((5 - 1 - 1.5) + 1)
    assert got["b"] == pytest.approx(2.5)
    assert sum(got.values()) == pytest.approx(10)


def _snapshot():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "anongames" or name.startswith("anongames.")
            for attr, value in vars(mod).items() if callable(value)}


def test_traced_run_rebinds_every_importer_and_restores_every_name():
    before = _snapshot()
    with Tracer("anongames") as tracer:
        tracer.install(TARGETS)
        rebound = {(mod.__name__, name) for mod, name, _ in tracer.rebound()}
        for where in ("anongames", "anongames.sumdist", "anongames.solver",
                      "anongames.tvlab"):
            assert (where, "sum_distribution") in rebound
        for mod, name, original in tracer.rebound():
            assert getattr(mod, name) is not original
    assert _snapshot() == before


def test_tracer_nests_spans_and_counts_layer_work():
    game = anongames.random_game(3, 2, seed=1)
    profile = anongames.MixedProfile(probs=((F(1, 2), F(1, 2)),) * 3)
    with Tracer("anongames") as tracer:
        tracer.install(TARGETS)
        with tracer.span("op", op=7):
            anongames.regret_profile(game, profile)
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "sumdist.regret_profile"] + ["sumdist.sum_distribution"] * 3
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 1]
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracer.counts["sumdist.sum_distribution.calls"] == 3
    assert tracer.counts["sumdist.sum_distribution.vectors"] == 6
    assert tracer.counts["sumdist.sum_distribution.cells"] == 9
    metrics = layer_metrics(tracer)
    assert set(metrics) <= set(SPEC)
    shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
    assert 0 < sum(shares) <= 1


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == SPEC


def test_benchmark_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
