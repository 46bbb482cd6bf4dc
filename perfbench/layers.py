"""The traced layers of anongames and the per-layer metrics read off them.

Layers are named after the modules.  A layer's `self_share` is its self
time (span time minus child spans) as a share of the traced ops' total
time, so a layer that a workload never calls reads 0 rather than a
constant time.
"""

from __future__ import annotations

from benchtrace import self_times
from workloads import multisets


def _sum_distribution(counts, args, dist):
    counts["sumdist.sum_distribution.vectors"] += dist.m
    counts["sumdist.sum_distribution.cells"] += len(dist.mass)


def _edges(counts, args, edges):
    counts["solver.best_response_edges.passed"] += all(edges)


def _ptas(counts, args, result):
    counts["solver.thetas_visited"] += result.thetas_checked


def _flow(counts, args, assignment):
    counts["solver.max_flow_assign.feasible"] += assignment is not None


def _discretize(counts, args, disc):
    counts["discretize.discretize_profile.players"] += disc.n


def _minimax(counts, args, result):
    counts["minimax.multisets"] += multisets(args[0].n, result.epsilon)


# (module, function, layer, counter); the three Poisson bound checks share
# one layer.
TARGETS = (
    ("anongames.sumdist", "sum_distribution", "sumdist.sum_distribution", _sum_distribution),
    ("anongames.sumdist", "regret_profile", "sumdist.regret_profile", None),
    ("anongames.sumdist", "tv_distance", "sumdist.tv_distance", None),
    ("anongames.solver", "best_response_edges", "solver.best_response_edges", _edges),
    ("anongames.solver", "ptas_solve", "solver.ptas_solve", _ptas),
    ("anongames.solver", "max_flow_assign", "solver.max_flow_assign", _flow),
    ("anongames.tdp", "build_tdp_tree", "tdp.build_tdp_tree", None),
    ("anongames.discretize", "discretize_profile", "discretize.discretize_profile", _discretize),
    ("anongames.tvlab", "discretization_tv", "tvlab.discretization_tv", None),
    ("anongames.tvlab", "poisson_tv_check", "tvlab.bound_checks", None),
    ("anongames.tvlab", "translated_poisson_tv_check", "tvlab.bound_checks", None),
    ("anongames.tvlab", "poisson_poisson_tv_check", "tvlab.bound_checks", None),
    ("anongames.tvlab", "poisson_binomial_pmf", "tvlab.poisson_binomial_pmf", None),
    ("anongames.minimax", "minimax_ptas", "minimax.minimax_ptas", _minimax),
    ("anongames.normal_form", "quasi_solve", "normal_form.quasi_solve", None),
    ("anongames.normal_form", "nf_regret", "normal_form.nf_regret", None),
)

# counters that must repeat exactly for the same inputs
COUNTERS = ("sumdist.sum_distribution.calls", "sumdist.sum_distribution.vectors",
            "sumdist.sum_distribution.cells", "sumdist.regret_profile.calls",
            "solver.best_response_edges.calls", "solver.thetas_visited",
            "solver.max_flow_assign.calls", "tdp.build_tdp_tree.calls",
            "discretize.discretize_profile.calls",
            "discretize.discretize_profile.players", "tvlab.bound_checks.calls",
            "minimax.minimax_ptas.calls", "minimax.multisets",
            "normal_form.nf_regret.calls")

SHARES = ("sumdist.sum_distribution", "sumdist.regret_profile", "sumdist.tv_distance",
          "solver.best_response_edges", "solver.ptas_solve", "solver.max_flow_assign",
          "tdp.build_tdp_tree", "discretize.discretize_profile",
          "tvlab.discretization_tv", "tvlab.bound_checks", "tvlab.poisson_binomial_pmf",
          "minimax.minimax_ptas", "normal_form.quasi_solve", "normal_form.nf_regret")

# (layer ratio, numerator counter, denominator counter)
RATIOS = (
    ("solver.edge_pass_ratio", "solver.best_response_edges.passed",
     "solver.best_response_edges.calls"),
    ("solver.flow_feasible_ratio", "solver.max_flow_assign.feasible",
     "solver.max_flow_assign.calls"),
)

# per-layer metric name -> (unit, better)
SPEC = {}
for _name in COUNTERS:
    SPEC[_name] = ("count", "lower")
for _name in SHARES:
    SPEC[f"{_name}.self_share"] = ("ratio", "lower")
for _name, _, _ in RATIOS:
    SPEC[_name] = ("ratio", "higher")
SPEC["setup.import_s"] = ("s", "lower")
SPEC["setup.inputs_s"] = ("s", "lower")
SPEC["trace.ops"] = ("count", "higher")
SPEC["trace.overhead"] = ("ratio", "higher")


def counter_values(counts) -> dict:
    return {name: counts.get(name, 0) for name in COUNTERS}


def layer_metrics(tracer) -> dict:
    """Counters, self-time shares and ratios of one traced pass; shares are
    of the total time of the root `op` spans."""
    selfs = self_times(tracer.spans)
    op_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "op")
    out = counter_values(tracer.counts)
    for name in SHARES:
        out[f"{name}.self_share"] = selfs.get(name, 0.0) / op_total
    for name, num, den in RATIOS:
        calls = tracer.counts.get(den, 0)
        out[name] = tracer.counts.get(num, 0) / calls if calls else 0.0
    return out
