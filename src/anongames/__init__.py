"""Discretized multinomial-sum distributions and certified approximate
equilibria for anonymous games."""

from .discretize import (DEFAULT_ALPHA, DiscretizedProfile,
                         discretize_profile, largest_remainder_round, round_cell)
from .errors import GameFormatError, GuardExceeded, TdpStructureError
from .games import (AnonymousGame, MixedProfile, enumerate_partitions,
                    parse_game, parse_profile, partition_count, partition_rank,
                    random_game, random_profile, serialize_game,
                    serialize_profile)
from .minimax import (MinimaxResult, ObjectiveFunctions, minimax_oracle,
                      minimax_ptas, objective_value, parse_functions,
                      serialize_functions)
from .normal_form import (NormalFormGame, nf_regret, parse_nf_game,
                          perturbation_check, quasi_solve, serialize_nf_game)
from .solver import (OracleResult, QuantizedStrategySet, SolveResult,
                     best_response_edges, brute_force_oracle,
                     enumerate_quantized_strategies, enumerate_theta,
                     max_flow_assign, ptas_solve, solve_escalating)
from .sumdist import (RegretReport, SumDistribution, leave_one_out,
                      poisson_binomial_pmf, regret_profile, sum_distribution,
                      tv_distance)
from .tdp import (TdpNode, TdpTree, build_tdp_tree, cell_signature,
                  classify_leaf, floor_root_power, format_tree,
                  reconstruct_distribution, sample_strategy)
from .tvlab import (BoundCheck, TvExperimentRow, discretization_tv,
                    mix_trial_seed, n_independence_experiment,
                    poisson_poisson_tv_check, poisson_tv_check, rows_to_csv,
                    translated_poisson_tv_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
