"""Command-line frontend.

Exit codes are part of the contract so escalation loops can be scripted:
0 on success, 1 when a requested certification honestly failed (nothing
certified, nothing written), 2 on usage or validation errors.  All
randomness flows through explicit --seed flags and every output is
byte-deterministic given the flags, tv-experiment's --jobs included.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import (DEFAULT_ALPHA, GameFormatError, GuardExceeded, discretize_profile,
               minimax_ptas, n_independence_experiment, parse_functions,
               parse_game, parse_nf_game, parse_profile, ptas_solve, quasi_solve,
               random_game, regret_profile, rows_to_csv, serialize_game,
               serialize_profile, solve_escalating)
from .games import MixedProfile, as_fraction, partition_count, profile_support
from .guards import LATTICE_CAP, check_guard
from .sumdist import sum_distribution
from .tdp import build_tdp_tree, check_alpha, format_tree, leaf_threshold


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _check_epsilon(eps: Fraction) -> Fraction:
    if not 0 < eps <= 1:
        raise SystemExit2(f"epsilon out of range (0, 1]: {eps}")
    return eps


class SystemExit2(Exception):
    """Validation failure; rendered as exit code 2."""


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from exc


def _write(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise SystemExit2(f"cannot write {path}: {exc}") from exc


def _gap_str(x) -> str:
    return f"{x} (~{float(x):.6g})"


def cmd_gen(args) -> int:
    game = random_game(args.n, args.k, args.seed)
    payload = serialize_game(game)
    _write(args.out, payload)
    print(f"gen: wrote n={args.n} k={args.k} seed={args.seed} "
          f"({len(payload)} bytes) to {args.out}")
    return 0


def cmd_solve(args) -> int:
    eps = _check_epsilon(args.epsilon)
    if args.z < 1:
        raise SystemExit2(f"z must be >= 1, got {args.z}")
    if args.budget is not None:
        if not args.escalate:
            raise SystemExit2("--budget limits escalation rounds; it needs --escalate")
        if not args.budget >= 0:
            raise SystemExit2(f"budget must be >= 0 seconds, got {args.budget}")
    game = parse_game(_read(args.game))
    if args.escalate:
        result = solve_escalating(game, eps, args.z, budget=args.budget)
    else:
        result = ptas_solve(game, eps, args.z)
    if not result.certified:
        print(f"solve: no feasible strategy split at z={args.z}; nothing certified")
        return 1
    _write(args.out, serialize_profile(result.profile))
    print(f"solve: certified at z={result.z} after {result.thetas_checked} splits")
    print(f"  support gap   = {_gap_str(result.support_gap)}")
    print(f"  approx regret = {_gap_str(result.approx_regret)}")
    print(f"  profile written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    eps = _check_epsilon(args.epsilon)
    game = parse_game(_read(args.game))
    profile = parse_profile(_read(args.profile))
    report = regret_profile(game, profile)
    for p in range(game.n):
        print(f"player {p}: support gap {_gap_str(report.support_gap[p])}, "
              f"approx regret {_gap_str(report.approx_regret[p])}")
    ok = report.is_epsilon_nash(eps)
    print(f"verify: max support gap {_gap_str(report.max_support_gap)} "
          f"{'<=' if ok else '>'} epsilon {eps}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_discretize(args) -> int:
    if args.z < 2:
        raise SystemExit2(f"z must be >= 2, got {args.z}")
    profile = parse_profile(_read(args.profile))
    if args.sumdist_out:
        check_guard(partition_count(profile.n, profile.k),
                    f"partition lattice for k={profile.k}, n={profile.n}", LATTICE_CAP)
    disc = discretize_profile(profile, args.z, args.alpha)
    _write(args.out, serialize_profile(disc.to_profile()))
    print(f"discretize: z={args.z} alpha={args.alpha} -> {args.out}")
    if args.sumdist_out:
        dist = sum_distribution(disc.probs, k=disc.k)
        _write(args.sumdist_out, dist.to_csv().encode())
        print(f"discretize: sum distribution -> {args.sumdist_out}")
    return 0


def cmd_tdp_dump(args) -> int:
    if args.z is None:
        check_alpha(args.alpha)
    else:
        leaf_threshold(args.z, args.alpha)
    profile = parse_profile(_read(args.profile))
    players = [args.player] if args.player is not None else range(profile.n)
    for p in players:
        if not 0 <= p < profile.n:
            raise SystemExit2(f"player index out of range: {p}")
        row = profile.probs[p]
        support = profile_support(row)
        print(f"player {p}: support {{{','.join(map(str, support))}}}")
        if len(support) <= 1:
            print("  (singleton support: passes through undecomposed)")
            continue
        tree = build_tdp_tree(support, [row[s] for s in support])
        out = format_tree(tree, z=args.z, alpha=args.alpha)
        print("  " + out.rstrip("\n").replace("\n", "\n  "))
    return 0


def cmd_tv_experiment(args) -> int:
    if args.trials < 1:
        raise SystemExit2(f"trials must be >= 1, got {args.trials}")
    if any(z < 2 for z in args.z) or any(n < 1 for n in args.n):
        raise SystemExit2("every z must be >= 2 and every n >= 1")
    rows = n_independence_experiment(args.k, args.z, args.n, args.trials,
                                     args.seed, alpha=args.alpha, jobs=args.jobs)
    _write(args.out, rows_to_csv(rows).encode())
    print(f"tv-experiment: wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_minimax(args) -> int:
    eps = _check_epsilon(args.epsilon)
    funcs = parse_functions(_read(args.funcs))
    result = minimax_ptas(funcs, eps, maximin=args.maximin)
    kind = "maximin" if args.maximin else "minimax"
    print(f"{kind}: value {result.value!r} at grid eps={result.epsilon}")
    print("  probabilities: " + ", ".join(str(p) for p in result.probs))
    return 0


def cmd_quasi(args) -> int:
    eps = _check_epsilon(args.epsilon)
    game = parse_nf_game(_read(args.game))
    result = quasi_solve(game, eps)
    print(f"quasi: delta={result.delta} grid_units={result.grid_units}")
    for i, row in enumerate(result.profile):
        print(f"  player {i}: ({', '.join(str(v) for v in row)}) "
              f"regret {_gap_str(result.regret[i])}")
    if args.out:
        profile = MixedProfile(probs=result.profile)
        _write(args.out, serialize_profile(profile))
        print(f"  profile written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anongames",
        description="discretized multinomial sums and certified equilibria "
                    "for anonymous games")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random game file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="search for a certified epsilon-Nash profile")
    p.add_argument("--game", required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--escalate", action="store_true",
                   help="double z and retry until certified or out of budget")
    p.add_argument("--budget", type=float, default=None,
                   help="escalation time budget in seconds (needs --escalate)")
    p.add_argument("--out", default="profile.json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="exact per-player gaps for a profile")
    p.add_argument("--game", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discretize", help="round a profile per-cell onto the z grid")
    p.add_argument("--profile", required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--alpha", type=_fraction, default=DEFAULT_ALPHA)
    p.add_argument("--out", required=True)
    p.add_argument("--sumdist-out", default=None,
                   help="also write the discretized sum distribution as CSV")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("tdp-dump", help="print trickle-down trees with exact rationals")
    p.add_argument("--profile", required=True)
    p.add_argument("--player", type=int, default=None)
    p.add_argument("--z", type=int, default=None,
                   help="include leaf types for this z")
    p.add_argument("--alpha", type=_fraction, default=DEFAULT_ALPHA)
    p.set_defaults(func=cmd_tdp_dump)

    p = sub.add_parser("tv-experiment", help="discretization TV sweep to CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=_int_list, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=_fraction, default=DEFAULT_ALPHA)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tv_experiment)

    p = sub.add_parser("minimax", help="grid minimax over Bernoulli-sum expectations")
    p.add_argument("--funcs", required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--maximin", action="store_true")
    p.set_defaults(func=cmd_minimax)

    p = sub.add_parser("quasi", help="grid search for normal-form approximate Nash")
    p.add_argument("--game", required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quasi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemExit2, GameFormatError, GuardExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
