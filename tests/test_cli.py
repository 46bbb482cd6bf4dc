import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anongames
from anongames import cli
from anongames import (parse_game, parse_profile, serialize_game,
                       serialize_nf_game, serialize_functions,
                       NormalFormGame, ObjectiveFunctions)
from tests.test_sumdist import anti_coordination


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "anongames", *map(str, args)],
                          capture_output=True, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def write_anti_coordination(path: Path) -> Path:
    out = path / "anti.json"
    out.write_bytes(serialize_game(anti_coordination()))
    return out


def test_gen_deterministic_and_reparses(workdir):
    code1, out1, _ = run_cli("gen", "--n", 2, "--k", 2, "--seed", 7,
                             "--out", workdir / "g1.json")
    code2, out2, _ = run_cli("gen", "--n", 2, "--k", 2, "--seed", 7,
                             "--out", workdir / "g2.json")
    assert code1 == code2 == 0
    assert out1.replace(b"g1.json", b"g.json") == out2.replace(b"g2.json", b"g.json")
    b1 = (workdir / "g1.json").read_bytes()
    assert b1 == (workdir / "g2.json").read_bytes()
    game = parse_game(b1)
    assert all(0 <= v <= 1 for per in game.utilities for row in per for v in row)


def test_gen_different_seeds_differ(workdir):
    run_cli("gen", "--n", 2, "--k", 2, "--seed", 7, "--out", workdir / "a.json")
    run_cli("gen", "--n", 2, "--k", 2, "--seed", 8, "--out", workdir / "b.json")
    assert (workdir / "a.json").read_bytes() != (workdir / "b.json").read_bytes()


def test_solve_then_verify_roundtrip(workdir):
    game_path = write_anti_coordination(workdir)
    prof_path = workdir / "prof.json"
    code, out, _ = run_cli("solve", "--game", game_path, "--epsilon", "1/10",
                           "--z", 1, "--out", prof_path)
    assert code == 0
    assert b"certified" in out
    profile = parse_profile(prof_path.read_bytes())
    assert profile.probs == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    code, out, _ = run_cli("verify", "--game", game_path, "--profile", prof_path,
                           "--epsilon", "1/10")
    assert code == 0
    assert b"PASS" in out


def test_verify_fails_on_bad_profile(workdir):
    game_path = write_anti_coordination(workdir)
    bad = workdir / "bad.json"
    bad.write_bytes(json.dumps(
        {"k": 2, "n": 2, "probs": [["1/1", "0/1"], ["1/1", "0/1"]]}).encode())
    code, out, _ = run_cli("verify", "--game", game_path, "--profile", bad,
                           "--epsilon", "1/10")
    assert code == 1
    assert b"FAIL" in out


def test_solve_epsilon_validation(workdir):
    game_path = write_anti_coordination(workdir)
    code, _, err = run_cli("solve", "--game", game_path, "--epsilon", "2",
                           "--z", 1)
    assert code == 2
    assert b"epsilon out of range" in err


def test_unknown_flag_is_usage_error(workdir):
    code, _, err = run_cli("solve", "--frobnicate", 1)
    assert code == 2


def test_discretize_writes_profile_and_sumdist(workdir):
    prof_path = workdir / "p.json"
    prof_path.write_bytes(json.dumps(
        {"k": 3, "n": 2,
         "probs": [["1/3", "1/3", "1/3"], ["32/100", "0/1", "68/100"]]}).encode())
    out_path = workdir / "disc.json"
    csv_path = workdir / "dist.csv"
    code, out, _ = run_cli("discretize", "--profile", prof_path, "--z", 10,
                           "--out", out_path, "--sumdist-out", csv_path)
    assert code == 0
    disc = parse_profile(out_path.read_bytes())
    assert disc.probs[1][1] == 0                      # zero preserved
    assert all((v * 80).denominator == 1 for row in disc.probs for v in row)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "partition_rank,mass"
    assert len(lines) == 1 + 6                        # |Pi^3_2| = 6


def test_tdp_dump_shows_exact_rationals(workdir):
    prof_path = workdir / "p.json"
    prof_path.write_bytes(json.dumps(
        {"k": 3, "n": 2,
         "probs": [["1/3", "1/3", "1/3"], ["1/1", "0/1", "0/1"]]}).encode())
    code, out, _ = run_cli("tdp-dump", "--profile", prof_path, "--z", 100)
    assert code == 0
    text = out.decode()
    assert "1/3" in text and "2/3" in text
    assert "leaf[" in text
    assert "singleton support" in text


def test_tv_experiment_deterministic_with_jobs(workdir):
    args = ("tv-experiment", "--k", 2, "--z", "5,10", "--n", "2,3",
            "--trials", 2, "--seed", 3)
    run_cli(*args, "--out", workdir / "a.csv")
    run_cli(*args, "--out", workdir / "b.csv", "--jobs", 4)
    a = (workdir / "a.csv").read_bytes()
    assert a == (workdir / "b.csv").read_bytes()
    assert a.decode().splitlines()[0] == "k,z,alpha,n,trial,seed,tv,tv_loo_max"


def test_minimax_subcommand(workdir):
    funcs = ObjectiveFunctions(
        n=1, tables=((F(0), F(1)), (F(1), F(0))))
    f_path = workdir / "f.json"
    f_path.write_bytes(serialize_functions(funcs))
    code, out, _ = run_cli("minimax", "--funcs", f_path, "--epsilon", "1/2")
    assert code == 0
    assert b"value 0.5" in out
    assert b"1/2" in out


def test_quasi_subcommand(workdir):
    mp = NormalFormGame(p=2, s=2, utilities=(
        (F(1), F(0), F(0), F(1)), (F(0), F(1), F(1), F(0))))
    g_path = workdir / "mp.json"
    g_path.write_bytes(serialize_nf_game(mp))
    code, out, _ = run_cli("quasi", "--game", g_path, "--epsilon", "3/10",
                           "--out", workdir / "qp.json")
    assert code == 0
    prof = parse_profile((workdir / "qp.json").read_bytes())
    assert prof.n == 2 and prof.k == 2


def test_quasi_refuses_a_huge_grid_before_building_it(workdir, capsys):
    # 2 players, 4 strategies, eps 1/100: 685,229,601 grid vectors a player
    game = NormalFormGame(p=2, s=4, utilities=((F(1, 2),) * 16,) * 2)
    g_path = workdir / "g.json"
    g_path.write_bytes(serialize_nf_game(game))
    t0 = time.perf_counter()
    assert cli.main(["quasi", "--game", str(g_path), "--epsilon", "1/100"]) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err.startswith(
        "error: quasi grid of 685229601^2 profiles has size")


def test_solve_uncertified_exits_one(workdir):
    # skewed pennies: the unique equilibrium sits off the coarse grids, so
    # z=1 at a tight epsilon has nothing feasible and must report honestly
    from anongames import AnonymousGame
    game = AnonymousGame(n=2, k=2, utilities=(
        ((F(0), F(1)), (F(1, 4), F(0))), ((F(3, 4), F(0)), (F(0), F(1, 2)))))
    game_path = workdir / "pennies.json"
    game_path.write_bytes(serialize_game(game))
    code, out, _ = run_cli("solve", "--game", game_path, "--epsilon", "1/100",
                           "--z", 1, "--out", workdir / "none.json")
    assert code == 1
    assert b"no feasible" in out
    assert not (workdir / "none.json").exists()


def test_solve_escalate_with_budget(workdir):
    game_path = write_anti_coordination(workdir)
    code, out, _ = run_cli("solve", "--game", game_path, "--epsilon", "1/10",
                           "--z", 1, "--escalate", "--budget", 30,
                           "--out", workdir / "esc.json")
    assert code == 0
    assert b"certified at z=1" in out


def run_cli_with_cap(cap, *args):
    """The CLI with every guard capped at `cap` cells.  A hermetic env keeps
    any ambient ANON_GUARD_CELLS out; PYTHONPATH points the child at the
    same anongames this process imported (src/ or site-packages)."""
    package_root = str(Path(anongames.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "anongames", *map(str, args)],
        capture_output=True, env={"ANON_GUARD_CELLS": str(cap), "PATH": "/usr/bin:/bin",
                                  "PYTHONPATH": package_root})


def assert_guard_error(proc):
    assert proc.returncode == 2
    assert b"exceeding the cap" in proc.stderr
    # reported as a clean usage error, never a crash or an import failure
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert b"No module named" not in proc.stderr
    assert proc.stderr.startswith(b"error:")
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


def test_guard_env_var_reported(workdir):
    game_path = write_anti_coordination(workdir)
    assert_guard_error(run_cli_with_cap(
        2, "solve", "--game", game_path, "--epsilon", "1/10", "--z", "1"))


def test_guard_checked_before_any_file_is_written(workdir):
    # gen allocates n*k*|Pi^k_{n-1}| = 8 table entries and the 2-player
    # sum law has |Pi^2_2| = 3 cells: both are over a cap of 2
    prof_path = workdir / "p.json"
    prof_path.write_bytes(json.dumps(
        {"k": 2, "n": 2, "probs": [["1/3", "2/3"], ["1/2", "1/2"]]}).encode())
    assert_guard_error(run_cli_with_cap(
        2, "gen", "--n", 2, "--k", 2, "--seed", 0, "--out", workdir / "g.json"))
    assert_guard_error(run_cli_with_cap(
        2, "discretize", "--profile", prof_path, "--z", 10, "--out", workdir / "d.json",
        "--sumdist-out", workdir / "d.csv"))
    assert sorted(p.name for p in workdir.iterdir()) == ["p.json"]


def test_coprime_utility_denominators_are_guarded_on_parse(workdir):
    # n=3, k=2: 6 entries a player.  Over "1/2" the integer table is one
    # word an entry, 18 in all; over 6 distinct 20-bit primes a player,
    # L_p has 120 bits, so 2 words an entry and 36 in all, over a cap of 30
    primes = [999983, 999979, 999961, 999959, 999953, 999931]
    prof_path = workdir / "p.json"
    prof_path.write_bytes(json.dumps(
        {"k": 2, "n": 3, "probs": [["1/2", "1/2"]] * 3}).encode())
    for name, den in (("half.json", [2] * 6), ("coprime.json", primes)):
        (workdir / name).write_bytes(json.dumps({"k": 2, "n": 3, "utilities": [
            [[f"1/{d}" for d in den[:3]], [f"1/{d}" for d in den[3:]]]] * 3}).encode())
    verify = ("verify", "--profile", prof_path, "--epsilon", "1/10", "--game")
    assert run_cli_with_cap(30, *verify, workdir / "half.json").returncode == 0
    proc = run_cli_with_cap(30, *verify, workdir / "coprime.json")
    assert_guard_error(proc)
    assert proc.stderr.startswith(
        b"error: integer utility table for n=3, k=2 (64-bit words) has size 36,")


def test_split_guard_runs_before_the_strategy_grid_is_built(workdir, capsys,
                                                             monkeypatch):
    # 400001 strategies fit the cap but their C(400002, 2) splits do not;
    # building the grid first took seconds before the same message
    monkeypatch.delenv("ANON_GUARD_CELLS", raising=False)
    game_path = write_anti_coordination(workdir)
    t0 = time.perf_counter()
    code = cli.main(["solve", "--game", str(game_path), "--epsilon", "1/100",
                     "--z", "100000"])
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert capsys.readouterr().err == (
        "error: partitions of 2 players into 400001 strategies has size "
        "80000600001, exceeding the cap of 10000000 (override with "
        "ANON_GUARD_CELLS)\n")


def test_function_file_over_the_trie_cell_cap_is_refused(workdir, capsys, monkeypatch):
    # n=200000 at eps=1 has only 200001 multisets, but any split of the
    # search trie holds over 4e10 pmf cells; the flat batch it replaced
    # built 65536 rows of 200001 floats and was killed for memory.  Nearly
    # all of the time here is parsing the 200001 fractions.
    monkeypatch.delenv("ANON_GUARD_CELLS", raising=False)
    path = workdir / "wide.json"
    path.write_text(json.dumps({"n": 200000, "functions": [["1/2"] * 200001]}))
    t0 = time.perf_counter()
    code = cli.main(["minimax", "--funcs", str(path), "--epsilon", "1"])
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert capsys.readouterr().err == (
        "error: minimax multiset grid at eps=1 (pmf cells held at once) has size "
        "40000600002, exceeding the cap of 1000000 (override with ANON_GUARD_CELLS)\n")


@pytest.mark.parametrize("what, argv", [
    ("game", ("verify", "--game", "bad.json", "--profile", "p.json", "--epsilon", "1/10")),
    ("profile", ("verify", "--game", "GAME", "--profile", "bad.json", "--epsilon", "1/10")),
    ("function", ("minimax", "--funcs", "bad.json", "--epsilon", "1/2")),
    ("normal-form", ("quasi", "--game", "bad.json", "--epsilon", "1/2")),
])
def test_invalid_utf8_file_is_malformed(workdir, what, argv):
    (workdir / "bad.json").write_bytes(b'{"n": 1, "\xc3\x28": 2}')
    (workdir / "p.json").write_text(json.dumps(
        {"k": 2, "n": 2, "probs": [["1/2", "1/2"], ["1/2", "1/2"]]}))
    game_path = write_anti_coordination(workdir)
    args = [game_path if a == "GAME" else workdir / a if a.endswith(".json") else a
            for a in argv]
    code, out, err = run_cli(*args)
    assert (code, out) == (2, b"")
    assert err == (f"error: malformed {what} file: 'utf-8' codec can't decode byte "
                   "0xc3 in position 10: invalid continuation byte\n").encode()


# (argv with file placeholders, files written first): every malformed input
# below must be reported as a usage error, never as a crash
MALFORMED_INPUTS = {
    "profile-zero-denominator": (
        ("verify", "--game", "GAME", "--profile", "bad.json", "--epsilon", "1/10"),
        {"bad.json": {"k": 2, "n": 2, "probs": [["1/0", "0/1"], ["1/2", "1/2"]]}}),
    "profile-huge-exponent": (
        ("verify", "--game", "GAME", "--profile", "bad.json", "--epsilon", "1/10"),
        {"bad.json": {"k": 2, "n": 2, "probs": [["1e10000000", "0/1"], ["1/2", "1/2"]]}}),
    "profile-infinite-entry": (
        ("verify", "--game", "GAME", "--profile", "bad.json", "--epsilon", "1/10"),
        {"bad.json": {"k": 2, "n": 2, "probs": [[float("inf"), 0], ["1/2", "1/2"]]}}),
    "profile-probs-not-a-list": (
        ("verify", "--game", "GAME", "--profile", "bad.json", "--epsilon", "1/10"),
        {"bad.json": {"k": 2, "n": 2, "probs": 5}}),
    "tdp-dump-probs-not-a-list": (
        ("tdp-dump", "--profile", "bad.json"),
        {"bad.json": {"k": 2, "n": 2, "probs": 5}}),
    "minimax-zero-denominator": (
        ("minimax", "--funcs", "bad.json", "--epsilon", "1/2"),
        {"bad.json": {"n": 1, "functions": [["1/0", "1/1"]]}}),
    "quasi-zero-denominator": (
        ("quasi", "--game", "bad.json", "--epsilon", "1/2"),
        {"bad.json": {"p": 2, "s": 2, "utilities": [["1/0", "0/1", "0/1", "1/1"],
                                                    ["0/1", "1/1", "1/1", "0/1"]]}}),
    "quasi-float-dimension": (
        ("quasi", "--game", "bad.json", "--epsilon", "1/2"),
        {"bad.json": {"p": 2.0, "s": 2, "utilities": [["1/1", "0/1", "0/1", "1/1"],
                                                      ["0/1", "1/1", "1/1", "0/1"]]}}),
    "quasi-huge-float-dimension": (
        ("quasi", "--game", "bad.json", "--epsilon", "1/2"),
        {"bad.json": {"p": 1e300, "s": 2.5, "utilities": []}}),
    "minimax-float-dimension": (
        ("minimax", "--funcs", "bad.json", "--epsilon", "1/2"),
        {"bad.json": {"n": 2.0, "functions": [["0/1", "1/2", "1/1"]]}}),
    "tv-experiment-jobs-zero": (
        ("tv-experiment", "--k", "2", "--z", "5", "--n", "2", "--trials", "1",
         "--seed", "0", "--jobs", "0", "--out", "out.csv"), {}),
    "solve-budget-without-escalate": (
        ("solve", "--game", "GAME", "--epsilon", "1/10", "--z", "1", "--budget", "0",
         "--out", "out.json"), {}),
    "solve-negative-budget": (
        ("solve", "--game", "GAME", "--epsilon", "1/10", "--z", "1", "--escalate",
         "--budget", "-5", "--out", "out.json"), {}),
    "tv-experiment-empty-n": (
        ("tv-experiment", "--k", "2", "--z", "5", "--n", "", "--trials", "1",
         "--seed", "0", "--out", "out.csv"), {}),
    "tv-experiment-empty-z": (
        ("tv-experiment", "--k", "2", "--z", "", "--n", "2", "--trials", "1",
         "--seed", "0", "--out", "out.csv"), {}),
    "tv-experiment-k-one": (
        ("tv-experiment", "--k", "1", "--z", "5", "--n", "2", "--trials", "1",
         "--seed", "0", "--out", "out.csv"), {}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_usage_error(workdir, case):
    argv, files = MALFORMED_INPUTS[case]
    for name, obj in files.items():
        (workdir / name).write_text(json.dumps(obj))
    game_path = write_anti_coordination(workdir)
    args = [game_path if a == "GAME" else
            workdir / a if a.endswith((".json", ".csv")) else a for a in argv]
    code, _, err = run_cli(*args)
    assert code == 2, err
    assert b"Traceback" not in err
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert not (workdir / "out.json").exists() and not (workdir / "out.csv").exists()


def test_huge_exponent_flag_is_usage_error(workdir):
    # parsed by the same as_fraction as file entries, so it fails fast
    game_path = write_anti_coordination(workdir)
    code, out, err = run_cli("solve", "--game", game_path, "--epsilon", "1e-10000000",
                             "--z", 1, "--out", workdir / "out.json")
    assert code == 2 and not out
    assert b"not a rational number" in err and b"Traceback" not in err
    assert not (workdir / "out.json").exists()


def test_every_subcommand_byte_deterministic(workdir):
    """Each subcommand twice with identical flags: identical stdout and files."""
    game_path = write_anti_coordination(workdir)
    prof_path = workdir / "p.json"
    prof_path.write_bytes(json.dumps(
        {"k": 2, "n": 2, "probs": [["32/100", "68/100"], ["1/2", "1/2"]]}).encode())
    funcs_path = workdir / "f.json"
    funcs_path.write_bytes(serialize_functions(
        ObjectiveFunctions(n=2, tables=((F(0), F(1, 2), F(1)),))))
    nf_path = workdir / "nf.json"
    nf_path.write_bytes(serialize_nf_game(NormalFormGame(
        p=2, s=2, utilities=((F(1), F(0), F(0), F(1)), (F(0), F(1), F(1), F(0))))))

    matrix = [
        ("gen", "--n", 2, "--k", 2, "--seed", 5, "--out", "OUT"),
        ("solve", "--game", game_path, "--epsilon", "1/10", "--z", 1, "--out", "OUT"),
        ("verify", "--game", game_path, "--profile", prof_path,
         "--epsilon", "1/1"),
        ("discretize", "--profile", prof_path, "--z", 10, "--out", "OUT"),
        ("tdp-dump", "--profile", prof_path, "--z", 10),
        ("tv-experiment", "--k", 2, "--z", "5", "--n", "2", "--trials", 2,
         "--seed", 1, "--jobs", 4, "--out", "OUT"),
        ("minimax", "--funcs", funcs_path, "--epsilon", "1/2"),
        ("quasi", "--game", nf_path, "--epsilon", "1/2", "--out", "OUT"),
    ]
    for row in matrix:
        outputs = []
        for rep in range(2):
            out_file = workdir / f"{row[0]}-{rep}.out"
            args = [out_file if a == "OUT" else a for a in row]
            code, stdout, stderr = run_cli(*args)
            assert code in (0, 1), (row, stderr)
            blob = out_file.read_bytes() if "OUT" in row else b""
            outputs.append((code, stdout.replace(str(out_file).encode(), b"OUT"),
                            blob))
        assert outputs[0] == outputs[1], row[0]


# --- drawn flag values: a run returns an exit code or argparse exits 2 ---------

_NUMBER_TEXT = (st.integers(-3, 8).map(str)
                | st.sampled_from(["", " ", "x", "1/0", "-1/3", "0.5", "nan", "inf",
                                   "-inf", "1e-10000000", "1e400", "1,2",
                                   "99999999999999999999"]))
_FRACTION_TEXT = (_NUMBER_TEXT
                  | st.tuples(st.integers(-2, 12), st.integers(0, 12)).map(
                      lambda ab: f"{ab[0]}/{ab[1]}"))
_INT_LIST_TEXT = (st.lists(st.integers(-1, 6), max_size=3).map(
                      lambda xs: ",".join(map(str, xs)))
                  | st.sampled_from(["", ",", "2,,3", "x", "2.5", "1e3"]))
_FLAG_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                          database=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


def _exit_code(argv) -> int:
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        assert exc.code == 2, argv      # argparse rejected a flag
        return 2
    assert code in (0, 1, 2), argv
    return code


@_FLAG_SETTINGS
@given(eps=_FRACTION_TEXT, z=_NUMBER_TEXT, escalate=st.booleans(),
       budget=st.none() | _NUMBER_TEXT)
def test_solve_flags_never_crash(tmp_path, eps, z, escalate, budget):
    game_path = write_anti_coordination(tmp_path)
    argv = ["solve", "--game", game_path, f"--epsilon={eps}", f"--z={z}",
            "--out", tmp_path / "out.json"]
    argv += ["--escalate"] * escalate
    argv += [] if budget is None else [f"--budget={budget}"]
    _exit_code(argv)


@_FLAG_SETTINGS
@given(eps=_FRACTION_TEXT)
def test_verify_flags_never_crash(tmp_path, eps):
    game_path = write_anti_coordination(tmp_path)
    prof_path = tmp_path / "p.json"
    prof_path.write_bytes(json.dumps(
        {"k": 2, "n": 2, "probs": [["32/100", "68/100"], ["1/2", "1/2"]]}).encode())
    _exit_code(["verify", "--game", game_path, "--profile", prof_path,
                f"--epsilon={eps}"])


@_FLAG_SETTINGS
@given(k=st.sampled_from(["1", "2", "3", "x"]), zs=_INT_LIST_TEXT, ns=_INT_LIST_TEXT,
       trials=st.sampled_from(["0", "1", "2", "-1", ""]))
def test_tv_experiment_flags_never_crash(tmp_path, k, zs, ns, trials):
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    code = _exit_code(["tv-experiment", f"--k={k}", f"--z={zs}", f"--n={ns}",
                       f"--trials={trials}", "--seed=0", "--out", out])
    assert out.exists() == (code == 0)


# --- alpha is checked up front ----------------------------------------------------

_PURE_PROFILE = {"k": 2, "n": 2, "probs": [["1/1", "0/1"], ["0/1", "1/1"]]}
_ALPHA_RANGE = "error: alpha must lie strictly between 0 and 1\n"


@pytest.mark.parametrize("alpha", ["2", "0", "1"])
def test_alpha_out_of_range_is_refused_without_a_typed_leaf(workdir, capsys, alpha):
    # every row is pure, so no leaf ever needs the alpha threshold
    prof_path = workdir / "p.json"
    prof_path.write_text(json.dumps(_PURE_PROFILE))
    out_path = workdir / "out.json"
    argvs = [["discretize", "--profile", prof_path, "--z", "10", "--alpha", alpha,
              "--out", out_path],
             ["tdp-dump", "--profile", prof_path, "--alpha", alpha],
             ["tdp-dump", "--profile", prof_path, "--z", "10", "--alpha", alpha]]
    for argv in argvs:
        assert cli.main([str(a) for a in argv]) == 2, argv
        assert capsys.readouterr() == ("", _ALPHA_RANGE), argv
    assert not out_path.exists()


def test_discretize_on_a_401_digit_z(workdir, capsys):
    # floor(z**alpha) used to seed from a float, which overflows past 1e308
    z = 10 ** 400
    prof_path = workdir / "p.json"
    prof_path.write_bytes(anongames.serialize_profile(anongames.random_profile(8, 3, 0)))
    out_path = workdir / "out.json"
    assert cli.main(["discretize", "--profile", str(prof_path), "--z", str(z),
                     "--out", str(out_path)]) == 0
    assert capsys.readouterr().err == ""
    rows = parse_profile(out_path.read_bytes()).probs
    assert all((v * z).denominator == 1 for row in rows for v in row)


def test_alpha_with_a_huge_denominator_is_refused_fast(workdir, capsys):
    # imported first so that, without the size check, the test stops here
    # instead of starting a power with ~10**10 bits
    from anongames.tdp import ROOT_POWER_BITS
    assert 10 ** 10 * (4).bit_length() > ROOT_POWER_BITS
    prof_path = workdir / "p.json"
    prof_path.write_text(json.dumps(
        {"k": 2, "n": 1, "probs": [["1/2", "1/2"]]}))
    out_path = workdir / "out.json"
    message = ("error: alpha denominator 10000000000 is too large for an exact "
               "floor(z**alpha) at z=4\n")
    t0 = time.perf_counter()
    for argv in (["discretize", "--profile", prof_path, "--z", "4",
                  "--alpha", "0.6000000001", "--out", out_path],
                 ["tdp-dump", "--profile", prof_path, "--z", "4",
                  "--alpha", "0.6000000001"]):
        assert cli.main([str(a) for a in argv]) == 2, argv
        assert capsys.readouterr() == ("", message), argv
    assert time.perf_counter() - t0 < 0.5
    assert not out_path.exists()


# --- pinned bytes of the rounding path ------------------------------------------

_PINNED_PROFILE = {"k": 4, "n": 8, "probs": [
    ["1/3", "1/3", "1/3", "0/1"],        # three-way tie
    ["32/100", "0/1", "68/100", "0/1"],  # support 2, explicit zeros
    ["1/1", "0/1", "0/1", "0/1"],        # singleton: passes through
    ["1/4", "1/2", "1/8", "1/8"],
    ["29/97", "41/97", "20/97", "7/97"],
    ["1/5", "3/10", "1/4", "1/4"],       # split prefix exactly 1/2
    ["1/3", "1/3", "1/6", "1/6"],
    ["31/100", "33/100", "19/100", "17/100"],
]}

# SHA-256 of (stdout with the work directory replaced by "WORK", then each
# written file), one per command; recorded before the trees and the
# rounding moved to integer numerators, so any later change to the bytes
# of these outputs shows here
_PINNED_DIGESTS = {
    "discretize": "c9b6539de71a856dafae27629599930cc493b806e087154de7c9f6facffd983f",
    "tdp-dump": "5180788880cb4cc43492f75c1517676321867ea64d7f102da48c5e1ef678fc70",
    "tv-experiment": "a08cb4b0949d61e74c3606ba91067e43f6addcd2a108c926180c0e686ac2f835",
}


def _pinned_runs(workdir):
    prof_path = workdir / "p.json"
    prof_path.write_bytes(json.dumps(_PINNED_PROFILE).encode())
    return {
        "discretize": (("discretize", "--profile", prof_path, "--z", 10,
                        "--out", workdir / "d.json", "--sumdist-out", workdir / "d.csv"),
                       ("d.json", "d.csv")),
        "tdp-dump": (("tdp-dump", "--profile", prof_path, "--z", 20), ()),
        "tv-experiment": (("tv-experiment", "--k", 3, "--z", "5,20", "--n", "2,4",
                           "--trials", 2, "--seed", 11, "--out", workdir / "tv.csv"),
                          ("tv.csv",)),
    }


def _pinned_digest(workdir, argv, files) -> str:
    import hashlib
    code, out, err = run_cli(*argv)
    assert code == 0 and err == b"", err
    digest = hashlib.sha256(out.replace(str(workdir).encode(), b"WORK"))
    for name in files:
        digest.update((workdir / name).read_bytes())
    return digest.hexdigest()


def test_rounding_path_bytes_are_pinned(workdir):
    got = {name: _pinned_digest(workdir, argv, files)
           for name, (argv, files) in _pinned_runs(workdir).items()}
    assert got == _PINNED_DIGESTS
