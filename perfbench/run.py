"""anongames benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Closed loop, one client: each op starts when the previous one returns,
with no worker pool and no threads.  Inputs come from --seed only.  Every
op's output is checked outside the timed interval, and the outputs of the
pinned seed are compared with the digests in perfbench/expected.json.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed op list
twice, untraced and then traced (every layer's public functions rebound
to span-recording wrappers), prints the per-layer metrics with the
tracing overhead, and writes the spans to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a summary goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_STARTS = 5       # fresh interpreters timed per run for setup_s
MIN_OPS = 100          # leaves >= 10 samples beyond p90
CAL_REF_S = 0.001      # calibration kernel time that op times are scaled to
RATE_WINDOW = 5        # ops; a whole number of every workload's input cycle
LOOP_WALL_CAP = 100.0  # seconds; keeps a slow run inside its time limit


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "anongames" / "__init__.py").is_file():
        _fail(f"no anongames sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("ANON_GUARD_CELLS", None)   # the library's default caps only
    # one thread: a BLAS thread pool on a shared 2-core host makes numpy
    # calls bimodal in time
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import anongames
    if Path(anongames.__file__).resolve().parent != SRC / "anongames":
        _fail(f"imported anongames from {anongames.__file__}, not {SRC}")


_KERNEL_VECTORS = ((Fraction(3, 16), Fraction(5, 16), Fraction(1, 2)),
                   (Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)),
                   (Fraction(7, 16), Fraction(7, 16), Fraction(1, 8))) * 2


def _calibration_kernel() -> dict:
    """Fixed work of the library's kind, about 1 ms: a dict fold of six
    Fraction vectors over the partition lattice.  It is the benchmark's
    own stdlib-only code, so no change to the library can move it."""
    state = {(0, 0, 0): Fraction(1)}
    for vec in _KERNEL_VECTORS:
        nxt: dict = {}
        for part, mass in state.items():
            for ell, p in enumerate(vec):
                key = part[:ell] + (part[ell] + 1,) + part[ell + 1:]
                nxt[key] = nxt.get(key, 0) + mass * p
        state = nxt
    return state


def _kernel_s() -> float:
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> None:
    """Body of one fresh start: import the library, build the inputs."""
    t0 = time.perf_counter()
    _import_library()
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    wl.make_inputs(seed, wl.pool)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def measure_setup(workload: str, seed: int) -> dict:
    """Median over fresh interpreters that import the library and generate
    the inputs: whole start-to-exit time and the two phases, each scaled
    like op times by the calibration kernel timed around the start."""
    walls, imports, inputs = [], [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_STARTS):
        before = _kernel_s()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              cwd=ROOT)
        wall = time.perf_counter() - t0
        scale = 2 * CAL_REF_S / (before + _kernel_s())
        if proc.returncode != 0:
            _fail(f"setup probe failed:\n{proc.stderr}")
        phases = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(wall * scale)
        imports.append(phases["import_s"] * scale)
        inputs.append(phases["inputs_s"] * scale)
    return {"setup_s": statistics.median(walls),
            "setup.import_s": statistics.median(imports),
            "setup.inputs_s": statistics.median(inputs)}


class Outcome:
    """Attempted and failed op counts, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(failure)


def time_op(wl, inp, tracer=None, op_id=None):
    """(scaled seconds, wall seconds, output or None, failure or None) of one op.

    The shared host's speed drifts by tens of percent within seconds, so the
    calibration kernel is timed just before and just after the op, and the
    op's wall time is scaled by CAL_REF_S over their mean: the time the op
    would take on a host running the kernel in CAL_REF_S.
    """
    before = _kernel_s()
    t0 = time.perf_counter()
    out, failure = None, None
    try:
        if tracer is None:
            out = wl.run(inp)
        else:
            with tracer.span("op", op=op_id):
                out = wl.run(inp)
    except Exception:
        failure = "raised:\n" + traceback.format_exc()
    wall = time.perf_counter() - t0
    after = _kernel_s()
    return wall * 2 * CAL_REF_S / (before + after), wall, out, failure


def check_op(wl, inp, out) -> str | None:
    try:
        return wl.check(inp, out)
    except Exception:
        return "check raised:\n" + traceback.format_exc()


def pinned_digest(wl) -> str:
    """SHA-256 of the canonical outputs of the pinned seed's first ops."""
    from workloads import PINNED_SEED
    inputs = wl.make_inputs(PINNED_SEED, wl.pinned_ops)
    text = "\n".join(wl.canonical(x, wl.run(x)) for x in inputs)
    return hashlib.sha256(text.encode()).hexdigest()


def timed_loop(wl, pool, seconds: float, outcome: Outcome):
    """Scaled and wall op times of a closed loop over the pool, for at least
    `seconds` of wall op time and at least MIN_OPS ops; checks run between
    ops, untimed."""
    scaled: list[float] = []
    walls: list[float] = []
    start = time.perf_counter()
    while ((sum(walls) < seconds or len(walls) < MIN_OPS)
           and time.perf_counter() - start < LOOP_WALL_CAP):
        inp = pool[len(walls) % len(pool)]
        dt, wall, out, failure = time_op(wl, inp)
        scaled.append(dt)
        walls.append(wall)
        outcome.record(failure or check_op(wl, inp, out))
    return scaled, walls


def ops_per_s(times: list[float]) -> float:
    """Median over consecutive windows of RATE_WINDOW ops of each window's
    ops per second of op time, so that a burst of load from outside the
    benchmark moves one window rather than the whole rate."""
    windows = [times[i:i + RATE_WINDOW]
               for i in range(0, len(times) - RATE_WINDOW + 1, RATE_WINDOW)]
    return statistics.median(RATE_WINDOW / sum(w) for w in windows)


def end_to_end(wl, pool, seconds: float, outcome: Outcome) -> dict:
    from benchstats import percentile, samples_beyond
    times, walls = timed_loop(wl, pool, seconds, outcome)
    print(f"perfbench: {len(times)} ops, {samples_beyond(len(times), 0.9)} "
          f"beyond p90; unscaled: {ops_per_s(walls):.6g} ops/s, "
          f"p50 {percentile(walls, 0.5):.6g} s, p90 {percentile(walls, 0.9):.6g} s",
          file=sys.stderr)
    if len(times) < MIN_OPS:
        print(f"perfbench: warning: fewer than {MIN_OPS} ops within "
              f"{LOOP_WALL_CAP} s", file=sys.stderr)
    return {"ops_per_s": ops_per_s(times),
            "op_s_p50": percentile(times, 0.5),
            "op_s_p90": percentile(times, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_pass(wl, ops, tracer=None) -> tuple[list, float]:
    """Outputs (None where an op raised) and total scaled op time of one
    pass; with a tracer, each op is a root span carrying its index."""
    outputs, busy = [], 0.0
    for op_id, inp in enumerate(ops):
        dt, _, out, failure = time_op(wl, inp, tracer, op_id)
        if failure:
            print(f"perfbench: {failure}", file=sys.stderr)
        busy += dt
        outputs.append(out)
    return outputs, busy


def traced(wl, ops, seed: int, outcome: Outcome, workload: str) -> dict:
    """Untraced then traced pass over one fixed op list; per-layer metrics
    of the traced pass and the change in ops/s that tracing costs."""
    from benchtrace import Tracer
    from layers import TARGETS, counter_values, layer_metrics

    plain_out, plain_time = run_pass(wl, ops)
    with Tracer("anongames") as tracer:
        tracer.install(TARGETS)
        traced_out, traced_time = run_pass(wl, ops, tracer)

    # checks, and the traced outputs and counters against the untraced ones
    derived: dict = {}
    for inp, a, b in zip(ops, plain_out, traced_out):
        if a is None or b is None:
            outcome.record("op raised")
            continue
        for name, v in wl.derived(inp, a).items():
            derived[name] = derived.get(name, 0) + v
        if wl.canonical(inp, a) != wl.canonical(inp, b):
            outcome.record("traced output differs from untraced output")
        else:
            outcome.record(check_op(wl, inp, a))
    counts = counter_values(tracer.counts)
    for name, v in derived.items():
        if counts[name] != v:
            outcome.record(f"counter {name}: traced {counts[name]} != untraced {v}")

    metrics = layer_metrics(tracer)
    metrics["trace.ops"] = len(ops)
    metrics["trace.overhead"] = plain_time / traced_time - 1

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace_{workload}_{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return metrics


def pinned_counters_repeat(wl) -> bool:
    """Counters of two traced replays of the pinned ops must be identical."""
    from benchtrace import Tracer
    from layers import TARGETS, counter_values
    from workloads import PINNED_SEED
    inputs = wl.make_inputs(PINNED_SEED, wl.pinned_ops)
    seen = []
    for _ in range(2):
        with Tracer("anongames") as tracer:
            tracer.install(TARGETS)
            for inp in inputs:
                wl.run(inp)
        seen.append(counter_values(tracer.counts))
    return seen[0] == seen[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _import_library()
    from layers import SPEC
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    setup = measure_setup(args.workload, args.seed)
    pool = wl.make_inputs(args.seed, wl.pool)
    outcome = Outcome()

    expected = json.loads((HERE / "expected.json").read_text())[wl.name]
    got = pinned_digest(wl)    # also warms lazy caches before timing
    if got != expected:
        outcome.record(f"pinned-seed digest {got} != expected {expected}")

    if args.trace:
        if not pinned_counters_repeat(wl):
            outcome.record("pinned-seed counters differ between two replays")
        windows = max(1, round(args.seconds / 2 * wl.nominal_ops_per_s / RATE_WINDOW))
        n_ops = windows * RATE_WINDOW
        ops = [pool[i % len(pool)] for i in range(n_ops)]
        values = traced(wl, ops, args.seed, outcome, args.workload)
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.inputs_s"] = setup["setup.inputs_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in SPEC.items()}
    else:
        values = end_to_end(wl, pool, args.seconds, outcome)
        values["setup_s"] = setup["setup_s"]
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
                 "op_s_p90": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}

    for reason in outcome.reasons:
        print(f"perfbench: FAILED: {reason}", file=sys.stderr)
    print(f"perfbench: {wl.name} seed {args.seed}: error_rate "
          f"{outcome.failed}/{outcome.attempted}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"perfbench:   {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
