"""halphen-lab benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload bianchi --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the package is not installed; it is
imported from ``src/``).  With ``--trace 0`` the last stdout line holds the
end-to-end metrics, with ``--trace 1`` the per-layer ones; a human-readable
summary goes to stderr and the raw per-operation record to
``.perfbench_out/``.  See perfbench/README.md.

The runner itself imports only the standard library.  Every measured
process is a fresh ``python`` started from here with BLAS/OpenMP pinned to
one thread; operations run one at a time (a closed loop with one client).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = {"cli-cold": 5}  # others: 3
# a cli-cold round (nine cold processes) takes about as long as a run, and
# the sustained speed needs more than one round
MIN_ROUNDS = {"cli-cold": 2}  # others: 1
RUN_DEADLINE_S = 170.0
IMPORT_PROBES = {
    "import.cli_s": "import halphen_lab.cli",
    "import.modforms_s": "import halphen_lab.modforms",
    "import.halphen_s": "import halphen_lab.halphen",
    "import.geometry_s": "import halphen_lab.geometry",
    "import.flows_s": "import halphen_lab.flows",
    "import.conformal_s": "import halphen_lab.conformal",
    "import.maass_s": "import halphen_lab.maass",
    "import.amplitudes_s": "import halphen_lab.amplitudes",
    "import.numpy_s": "import numpy",
    # numpy first (untimed), then the scipy submodules the package imports
    "import.scipy_s": "import scipy.integrate, scipy.optimize, scipy.signal, scipy.special",
}
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "peak_rss_mb": "MB", "accuracy_digits": "digits"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# runner side (standard library only)


class Deadline:
    """Kills registered child processes once the run's time is up."""

    def __init__(self, seconds):
        self.procs = []
        self.timer = threading.Timer(seconds, self._kill)
        self.timer.daemon = True
        self.timer.start()

    def _kill(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()

    def cancel(self):
        self.timer.cancel()


def timed_import(stmt: str, env, deadline) -> float:
    """Seconds one fresh interpreter spends on ``stmt``."""
    pre = "import numpy; " if "scipy" in stmt else ""
    code = f"{pre}import time; t = time.perf_counter(); {stmt}; print(time.perf_counter() - t)"
    p = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
    deadline.procs.append(p)
    out, _ = p.communicate()
    if p.returncode != 0:
        raise RuntimeError(f"{stmt!r} failed with exit code {p.returncode}")
    return float(out.strip().splitlines()[-1])


def spawn_worker(args, env, deadline, setup_only=False):
    """Start a worker; return (process, seconds from spawn to READY)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    deadline.procs.append(p)
    line = p.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        p.kill()
        p.wait()
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    return p, ready


def finish_worker(p) -> dict:
    out = p.stdout.read()
    p.wait()
    if p.returncode != 0:
        raise RuntimeError(f"worker exited with code {p.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def runner(args) -> int:
    if not (SRC / "halphen_lab" / "__init__.py").is_file():
        print(f"error: no halphen_lab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    env = child_env()
    deadline = Deadline(RUN_DEADLINE_S)
    try:
        setup = []
        if args.trace:
            imports = {k: timed_import(stmt, env, deadline) for k, stmt in IMPORT_PROBES.items()}
        elif args.workload == "cli-cold":
            setup = [timed_import("import halphen_lab.cli", env, deadline)
                     for _ in range(SETUP_SAMPLES["cli-cold"])]
        else:
            for _ in range(SETUP_SAMPLES.get(args.workload, 3) - 1):
                p, ready = spawn_worker(args, env, deadline, setup_only=True)
                p.communicate()
                setup.append(ready)
        p, ready = spawn_worker(args, env, deadline)
        if not args.trace and args.workload != "cli-cold":
            setup.append(ready)
        res = finish_worker(p)
    finally:
        deadline.cancel()
    if args.trace:
        metrics = {**imports, **res["layers"]}
        units = {**{k: "s" for k in imports}, **res["units"]}
    else:
        metrics = {"setup_s": statistics.median(setup), **res["e2e"]}
        units = E2E_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup, **res,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    for line in res.get("failures", []):
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {res['attempted']} ops, {res['failed']} failed, "
          f"correct={res['correct']}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


# ---------------------------------------------------------------------------
# worker side


def run_op(op):
    """(result, seconds); an operation that raises yields a ``Raised``,
    which its check counts as a failed operation."""
    from workloads import Raised

    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        result = Raised(exc)
    return result, time.perf_counter() - t0


def timed_rounds(ops, seconds, min_rounds):
    """Whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` are done."""
    latencies, round_times, first, last = [], [], [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        results = []
        r0 = time.perf_counter()
        for op in ops:
            r, dt = run_op(op)
            latencies.append(dt)
            results.append(r)
        round_times.append(time.perf_counter() - r0)
        if rounds == 0:
            first = results
        last = results
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
    return rounds, round_times, latencies, first, last


def sustained(times):
    """The 90th percentile of a run's times of one kind (rounds, or one
    operation's latencies).

    The reference host runs at one speed most of the time and 20-70%
    faster in bursts of seconds, for as long as a quarter of a run.  A
    median or mean then moves with the share of the run that fell in a
    burst; a time that nine in ten samples beat stays at the usual speed
    unless bursts cover nine tenths of the run."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def judge(ops, first, last):
    """Check one round's outputs (first and last round) against the oracles."""
    from workloads import evaluate

    checks, failed, failures, correct = [], 0, [], True
    for op, r0, r1 in zip(ops, first, last):
        c0 = evaluate(op, r0)
        c1 = c0 if r1 is r0 else evaluate(op, r1)
        outcome0 = [(c.ok, c.bar_ok) for c in c0]
        if outcome0 != [(c.ok, c.bar_ok) for c in c1]:
            correct = False
            failures.append(f"{op.name}: first and last round disagree")
        checks.extend(c0)
        bad = [c for c in c0 if not c.ok]
        misses = [c for c in c0 if not c.bar_ok]
        if bad:
            correct = False
        if bad or misses:
            failed += 1
            for c in bad:
                failures.append(f"{op.name}: {c.label}: value {c.value!r} oracle {c.oracle!r} tol {c.tol!r}"
                                if c.numeric else f"{op.name}: {c.label}")
            for c in misses:
                failures.append(f"{op.name}: {c.label}: |error| {c.error:.3g} > est_error {c.est_error:.3g}")
    return checks, failed, failures, correct


def min_digits(checks, prefix=""):
    vals = [c.digits for c in checks if c.numeric and c.layer.startswith(prefix)]
    return min(vals) if vals else None


def worker(args) -> int:
    import workloads as W

    warm_up = args.workload != "cli-cold"
    if args.workload == "cli-cold":
        ops = (W.cli_warm_ops(args.seed) if args.trace
               else W.cli_cold_ops(args.seed, sys.executable, child_env()))
    else:
        ops = W.build_ops(args.workload, args.seed)
    if warm_up or args.trace:
        for op in ops:
            run_op(op)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    probe_ops = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        if args.workload != "cli-cold":
            # one pass of the nine subcommands, so that every layer is seen
            probe_ops = W.cli_warm_ops(args.seed)
    probe = [run_op(op) for op in probe_ops]
    probe_res, probe_lat = [r for r, _ in probe], [t for _, t in probe]
    rounds, round_times, lat, first, last = timed_rounds(ops, args.seconds,
                                                         MIN_ROUNDS.get(args.workload, 1))
    if tracer:
        tracer.uninstall()
    if args.workload == "cli-cold" and not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checks, failed, failures, correct = judge(ops, first, last)
    res = {
        "correct": correct, "attempted": rounds * len(ops), "failed": rounds * failed,
        "rounds": rounds, "ops_per_round": len(ops), "failures": failures,
        "latencies_ms": {op.name: [lat[i] * 1e3 for i in range(k, len(lat), len(ops))]
                         for k, op in enumerate(ops)},
    }
    ops_per_s = len(ops) / sustained(round_times)
    if not args.trace:
        res["e2e"] = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(sustained(ms) for ms in res["latencies_ms"].values()),
            "peak_rss_mb": rss_kb / 1024.0,
            "accuracy_digits": min_digits(checks) or 0.0,
        }
    else:
        probe_checks, _, probe_failures, probe_correct = judge(probe_ops, probe_res, probe_res)
        res["correct"] = correct and probe_correct
        res["failures"] += [f"cli probe {f}" for f in probe_failures]
        all_checks = checks + probe_checks
        layers = tracer.metrics()
        units = {k: ("count" if k.endswith((".calls", ".rhs_evals", ".steps", ".points",
                                             ".grid_points", ".summands"))
                     else "ratio" if k.endswith("_ratio") else "bytes" if k.endswith(".bytes")
                     else "ms") for k in layers}
        per_cli = {}
        if args.workload == "cli-cold":
            for op in ops:
                per_cli[op.name] = res["latencies_ms"][op.name]
        else:
            for op, t in zip(probe_ops, probe_lat):
                per_cli[op.name] = [t * 1e3]
        for name, ms in per_cli.items():
            layers[f"cli.{name}.warm_ms"] = statistics.median(ms)
            units[f"cli.{name}.warm_ms"] = "ms"
        for layer in ("maass.lattice", "maass.fourier", "amplitudes.dn", "amplitudes.graph"):
            layers[f"{layer}.digits"] = min_digits(all_checks, layer)
            units[f"{layer}.digits"] = "digits"
        per_round = {p: sum(1 for c in checks if c.layer.startswith(p) and not c.bar_ok)
                     for p in ("maass", "amplitudes")}
        for p in ("maass", "amplitudes"):
            probe_miss = sum(1 for c in probe_checks if c.layer.startswith(p) and not c.bar_ok)
            layers[f"{p}.bar_misses"] = per_round[p] * rounds + probe_miss
            units[f"{p}.bar_misses"] = "count"
        res["layers"], res["units"] = layers, units
        print(f"traced ops_per_s {ops_per_s:.4g}", file=sys.stderr)
    print(json.dumps(res, default=str))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return worker(args) if args.worker else runner(args)


if __name__ == "__main__":
    sys.exit(main())
