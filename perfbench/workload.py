"""One repetition of a benchmark workload, in a fresh process.

The process sets up its inputs, runs the timed phase through dbfnet's public
entry points and writes one JSON result file; ``run.py`` starts it, checks
its outputs and turns the timings into metrics. Set-up ends and the timed
phase starts at the ``monotonic`` reading stored as ``timed_start``, a clock
shared by all processes on the machine, so the parent can time set-up from
the moment it started this process.

    python3 perfbench/workload.py --workload NAME --seed N --outdir DIR [--trace]

The checkout's ``src`` must be on ``PYTHONPATH``; ``run.py`` sets it.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

# Acceptance-size scenarios run through ``dbfnet run``: CLI arguments and
# ticks per run. The durations keep process start-up a small share of each
# repetition while leaving several repetitions in a run.
CLI_WORKLOADS = {
    "tracking-grid": (["--scenario", "benchmark1", "--dt", "0.5", "--set", "duration=10"], 20),
    "tracking-info": (["--scenario", "benchmark2", "--dt", "0.02", "--set", "duration=6"], 300),
}

# Criterion-5 protocol on the object API: agents, 1-D grid, envelope target
# and slack, drift probe interval and length, trials per run.
ENVELOPE = {
    "agents": 8,
    "cells": 48,
    "delta": 0.3,
    "eta": 0.1,
    "probe_dt": 0.1,
    "probe_ticks": 130,
    "walk_var": 0.05,
    "trials": 2,
}

WORKLOADS = (*CLI_WORKLOADS, "envelope-objapi")


def run_cli(name: str, seed: int, outdir: Path, setup_only: bool) -> dict:
    from dbfnet import cli

    args, ticks = CLI_WORKLOADS[name]
    argv = ["run", *args, "--seed", str(seed), "--outdir", str(outdir)]
    start = _timed_start()
    if setup_only:
        return start
    code = cli.main(argv)
    end = time.perf_counter()
    if code != 0:
        raise SystemExit(f"dbfnet run exited with {code}")
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    return {**start, "timed_end": end, "ticks": ticks, "summary": summary}


def _drifting_sensors(rng, n: int):
    """Gaussian sensors whose centers drift sinusoidally, as in criterion 5."""
    import numpy as np
    from dbfnet.engine import SensorModel

    sigmas = rng.uniform(0.8, 1.4, n)
    centers = rng.uniform(-0.8, 0.8, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)

    def make(sigma: float) -> SensorModel:
        def log_likelihood(y, grid):
            return -0.5 * ((grid.cells[:, 0] - y[0]) / sigma) ** 2

        return SensorModel(measure=None, log_likelihood=log_likelihood)

    def plan(k: int, dt: float) -> list:
        t = k * dt
        return [np.array([centers[i] + np.sin(0.5 * t + phases[i])]) for i in range(n)]

    return [make(float(s)) for s in sigmas], plan


def _envelope_trial_inputs(seed: int, trial: int) -> dict:
    """Schedule, admissible interval and tick budget for one trial."""
    from dataclasses import replace

    import numpy as np
    from dbfnet import bounds, topology
    from dbfnet.density import StateGrid
    from dbfnet.engine import TargetModel, normalized_likelihood

    cfg = ENVELOPE
    n = cfg["agents"]
    rng = np.random.default_rng([seed, trial])
    grid = StateGrid((-6.0,), (6.0,), (cfg["cells"],))
    sensors, plan = _drifting_sensors(rng, n)
    schedule = topology.random_schedule(n, rng, b=1, slots=int(rng.integers(1, 4)))

    pairs, prev = [], None
    for k in range(1, cfg["probe_ticks"] + 1):
        cur = [normalized_likelihood(sensors[i], y, grid) for i, y in enumerate(plan(k, cfg["probe_dt"]))]
        if prev is not None:
            pairs.extend(zip(prev, cur))
        prev = cur
    theta = 1.05 * bounds.estimate_theta_l(pairs, cfg["probe_dt"])
    sigma = topology.sigma_m(schedule)
    # singular-value dust of a rank-deficient window product reads as zero
    sigma = 0.0 if sigma < 1e-12 else sigma
    p = bounds.ConvergenceParams(
        n=n, b=schedule.b, theta_l=theta, sigma_m=sigma, delta=cfg["delta"], eta=cfg["eta"]
    )
    dt = bounds.delta_max(p)
    first = [normalized_likelihood(sensors[i], y, grid) for i, y in enumerate(plan(1, dt))]
    p = replace(p, d1=bounds.initial_disagreement(first))
    k_stop = bounds.kappa(p)
    return {
        "grid": grid,
        "sensors": sensors,
        "measurements": [plan(k, dt) for k in range(1, k_stop + 3 * p.window + 1)],
        "schedule": schedule,
        "target": TargetModel.gaussian_walk(grid, [[cfg["walk_var"]]]),
        "check": {
            "kappa": k_stop,
            "window": p.window,
            "envelope": bounds.steady_state_delta(p, dt),
            "eta": cfg["eta"],
        },
    }


def run_envelope(seed: int, outdir: Path, setup_only: bool) -> dict:
    import numpy as np
    from dbfnet import engine
    from dbfnet.density import DensityGrid

    trials = [_envelope_trial_inputs(seed, t) for t in range(ENVELOPE["trials"])]
    start = _timed_start()
    if setup_only:
        return start
    max_l1 = []
    for tr in trials:
        agents = [engine.AgentState.initial(DensityGrid.uniform(tr["grid"])) for _ in tr["sensors"]]
        errs = np.empty(len(tr["measurements"]))
        for k, ys in enumerate(tr["measurements"], start=1):
            agents, diag = engine.dbf_step(
                agents, tr["schedule"].matrix_at(k - 1), k, tr["target"], tr["sensors"], ys
            )
            errs[k - 1] = diag.l1_to_joint.max()
        max_l1.append(errs)
    end = time.perf_counter()

    lines = ["trial,tick,max_l1"]
    for t, errs in enumerate(max_l1):
        lines.extend(f"{t},{k},{format(float(e), '.17g')}" for k, e in enumerate(errs, start=1))
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        **start,
        "timed_end": end,
        "ticks": sum(len(e) for e in max_l1),
        "trials": [tr["check"] for tr in trials],
    }


def _timed_start() -> dict:
    return {"timed_start": time.monotonic(), "timed_start_pc": time.perf_counter()}


def blas_facts() -> dict:
    """OpenBLAS version and the thread count it runs with in this process."""
    import ctypes

    import numpy as np

    facts = {"blas_version": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas_version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = int(fn())
                return facts
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop where the timed phase would start")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if args.workload == "envelope-objapi":
        result = run_envelope(args.seed, args.outdir, args.setup_only)
    else:
        result = run_cli(args.workload, args.seed, args.outdir, args.setup_only)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import dbfnet
    import numpy
    import scipy

    result["facts"] = {
        "dbfnet_file": dbfnet.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_facts(),
    }
    if tracer is not None and not args.setup_only:
        result["trace"] = tracer.summary(result["timed_start_pc"], result["timed_end"])
        tracer.write_spans(args.outdir / "spans.csv")
    (args.outdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
