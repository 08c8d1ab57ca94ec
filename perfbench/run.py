"""dbfnet benchmark: one workload, end-to-end or per-layer metrics, as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition of the workload is a fresh
process (``workload.py``) started one at a time with the checkout's ``src``
on its path, so set-up time includes interpreter start and ``import dbfnet``,
and no repetition inherits another's warm heap. Repetitions of one seed
repeat until ``--seconds`` is used up, at least two of them, so every run
also checks that a rerun writes a byte-identical ``metrics.csv``. Each
repetition's outputs are checked; a repetition that errors or fails a check
counts as failed.

With ``--trace 0`` the last line carries the end-to-end metrics (medians
over repetitions). With ``--trace 1`` the untraced repetitions are followed
by one traced repetition of the same seed, and the last line carries the
per-layer metrics from its spans plus the tracing overhead.

``--seed`` selects scenario seed ``1 + seed mod 16``; ``reference.json``
holds the recorded reference values for each of them. Everything a run
writes goes under ``.bench_runs/<workload>/``: one directory per process and
``report.json`` with every repetition's numbers, quartiles and machine facts
(the traced repetition also leaves its spans in ``traced/spans.csv``).

Workloads (closed loop, one caller):
  tracking-grid    benchmark 1 at dt 0.5: 50 agents, 64x64 grid, 50 banks of
                   10k particles plus a 10k-particle central reference
  tracking-info    benchmark 2 at dt 0.02: information filters, no grid
  envelope-objapi  criterion-5 protocol through engine.dbf_step, n = 8

The formation scenario is not a workload: criterion 12's gate needs its full
300 ticks, about 25 s a process, and the rerun check doubles that, which does
not fit a run length the other workloads can share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_runs"
WORKLOADS = ("tracking-grid", "tracking-info", "envelope-objapi")

# The benchmark seed selects one of these scenario seeds; reference.json holds
# the recorded reference values for every one of them.
SCENARIO_SEEDS = 16
MIN_REPS = 2
SETUP_SAMPLES = 7
# A run stops every repetition it starts by this many seconds.
RUN_DEADLINE_S = 170
# One BLAS thread: each workload has a single caller, so a repetition uses
# one core and its time does not depend on how BLAS splits small products.
BLAS_THREADS = 1

# Benchmark 1's size: agents, grid cells, and particle banks (one per agent
# plus the central reference) for resamples per bank-tick.
AGENTS = 50
GRID_CELLS = 64 * 64
GRID_BANKS = AGENTS + 1

# (metric, layer, quantity, normalization, unit). "tick" divides the
# timed-phase total by ticks, "run" takes the whole-process total, "call"
# divides by calls. Quantities: busy (outermost span time), self (span time
# minus children), calls, amount (the layer's work count).
PER_LAYER = (
    ("engine.consensus_update.busy_ms_per_tick", "engine.consensus_update", "busy", "tick", "ms"),
    ("engine.consensus_update.bytes_per_call", "engine.consensus_update", "amount", "call", "bytes"),
    ("engine.power_rows.busy_ms_per_tick", "engine.power_rows", "busy", "tick", "ms"),
    ("engine.logsumexp.calls_per_tick", "engine.logsumexp", "calls", "tick", "count"),
    ("engine.logsumexp.busy_ms_per_tick", "engine.logsumexp", "busy", "tick", "ms"),
    ("scenarios.logsumexp.calls_per_tick", "scenarios.logsumexp", "calls", "tick", "count"),
    ("scenarios.logsumexp.busy_ms_per_tick", "scenarios.logsumexp", "busy", "tick", "ms"),
    ("density.log_interp.calls_per_tick", "density.log_interp", "calls", "tick", "count"),
    ("density.log_interp.points_per_tick", "density.log_interp", "amount", "tick", "count"),
    ("density.log_interp.busy_ms_per_tick", "density.log_interp", "busy", "tick", "ms"),
    ("density.systematic_indices.calls_per_tick", "density.systematic_indices", "calls", "tick", "count"),
    ("density.systematic_indices.busy_ms_per_tick", "density.systematic_indices", "busy", "tick", "ms"),
    ("scenarios.self_ms_per_tick", "scenarios.run", "self", "tick", "ms"),
    ("scenarios.toa_log_likelihood.busy_ms_per_tick", "scenarios.toa_log_likelihood", "busy", "tick", "ms"),
    ("scenarios.doa_log_likelihood.busy_ms_per_tick", "scenarios.doa_log_likelihood", "busy", "tick", "ms"),
    ("infofilter.info_predict.busy_ms_per_tick", "infofilter.info_predict", "busy", "tick", "ms"),
    ("infofilter.info_predict.calls_per_tick", "infofilter.info_predict", "calls", "tick", "count"),
    ("infofilter.info_fuse.busy_ms_per_tick", "infofilter.info_fuse", "busy", "tick", "ms"),
    ("infofilter.info_fuse.calls_per_tick", "infofilter.info_fuse", "calls", "tick", "count"),
    ("infofilter.info_update.busy_ms_per_tick", "infofilter.info_update", "busy", "tick", "ms"),
    ("infofilter.info_update.calls_per_tick", "infofilter.info_update", "calls", "tick", "count"),
    ("infofilter.info_measurement.busy_ms_per_tick", "infofilter.info_measurement", "busy", "tick", "ms"),
    ("infofilter.info_measurement.calls_per_tick", "infofilter.info_measurement", "calls", "tick", "count"),
    ("infofilter.centralized_info_step.self_ms_per_tick", "infofilter.centralized_info_step", "self", "tick", "ms"),
    ("engine.dbf_step.self_ms_per_tick", "engine.dbf_step", "self", "tick", "ms"),
    ("engine.fuse.busy_ms_per_tick", "engine.fuse", "busy", "tick", "ms"),
    ("engine.predict.busy_ms_per_tick", "engine.predict", "busy", "tick", "ms"),
    ("engine.power_estimate.busy_ms_per_tick", "engine.power_estimate", "busy", "tick", "ms"),
    ("engine.update.busy_ms_per_tick", "engine.update", "busy", "tick", "ms"),
    ("density.floor_and_normalize.calls_per_tick", "density.floor_and_normalize", "calls", "tick", "count"),
    ("density.floor_and_normalize.busy_ms_per_tick", "density.floor_and_normalize", "busy", "tick", "ms"),
    ("density.DensityGrid.init_busy_ms_per_tick", "density.DensityGrid.init", "busy", "tick", "ms"),
    ("density.l1_distance.busy_ms_per_tick", "density.l1_distance", "busy", "tick", "ms"),
    ("pools.joint_likelihood.busy_ms_per_tick", "pools.joint_likelihood", "busy", "tick", "ms"),
    ("topology.local_degree_weights.calls_per_tick", "topology.local_degree_weights", "calls", "tick", "count"),
    ("topology.local_degree_weights.busy_ms_per_tick", "topology.local_degree_weights", "busy", "tick", "ms"),
    ("topology.random_schedule.busy_s", "topology.random_schedule", "busy", "run", "s"),
    ("topology.sigma_m.busy_s", "topology.sigma_m", "busy", "run", "s"),
    ("bounds.estimate_theta_l.busy_s", "bounds.estimate_theta_l", "busy", "run", "s"),
    ("cli.write_metrics.busy_ms", "cli.write_metrics", "busy", "run", "ms"),
    ("cli.write_metrics.bytes", "cli.write_metrics", "amount", "run", "bytes"),
    ("cli.main.self_ms", "cli.main", "self", "run", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dbfnet benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def start_rep(workload: str, seed: int, outdir: Path, *flags: str, timeout: float = RUN_DEADLINE_S) -> dict:
    """Run one repetition process; return its result record or the failure."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--outdir", str(outdir), *flags]
    with open(outdir / "log.txt", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s", "wall": time.monotonic() - spawned}
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        tail = (outdir / "log.txt").read_text(encoding="utf-8").strip().splitlines()[-1:]
        return {"error": f"exit {proc.returncode}: {' '.join(tail)}", "wall": wall}
    result = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
    result["wall"] = wall
    result["setup_s"] = result["timed_start"] - spawned
    if "timed_end" in result:
        result["ticks_per_s"] = result["ticks"] / (result["timed_end"] - result["timed_start_pc"])
    result["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    src = (ROOT / "src").resolve()
    if not Path(result["facts"]["dbfnet_file"]).resolve().is_relative_to(src):
        result["error"] = f"imported dbfnet from {result['facts']['dbfnet_file']}, not {src}"
    return result


# ------------------------------------------------------------ correctness


def read_metrics_csv(path: Path) -> list:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [row.split(",") for row in rows]


def check_rep(workload: str, rep: dict, outdir: Path, scenario_seed: int, ref: dict) -> list:
    """Problems with one repetition's outputs; empty when it passes."""
    problems = []
    rows = read_metrics_csv(outdir / "metrics.csv")
    values = [float(r[-1]) for r in rows]
    if not rows:
        problems.append("metrics.csv has no rows")
    if not all(math.isfinite(v) for v in values):
        problems.append("metrics.csv holds a non-finite value")
    if workload != "envelope-objapi" and rows and int(rows[-1][0]) != rep["ticks"]:
        problems.append(f"metrics.csv ends at tick {rows[-1][0]}, not {rep['ticks']}")
    summary = rep.get("summary", {})
    if workload == "tracking-info":
        want = ref["tracking-info"]["per_seed"][str(scenario_seed)]
        tol = ref["tracking-info"]["rel_tol"]
        for key, expected in want.items():
            got = summary[key]
            if abs(got - expected) > tol * abs(expected):
                problems.append(f"{key} {got!r} differs from reference {expected!r} by more than {tol:g} relative")
    elif workload == "tracking-grid":
        grid = ref["tracking-grid"]
        l1 = [float(r[3]) for r in rows if r[2] == "l1_to_joint"]
        # an L1 distance between densities lies in [0, 2]; the sum over the
        # cells may overshoot 2 by its own rounding, at most cells * eps * 2
        top = 2.0 + 2.0 * GRID_CELLS * sys.float_info.epsilon
        if len(l1) != AGENTS * rep["ticks"] or not all(0.0 <= v <= top for v in l1):
            problems.append(f"l1_to_joint outside [0, 2] (up to summation rounding {top - 2.0:.2g})")
        if not summary["steady_state_mse_central"] <= grid["central_mse_max"]:
            problems.append(
                f"centralized steady MSE {summary['steady_state_mse_central']:.4g} above "
                f"tolerance {grid['central_mse_max']}"
            )
    elif workload == "envelope-objapi":
        problems.extend(check_envelope(rows, rep["trials"]))
    return problems


def check_envelope(rows: list, trials: list) -> list:
    """Criterion 5's gate: settled and final-window excess <= 1e-9 per trial."""
    problems = []
    for t, trial in enumerate(trials):
        errs = [float(r[2]) for r in rows if int(r[0]) == t]
        envelope, eta = trial["envelope"], trial["eta"]
        settled = max(errs[trial["kappa"] - 1:]) - (1.0 + eta) * envelope
        final = max(errs[-trial["window"]:]) - envelope
        if not (settled <= 1e-9 and final <= 1e-9):
            problems.append(f"trial {t}: settled excess {settled:.3e}, final-window excess {final:.3e} > 1e-9")
    return problems


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- metrics


def spread(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(workload: str, trace: dict, ticks: int) -> dict:
    out = {}
    for name, layer, quantity, per, unit in PER_LAYER:
        totals = trace["timed" if per == "tick" else "process"].get(layer, {})
        raw = totals.get(quantity, 0)
        scale = 1000.0 if unit == "ms" else 1.0
        if per == "tick":
            value = raw * scale / ticks
        elif per == "call":
            value = raw / totals["calls"] if totals.get("calls") else 0.0
        else:
            value = raw * scale
        out[name] = {"value": value, "unit": unit}
    resamples = trace["timed"].get("density.systematic_indices", {}).get("calls", 0)
    out["scenarios.resample_ratio"] = {
        "value": resamples / (GRID_BANKS * ticks) if workload == "tracking-grid" else 0.0,
        "unit": "1/bank-tick",
    }
    out["bounds.busy_s"] = {"value": trace["bounds_busy_s"], "unit": "s"}
    return out


def machine_facts(child: dict) -> dict:
    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        facts["cpu"] = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            facts[f"L{level}"] = size
    facts.update({k: child.get(k) for k in ("python", "numpy", "scipy", "blas_version", "blas_threads")})
    return facts


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dbfnet" / "__init__.py").is_file():
        print(f"error: no dbfnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    scenario_seed = 1 + args.seed % SCENARIO_SEEDS
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)

    t0 = time.monotonic()
    reps, failures, first_digest = [], [], None

    def attempt(name: str, label: str, *flags: str) -> dict:
        """Start one process, check its outputs and record it."""
        nonlocal first_digest
        outdir = base / name
        timeout = max(1.0, t0 + RUN_DEADLINE_S - time.monotonic())
        rep = start_rep(args.workload, scenario_seed, outdir, *flags, timeout=timeout)
        problems = [rep["error"]] if "error" in rep else []
        if not problems and "timed_end" in rep:
            problems = check_rep(args.workload, rep, outdir, scenario_seed, ref)
            d = digest(outdir / "metrics.csv")
            first_digest = first_digest or d
            if d != first_digest:
                problems.append("metrics.csv differs from the first run of the same seed")
        rep["problems"] = problems
        reps.append(rep)
        failures.extend(f"{label}: {p}" for p in problems)
        return rep

    # Repetitions of the seed until --seconds is used up, at least MIN_REPS;
    # one that completed but failed its check still measured its time.
    timed = []
    while len(reps) - len(timed) < MIN_REPS:
        if len(timed) >= MIN_REPS:
            typical = statistics.median(r["wall"] for r in timed)
            if time.monotonic() - t0 + typical > args.seconds:
                break
        rep = attempt(f"rep{len(reps)}", f"run {len(reps)}")
        if "ticks_per_s" in rep:
            timed.append(rep)
    setups = [r["setup_s"] for r in timed]
    while timed and len(setups) < SETUP_SAMPLES:
        rep = attempt(f"setup{len(reps)}", f"set-up {len(reps)}", "--setup-only")
        if "setup_s" not in rep:
            break
        setups.append(rep["setup_s"])

    traced = None
    if args.trace and timed:
        rep = attempt("traced", "traced run", "--trace")
        traced = rep if "trace" in rep else None

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": scenario_seed,
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["problems"]),
        "failures": failures,
        "processes": [
            {k: r[k] for k in ("wall", "setup_s", "ticks_per_s", "peak_rss_mb", "problems") if k in r}
            for r in reps
        ],
    }
    child_facts = next((r["facts"] for r in reps if "facts" in r), {})
    report["machine"] = machine_facts(child_facts)
    if timed:
        report["end_to_end"] = {
            "ticks_per_s": {**spread([r["ticks_per_s"] for r in timed]), "unit": "1/s"},
            "setup_s": {**spread(setups), "unit": "s"},
            "peak_rss_mb": {**spread([r["peak_rss_mb"] for r in timed]), "unit": "MB"},
        }
        report["outputs"] = timed[0].get("summary") or {"trials": timed[0].get("trials")}
    if traced is not None and timed:
        untraced = report["end_to_end"]["ticks_per_s"]["median"]
        per_layer = layer_metrics(args.workload, traced["trace"], traced["ticks"])
        per_layer["trace.ticks_per_s"] = {"value": traced["ticks_per_s"], "unit": "1/s"}
        per_layer["trace.overhead_pct"] = {
            "value": 100.0 * (untraced - traced["ticks_per_s"]) / untraced,
            "unit": "%",
        }
        report["per_layer"] = per_layer
        report["traced_tick_ms"] = 1000.0 / traced["ticks_per_s"]
        report["absent"] = traced["trace"]["absent"]
        report["shares"] = {
            layer: t["busy"] / (traced["ticks"] / traced["ticks_per_s"])
            for layer, t in traced["trace"]["timed"].items()
        }
    (base / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")

    print_report(report)
    if not timed or (args.trace and traced is None):
        print("error: no repetition completed; nothing to report", file=sys.stderr)
        return 1
    metrics = report["per_layer"] if args.trace else {
        name: {"value": m["median"], "unit": m["unit"]} for name, m in report["end_to_end"].items()
    }
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']} (scenario seed {report['scenario_seed']})")
    print(f"  processes: {report['attempted']} attempted, {report['failed']} failed")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    for name, m in report.get("end_to_end", {}).items():
        print(f"  {name:<12} {m['median']:.6g} {m['unit']}  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    outputs = report.get("outputs", {})
    scalars = {k: v for k, v in sorted(outputs.items()) if isinstance(v, float)}
    if scalars:
        print("  outputs: " + ", ".join(f"{k} {v:.6g}" for k, v in scalars.items()))
    if report["workload"] == "tracking-grid" and "steady_state_mse" in outputs:
        print(f"  not gated: distributed steady_state_mse {outputs['steady_state_mse']:.4g} "
              "(criterion 10 asks < 5 at dt 0.05 and fails at this commit; gating it would fail every run)")
    if "per_layer" in report:
        print(f"  traced tick {report['traced_tick_ms']:.4g} ms; "
              f"tracing overhead {report['per_layer']['trace.overhead_pct']['value']:.3g}% of untraced ticks/s")
        for layer, share in sorted(report["shares"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<36} {100 * share:6.2f}% of tick (busy)")
        for layer in report["absent"]:
            print(f"    absent: {layer}")
    facts = " ".join(f"{k}={v}" for k, v in report["machine"].items())
    print(f"  machine: {facts}")


if __name__ == "__main__":
    sys.exit(main())
