"""Paired per-seed accuracy record of benchmark 1: parent checkout against this one.

    python3 tools/accuracy.py --parent PARENT_GIT_CHECKOUT --topic TOPIC

For each of seeds 1-10 it runs benchmark 1 at dt 0.05 (the acceptance
config) and at dt 0.5 (criterion 10's coarse arm) once with the parent's
``src`` and once with this checkout's, each seed and side in its own process
with BLAS on one thread, and writes ``ACC_<TOPIC>.json`` at the root of this
checkout. Per dt, seed and side the record holds the agents' and the
centralized filter's steady MSE (``summary.json``'s values), the median
steady L1 from the agents' fused fields to the joint likelihood, and the
fraction of steady agent-ticks with L1 above 1.9, split into sensing and
relay agents; the steady window is the last quarter of the ticks, as for the
MSE. For both MSEs and each dt it also records the parent's seed-to-seed
spread (range and quartiles), each seed's change against its parent, the
seeds whose change falls outside the parent's range and whether every seed
moved by less than the parent's quartile spread, with the machine facts of a
``BENCH_*.json`` record. The parent is labelled by its short commit hash and
the change by the topic. The record is evidence for a change to benchmark
1's output bits; nothing gates on it. It takes about nine minutes on a
2-core machine, which runs two processes at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from golden_outputs import one_thread_env

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
DTS = (0.05, 0.5)
L1_HIGH = 1.9
RANGE_ROUNDING = 1e-9


def one_seed(seed: int) -> dict:
    """Benchmark 1 at each dt in ``DTS`` on ``seed`` with the ``dbfnet`` on
    the path, as a dict keyed by dt."""
    import numpy as np

    from dbfnet.scenarios import BenchmarkConfig, run_benchmark_scenario1

    out = {}
    for dt in DTS:
        cfg = BenchmarkConfig(seed=seed, dt=dt)
        start = time.perf_counter()
        res = run_benchmark_scenario1(cfg)
        wall = time.perf_counter() - start
        # rows per tick: each agent's sq_err and l1_to_joint in agent order, then the reference's
        l1 = np.array([v for _, _, m, v in res.rows if m == "l1_to_joint"]).reshape(cfg.steps, cfg.n_agents)
        l1 = l1[int(math.floor(0.75 * cfg.steps)) :]
        sensing = cfg.n_toa + cfg.n_doa
        out[str(dt)] = {
            "steady_state_mse": res.summary["steady_state_mse"],
            "steady_state_mse_central": res.summary["steady_state_mse_central"],
            "l1_median": float(np.median(l1)),
            "l1_high_sensing": float((l1[:, :sensing] > L1_HIGH).mean()) if sensing else None,
            "l1_high_relay": float((l1[:, sensing:] > L1_HIGH).mean()) if sensing < cfg.n_agents else None,
            "wall_s": wall,
        }
    return out


def _child(checkout: Path, seed: int) -> dict:
    out = subprocess.run([sys.executable, __file__, "--one", str(seed)], env=one_thread_env(checkout),
                         cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _facts() -> dict:
    """The machine facts of a ``BENCH_*.json`` record, from perfbench's own
    helpers, with BLAS set up as in the runs."""
    os.environ.update(one_thread_env(ROOT))  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy
    import scipy
    from run import machine_facts
    from workload import blas_facts

    child = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    return machine_facts({**child, **blas_facts()})


def summarize(per_seed: dict) -> dict:
    """Per MSE: the parent's seed-to-seed spread (range, quartiles, median),
    the change's median, each seed's change against its parent, the seeds
    whose change falls outside the parent's range, and whether every seed
    moved by less than the parent's quartile spread. A change within
    ``RANGE_ROUNDING`` of a range bound, relative to the bound, counts as
    inside the range."""
    out = {}
    for key in ("steady_state_mse", "steady_state_mse_central"):
        parent = [v["parent"][key] for v in per_seed.values()]
        low, high = min(parent), max(parent)
        inside_low, inside_high = low - RANGE_ROUNDING * abs(low), high + RANGE_ROUNDING * abs(high)
        q1, _, q3 = statistics.quantiles(parent, n=4)
        moves = {seed: v["change"][key] - v["parent"][key] for seed, v in per_seed.items()}
        largest = max(abs(m) for m in moves.values())
        out[key] = {
            "parent_min": low,
            "parent_max": high,
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_quartile_spread": q3 - q1,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(v["change"][key] for v in per_seed.values()),
            "change_minus_parent": moves,
            "max_abs_change": largest,
            "seeds_outside_the_parent_range": [
                seed for seed, v in per_seed.items() if not inside_low <= v["change"][key] <= inside_high
            ],
            "every_seed_moved_less_than_the_quartile_spread": largest < q3 - q1,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path, help="root of the parent's git checkout")
    parser.add_argument("--topic", help="the record is written to ACC_<topic>.json")
    args = parser.parse_args(argv)
    if args.one is not None:
        print(json.dumps(one_seed(args.one)))
        return 0
    if args.parent is None or not args.topic:
        parser.error("--parent and --topic are required")
    parent = args.parent.resolve()
    if not (parent / "src" / "dbfnet").is_dir():
        parser.error(f"no dbfnet sources under {parent / 'src'}")
    label = subprocess.run(["git", "-C", str(parent), "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True, check=True).stdout.strip()

    # each seed is a pair; the two sides of a pair run one after the other
    jobs = [(side, checkout, seed) for seed in SEEDS for side, checkout in (("parent", parent), ("change", ROOT))]
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(min(2, usable)) as pool:
        results = list(pool.map(lambda job: _child(job[1], job[2]), jobs))
    by_dt = {str(dt): {str(seed): {} for seed in SEEDS} for dt in DTS}
    for (side, _, seed), result in zip(jobs, results):
        for dt, values in result.items():
            by_dt[dt][str(seed)][side] = values

    record = {
        "topic": args.topic,
        "parent": label,
        "change": args.topic,
        "command": f"python3 tools/accuracy.py --parent PARENT --topic {args.topic}",
        "machine": _facts(),
        "protocol": {
            "scenario": "benchmark1",
            "dts": list(DTS),
            "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}",
            "config": "BenchmarkConfig defaults otherwise",
            "steady_window": "last quarter of the ticks",
            "l1_high": L1_HIGH,
        },
        "dt": {dt: {"seeds": per_seed, "spread": summarize(per_seed)} for dt, per_seed in by_dt.items()},
    }
    out = ROOT / f"ACC_{args.topic}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    for dt, entry in record["dt"].items():
        for key, v in entry["spread"].items():
            print(f"dt {dt} {key}: median {v['parent_median']:.4g} -> {v['change_median']:.4g}, largest per-seed "
                  f"move {v['max_abs_change']:.3g} against the parent's quartile spread "
                  f"{v['parent_quartile_spread']:.3g}, outside the parent's range: "
                  f"{v['seeds_outside_the_parent_range'] or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
