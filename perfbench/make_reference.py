"""Record the reference values that run.py checks outputs against.

    python3 perfbench/make_reference.py

Runs tracking-info and tracking-grid once per scenario seed, exactly as the
benchmark does, and writes perfbench/reference.json:

- tracking-info: steady_state_mse and mse_gap per seed. Benchmark 2 is a
  linear-Gaussian information filter, so these are closed-form linear
  algebra on fixed inputs and must repeat to rounding.
- tracking-grid: a ceiling on the centralized particle filter's steady MSE,
  twice the largest value over all scenario seeds, with those seeds.

The values describe the code this file is regenerated at; regenerate only
when a change is meant to alter these outputs, and say so.
"""

import json
import sys

from run import HERE, OUT, SCENARIO_SEEDS, start_rep

REL_TOL = 1e-9
CENTRAL_MSE_MARGIN = 2.0


def reference_run(workload: str, seed: int) -> dict:
    rep = start_rep(workload, seed, OUT / "reference" / f"{workload}-{seed}")
    if "error" in rep:
        raise SystemExit(f"{workload} seed {seed}: {rep['error']}")
    return rep["summary"]


def main() -> int:
    seeds = list(range(1, SCENARIO_SEEDS + 1))
    info, central = {}, {}
    for seed in seeds:
        s = reference_run("tracking-info", seed)
        info[str(seed)] = {"steady_state_mse": s["steady_state_mse"], "mse_gap": s["mse_gap"]}
        central[str(seed)] = reference_run("tracking-grid", seed)["steady_state_mse_central"]
        print(f"seed {seed}: {info[str(seed)]}, central MSE {central[str(seed)]:.4g}", flush=True)
    ref = {
        "tracking-info": {"rel_tol": REL_TOL, "per_seed": info},
        "tracking-grid": {
            "central_mse_max": round(CENTRAL_MSE_MARGIN * max(central.values()), 3),
            "rule": f"{CENTRAL_MSE_MARGIN} x the largest centralized steady MSE over derived_from_seeds",
            "derived_from_seeds": seeds,
            "central_mse_per_seed": central,
        },
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
