"""Command line harness: run scenarios, print bounds, check schedules, sweep.

Exit codes: 0 on success, 1 on runtime failure, 2 on configuration or usage
errors. Every run directory receives the resolved configuration next to the
metrics, and re-running that configuration reproduces metrics.csv byte for
byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path

from .bounds import (
    ConvergenceParams,
    delta_max,
    delta_min,
    kappa,
    robust_delta_max,
    robust_delta_min,
    static_bounds,
)
from .errors import ConfigInvalid, DbfError, DomainError, ErrorBudgetExceeded
from .scenarios import (
    BenchmarkConfig,
    FormationConfig,
    MultiloopConfig,
    RunMetrics,
    run_benchmark_scenario1,
    run_benchmark_scenario2,
    run_formation,
    run_multiloop,
)
from .topology import (
    AdjacencySchedule,
    check_assumption1,
    load_edge_list,
    local_degree_weights,
    metropolis_weights,
    sigma_m,
    sigma_m_bound,
)

ENV_OUTPUT_ROOT = "DBFNET_OUTPUT_ROOT"

_SCENARIOS = {
    "benchmark1": (BenchmarkConfig, run_benchmark_scenario1),
    "benchmark2": (BenchmarkConfig, run_benchmark_scenario2),
    "formation": (FormationConfig, run_formation),
    "multiloop": (MultiloopConfig, run_multiloop),
}


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigInvalid("config root must be a JSON object")
        cfg.update(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigInvalid(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        cfg[key.strip()] = _parse_value(value.strip())
    return cfg


def build_scenario(cfg: dict):
    scenario = cfg.get("scenario")
    if scenario not in _SCENARIOS:
        raise ConfigInvalid(
            f"scenario must be one of {sorted(_SCENARIOS)}, got {scenario!r}"
        )
    cls, runner = _SCENARIOS[scenario]
    fields = {f.name for f in dataclasses.fields(cls)}
    body = {k: v for k, v in cfg.items() if k not in ("scenario", "outdir")}
    unknown = set(body) - fields
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    try:
        return cls(**body), runner
    except TypeError as exc:
        raise ConfigInvalid(str(exc))


def _format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_metrics(path: Path, metrics: RunMetrics) -> None:
    """Write the rows as ``tick,agent,metric,value`` lines; values are floats,
    printed with 17 significant digits so that they read back exactly."""
    body = "%d,%d,%s,%.17g\n" * len(metrics.rows) % tuple(chain.from_iterable(metrics.rows))
    path.write_text("tick,agent,metric,value\n" + body, encoding="utf-8")


def _output_dir(cfg: dict, explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    if "outdir" in cfg:
        return Path(str(cfg["outdir"]))
    root = Path(os.environ.get(ENV_OUTPUT_ROOT, "runs"))
    scenario = cfg.get("scenario", "run")
    seed = cfg.get("seed", 1)
    return root / f"{scenario}-seed{seed}"


def _execute_run(cfg: dict, outdir: Path) -> RunMetrics:
    config_obj, runner = build_scenario(cfg)
    metrics = runner(config_obj)
    outdir.mkdir(parents=True, exist_ok=True)
    write_metrics(outdir / "metrics.csv", metrics)
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(metrics.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(outdir / "resolved_config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.set or [])
    if args.scenario:
        cfg["scenario"] = args.scenario
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.dt is not None:
        cfg["dt"] = args.dt
    outdir = _output_dir(cfg, args.outdir)
    metrics = _execute_run(cfg, outdir)
    print(f"wrote {outdir / 'metrics.csv'}")
    for key, value in sorted(metrics.summary.items()):
        print(f"  {key}: {value}")
    return 0


def _bounds_payload(args) -> dict:
    p = ConvergenceParams(
        n=args.agents,
        b=args.period,
        theta_l=args.theta_l,
        sigma_m=args.sigma_m,
        delta=args.delta,
        eta=args.eta,
        d1=args.d1,
        eps_u=args.eps_u,
        eps_l=args.eps_l,
    )
    out: dict = {
        "n": p.n,
        "b": p.b,
        "sigma_m": p.sigma_m,
        "delta": p.delta,
        "delta_t_max": delta_max(p),
        "kappa": kappa(p),
    }
    if args.dt_min is not None:
        out["delta_min"] = delta_min(p, args.dt_min)
    if args.eps_u > 0 or args.eps_l > 0:
        out["robust_delta_t_max"] = robust_delta_max(p)
        if args.dt_min is not None:
            out["robust_delta_min"] = robust_delta_min(p, args.dt_min)
    if args.static_sigma is not None:
        sb = static_bounds(p, args.static_sigma, args.dt_min)
        out["static_delta_t_max"] = sb.delta_t_max
        out["static_kappa"] = sb.kappa
        if sb.delta_min is not None:
            out["static_delta_min"] = sb.delta_min
    if args.gamma is not None:
        out["sigma_m_bound"] = sigma_m_bound(args.agents, args.gamma)
    # a smallest achievable error at or above the target makes it unreachable;
    # an envelope that overflows a float reads inf, which JSON cannot carry
    for key in ("delta_min", "robust_delta_min", "static_delta_min"):
        if p.delta <= out.get(key, -math.inf):
            raise ConfigInvalid(
                f"target delta {p.delta:.6g} is unreachable: {key} at dt_min {args.dt_min:.6g} is {out[key]:.6g}"
            )
    return out


def cmd_bounds(args) -> int:
    out = _bounds_payload(args)
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        width = max(len(k) for k in out)
        for key, value in out.items():
            shown = format(value, ".6g") if isinstance(value, float) else value
            print(f"{key.ljust(width)}  {shown}")
    return 0


def cmd_graph_check(args) -> int:
    weight_fn = {"local-degree": local_degree_weights, "metropolis": metropolis_weights}[
        args.weights
    ]
    if args.agents is not None and args.agents < 1:
        raise ConfigInvalid(f"-N must be at least 1, got {args.agents}")
    matrices = []
    for path in args.edges:
        try:
            graph = load_edge_list(path, n=args.agents)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None
        if matrices and graph.n != matrices[0].n:
            raise ConfigInvalid(f"{path} has {graph.n} nodes but {args.edges[0]} has {matrices[0].n}; set -N")
        # a single slot may be disconnected; the schedule check covers
        # connectivity over whole windows
        matrices.append(weight_fn(graph, require_connected=False))
    try:
        schedule = AdjacencySchedule(tuple(matrices), args.period)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    report = check_assumption1(schedule)
    rate = sigma_m(schedule)
    print(f"slots: {schedule.period}  b: {report.b}  agents: {schedule.n}")
    print(f"gamma: {report.gamma:.6g}")
    print(
        f"double stochasticity residuals: row {report.max_row_residual:.3g}, "
        f"col {report.max_col_residual:.3g}"
    )
    print(f"sigma_m over b(n-1) windows: {rate:.6g}")
    if report.gamma_ok:
        print(f"sigma_m bound from gamma: {sigma_m_bound(schedule.n, report.gamma):.6g}")
    print(f"clause (i) joint connectivity: {'pass' if report.connectivity_ok else 'FAIL'}")
    print(f"clause (ii) double stochasticity: {'pass' if report.doubly_stochastic_ok else 'FAIL'}")
    print(f"clause (iii) entry bound: {'pass' if report.gamma_ok else 'warn'}")
    for line in report.failures:
        print(f"failure: {line}")
    for line in report.warnings:
        print(f"warning: {line}")
    print("result:", "ok" if report.ok else "NOT SATISFIED")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set or [])
    if args.scenario:
        cfg["scenario"] = args.scenario
    if args.param == "seed":
        raise ConfigInvalid("sweep sets the seed of each run from --seeds; use --seeds, not --param seed")
    values = [_parse_value(v) for v in args.values.split(",") if v.strip() != ""]
    if not values:
        raise ConfigInvalid("sweep needs at least one value")
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.get("seed", 1)]
    except ValueError:
        raise ConfigInvalid(f"--seeds must be comma separated integers, got {args.seeds!r}") from None
    root = Path(args.outdir) if args.outdir else _output_dir(cfg, None).parent / "sweep"
    root.mkdir(parents=True, exist_ok=True)

    agg_path = root / "sweep.csv"
    header = ["param", "value", "seed", "steady_state_mse", "steady_state_mse_central", "mse_gap", "max_l1_final_window"]
    agg_lines = [",".join(header)]
    agg_path.write_text("\n".join(agg_lines) + "\n", encoding="utf-8")

    for value in values:
        for seed in seeds:
            run_cfg = dict(cfg)
            run_cfg[args.param] = value
            run_cfg["seed"] = seed
            subdir = root / f"{args.param}-{value}-seed{seed}"
            metrics = _execute_run(run_cfg, subdir)
            s = metrics.summary
            fields = [
                args.param,
                _format_value(value),
                str(seed),
                _format_value(s.get("steady_state_mse", "")),
                _format_value(s.get("steady_state_mse_central", "")),
                _format_value(s.get("mse_gap", "")),
                _format_value(s.get("max_l1_final_window", "")),
            ]
            agg_lines.append(",".join(str(x) for x in fields))
            # flush after every run so partial sweeps leave usable output
            agg_path.write_text("\n".join(agg_lines) + "\n", encoding="utf-8")
            print(f"{args.param}={value} seed={seed}: done")
    print(f"wrote {agg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbfnet",
        description="Distributed density fusion simulator and bound calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write metrics")
    run_p.add_argument("--config", help="JSON configuration file")
    run_p.add_argument("--scenario", choices=sorted(_SCENARIOS))
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--dt", type=float)
    run_p.add_argument("--outdir")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    run_p.set_defaults(func=cmd_run)

    bounds_p = sub.add_parser("bounds", help="print sampling interval and error bounds")
    bounds_p.add_argument("-N", "--agents", type=int, required=True)
    bounds_p.add_argument("-b", "--period", type=int, default=1)
    bounds_p.add_argument("--theta-l", dest="theta_l", type=float, required=True)
    bounds_p.add_argument("--sigma-m", dest="sigma_m", type=float, required=True)
    bounds_p.add_argument("--delta", type=float, required=True)
    bounds_p.add_argument("--eta", type=float, default=0.5)
    bounds_p.add_argument("--d1", type=float, default=0.0)
    bounds_p.add_argument("--eps-u", dest="eps_u", type=float, default=0.0)
    bounds_p.add_argument("--eps-l", dest="eps_l", type=float, default=0.0)
    bounds_p.add_argument("--dt-min", dest="dt_min", type=float)
    bounds_p.add_argument("--static-sigma", dest="static_sigma", type=float)
    bounds_p.add_argument("--gamma", type=float)
    bounds_p.add_argument("--json", action="store_true")
    bounds_p.set_defaults(func=cmd_bounds)

    graph_p = sub.add_parser("graph-check", help="validate a communication schedule")
    graph_p.add_argument("edges", nargs="+", help="edge list files, one per slot")
    graph_p.add_argument("-b", "--period", type=int, default=1)
    graph_p.add_argument("-N", "--agents", type=int, default=None)
    graph_p.add_argument(
        "--weights", choices=["local-degree", "metropolis"], default="local-degree"
    )
    graph_p.set_defaults(func=cmd_graph_check)

    sweep_p = sub.add_parser("sweep", help="run a scenario over a parameter list")
    sweep_p.add_argument("--config", help="JSON configuration file")
    sweep_p.add_argument("--scenario", choices=sorted(_SCENARIOS))
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", required=True, help="comma separated values")
    sweep_p.add_argument("--seeds", help="comma separated seeds")
    sweep_p.add_argument("--outdir")
    sweep_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep_p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigInvalid, DomainError, ErrorBudgetExceeded) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
