import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbfnet.bounds import ConvergenceParams, steady_state_delta
from dbfnet.cli import _format_value, main, write_metrics
from dbfnet.scenarios import RunMetrics

WORKED_DELTA = math.e - 1.0


def run_cli(*argv):
    return main(list(argv))


def tiny_config(tmp_path, **extra):
    cfg = {
        "scenario": "benchmark1",
        "seed": 3,
        "dt": 0.1,
        "duration": 0.5,
        "n_agents": 3,
        "n_toa": 2,
        "n_doa": 0,
        "particles": 200,
        "grid_cells": [16, 16],
        "comm_radius": 80.0,
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# ----------------------------------------------------------------------- run


def test_run_multiloop_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run",
        "--scenario",
        "multiloop",
        "--outdir",
        str(out),
        "--set",
        "n_loop=3",
        "--set",
        "n_agents=4",
    )
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "tick,agent,metric,value"
    assert len(lines) == 1 + 2 * 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "multiloop"
    assert len(summary["error_norms"]) == 3
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["n_loop"] == 3 and resolved["n_agents"] == 4
    stdout = capsys.readouterr().out
    assert "metrics.csv" in stdout
    assert "error_norms" in stdout


def test_run_benchmark_from_config_file(tmp_path):
    out = tmp_path / "b1"
    code = run_cli("run", "--config", str(tiny_config(tmp_path)), "--outdir", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "benchmark1"
    assert summary["steps"] == 5


def test_run_flag_precedence_over_config(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "run",
        "--config",
        str(tiny_config(tmp_path)),
        "--seed",
        "9",
        "--dt",
        "0.05",
        "--outdir",
        str(out),
    )
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 9 and resolved["dt"] == 0.05


def test_run_repeat_is_byte_identical(tmp_path):
    cfg = tiny_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", str(cfg), "--outdir", str(a)) == 0
    assert run_cli("run", "--config", str(cfg), "--outdir", str(b)) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_run_default_outdir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DBFNET_OUTPUT_ROOT", str(tmp_path / "root"))
    code = run_cli("run", "--scenario", "multiloop", "--set", "n_loop=2", "--set", "seed=7")
    assert code == 0
    assert (tmp_path / "root" / "multiloop-seed7" / "metrics.csv").exists()


def test_run_rejects_unknown_key(tmp_path, capsys):
    code = run_cli(
        "run",
        "--scenario",
        "multiloop",
        "--outdir",
        str(tmp_path / "x"),
        "--set",
        "bogus_knob=3",
    )
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_run_rejects_bad_override_syntax(tmp_path, capsys):
    code = run_cli("run", "--scenario", "multiloop", "--set", "n_loop:3")
    assert code == 2
    assert "key=value" in capsys.readouterr().err


def test_run_rejects_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("run", "--config", str(bad)) == 2
    bad.write_text("[1, 2]", encoding="utf-8")
    assert run_cli("run", "--config", str(bad)) == 2


def test_run_rejects_invalid_scenario_values(tmp_path, capsys):
    code = run_cli(
        "run",
        "--config",
        str(tiny_config(tmp_path, dt=0.033)),
        "--outdir",
        str(tmp_path / "x"),
    )
    assert code == 2


@pytest.mark.parametrize("scenario, dt, duration", [("benchmark1", "0.5", "0.1"), ("benchmark2", "0.02", "0.001")])
def test_run_rejects_a_run_of_no_ticks(tmp_path, capsys, scenario, dt, duration):
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", scenario, "--dt", dt, "--set", f"duration={duration}", "--outdir", str(out))
    assert code == 2
    assert "at least one dt" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_run_rejects_the_removed_bearing_option(tmp_path, capsys):
    code = run_cli(
        "run", "--config", str(tiny_config(tmp_path)), "--set", "doa_printed_order=false", "--outdir", str(tmp_path / "x")
    )
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_run_rejects_invalid_formation_grid(tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", "formation", "--set", "grid_cells=[64]", "--outdir", str(tmp_path / "x")
    )
    assert code == 2
    assert "grid_cells" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["benchmark2", "formation", "multiloop"])
@pytest.mark.parametrize("seed", ["1.5", "abc", "true"])
def test_run_rejects_a_seed_that_is_not_an_integer(tmp_path, capsys, scenario, seed):
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", scenario, "--set", f"seed={seed}", "--outdir", str(out))
    assert code == 2
    assert "seed must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, override, field",
    [
        ("benchmark1", "region=[0,1]", "region"),
        ("benchmark1", "x0=[1,2,3]", "x0"),
        ("benchmark1", "particles=2.5", "particles"),
        ("benchmark1", "grid_cells=[8.5,8]", "grid_cells"),
        ("benchmark1", "n_agents=1.5", "n_agents"),
        ("benchmark2", "n_toa=1.5", "n_toa"),
        ("benchmark2", "n_doa=true", "n_doa"),
        ("formation", "n_agents=3.5", "n_agents"),
        ("formation", "ticks=2.5", "ticks"),
        ("formation", "grid_cells=[16,true]", "grid_cells"),
        ("multiloop", "n_loop=2.5", "n_loop"),
        ("multiloop", "grid_points=8.5", "grid_points"),
    ],
)
def test_run_rejects_a_malformed_count_or_box(tmp_path, capsys, scenario, override, field):
    # counts must be integers, not floats or bools, and a box or start state has 4 entries
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", scenario, "--set", override, "--outdir", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, args, field",
    [
        ("benchmark1", ["--dt", "nan"], "dt"),
        ("benchmark1", ["--set", "region=[0,NaN,0,120]"], "region"),
        ("benchmark2", ["--dt", "nan"], "dt"),
        ("benchmark2", ["--dt", "inf"], "dt"),
        ("benchmark2", ["--dt", "1e308"], "dt"),
        ("benchmark2", ["--dt", "1e-12", "--set", "duration=1e-10"], "dt"),
        ("benchmark2", ["--set", "duration=1e308"], "duration"),
        ("benchmark2", ["--set", "sigma_r=NaN"], "sigma_r"),
        ("benchmark2", ["--set", "comm_radius=NaN"], "comm_radius"),
        ("benchmark2", ["--set", "eta=true"], "eta"),
        ("formation", ["--set", "dt=NaN", "--set", "ticks=3"], "dt"),
        ("formation", ["--set", "half_width=Infinity"], "half_width"),
        ("formation", ["--set", "apf_gain=\"0.1\""], "apf_gain"),
    ],
)
def test_run_rejects_a_float_field_that_is_not_a_finite_real(tmp_path, capsys, scenario, args, field):
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", scenario, *args, "--outdir", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, override, field",
    [
        ("benchmark1", "prior_pos_sigma=-20", "prior_pos_sigma"),
        ("benchmark1", "prior_vel_sigma=-3", "prior_vel_sigma"),
        ("benchmark1", "comm_radius=-5", "comm_radius"),
        ("benchmark2", "prior_vel_sigma=-1e-9", "prior_vel_sigma"),
    ],
)
def test_run_rejects_a_negative_prior_spread_or_radius(tmp_path, capsys, scenario, override, field):
    # a squared spread would drop the sign silently
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", scenario, "--dt", "0.5", "--set", "duration=2", "--set", override,
                   "--outdir", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{field} must be nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param(field, value, id=field if value == "0" else f"{field}-{value}")
        for field in ("prior_pos_sigma", "prior_vel_sigma")
        for value in ("0", "1e-170", "1e200")
    ],
)
def test_benchmark2_rejects_a_zero_prior_spread(tmp_path, capsys, field, value):
    # the information filter inverts the prior covariance; benchmark 1 samples it.
    # 1e-170 squares to 0 and 1e200 to inf, so neither has an inverse in float range
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", "benchmark2", "--dt", "0.5", "--set", "duration=2", "--set", f"{field}={value}",
                   "--outdir", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err
    assert not out.exists()


def test_benchmark1_rejects_a_prior_velocity_spread_whose_square_overflows(tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", "benchmark1", "--dt", "0.5", "--set", "duration=2",
                   "--set", "prior_vel_sigma=1e200", "--outdir", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "prior_vel_sigma" in err
    assert not out.exists()


@pytest.mark.parametrize("override, tick", [("prior_pos_sigma=1e30", 1), ("prior_vel_sigma=1e150", 2)])
def test_benchmark1_window_leaving_float_range_is_a_run_error(tmp_path, capsys, override, tick):
    # the particles start (or move) past float range, and the window follows them
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", "benchmark1", "--dt", "0.5", "--set", "duration=1", "--set", override,
                   "--outdir", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: tick {tick}: the window" in err and "float range" in err
    assert not out.exists()


def test_benchmark1_accepts_a_zero_prior_position_spread(tmp_path):
    out = tmp_path / "x"
    code = run_cli("run", "--scenario", "benchmark1", "--dt", "0.5", "--set", "duration=2", "--set", "particles=1000",
                   "--set", "prior_pos_sigma=0", "--outdir", str(out))
    assert code == 0
    assert (out / "metrics.csv").exists()


# -------------------------------------------------------------------- bounds


def test_bounds_worked_example_json(capsys):
    code = run_cli(
        "bounds",
        "-N",
        "2",
        "--theta-l",
        "1",
        "--sigma-m",
        "0.5",
        "--delta",
        repr(WORKED_DELTA),
        "--eta",
        "0.1",
        "--json",
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta_t_max"] == pytest.approx(0.08838834764831843, abs=1e-12)
    assert out["kappa"] == 1


def test_bounds_plain_output_lists_keys(capsys):
    code = run_cli(
        "bounds", "-N", "3", "--theta-l", "1", "--sigma-m", "0.5", "--delta", "0.5"
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "delta_t_max" in out and "kappa" in out


def test_bounds_unreachable_delta_is_config_error(capsys):
    code = run_cli(
        "bounds",
        "-N",
        "2",
        "--theta-l",
        "1",
        "--sigma-m",
        "0.5",
        "--delta",
        "0.1",
        "--dt-min",
        "0.5",
    )
    assert code == 2
    assert "unreachable" in capsys.readouterr().err


def test_bounds_overflowing_envelope_is_unreachable(capsys):
    # sigma and theta_L of benchmark 1, seed 1: the envelope overflows a float
    code = run_cli(
        "bounds", "-N", "50", "--theta-l", "528", "--sigma-m", "0.938", "--delta", "1.0", "--dt-min", "0.05"
    )
    assert code == 2
    assert "unreachable" in capsys.readouterr().err


def test_bounds_overflowing_static_envelope_is_unreachable(capsys):
    # near sigma_a = 1 the static envelope overflows while the dynamic one stays finite
    args = ("bounds", "-N", "3", "--theta-l", "1", "--sigma-m", "0.5", "--delta", "0.5", "--dt-min", "0.001")
    assert run_cli(*args, "--static-sigma", "0.5", "--json") == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["static_delta_min"])
    assert run_cli(*args, "--static-sigma", "0.9999999", "--json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unreachable" in captured.err and "static_delta_min" in captured.err


def test_bounds_robust_and_gamma_sections(capsys):
    code = run_cli(
        "bounds",
        "-N",
        "2",
        "--theta-l",
        "1",
        "--sigma-m",
        "0.5",
        "--delta",
        repr(WORKED_DELTA),
        "--eta",
        "0.1",
        "--eps-u",
        "0.01",
        "--eps-l",
        "0.01",
        "--gamma",
        "0.4",
        "--json",
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["robust_delta_t_max"] == pytest.approx(
        0.08838834764831843 - 0.03, abs=1e-12
    )
    assert out["sigma_m_bound"] == pytest.approx(math.sqrt(0.2))


def test_bounds_robust_minimum_at_or_above_target_is_unreachable(capsys):
    # the clean minimum stays below the target; the budgets lift the robust one above it at 4e-4
    p = ConvergenceParams(n=5, b=1, theta_l=4.0, sigma_m=0.4, delta=0.3, eta=0.1, eps_u=1e-4, eps_l=1e-4)
    args = ("bounds", "-N", "5", "--theta-l", "4", "--sigma-m", "0.4", "--delta", "0.3", "--eta", "0.1")
    args += ("--eps-u", "0.0001", "--eps-l", "0.0001", "--json")
    assert run_cli(*args, "--dt-min", "0.0001") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["robust_delta_min"] == steady_state_delta(p, 1e-4) < 0.3
    assert run_cli(*args, "--dt-min", "0.0004") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unreachable" in captured.err and "robust_delta_min" in captured.err


def test_bounds_budget_exhausted_is_exit_two(capsys):
    code = run_cli(
        "bounds",
        "-N",
        "2",
        "--theta-l",
        "1",
        "--sigma-m",
        "0.5",
        "--delta",
        repr(WORKED_DELTA),
        "--eta",
        "0.1",
        "--eps-u",
        "1.0",
    )
    assert code == 2



@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.1"])
def test_bounds_rejects_a_dt_min_that_is_not_positive_and_finite(capsys, value):
    code = run_cli("bounds", "-N", "5", "--theta-l", "4", "--sigma-m", "0.4", "--delta", "0.3", "--dt-min", value)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "delta_t must be positive and finite" in captured.err


@pytest.mark.parametrize("flag", ["--d1", "--eps-u", "--eps-l"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_bounds_non_finite_input_is_exit_two(capsys, flag, value):
    code = run_cli("bounds", "-N", "5", "--theta-l", "4", "--sigma-m", "0.4", "--delta", "0.3", flag, value)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{flag[2:].replace('-', '_')} must be finite and nonnegative" in captured.err


# --------------------------------------------------------------- graph-check


def write_edges(path, pairs):
    path.write_text("".join(f"{i} {j}\n" for i, j in pairs), encoding="utf-8")
    return path


def test_graph_check_path_graph(tmp_path, capsys):
    edges = write_edges(tmp_path / "g.txt", [(0, 1), (1, 2)])
    assert run_cli("graph-check", str(edges)) == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
    assert "agents: 3" in out
    assert "clause (i) joint connectivity: pass" in out


def test_graph_check_metropolis_reports_gamma_bound(tmp_path, capsys):
    edges = write_edges(tmp_path / "g.txt", [(0, 1), (1, 2), (2, 3)])
    assert run_cli("graph-check", str(edges), "--weights", "metropolis") == 0
    out = capsys.readouterr().out
    assert "sigma_m bound from gamma" in out


def test_graph_check_disconnected_schedule(tmp_path, capsys):
    edges = write_edges(tmp_path / "g.txt", [(0, 1)])
    assert run_cli("graph-check", str(edges), "-N", "4") == 0
    out = capsys.readouterr().out
    assert "NOT SATISFIED" in out
    assert "clause (i) joint connectivity: FAIL" in out


def test_graph_check_two_slot_schedule(tmp_path, capsys):
    a = write_edges(tmp_path / "a.txt", [(0, 1), (2, 3)])
    b = write_edges(tmp_path / "b.txt", [(1, 2), (0, 3)])
    assert run_cli("graph-check", str(a), str(b), "-b", "2") == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
    assert "b: 2" in out


@pytest.mark.parametrize(
    "lines, extra, named",
    [
        pytest.param("0 1\n1 x\n", (), "bad.txt:2", id="non-integer"),
        pytest.param("0 1\n-1 2\n", (), "bad.txt:2", id="negative"),
        pytest.param("0 1\n\n2 2\n", (), "bad.txt:3", id="self-loop"),
        pytest.param("0 1\n1 4\n", ("-N", "4"), "bad.txt:2", id="beyond-N"),
        pytest.param("0 1\n1 2 3\n", (), "bad.txt:2", id="three-tokens"),
    ],
)
def test_graph_check_bad_edge_file_is_exit_two(tmp_path, capsys, lines, extra, named):
    bad = tmp_path / "bad.txt"
    bad.write_text(lines, encoding="utf-8")
    assert run_cli("graph-check", str(bad), *extra) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


@pytest.mark.parametrize("period", ["0", "-1"])
def test_graph_check_nonpositive_period_is_exit_two(tmp_path, capsys, period):
    edges = write_edges(tmp_path / "g.txt", [(0, 1), (1, 2)])
    assert run_cli("graph-check", str(edges), "-b", period) == 2
    assert "configuration error" in capsys.readouterr().err


def test_graph_check_edge_file_without_edges_names_the_file(tmp_path, capsys):
    empty = tmp_path / "e.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    assert run_cli("graph-check", str(empty)) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "e.txt" in err


def test_graph_check_slots_of_different_sizes_is_exit_two(tmp_path, capsys):
    a = write_edges(tmp_path / "a.txt", [(0, 1), (1, 2)])
    b = write_edges(tmp_path / "b.txt", [(0, 1), (1, 2), (2, 3)])
    assert run_cli("graph-check", str(a), str(b), "-b", "2") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "b.txt" in err


# --------------------------------------------------------------------- sweep


def test_sweep_aggregates_runs(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep",
        "--scenario",
        "multiloop",
        "--param",
        "n_loop",
        "--values",
        "2,3",
        "--seeds",
        "1,2",
        "--outdir",
        str(out),
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("param,value,seed")
    assert len(lines) == 5
    assert (out / "n_loop-2-seed1" / "metrics.csv").exists()
    assert (out / "n_loop-3-seed2" / "summary.json").exists()


def test_sweep_requires_values(tmp_path, capsys):
    code = run_cli(
        "sweep",
        "--scenario",
        "multiloop",
        "--param",
        "n_loop",
        "--values",
        ",",
        "--outdir",
        str(tmp_path / "s"),
    )
    assert code == 2


@pytest.mark.parametrize("seeds, message", [(["--seeds", "1,x"], "--seeds"), (["--seeds", "1.5"], "--seeds"), (["--set", "seed=abc"], "seed must be an integer")])
def test_sweep_rejects_seeds_that_are_not_integers(tmp_path, capsys, seeds, message):
    code = run_cli("sweep", "--scenario", "multiloop", "--param", "n_loop", "--values", "2", *seeds, "--outdir", str(tmp_path / "s"))
    assert code == 2
    assert message in capsys.readouterr().err


def test_sweep_over_seed_points_to_seeds(tmp_path, capsys):
    # the seed of each run comes from --seeds, so --param seed would run one seed over and over
    out = tmp_path / "s"
    code = run_cli("sweep", "--scenario", "multiloop", "--param", "seed", "--values", "2,3", "--outdir", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--seeds" in err
    assert not out.exists()


def test_imports_without_scipy():
    # numpy is the only runtime dependency
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "import dbfnet, dbfnet.cli, dbfnet.scenarios"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_public_surface_is_the_listed_names():
    # adding or removing a public name must be a deliberate edit of this list
    import dbfnet

    public = {name for name, value in vars(dbfnet).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "AdjacencyMatrix", "AdjacencySchedule", "AgentState", "BenchmarkConfig", "ChannelNoise",
        "ConvergenceParams", "DensityGrid", "Digraph", "FormationConfig", "InfoState", "LinearModel",
        "MultiloopConfig", "RunMetrics", "SensorModel", "StateGrid", "TargetModel",
        "bayes_update", "check_assumption1", "dbf_step", "delta_max", "delta_min", "estimate_theta_l",
        "fuse", "info_fuse", "info_measurement", "info_predict", "info_update", "initial_disagreement",
        "inject_channel_noise", "joint_likelihood", "kappa", "kl_divergence", "kl_pool", "l1_distance",
        "local_degree_weights", "logop", "metropolis_weights", "multiloop_bound", "multiloop_fuse",
        "normalized_likelihood", "power_estimate", "predict", "robust_delta_max", "robust_delta_min",
        "run_benchmark_scenario1", "run_benchmark_scenario2", "run_formation", "run_multiloop",
        "second_singular_value", "sigma_m", "sigma_m_bound", "static_bounds", "tv_distance", "update",
        "window_product", "xi_trajectory",
    }


@pytest.mark.parametrize("agents", ["0", "-2"])
def test_graph_check_nonpositive_agent_count_names_n(tmp_path, capsys, agents):
    empty = tmp_path / "e.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    assert run_cli("graph-check", str(empty), "-N", agents) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "-N" in err


# ------------------------------------------------------------------ metrics

_EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308, 1e308, -1e308, 0.1, 1 / 3]
_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_EDGE_VALUES),
).flatmap(lambda v: st.sampled_from([v, np.float64(v)]))
_rows = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.one_of(st.just(-1), st.integers(-1, 10**4), st.integers(-1, 60).map(np.int64)),
        st.sampled_from(["sq_err", "trace_p", "l1_to_joint", "self_sq_err", "error_norm"]),
        _values,
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(rows=_rows)
def test_write_metrics_matches_the_per_row_formatter(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
    write_metrics(path, RunMetrics(rows=rows, summary={}))
    expected = "tick,agent,metric,value\n" + "".join(f"{t},{a},{m},{_format_value(v)}\n" for t, a, m, v in rows)
    assert path.read_bytes() == expected.encode("utf-8")
