import math

import numpy as np
import pytest

from dbfnet.bounds import (
    ConvergenceParams,
    delta_max,
    delta_min,
    estimate_theta_l,
    initial_disagreement,
    kappa,
    l1_envelope,
    multiloop_bound,
    robust_delta_max,
    robust_delta_min,
    static_bounds,
    steady_state_delta,
    xi_trajectory,
)
from dbfnet.density import DensityGrid, StateGrid
from dbfnet.errors import DomainError, ErrorBudgetExceeded


def params(**kw):
    base = dict(n=2, b=1, theta_l=1.0, sigma_m=0.5, delta=math.e - 1.0, eta=0.1)
    base.update(kw)
    return ConvergenceParams(**base)


# ------------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(DomainError):
        params(n=1)
    with pytest.raises(DomainError):
        params(b=0)
    with pytest.raises(DomainError):
        params(theta_l=0.0)
    with pytest.raises(DomainError):
        params(sigma_m=1.0)
    with pytest.raises(DomainError):
        params(eta=0.0)
    with pytest.raises(DomainError):
        params(delta=2.0, eta=0.1)
    with pytest.raises(DomainError):
        params(d1=-0.1)
    with pytest.raises(DomainError):
        params(eps_u=-1.0)
    # a non-finite d1 or error budget has no envelope; nan fails every comparison
    for name in ("d1", "eps_u", "eps_l"):
        for value in (math.inf, math.nan):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                params(**{name: value})
    assert params().window == 1
    assert params(n=4, b=2).window == 6


@pytest.mark.parametrize("delta_t", [math.nan, math.inf, 0.0, -0.1])
def test_every_interval_entry_rejects_a_delta_t_that_is_not_positive_and_finite(delta_t):
    # nan passes a test of delta_t <= 0, so each entry tests 0 < delta_t < inf
    p = params()
    d = DensityGrid.uniform(StateGrid((0.0,), (1.0,), (4,)))
    for entry in (
        lambda: delta_min(p, delta_t),
        lambda: steady_state_delta(p, delta_t),
        lambda: static_bounds(p, 0.5, delta_t),
        lambda: xi_trajectory(p, delta_t, 5),
        lambda: estimate_theta_l([(d, d)], delta_t),
    ):
        with pytest.raises(DomainError, match="delta_t must be positive and finite"):
            entry()


# ---------------------------------------------------------------- delta_max


def test_delta_max_worked_example():
    # 0.5 * log(e) / (2*1*2*1*sqrt(2)*1) = 0.5 / (4 sqrt 2)
    assert delta_max(params()) == pytest.approx(0.08838834764831843, abs=1e-12)


def test_delta_max_halves_when_drift_doubles():
    assert delta_max(params(theta_l=2.0)) == pytest.approx(delta_max(params()) / 2.0)


def test_delta_max_vanishes_as_sigma_tends_to_one():
    assert delta_max(params(sigma_m=1.0 - 1e-9)) < 1e-9
    assert delta_max(params(sigma_m=0.99)) < delta_max(params(sigma_m=0.5))


# ---------------------------------------------------------------- delta_min


def test_delta_round_trip():
    for p in (params(), params(n=5, b=2, sigma_m=0.3, delta=0.2), params(theta_l=3.7)):
        assert delta_min(p, delta_max(p)) == pytest.approx(p.delta, abs=1e-12)


def test_delta_min_worked_inverse():
    assert delta_min(params(), 0.08838834764831843) == pytest.approx(math.e - 1.0, abs=1e-9)


def test_delta_min_vanishes_with_interval():
    assert delta_min(params(), 1e-12) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        delta_min(params(), 0.0)


# -------------------------------------------------------------------- kappa


def test_kappa_agreement_at_start():
    assert kappa(params(d1=0.0)) == 1


def test_kappa_boundary_inclusive():
    p = params(delta=0.5)
    threshold = math.log(1.5) / p.n**1.5
    assert kappa(params(delta=0.5, d1=threshold)) == 1
    # past the transient band (1+eta)*delta, not merely past the threshold
    assert kappa(params(delta=0.5, d1=threshold * 1.2)) > 1


def test_kappa_hand_example():
    p = ConvergenceParams(n=3, b=1, theta_l=1.0, sigma_m=0.5, delta=0.5, eta=0.5, d1=1.0)
    assert kappa(p) == 11


def test_kappa_zero_sigma_needs_one_window():
    p = ConvergenceParams(n=4, b=2, theta_l=1.0, sigma_m=0.0, delta=0.5, eta=0.5, d1=3.0)
    assert kappa(p) == p.window + 1


def scan_kappa(p, k_max=20000):
    env = l1_envelope(p, delta_max(p), k_max)
    hits = np.nonzero(env <= (1.0 + p.eta) * p.delta)[0]
    assert hits.size, "envelope never entered the transient band"
    return int(hits[0]) + 1


def test_kappa_matches_envelope_scan_on_random_draws():
    # the closed form relaxes the floor in the window exponent, so it can
    # differ from the literal envelope scan by at most one window length
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        b = int(rng.integers(1, 3))
        eta = float(rng.uniform(0.05, 0.95))
        delta = float(rng.uniform(0.05, 0.95)) * 2.0 / (1.0 + eta)
        p = ConvergenceParams(
            n=n,
            b=b,
            theta_l=float(rng.uniform(0.1, 5.0)),
            sigma_m=float(rng.uniform(0.05, 0.9)),
            delta=delta,
            eta=eta,
            d1=float(rng.uniform(0.0, 4.0)),
        )
        assert abs(kappa(p) - scan_kappa(p)) <= p.window


# ------------------------------------------------------------ xi_trajectory


def test_xi_starts_at_initial_disagreement():
    p = params(n=3, d1=1.3, delta=0.5)
    xi = xi_trajectory(p, 0.01, 5)
    assert xi[0] == pytest.approx(math.sqrt(3) * 1.3)


def test_xi_limits_to_steady_term():
    p = params(n=3, b=2, sigma_m=0.4, d1=2.0, delta=0.5)
    dt = 0.01
    c = 2.0 * p.window * math.sqrt(p.n) * dt * p.theta_l / (1.0 - p.sigma_m)
    xi = xi_trajectory(p, dt, 5000)
    assert xi[-1] == pytest.approx(c, rel=1e-9)
    assert np.all(np.diff(xi) <= 1e-15)


def test_xi_constant_at_fixed_point():
    p = params(n=4, sigma_m=0.6, delta=0.5)
    dt = 0.02
    c = 2.0 * p.window * math.sqrt(p.n) * dt * p.theta_l / (1.0 - p.sigma_m)
    q = params(n=4, sigma_m=0.6, delta=0.5, d1=c / math.sqrt(p.n))
    xi = xi_trajectory(q, dt, 50)
    np.testing.assert_allclose(xi, c)


def test_envelope_is_expm1_of_xi():
    p = params(n=3, d1=0.8, delta=0.5)
    xi = xi_trajectory(p, 0.05, 10)
    np.testing.assert_allclose(l1_envelope(p, 0.05, 10), np.expm1(3 * xi))


def test_steady_state_delta_inverts_delta_max():
    for p in (params(), params(n=5, b=2, sigma_m=0.3, delta=0.2)):
        assert steady_state_delta(p, delta_max(p)) == pytest.approx(p.delta, abs=1e-12)


def test_steady_state_delta_includes_budgets():
    clean = steady_state_delta(params(), 0.05)
    noisy = steady_state_delta(params(eps_u=0.01, eps_l=0.01), 0.05)
    assert noisy > clean


# ------------------------------------------------------------ static graphs


def test_static_matches_dynamic_when_window_is_one():
    p = params()  # n=2, b=1 gives window exactly 1
    sb = static_bounds(p, p.sigma_m)
    assert sb.delta_t_max == pytest.approx(delta_max(p), abs=1e-15)
    assert sb.kappa == kappa(p)


def test_static_complete_graph_value():
    p = params(n=4, delta=0.5)
    sb = static_bounds(p, 0.0)
    expected = math.log(1.5) / (2.0 * 4 * math.sqrt(4.0) * p.theta_l)
    assert sb.delta_t_max == pytest.approx(expected)


def test_static_degenerate_rate():
    p = params(n=4, delta=0.5)
    assert static_bounds(p, 1.0 - 1e-9).delta_t_max < 1e-9
    with pytest.raises(DomainError):
        static_bounds(p, 1.0)


def test_static_reports_delta_min_when_asked():
    p = params(n=3, delta=0.5)
    sb = static_bounds(p, 0.2, delta_t_min=0.001)
    assert sb.delta_min is not None and sb.delta_min > 0
    assert static_bounds(p, 0.2).delta_min is None


# ------------------------------------------------------------- robustness


def test_robust_reduces_to_clean_bound():
    assert robust_delta_max(params()) == pytest.approx(delta_max(params()))


def test_robust_worked_example():
    p = params(eps_u=0.01, eps_l=0.01)
    assert robust_delta_max(p) == pytest.approx(0.08838834764831843 - 0.03, abs=1e-12)


def test_robust_budget_exhaustion():
    with pytest.raises(ErrorBudgetExceeded):
        robust_delta_max(params(eps_u=1.0))


def test_robust_never_exceeds_clean():
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = params(
            n=int(rng.integers(2, 6)),
            sigma_m=float(rng.uniform(0.0, 0.9)),
            delta=0.5,
            eps_u=float(rng.uniform(0.0, 0.01)),
            eps_l=float(rng.uniform(0.0, 0.01)),
        )
        try:
            robust = robust_delta_max(p)
        except ErrorBudgetExceeded:
            continue
        clean = delta_max(p)
        assert robust <= clean + 1e-15
        if p.eps_u == 0.0 and p.eps_l == 0.0:
            assert robust == pytest.approx(clean)


def test_robust_delta_min_exceeds_clean():
    p = params(eps_u=0.02, eps_l=0.01)
    assert robust_delta_min(p, 0.01) > delta_min(p, 0.01)


def test_steady_envelope_saturates_at_inf():
    # benchmark 1's own regime: sigma and theta_L measured on seed 1
    p = ConvergenceParams(n=50, b=1, theta_l=528.0, sigma_m=0.938, delta=1.0, eta=0.5)
    assert delta_min(p, 0.05) == math.inf
    assert steady_state_delta(p, 0.05) == math.inf
    assert robust_delta_min(p, 0.05) == math.inf
    assert static_bounds(p, 0.938, delta_t_min=0.05).delta_min == math.inf
    assert robust_delta_min(params(eps_u=0.02), 0.01) == steady_state_delta(params(eps_u=0.02), 0.01)


# ---------------------------------------------------------------- multiloop


def test_multiloop_values():
    assert multiloop_bound(9, 0.7, 1) == pytest.approx(6.0)
    assert multiloop_bound(5, 0.0, 2) == 0.0
    assert multiloop_bound(4, 0.5, 3) == pytest.approx(1.0)


def test_multiloop_monotone_decreasing():
    vals = [multiloop_bound(6, 0.8, k) for k in range(1, 11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_multiloop_domain():
    with pytest.raises(DomainError):
        multiloop_bound(0, 0.5, 1)
    with pytest.raises(DomainError):
        multiloop_bound(3, 1.5, 1)
    with pytest.raises(DomainError):
        multiloop_bound(3, 0.5, 0)


# ------------------------------------------------------- empirical quantities


def test_theta_estimate_identical_pair_is_zero():
    g = StateGrid((-3.0,), (3.0,), (16,))
    p = DensityGrid.gaussian(g, 0.0, [[1.0]])
    assert estimate_theta_l([(p, p)], 0.1) == 0.0


def test_theta_estimate_uniform_scaling_normalizes_away():
    g = StateGrid((-3.0,), (3.0,), (16,))
    p = DensityGrid.gaussian(g, 0.0, [[1.0]])
    q = DensityGrid.from_values(g, p.values * 5.0)
    assert estimate_theta_l([(p, q)], 0.1) <= 1e-12


def test_theta_estimate_matches_hand_computation():
    # three cells at -1, 0, 1; unit Gaussian stepped by s=0.5
    g = StateGrid((-1.5,), (1.5,), (3,))
    prev = DensityGrid.gaussian(g, 0.0, [[1.0]])
    cur = DensityGrid.gaussian(g, 0.5, [[1.0]])
    dt = 0.25
    centers = np.array([-1.0, 0.0, 1.0])
    raw_prev = -0.5 * centers**2
    raw_cur = -0.5 * (centers - 0.5) ** 2
    log_prev = raw_prev - np.log(np.exp(raw_prev).sum())
    log_cur = raw_cur - np.log(np.exp(raw_cur).sum())
    expected = np.abs(log_cur - log_prev).max() / dt
    assert estimate_theta_l([(prev, cur)], dt) == pytest.approx(expected, rel=1e-9)


def test_initial_disagreement_hand_case():
    g = StateGrid((0.0,), (2.0,), (2,))
    p = DensityGrid.from_values(g, np.array([0.8, 0.2]))
    q = DensityGrid.from_values(g, np.array([0.2, 0.8]))
    assert initial_disagreement([p, q]) == pytest.approx(2.0 * math.log(4.0))
    assert initial_disagreement([p, p]) == 0.0
