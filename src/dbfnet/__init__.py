"""Distributed Bayesian density fusion over time-varying sensor networks."""

from .density import (
    DensityGrid,
    LogRatioField,
    StateGrid,
    find_psi,
    kl_divergence,
    l1_distance,
    log_ratio,
    normalize,
    tv_distance,
)
from .pools import PoolWeights, bayes_update, joint_likelihood, kl_pool, linop, logop
from .topology import (
    AdjacencyMatrix,
    AdjacencySchedule,
    Digraph,
    check_assumption1,
    local_degree_weights,
    metropolis_weights,
    second_singular_value,
    sigma_m,
    sigma_m_bound,
    window_product,
)
from .bounds import (
    ConvergenceParams,
    delta_max,
    delta_min,
    estimate_theta_l,
    initial_disagreement,
    kappa,
    multiloop_bound,
    robust_delta_max,
    robust_delta_min,
    static_bounds,
    xi_trajectory,
)
from .engine import (
    AgentState,
    ChannelNoise,
    SensorModel,
    TargetModel,
    dbf_step,
    fuse,
    inject_channel_noise,
    multiloop_fuse,
    normalized_likelihood,
    power_estimate,
    predict,
    update,
)
from .infofilter import (
    InfoState,
    LinearModel,
    info_fuse,
    info_measurement,
    info_predict,
    info_update,
)
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

__version__ = "0.1.0"
