"""Rate-requirement-aware RF-chain association for dense mmWave networks."""

from .baselines import max_snr, max_sum_rate
from .harness import (
    ExperimentSpec,
    RunRecord,
    emit_results,
    run_experiment,
    run_scheme,
    run_two_step,
)
from .instance import (
    AssociationInstance,
    AssociationSolution,
    FeasibilityReport,
    SolutionMetrics,
    check_feasibility,
    instance_from_capacity,
    make_instance,
    metrics,
    objective_step1,
    weight_term,
)
from .model import (
    ScenarioConfig,
    ScenarioRealization,
    beamforming_gain,
    build_capacity_matrix,
    link_capacity,
    path_loss_db,
    sample_scenario,
)
from .step1 import (
    FractionalSolution,
    NodeBudgetExceeded,
    round_solution,
    solve_step1_exact,
    solve_step1_lp,
)
from .step2flow import (
    FlowNetwork,
    ResidualInstance,
    build_flow_network,
    full_residual,
    make_residual,
    solve_min_cost_flow,
    solve_step2,
    verify_integrality,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
