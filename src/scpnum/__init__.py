"""Rate allocation for streaming flows with S-shaped utilities.

Successive convexification plus dual link pricing: the non-concave
utility problem is transformed source by source, capacity constraints
are linearized at the previous iterate, and link prices steer the
closed-form per-source rate updates to a KKT point.
"""

from .network import (
    Network,
    FeasibilityReport,
    Violation,
    build_network,
    link_load,
    is_feasible,
    DuplicateIdError,
    EmptyRouteError,
    UnknownLinkError,
    NonPositiveCapacityError,
)
from .utility import (
    SCurveUtility,
    eval_scurve,
    inflection_point,
    transform,
    inverse_transform,
    transformed_bounds,
    transformed_utility,
    NegativeTransformedRateError,
)
from .engine import (
    SolverConfig,
    IterateState,
    TraceRecord,
    AllocationResult,
    KKTResidual,
    g_true,
    g_hat,
    update_prices,
    update_rates,
    path_prices,
    solve,
    polish,
    kkt_residual,
    steady_state_check,
    NonPositiveExpansionPointError,
)
from .oracle import (
    GridSpec,
    OracleResult,
    LocalOptReport,
    grid_search,
    local_opt_test,
    fd_gradient_check,
    total_utility,
    perturbation_seed,
    DEFAULT_PERTURBATION_SEED,
    NoFeasiblePointError,
    BudgetExceededError,
    InfeasibleCandidateError,
    DomainBoundaryError,
)
from .agents import (
    Message,
    MessageLog,
    Agents,
    build_agents,
    run_round,
    run_to_convergence,
    export_messages,
    audit_locality,
)
from .scenario import (
    ParseError,
    ScenarioValidationError,
    BUILT_IN_SCENARIOS,
    built_in_scenario,
    parse_scenario,
    load_scenario,
    scenario_to_json,
)

__version__ = "0.1.0"
