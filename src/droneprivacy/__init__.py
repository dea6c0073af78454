"""Privacy-risk analysis and privacy-aware routing for drone package delivery.

A third-party observer of broadcast drone trajectories can try to match each
customer to the vendor that served it.  This package computes that matching
probability exactly (rational arithmetic) for any pickup-and-delivery route,
cross-checks it against a brute-force observer model, generates routes with
known privacy profiles, and maps the exact privacy-versus-wait-time Pareto
front for small instances.
"""

from .errors import GuardError, UnknownIdError
from .geometry import (
    UNIT_FIXTURE_MOTION,
    WaitReport,
    generate,
    unit_square_fixture,
    wait_times,
)
from .heuristics import (
    HeuristicParams,
    closed_form_risks,
    instantiate_template,
    ordering_search_is_exact,
    reversal_template,
    split_template,
    stuffing_risk_series,
    stuffing_template,
    template_for,
)
from .io import (
    ScenarioFile,
    format_fraction,
    load_scenario,
    save_scenario,
    write_front_csv,
    write_sweep_csv,
)
from .model import (
    CustomerSite,
    DroneSpec,
    MotionModel,
    Route,
    RouteTemplate,
    Scenario,
    Stop,
    ValidationResult,
    VendorSite,
    abstract_scenario,
    parse_route,
    parse_stop,
    validate_route,
)
from .observer import (
    MAX_OBSERVED_ITEMS,
    ObserverWorld,
    PosteriorMatrix,
    enumerate_worlds,
    posterior_matrix,
    risks_from_posterior,
)
from .risk import RiskReport, privacy_risks
from .search import (
    MAX_DECOY_BUDGET,
    MAX_ORDERS,
    Evaluation,
    ParetoAccumulator,
    ParetoFront,
    ParetoPoint,
    enumerate_routes,
    evaluate,
    min_avg_risk_sweep,
    pareto_front,
    route_count_upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CustomerSite",
    "DroneSpec",
    "Evaluation",
    "GuardError",
    "HeuristicParams",
    "MAX_DECOY_BUDGET",
    "MAX_OBSERVED_ITEMS",
    "MAX_ORDERS",
    "MotionModel",
    "ObserverWorld",
    "ParetoAccumulator",
    "ParetoFront",
    "ParetoPoint",
    "PosteriorMatrix",
    "RiskReport",
    "Route",
    "RouteTemplate",
    "Scenario",
    "ScenarioFile",
    "Stop",
    "UNIT_FIXTURE_MOTION",
    "UnknownIdError",
    "ValidationResult",
    "VendorSite",
    "WaitReport",
    "abstract_scenario",
    "closed_form_risks",
    "enumerate_routes",
    "enumerate_worlds",
    "evaluate",
    "format_fraction",
    "generate",
    "instantiate_template",
    "load_scenario",
    "min_avg_risk_sweep",
    "ordering_search_is_exact",
    "pareto_front",
    "parse_route",
    "parse_stop",
    "posterior_matrix",
    "privacy_risks",
    "reversal_template",
    "risks_from_posterior",
    "route_count_upper_bound",
    "save_scenario",
    "split_template",
    "stuffing_risk_series",
    "stuffing_template",
    "template_for",
    "unit_square_fixture",
    "validate_route",
    "wait_times",
    "write_front_csv",
    "write_sweep_csv",
]
