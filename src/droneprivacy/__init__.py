"""Privacy-risk analysis and privacy-aware routing for drone package delivery.

A third-party observer of broadcast drone trajectories can try to match each
customer to the vendor that served it.  This package computes that matching
probability exactly (rational arithmetic) for any pickup-and-delivery route,
cross-checks it against a brute-force observer model, generates routes with
known privacy profiles, and maps the exact privacy-versus-wait-time Pareto
front for small instances.
"""

from importlib import import_module

# Each public name and the submodule it lives in.  A name is imported from its submodule on first use
# (PEP 562) and then kept in this namespace, so ``import droneprivacy`` loads no submodule and a
# command-line run loads only the ones its command needs.
_EXPORTS = {
    **dict.fromkeys(("GuardError", "UnknownIdError"), "errors"),
    **dict.fromkeys(("UNIT_FIXTURE_MOTION", "WaitReport", "generate", "unit_square_fixture", "wait_times"),
                    "geometry"),
    **dict.fromkeys(("HeuristicParams", "closed_form_risks", "instantiate_template", "ordering_search_is_exact",
                     "reversal_template", "split_template", "stuffing_risk_series", "stuffing_template",
                     "template_for"), "heuristics"),
    **dict.fromkeys(("ScenarioFile", "format_fraction", "load_scenario", "save_scenario", "write_front_csv",
                     "write_sweep_csv"), "io"),
    **dict.fromkeys(("CustomerSite", "DroneSpec", "MotionModel", "Route", "RouteTemplate", "Scenario", "Stop",
                     "ValidationResult", "VendorSite", "abstract_scenario", "parse_route", "parse_stop",
                     "validate_route"), "model"),
    **dict.fromkeys(("MAX_OBSERVED_ITEMS", "ObserverWorld", "PosteriorMatrix", "enumerate_worlds",
                     "posterior_matrix", "risks_from_posterior"), "observer"),
    **dict.fromkeys(("RiskReport", "privacy_risks"), "risk"),
    **dict.fromkeys(("MAX_DECOY_BUDGET", "MAX_ORDERS", "Evaluation", "ParetoAccumulator", "ParetoFront",
                     "ParetoPoint", "enumerate_routes", "evaluate", "min_avg_risk_sweep", "pareto_front",
                     "route_count_upper_bound"), "search"),
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name, or a submodule, on first use; later reads find it in the namespace."""
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
