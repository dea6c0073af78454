"""The package namespace: each public name is imported from its home submodule on first use."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import droneprivacy

PUBLIC_NAMES = [
    "CustomerSite", "DroneSpec", "Evaluation", "GuardError", "HeuristicParams", "MAX_DECOY_BUDGET",
    "MAX_OBSERVED_ITEMS", "MAX_ORDERS", "MotionModel", "ObserverWorld", "ParetoAccumulator", "ParetoFront",
    "ParetoPoint", "PosteriorMatrix", "RiskReport", "Route", "RouteTemplate", "Scenario", "ScenarioFile",
    "Stop", "UNIT_FIXTURE_MOTION", "UnknownIdError", "ValidationResult", "VendorSite", "WaitReport",
    "abstract_scenario", "closed_form_risks", "enumerate_routes", "enumerate_worlds", "evaluate",
    "format_fraction", "generate", "instantiate_template", "load_scenario", "min_avg_risk_sweep",
    "ordering_search_is_exact", "pareto_front", "parse_route", "parse_stop", "posterior_matrix",
    "privacy_risks", "reversal_template", "risks_from_posterior", "route_count_upper_bound", "save_scenario",
    "split_template", "stuffing_risk_series", "stuffing_template", "template_for", "unit_square_fixture",
    "validate_route", "wait_times", "write_front_csv", "write_sweep_csv",
]

HOME_MODULES = ("errors", "geometry", "heuristics", "io", "model", "observer", "risk", "search")


def test_all_lists_the_public_names_in_order():
    assert droneprivacy.__all__ == PUBLIC_NAMES


def _home(name):
    """The submodule that defines ``name``: a class's or function's ``__module__``, else the one submodule
    that binds the constant."""
    modules = [importlib.import_module(f"droneprivacy.{module}") for module in HOME_MODULES]
    binding = [module for module in modules if name in vars(module)]
    value = vars(binding[0])[name]
    if inspect.isclass(value) or inspect.isfunction(value):
        return importlib.import_module(value.__module__)
    (home,) = binding
    return home


def test_each_name_is_its_home_modules_object_and_stays_bound():
    for name in PUBLIC_NAMES:
        home = _home(name)
        assert getattr(droneprivacy, name) is getattr(home, name), name
        assert vars(droneprivacy)[name] is getattr(home, name), name


def test_star_import_and_dir_cover_every_public_name():
    namespace = {}
    exec("from droneprivacy import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(droneprivacy, name), name
    assert set(PUBLIC_NAMES) <= set(dir(droneprivacy))
    assert "__version__" in dir(droneprivacy)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        droneprivacy.no_such_name
    assert not hasattr(droneprivacy, "evaluate_routes")
    with pytest.raises(ImportError):
        exec("from droneprivacy import no_such_name", {})


def test_submodules_still_import_from_the_package():
    from droneprivacy import geometry, search

    assert geometry is importlib.import_module("droneprivacy.geometry")
    assert search.pareto_front is droneprivacy.pareto_front


def test_a_submodule_attribute_imports_it_on_first_read():
    """Before anything imports ``droneprivacy.search``, reading it from the package imports it."""
    src = str(Path(droneprivacy.__file__).resolve().parents[1])
    code = ("import sys, droneprivacy; assert 'droneprivacy.search' not in sys.modules; "
            "print(droneprivacy.search.pareto_front is droneprivacy.pareto_front)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
