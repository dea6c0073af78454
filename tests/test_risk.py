"""Risk engine: frozen reference values and cross-checks against the observer oracle."""

from fractions import Fraction as F

import pytest

from droneprivacy import (
    RiskReport,
    Route,
    Stop,
    abstract_scenario,
    enumerate_worlds,
    posterior_matrix,
    privacy_risks,
    risks_from_posterior,
)


def test_worked_example_exact():
    from droneprivacy.model import parse_route

    report = privacy_risks(parse_route("v1,v2,a2,v3,a3,a1"), abstract_scenario(3))
    assert report.risks == (F(1, 4), F(1, 2), F(1, 2))
    assert report.average == F(5, 12)
    assert report.worst_case == F(1, 2)


def test_strictly_alternating_route_has_maximal_risk():
    from droneprivacy.model import parse_route

    report = privacy_risks(parse_route("v1,a1,v2,a2,v3,a3,v4,a4"), abstract_scenario(4))
    assert report.risks == (F(1),) * 4
    assert report.average == report.worst_case == F(1)


def test_four_order_capacity_two_example():
    from droneprivacy.model import parse_route

    report = privacy_risks(parse_route("v1,v2,a2,v3,a1,v4,a3,a4"), abstract_scenario(4))
    assert report.risks == (F(1, 4), F(1, 2), F(1, 4), F(1, 2))
    assert report.average == F(3, 8)


@pytest.mark.parametrize("n", range(1, 9))
def test_aggregated_route_spreads_risk_uniformly(n):
    route = Route(tuple(Stop("v", i + 1) for i in range(n)) + tuple(Stop("a", i + 1) for i in range(n)))
    report = privacy_risks(route, abstract_scenario(n))
    assert report.risks == (F(1, n),) * n
    assert report.average == report.worst_case == F(1, n)


def test_single_decoy_halves_the_risk():
    # Derived by the observer oracle: two items aboard at the drop, so two
    # equally likely worlds; the diagonal entry is 1/2.
    from droneprivacy.model import parse_route

    scenario = abstract_scenario(1, n_decoys=1)
    route = parse_route("v1,d1,a1")
    worlds = enumerate_worlds(route, scenario)
    assert len(worlds) == 2
    assert all(w.probability == F(1, 2) for w in worlds)
    oracle = risks_from_posterior(posterior_matrix(route, scenario))
    assert oracle == (F(1, 2),)
    assert privacy_risks(route, scenario).risks == (F(1, 2),)


def test_two_decoys_give_one_third():
    from droneprivacy.model import parse_route

    scenario = abstract_scenario(1, n_decoys=2)
    route = parse_route("v1,d1,d2,a1")
    oracle = risks_from_posterior(posterior_matrix(route, scenario))
    assert oracle == (F(1, 3),)
    assert privacy_risks(route, scenario).risks == (F(1, 3),)


def test_decoy_after_drop_changes_nothing():
    from droneprivacy.model import parse_route

    scenario = abstract_scenario(1, n_decoys=1)
    report = privacy_risks(parse_route("v1,a1,d1"), scenario)
    assert report.risks == (F(1),)


def _report(*risks):
    return RiskReport.from_risks(risks, range(1, len(risks) + 1))


def test_vector_aggregates():
    assert _report(F(1, 4), F(1, 2), F(1, 2)).worst_case == F(1, 2)
    assert _report(*(F(1, 5),) * 5).worst_case == F(1, 5)
    assert _report(F(1)).worst_case == F(1)
    assert _report(F(1, 4), F(1, 2), F(1, 2)).average == F(5, 12)
    assert _report(F(1, 4), F(1, 2), F(1, 4), F(1, 2)).average == F(3, 8)
    assert _report(F(1), F(1)).average == F(1)
    # Unequal denominators: the mean and the max are still the exact Fractions.
    assert _report(F(2, 6), F(3, 9), F(1, 6)).average == F(5, 18)
    assert _report(F(1, 3), F(2, 7), F(1, 3)).worst_case == F(1, 3)


def test_vector_aggregates_reject_empty():
    with pytest.raises(ValueError, match="risk vector is empty"):
        RiskReport.from_risks((), ())


def test_invalid_route_rejected():
    from droneprivacy.model import parse_route

    with pytest.raises(ValueError):
        privacy_risks(parse_route("a1,v1"), abstract_scenario(1))


def test_report_is_consistent():
    from droneprivacy.model import parse_route

    report = privacy_risks(parse_route("v1,v2,a2,v3,a3,a1"), abstract_scenario(3))
    assert report.worst_case == max(report.risks)
    assert report.average == sum(report.risks) / len(report.risks)
    assert report.customer_ids == (1, 2, 3)


def test_individual_risks_can_drop_below_uniform_guessing():
    # An order that survives several customer runs can end up rarer than a
    # uniform guess over all items: here risk(1) = 1/4 < 1/3.  Only the
    # worst-case risk is bounded below by 1/(orders + decoys).
    from droneprivacy.model import parse_route

    report = privacy_risks(parse_route("v1,v2,a2,v3,a3,a1"), abstract_scenario(3))
    assert report.risks[0] < F(1, 3)
    assert report.worst_case >= F(1, 3)
