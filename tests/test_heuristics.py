"""Heuristic templates, closed-form risks, and template instantiation."""

import math
from fractions import Fraction as F

import pytest

from droneprivacy import (
    DroneSpec,
    GuardError,
    HeuristicParams,
    RouteTemplate,
    Stop,
    UNIT_FIXTURE_MOTION,
    abstract_scenario,
    closed_form_risks,
    instantiate_template,
    ordering_search_is_exact,
    privacy_risks,
    reversal_template,
    split_template,
    stuffing_risk_series,
    stuffing_template,
    template_for,
    unit_square_fixture,
    validate_route,
    wait_times,
)


def tokens_of(template):
    return template.flatten().tokens


def test_split_template_structure():
    assert tokens_of(split_template(6, 3, 3)) == "v1,v2,v3,a1,a2,a3,v4,v5,v6,a4,a5,a6"
    assert tokens_of(split_template(2, 1, 1)) == "v1,a1,v2,a2"
    assert tokens_of(split_template(3, 2, 1)) == "v1,v2,a1,a2,v3,a3"


def test_reversal_template_structure():
    assert tokens_of(reversal_template(6, 1)) == "v1,v2,v3,v4,v5,a1,v6,a2,a3,a4,a5,a6"
    assert tokens_of(reversal_template(4, 0)) == "v1,v2,v3,v4,a1,a2,a3,a4"
    assert tokens_of(reversal_template(3, 1)) == "v1,v2,a1,v3,a2,a3"


def test_stuffing_template_structure():
    assert tokens_of(stuffing_template(3, 2)) == "v1,v2,a1,v3,a2,a3"
    assert tokens_of(stuffing_template(3, 3)) == "v1,v2,v3,a1,a2,a3"
    assert tokens_of(stuffing_template(5, 2)) == "v1,v2,a1,v3,a2,v4,a3,v5,a4,a5"


@pytest.mark.parametrize(
    "kind,kwargs",
    [
        ("split", dict(k=0, l=3)),
        ("split", dict(k=2, l=2)),  # k + l != n for n=3
        ("reversal", dict(k=2)),  # n=3 < 2k
        ("reversal", dict(k=-1)),
        ("stuffing", dict(c=0)),
        ("stuffing", dict(c=4)),  # c > n
    ],
)
def test_parameter_validation(kind, kwargs):
    with pytest.raises(ValueError):
        HeuristicParams(kind, 3, **kwargs)


def test_split_closed_form():
    report = closed_form_risks(HeuristicParams("split", 6, k=3, l=3))
    assert report.risks == (F(1, 3),) * 6
    assert report.worst_case == F(1, 3)
    assert report.average == F(1, 3)
    lopsided = closed_form_risks(HeuristicParams("split", 6, k=5, l=1))
    assert lopsided.risks == (F(1, 5),) * 5 + (F(1),)
    assert lopsided.worst_case == F(1)


def test_split_average_is_independent_of_split_point():
    for n in range(2, 11):
        averages = {
            closed_form_risks(HeuristicParams("split", n, k=k, l=n - k)).average
            for k in range(1, n)
        }
        assert averages == {F(2, n)}


def test_reversal_closed_form_spot_values():
    report = closed_form_risks(HeuristicParams("reversal", 6, k=1))
    assert report.risks == (F(1, 5), F(4, 25), F(4, 25), F(4, 25), F(4, 25), F(1, 5))
    assert report.average == F(13, 75)
    assert report.worst_case == F(1, 5)


def test_reversal_zero_and_stuffing_full_reduce_to_aggregation():
    for n in range(1, 9):
        assert closed_form_risks(HeuristicParams("reversal", n, k=0)).risks == (F(1, n),) * n
        assert closed_form_risks(HeuristicParams("stuffing", n, c=n)).risks == (F(1, n),) * n


def test_stuffing_closed_form_spot_values():
    report = closed_form_risks(HeuristicParams("stuffing", 3, c=2))
    assert report.risks == (F(1, 2), F(1, 4), F(1, 2))
    assert report.worst_case == F(1, 2)
    sequential = closed_form_risks(HeuristicParams("stuffing", 4, c=1))
    assert sequential.risks == (F(1),) * 4


def test_stuffing_worst_case_meets_the_capacity_floor():
    for n in range(1, 11):
        for c in range(1, n + 1):
            assert closed_form_risks(HeuristicParams("stuffing", n, c=c)).worst_case == F(1, c)


def test_closed_forms_match_risk_engine_on_the_full_grid():
    for n in range(1, 11):
        scenario = abstract_scenario(n)
        cases = [HeuristicParams("split", n, k=k, l=n - k) for k in range(1, n)]
        cases += [HeuristicParams("reversal", n, k=k) for k in range(0, n // 2 + 1)]
        cases += [HeuristicParams("stuffing", n, c=c) for c in range(1, n + 1)]
        for params in cases:
            closed = closed_form_risks(params)
            computed = privacy_risks(template_for(params).flatten(), scenario)
            assert closed.risks == computed.risks, params
            assert closed.average == computed.average
            assert closed.worst_case == computed.worst_case


def test_required_capacity_is_tight():
    cases = [
        HeuristicParams("split", 6, k=4, l=2),
        HeuristicParams("reversal", 6, k=2),
        HeuristicParams("stuffing", 6, c=3),
        HeuristicParams("stuffing", 5, c=2),
    ]
    for params in cases:
        scenario = abstract_scenario(params.n)
        route = template_for(params).flatten()
        needed = params.required_capacity
        assert validate_route(route, scenario, DroneSpec(capacity=needed)).ok
        tight = validate_route(route, scenario, DroneSpec(capacity=needed - 1))
        assert not tight.ok and tight.rule == "capacity"


def test_stuffing_series_is_the_scaled_mean():
    exceeded = False
    for n in range(1, 11):
        for c in range(1, n + 1):
            series = stuffing_risk_series(n, c)
            mean = closed_form_risks(HeuristicParams("stuffing", n, c=c)).average
            assert series == n * c * mean
            exceeded = exceeded or series > 1
    assert exceeded  # the unnormalized series is not itself a probability


def test_instantiation_prefers_shortest_flattening_with_lexicographic_ties():
    fixture = unit_square_fixture("diagonal")
    aggregated = RouteTemplate(((Stop("v", 1), Stop("v", 2)), (Stop("a", 1), Stop("a", 2))))
    route = instantiate_template(aggregated, fixture, DroneSpec(capacity=2))
    # v2,v1,a2,a1 has the same length; the smaller stop sequence wins
    assert route.tokens == "v1,v2,a1,a2"
    assert wait_times(route, fixture, UNIT_FIXTURE_MOTION).average == pytest.approx(2.5)


def test_instantiation_on_colocated_sites_falls_back_to_lexicographic():
    from droneprivacy import CustomerSite, Scenario, VendorSite

    scenario = Scenario(
        vendors=(VendorSite(1, 0, 0), VendorSite(2, 0, 0)),
        customers=(CustomerSite(1, 0, 0, vendor_id=1), CustomerSite(2, 0, 0, vendor_id=2)),
    )
    template = RouteTemplate(((Stop("v", 2), Stop("v", 1)), (Stop("a", 2), Stop("a", 1))))
    route = instantiate_template(template, scenario, DroneSpec(capacity=2))
    assert route.tokens == "v1,v2,a1,a2"


def test_instantiation_rejects_small_drone():
    scenario = abstract_scenario(4)
    with pytest.raises(ValueError):
        instantiate_template(split_template(4, 3, 1), scenario, DroneSpec(capacity=2))


def test_instantiation_rejects_unknown_template_indices():
    scenario = abstract_scenario(2)
    with pytest.raises(ValueError):
        instantiate_template(split_template(3, 2, 1), scenario, DroneSpec(capacity=3))


def test_instantiation_never_changes_the_risk_profile():
    from droneprivacy import generate

    scenario = generate("uniform", 6, seed=17)
    drone = DroneSpec(capacity=6)
    for params in (
        HeuristicParams("split", 6, k=2, l=4),
        HeuristicParams("reversal", 6, k=2),
        HeuristicParams("stuffing", 6, c=4),
    ):
        route = instantiate_template(template_for(params), scenario, drone)
        assert privacy_risks(route, scenario).risks == closed_form_risks(params).risks


def test_oversized_templates_use_greedy_ordering():
    n = 11
    scenario = abstract_scenario(n)
    template = RouteTemplate((
        tuple(Stop("v", i + 1) for i in range(n)),
        tuple(Stop("a", i + 1) for i in range(n)),
    ))
    assert not ordering_search_is_exact(template)
    route = instantiate_template(template, scenario, DroneSpec(capacity=n))
    assert validate_route(route, scenario, DroneSpec(capacity=n)).ok
    assert privacy_risks(route, scenario).risks == (F(1, n),) * n


def _travel(route, scenario):
    """Total leg length of a route, summed first leg to last."""
    points = [(site.x, site.y) for site in map(scenario.site_for, route.stops)]
    total = 0.0
    for (px, py), (x, y) in zip(points, points[1:]):
        total += math.hypot(x - px, y - py)
    return total


def test_relabeling_can_only_shorten_travel():
    from droneprivacy import generate

    scenario = generate("uniform", 4, seed=23)
    drone = DroneSpec(capacity=4)
    template = stuffing_template(4, 2)
    identity = instantiate_template(template, scenario, drone)
    relabeled = instantiate_template(template, scenario, drone, relabel=True)

    assert _travel(relabeled, scenario) <= _travel(identity, scenario)
    assert privacy_risks(relabeled, scenario).risks == closed_form_risks(
        HeuristicParams("stuffing", 4, c=2)
    ).risks


def test_relabeling_guard():
    scenario = abstract_scenario(9)
    template = RouteTemplate((
        tuple(Stop("v", i + 1) for i in range(9)),
        tuple(Stop("a", i + 1) for i in range(9)),
    ))
    with pytest.raises(GuardError):
        instantiate_template(template, scenario, DroneSpec(capacity=9), relabel=True)


def test_relabeling_guard_bounds_the_work_not_n():
    """n = 8 passes an n-only bound, but split(4,4) would flatten 8! * (4!)^4 times: refused up front."""
    import time

    start = time.perf_counter()
    with pytest.raises(GuardError, match="13,377,208,320 flattenings"):
        instantiate_template(split_template(8, 4, 4), abstract_scenario(8), DroneSpec(capacity=4),
                             relabel=True)
    assert time.perf_counter() - start < 1.0
    # n = 5 stuffing(c=3) searches 5! * 3! * 3! = 4,320 flattenings and stays allowed.
    route = instantiate_template(stuffing_template(5, 3), abstract_scenario(5), DroneSpec(capacity=3),
                                 relabel=True)
    assert sorted(privacy_risks(route, abstract_scenario(5)).risks) == sorted(
        closed_form_risks(HeuristicParams("stuffing", 5, c=3)).risks
    )
