"""Heuristic templates, closed-form risks, and template instantiation."""

import itertools
import math
import random
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
    generate,
    instantiate_template,
    min_avg_risk_sweep,
    ordering_search_is_exact,
    parse_route,
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

from droneprivacy.heuristics import _instantiate, template_dp_steps

from conftest import exhaustive_instantiation, random_valid_route, run_segments, travel_length

TOPOLOGIES = ("uniform", "two_clusters", "linear", "hub_spoke")


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
        ("zigzag", {}),  # no such kind
    ],
)
def test_parameter_validation(kind, kwargs):
    with pytest.raises(ValueError):
        HeuristicParams(kind, 3, **kwargs)


KIND_CASES = [  # (params, label, required capacity, the kind's own builder call)
    (HeuristicParams("split", 5, k=1, l=4), "split(k=1,l=4)", 4, split_template(5, 1, 4)),
    (HeuristicParams("reversal", 5, k=0), "reversal(k=0)", 5, reversal_template(5, 0)),
    (HeuristicParams("reversal", 5, k=2), "reversal(k=2)", 3, reversal_template(5, 2)),
    (HeuristicParams("stuffing", 5, c=1), "stuffing(c=1)", 1, stuffing_template(5, 1)),
    (HeuristicParams("stuffing", 5, c=5), "stuffing(c=5)", 5, stuffing_template(5, 5)),
]


@pytest.mark.parametrize("params,label,capacity,template", KIND_CASES, ids=[case[1] for case in KIND_CASES])
def test_each_kind_labels_and_builds_from_its_parameters(params, label, capacity, template):
    assert params.label == label
    assert params.required_capacity == capacity
    assert template_for(params) == template
    assert ordering_search_is_exact(template) is True


@pytest.mark.parametrize("kind,kwargs,message", [
    ("split", dict(k=1), "split takes k and l"),
    ("split", dict(k=1, l=4, c=2), "split takes k and l"),
    ("reversal", {}, "reversal takes k only"),
    ("reversal", dict(k=1, l=4), "reversal takes k only"),
    ("stuffing", {}, "stuffing takes c only"),
    ("stuffing", dict(k=1, c=2), "stuffing takes c only"),
    ("zigzag", dict(k=1), "unknown heuristic kind 'zigzag'"),
])
def test_parameter_messages_name_what_the_kind_takes(kind, kwargs, message):
    with pytest.raises(ValueError) as info:
        HeuristicParams(kind, 5, **kwargs)
    assert str(info.value) == message


def test_parameter_validation_rejects_no_orders():
    with pytest.raises(ValueError, match="n must be at least 1"):
        HeuristicParams("stuffing", 0, c=1)


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


def test_stuffing_attains_the_minimum_average_risk_without_decoys():
    """At d = 0 the stuffing closed form is the exact least average risk over every valid route."""
    sweep = min_avg_risk_sweep(range(1, 8), range(1, 8), [0])
    cells = [(n, c) for n in range(1, 8) for c in range(1, n + 1)]
    assert len(cells) == 28
    for n, c in cells:
        assert stuffing_risk_series(n, c) / (n * c) == sweep[(n, c, 0)], (n, c)


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


@pytest.mark.parametrize("tokens", [
    "v1|a2|v2|a1",  # a customer before its vendor
    "v1,v1|a1,a2",  # a repeated vendor
    "v1|a1",  # a missing order
])
def test_instantiation_refuses_templates_that_flatten_to_invalid_routes(tokens):
    template = RouteTemplate(tuple(parse_route(group).stops for group in tokens.split("|")))
    with pytest.raises(ValueError, match="invalid route"):
        instantiate_template(template, abstract_scenario(2), DroneSpec(capacity=2))


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


def _joint_orderings(template):
    """How many flattenings the exhaustive ordering search tries: the product of the group sizes' factorials."""
    return math.prod(math.factorial(size) for size in template.group_sizes)


def _grid(n):
    """Every split, reversal and stuffing template of n orders."""
    grid = [HeuristicParams("split", n, k=k, l=n - k) for k in range(1, n)]
    grid += [HeuristicParams("reversal", n, k=k) for k in range(0, n // 2 + 1)]
    grid += [HeuristicParams("stuffing", n, c=c) for c in range(1, n + 1)]
    return [template_for(params) for params in grid]


@pytest.mark.parametrize("n", range(1, 7))
def test_group_dp_matches_the_exhaustive_ordering_search(n):
    """The DP returns the full search's route, ties included, on every grid template it can afford."""
    maps = [generate(topology, n, 2, seed=seed) for topology in TOPOLOGIES for seed in range(2)]
    maps.append(abstract_scenario(n, 2))
    templates = [t for t in _grid(n) if _joint_orderings(t) <= 20_000]
    assert templates
    drone = DroneSpec(capacity=n)
    identity = tuple(range(n))
    for template, scenario in itertools.product(templates, maps):
        expected = exhaustive_instantiation(template, scenario, identity)
        assert instantiate_template(template, scenario, drone) == expected, (template, scenario)


def test_group_dp_matches_the_exhaustive_search_with_decoy_groups():
    template = RouteTemplate((
        (Stop("v", 1), Stop("d", 1), Stop("v", 2)), (Stop("a", 2),),
        (Stop("d", 2), Stop("v", 3)), (Stop("a", 1), Stop("a", 3)),
    ))
    drone = DroneSpec(capacity=2)
    for scenario in [generate(topology, 3, 2, seed=seed) for topology in TOPOLOGIES for seed in range(2)]:
        route = instantiate_template(template, scenario, drone)
        assert route == exhaustive_instantiation(template, scenario, (0, 1, 2))
        assert {s.token for s in route.stops if s.kind == "d"} == {"d1", "d2"}


def _relabeled_by_exhaustion(template, scenario):
    """The shortest flattening over every order relabeling, each searched exhaustively; ties go to the
    smaller stop sequence (the relabeling DP's oracle)."""
    found = (exhaustive_instantiation(template, scenario, mapping)
             for mapping in itertools.permutations(range(scenario.n)))
    return min(found, key=lambda route: (travel_length(route.stops, scenario), route.sort_key))


def _random_templates(count, rng):
    """Random templates of n <= 5 orders with decoy stops: the vendor and customer runs of random valid
    routes, each with a generated map of its sizes; those whose exhaustive relabeling oracle takes more
    than 30,000 flattenings are skipped."""
    found = []
    while len(found) < count:
        n, n_decoys = rng.randint(1, 5), rng.randint(1, 2)
        route = random_valid_route(abstract_scenario(n, n_decoys), n, n_decoys, rng)
        template = RouteTemplate(tuple(route.stops[a:b] for a, b in run_segments(route)))
        if math.factorial(n) * _joint_orderings(template) <= 30_000:
            found.append((template, generate(rng.choice(TOPOLOGIES), n, n_decoys, seed=rng.randrange(10))))
    return found


def test_relabeled_dp_matches_the_exhaustive_search():
    scenario = generate("two_clusters", 4, seed=5)
    template = stuffing_template(4, 2)
    expected = _relabeled_by_exhaustion(template, scenario)
    assert instantiate_template(template, scenario, DroneSpec(capacity=2), relabel=True) == expected


@pytest.mark.parametrize("n", range(1, 5))
def test_relabeled_dp_matches_the_search_over_every_relabeling(n):
    """One DP over open orders returns the route that the best of the n! exhaustive searches does."""
    maps = [generate(topology, n, seed=seed) for topology in TOPOLOGIES for seed in range(2)]
    drone = DroneSpec(capacity=n)
    for template, scenario in itertools.product(_grid(n), maps):
        expected = _relabeled_by_exhaustion(template, scenario)
        assert instantiate_template(template, scenario, drone, relabel=True) == expected, (template, scenario)


def test_relabeled_dp_matches_the_search_over_every_relabeling_with_decoys():
    cases = _random_templates(40, random.Random(11))
    assert sum(any(s.kind == "d" for s in t.flatten().stops) for t, _ in cases) >= 30
    for template, scenario in cases:
        drone = DroneSpec(capacity=scenario.n)
        expected = _relabeled_by_exhaustion(template, scenario)
        assert instantiate_template(template, scenario, drone, relabel=True) == expected, (template, scenario)
        assert instantiate_template(template, scenario, drone) == exhaustive_instantiation(
            template, scenario, tuple(range(scenario.n))), (template, scenario)


# The middle customer group drops one order picked in each vendor group, and a decoy sits between groups.
SHARED_DROPS = RouteTemplate(tuple(parse_route(group).stops for group in "v1,v2,v3|a1|v4,v5|a2,a4|d1|a3,a5".split("|")))


def test_relabeled_dp_drops_each_vendor_groups_share_in_each_customer_group():
    """Dropping two orders of the first vendor group in the middle customer group (and both of the second's
    last) would be a valid route of another template, often a shorter one: the relabeling search must count
    each vendor group's drops, and so keep the template's risks."""
    drone = DroneSpec(capacity=5)
    for scenario in [generate(topology, 5, 1, seed=seed) for topology in TOPOLOGIES for seed in range(3)]:
        route = instantiate_template(SHARED_DROPS, scenario, drone, relabel=True)
        assert route == _relabeled_by_exhaustion(SHARED_DROPS, scenario), scenario
        identity = instantiate_template(SHARED_DROPS, scenario, drone)
        assert sorted(privacy_risks(route, scenario).risks) == sorted(privacy_risks(identity, scenario).risks)


# (template, scenario, capacity, (steps without relabeling, steps with)): the DP's exact work, which depends
# only on the template and the mode, so a change to how the DP keeps its states must leave it as it is.
STEPS_TAKEN = [
    (template_for(params), generate("uniform", 6, seed=0), params.required_capacity, steps)
    for params, steps in [
        (HeuristicParams("split", 6, k=3, l=3), (78, 1_326)),
        (HeuristicParams("reversal", 6, k=2), (124, 3_636)),
        (HeuristicParams("stuffing", 6, c=3), (38, 3_486)),
        (HeuristicParams("reversal", 6, k=0), (1_002, 1_002)),
    ]
] + [(SHARED_DROPS, generate("two_clusters", 5, 1, seed=1), 5, (34, 915))]


@pytest.mark.parametrize("relabel", [False, True])
def test_the_guard_count_bounds_the_steps_taken(relabel):
    """``template_dp_steps`` is never below the steps the DP takes, so never below the states it keeps
    (each is reached by a step), on every grid template up to n = 5, on random ones with decoys and on the
    ``STEPS_TAKEN`` templates, whose steps are pinned exactly."""
    cases = [(template, generate(topology, n, seed=0), n, None)
             for n in range(1, 6) for template in _grid(n) for topology in TOPOLOGIES]
    cases += [(template, scenario, scenario.n, None) for template, scenario in _random_templates(40, random.Random(12))]
    for template, scenario, capacity, pinned in cases + STEPS_TAKEN:
        steps = _instantiate(template, scenario, DroneSpec(capacity), relabel)[1]
        assert template_dp_steps(template, relabel=relabel) >= steps, template
        assert pinned is None or steps == pinned[relabel], template


def _nearest_neighbour(template, scenario):
    """Each group in turn, nearest stop to the last one placed first (the first group starts at its smallest
    stop); template ids are the stop ids on generated maps."""
    placed = []
    for group in template.groups:
        remaining = list(group)
        while remaining:
            if placed:
                choice = min(remaining, key=lambda s: (travel_length((placed[-1], s), scenario), s.sort_key))
            else:
                choice = min(remaining, key=lambda s: s.sort_key)
            placed.append(choice)
            remaining.remove(choice)
    return placed


def test_oversized_templates_are_instantiated_exactly():
    """Aggregation at n = 7 has 7!^2 joint orderings; the DP still finds a flattening that is strictly
    shorter than a greedy nearest-neighbour pass."""
    scenario = generate("uniform", 7, seed=3)
    template = reversal_template(7, 0)
    route = instantiate_template(template, scenario, DroneSpec(capacity=7))
    assert travel_length(route.stops, scenario) < travel_length(_nearest_neighbour(template, scenario), scenario)

    n = 11
    scenario = abstract_scenario(n)
    route = instantiate_template(reversal_template(n, 0), scenario, DroneSpec(capacity=n))
    assert validate_route(route, scenario, DroneSpec(capacity=n)).ok
    assert privacy_risks(route, scenario).risks == (F(1, n),) * n


def test_oversized_templates_are_refused_before_the_search():
    """Aggregation at n = 25 would take 2 * 2^25 * 25^2 DP steps: a GuardError with that count, at once."""
    import time

    scenario = generate("uniform", 25, seed=0)
    start = time.perf_counter()
    with pytest.raises(GuardError, match="41,943,040,000 dynamic-program steps"):
        instantiate_template(reversal_template(25, 0), scenario, DroneSpec(capacity=25))
    with pytest.raises(GuardError, match=r"more than 2\^216 dynamic-program steps"):
        instantiate_template(reversal_template(200, 0), abstract_scenario(200), DroneSpec(capacity=200))
    # n = 15 is the first aggregation past the limit (n = 14 takes 6,422,528 steps, under 1 s).
    with pytest.raises(GuardError, match="14,745,600 dynamic-program steps"):
        instantiate_template(reversal_template(15, 0), abstract_scenario(15), DroneSpec(capacity=15))
    assert time.perf_counter() - start < 1.0


def test_relabeling_can_only_shorten_travel():
    from droneprivacy import generate

    scenario = generate("uniform", 4, seed=23)
    drone = DroneSpec(capacity=4)
    template = stuffing_template(4, 2)
    identity = instantiate_template(template, scenario, drone)
    relabeled = instantiate_template(template, scenario, drone, relabel=True)

    assert travel_length(relabeled.stops, scenario) <= travel_length(identity.stops, scenario)
    assert privacy_risks(relabeled, scenario).risks == closed_form_risks(
        HeuristicParams("stuffing", 4, c=2)
    ).risks


def test_relabeling_guard_refuses_past_the_limit_with_its_count():
    """Relabeled stuffing(3) at n = 13 is bounded by 22,785,256 DP steps, past the limit: a GuardError
    with that count, at once, and so at n = 1,000.  Without relabeling it is bounded by 184 steps."""
    import time

    start = time.perf_counter()
    scenario = generate("uniform", 13, seed=0)
    with pytest.raises(GuardError, match="22,785,256 dynamic-program steps relabeling the orders"):
        instantiate_template(stuffing_template(13, 3), scenario, DroneSpec(capacity=3), relabel=True)
    with pytest.raises(GuardError, match=r"more than 2\^1036 dynamic-program steps relabeling the orders"):
        instantiate_template(stuffing_template(1000, 3), abstract_scenario(1000), DroneSpec(capacity=3),
                             relabel=True)
    assert time.perf_counter() - start < 1.0
    assert template_dp_steps(stuffing_template(13, 3)) == 184
    assert validate_route(instantiate_template(stuffing_template(13, 3), scenario, DroneSpec(capacity=3)),
                          scenario, DroneSpec(capacity=3)).ok


def test_relabeled_stuffing_is_searched_at_n9():
    """Relabeled stuffing(3) at n = 9 (9! relabelings) is bounded by 290,304 steps, and split(4,4) at n = 8
    by 45,128.  Each keeps the template's risks and is no longer than the identity's route."""
    for params in (HeuristicParams("stuffing", 9, c=3), HeuristicParams("split", 8, k=4, l=4)):
        scenario = generate("uniform", params.n, seed=0)
        drone = DroneSpec(capacity=params.required_capacity)
        route = instantiate_template(template_for(params), scenario, drone, relabel=True)
        assert sorted(privacy_risks(route, scenario).risks) == sorted(closed_form_risks(params).risks)
        identity = instantiate_template(template_for(params), scenario, drone)
        assert travel_length(route.stops, scenario) <= travel_length(identity.stops, scenario)


def test_relabeled_aggregation_is_searched_at_n5():
    """Aggregation at n = 5 relabels in one DP bounded by 1,580 steps, within the 2 * 2^5 * 5^2 = 1,600
    that bound it without relabeling.

    Every relabeling of aggregation flattens to the same routes, so the search returns the identity's.
    """
    scenario = generate("uniform", 5, seed=0)
    drone = DroneSpec(capacity=5)
    template = reversal_template(5, 0)
    assert (template_dp_steps(template, relabel=True), template_dp_steps(template)) == (1_580, 1_600)
    assert instantiate_template(template, scenario, drone, relabel=True) == instantiate_template(
        template, scenario, drone)
