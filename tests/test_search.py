"""Route enumeration, evaluation, Pareto fronts, and risk sweeps."""

import math
import re
from array import array
from fractions import Fraction as F

import pytest

from droneprivacy import (
    CustomerSite,
    DroneSpec,
    GuardError,
    MotionModel,
    ParetoAccumulator,
    Stop,
    abstract_scenario,
    enumerate_routes,
    evaluate,
    generate,
    min_avg_risk_sweep,
    pareto_front,
    parse_route,
    privacy_risks,
    route_count_upper_bound,
    Route,
    Scenario,
    VendorSite,
    unit_square_fixture,
    wait_times,
)
from droneprivacy import search
from droneprivacy.errors import factorial_count, format_count
from droneprivacy.search import _risk_to_go, _route_counter, _sequences, _wait_to_go
from conftest import brute_force_routes, exhaustive_front, exhaustive_sweep, max_load

TOPOLOGIES = ("uniform", "two_clusters", "hub_spoke", "linear")


def test_single_order_single_route():
    routes = list(enumerate_routes(abstract_scenario(1), DroneSpec(capacity=1)))
    assert [r.tokens for r in routes] == ["v1,a1"]


def test_capacity_one_forces_strict_alternation():
    routes = [r.tokens for r in enumerate_routes(abstract_scenario(2), DroneSpec(capacity=1))]
    assert routes == ["v1,a1,v2,a2", "v2,a2,v1,a1"]


def test_two_orders_unconstrained_has_six_routes():
    routes = list(enumerate_routes(abstract_scenario(2), DroneSpec(capacity=2)))
    assert len(routes) == 6
    assert len({r.stops for r in routes}) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unconstrained_count_formula(n):
    count = sum(1 for _ in enumerate_routes(abstract_scenario(n), DroneSpec(capacity=n)))
    assert count == math.factorial(2 * n) // 2**n


@pytest.mark.parametrize("n,c,n_d,budget", [(2, 2, 0, 0), (3, 2, 0, 0), (3, 3, 1, 1), (2, 1, 2, 2)])
def test_enumeration_matches_permutation_filter_oracle(n, c, n_d, budget):
    scenario = abstract_scenario(n, n_decoys=n_d)
    mine = {r.stops for r in enumerate_routes(scenario, DroneSpec(capacity=c), budget)}
    oracle = brute_force_routes(scenario, c, budget)
    assert mine == oracle


def _renamed_map(*, shuffled: bool) -> tuple[Scenario, Scenario]:
    """``generate("two_clusters", 3, 1, seed=4)`` and the same sites under ids that are not order
    positions: vendors 7, 3, 5, customers 9, 2, 4, and decoy 3, a vendor's id too.  ``shuffled``
    also lists the customers in another order, which moves every order to a new position."""
    base = generate("two_clusters", 3, 1, seed=4)
    vendor_id, customer_id = {1: 7, 2: 3, 3: 5}, {1: 9, 2: 2, 3: 4}
    vendors = [VendorSite(3 if v.decoy else vendor_id[v.id], v.x, v.y, v.decoy) for v in base.vendors]
    customers = [CustomerSite(customer_id[c.id], c.x, c.y, vendor_id[c.vendor_id]) for c in base.customers]
    if shuffled:
        customers = [customers[k] for k in (2, 0, 1)]
    return base, Scenario(tuple(vendors), tuple(customers))


def test_enumeration_matches_the_permutation_filter_on_ids_that_are_not_positions():
    _, scenario = _renamed_map(shuffled=True)
    for capacity in range(1, 4):
        for budget in range(2):
            mine = [route.stops for route in enumerate_routes(scenario, DroneSpec(capacity), budget)]
            oracle = brute_force_routes(scenario, capacity, budget)
            assert mine == sorted(oracle, key=lambda stops: Route(stops).sort_key)


def test_stream_is_deterministic_and_lexicographic():
    scenario = abstract_scenario(3)
    drone = DroneSpec(capacity=2)
    first = [r.stops for r in enumerate_routes(scenario, drone)]
    second = [r.stops for r in enumerate_routes(scenario, drone)]
    assert first == second
    keys = [tuple(s.sort_key for s in stops) for stops in first]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_follows_route_sort_key_order(n):
    """Routes come in strictly increasing sort_key order, every one of them at capacity n.

    pareto_front relies on it: the first route it meets with a given objective vector is the smallest.
    """
    for budget in range(3):
        scenario = abstract_scenario(n, n_decoys=budget)
        for capacity in range(1, n + 1):
            previous, count = None, 0
            for route in enumerate_routes(scenario, DroneSpec(capacity), budget):
                key = route.sort_key
                assert previous is None or previous < key
                previous, count = key, count + 1
            if capacity == n:
                assert count == route_count_upper_bound(n, budget)


def test_decoy_enumeration_exact_stream():
    scenario = abstract_scenario(1, n_decoys=1)
    routes = [r.tokens for r in enumerate_routes(scenario, DroneSpec(capacity=1), decoy_budget=1)]
    assert routes == ["v1,d1,a1", "v1,a1", "v1,a1,d1", "d1,v1,a1"]


def test_decoy_count_formula():
    scenario = abstract_scenario(2, n_decoys=2)
    count = sum(1 for _ in enumerate_routes(scenario, DroneSpec(capacity=2), decoy_budget=2))
    assert count == route_count_upper_bound(2, 2) == 246


def test_guards():
    with pytest.raises(GuardError):
        list(enumerate_routes(abstract_scenario(8), DroneSpec(capacity=8)))
    with pytest.raises(GuardError):
        list(enumerate_routes(abstract_scenario(2, n_decoys=4), DroneSpec(capacity=2), decoy_budget=4))
    with pytest.raises(GuardError, match="at least 600! routes"):  # refused without the 1,200-deep count
        list(enumerate_routes(abstract_scenario(600), DroneSpec(capacity=600)))
    with pytest.raises(ValueError):
        list(enumerate_routes(abstract_scenario(2, n_decoys=1), DroneSpec(capacity=2), decoy_budget=2))


def test_guard_message_estimates_route_count():
    try:
        list(enumerate_routes(abstract_scenario(8), DroneSpec(capacity=8)))
    except GuardError as exc:
        assert f"{route_count_upper_bound(8, 0):,}" in str(exc)
    else:
        pytest.fail("expected GuardError")


def test_enumeration_guard_refuses_a_large_decoy_walk_at_once():
    """n = 7 is within the order limit, but a decoy budget of 3 makes the walk too large."""
    with pytest.raises(GuardError, match="3,300,515,618,400 routes"):
        next(enumerate_routes(abstract_scenario(7, 3), DroneSpec(capacity=7), 3))


def test_enumeration_guard_counts_the_walk_not_n():
    """The limit is the full decoy-free walk at n = 7, so n = 8 at capacity 2 passes."""
    assert _route_counter(0, 7, 0)(7, 0, 0) == route_count_upper_bound(7, 0) == 681_080_400
    assert next(enumerate_routes(abstract_scenario(7), DroneSpec(capacity=7))).tokens.startswith("v1,")
    assert _route_counter(0, 2, 0)(8, 0, 0) == 88_179_840
    route = next(enumerate_routes(abstract_scenario(8), DroneSpec(capacity=2)))
    assert route.tokens == "v1,v2,a1,v3,a2,v4,a3,v5,a4,v6,a5,v7,a6,v8,a7,a8"


def test_evaluate_worked_example():
    scenario = generate("uniform", 3, seed=2)
    drone = DroneSpec(capacity=2)
    evaluation = evaluate(parse_route("v1,v2,a2,v3,a3,a1"), scenario, drone)
    assert evaluation.avg_risk == F(5, 12)
    assert evaluation.worst_risk == F(1, 2)
    assert evaluation.avg_wait == pytest.approx(sum(evaluation.waits) / 3)


def test_evaluate_single_order():
    from droneprivacy import CustomerSite, Scenario, VendorSite

    scenario = Scenario(
        vendors=(VendorSite(1, 0.0, 0.0),),
        customers=(CustomerSite(1, 2400.0, 0.0, vendor_id=1),),
    )
    drone = DroneSpec(capacity=1, speed=20.0, stop_duration=60.0)
    evaluation = evaluate(parse_route("v1,a1"), scenario, drone)
    assert evaluation.avg_risk == F(1)
    assert evaluation.avg_wait == pytest.approx(2400.0 / 20.0 + 60.0)


def test_evaluate_rejects_capacity_violations():
    scenario = abstract_scenario(3)
    with pytest.raises(ValueError):
        evaluate(parse_route("v1,v2,v3,a1,a2,a3"), scenario, DroneSpec(capacity=2))


# (map, decoy budget): every route of each map, on abstract and generated maps of n <= 4 and up to 2 decoys;
# n = 4 walks one decoy at most (274,680 routes with two).
_EVALUATION_MAPS = (
    [(f"abstract-{n}-{d}", abstract_scenario(n, n_decoys=d), d) for n in range(1, 4) for d in range(3)]
    + [("abstract-4-0", abstract_scenario(4), 0), ("abstract-4-2", abstract_scenario(4, n_decoys=2), 1)]
    + [(f"{t}-4-1", generate(t, 4, 1, seed=7), 1) for t in TOPOLOGIES]
    + [(f"{t}-3-2", generate(t, 3, 2, seed=8), 2) for t in TOPOLOGIES]
)


@pytest.mark.parametrize("scenario, budget", [case[1:] for case in _EVALUATION_MAPS],
                         ids=[case[0] for case in _EVALUATION_MAPS])
def test_evaluate_equals_the_public_kernels_on_every_route(scenario, budget):
    """``evaluate`` builds no report: its fields must still be ``privacy_risks``' and ``wait_times``', the
    waits bit for bit."""
    drone = DroneSpec(capacity=scenario.n, speed=17.0, stop_duration=45.0)
    routes = 0
    for route in enumerate_routes(scenario, drone, budget):
        evaluation = evaluate(route, scenario, drone, check=False)
        report = privacy_risks(route, scenario, check=False)
        waits = wait_times(route, scenario, drone, check=False)
        assert (evaluation.risks, evaluation.avg_risk, evaluation.worst_risk) == (
            report.risks, report.average, report.worst_case), route.tokens
        assert [w.hex() for w in evaluation.waits] == [w.hex() for w in waits.waits], route.tokens
        assert evaluation.avg_wait.hex() == waits.average.hex(), route.tokens
        assert evaluation.customer_ids == report.customer_ids == waits.customer_ids
        assert evaluation.route == route and evaluation.heuristic_tag is None
        routes += 1
    assert routes >= route_count_upper_bound(scenario.n, 0)  # every decoy-free route at least


def test_evaluate_refuses_an_untimeable_route_as_wait_times_does():
    """Vendors 2e308 m apart: the leg between them is too long to time (the CI's ``far.json`` map)."""
    from droneprivacy import CustomerSite, Scenario, VendorSite

    scenario = Scenario(
        vendors=(VendorSite(1, -1e308, 0.0), VendorSite(2, 1e308, 0.0)),
        customers=(CustomerSite(1, 0.0, 0.0, vendor_id=1), CustomerSite(2, 0.0, 1.0, vendor_id=2)),
    )
    route, drone = parse_route("v1,v2,a1,a2"), DroneSpec(capacity=2)
    with pytest.raises(ValueError) as by_wait_times:
        wait_times(route, scenario, drone)
    with pytest.raises(ValueError) as by_evaluate:
        evaluate(route, scenario, drone)
    assert str(by_evaluate.value) == str(by_wait_times.value) == (
        "the route's average wait is inf: its legs are too long to time")


def test_pareto_front_diagonal_fixture():
    fixture = unit_square_fixture("diagonal")
    drone = DroneSpec(capacity=2, speed=1.0, stop_duration=0.0)
    front = pareto_front(fixture, drone)
    assert front.total_routes == 6
    assert len(front.points) == 1
    point = front.points[0]
    assert point.evaluation.avg_risk == F(1, 2)
    assert point.evaluation.avg_wait == pytest.approx(2.5)
    assert point.multiplicity == 2  # v1,v2,a1,a2 and v2,v1,a2,a1 tie exactly
    assert point.evaluation.route.tokens == "v1,v2,a1,a2"


def test_pareto_front_adjacent_fixture_keeps_both_tradeoffs():
    fixture = unit_square_fixture("adjacent")
    drone = DroneSpec(capacity=2, speed=1.0, stop_duration=0.0)
    front = pareto_front(fixture, drone)
    assert len(front.points) == 2
    fast, private = front.points
    assert fast.evaluation.avg_risk == F(1)
    assert fast.evaluation.avg_wait == pytest.approx(2.0)
    assert fast.multiplicity == 2
    assert private.evaluation.avg_risk == F(1, 2)
    assert private.evaluation.avg_wait == pytest.approx(3.1213203435596424)
    assert private.multiplicity == 4
    assert [p.evaluation.avg_wait for p in front.points] == sorted(
        p.evaluation.avg_wait for p in front.points
    )


def test_pareto_front_worst_risk_objective():
    fixture = unit_square_fixture("diagonal")
    drone = DroneSpec(capacity=2, speed=1.0, stop_duration=0.0)
    front = pareto_front(fixture, drone, objectives=("worst_risk", "avg_wait"))
    assert front.objectives == ("worst_risk", "avg_wait")
    assert all(p.evaluation.worst_risk == F(1, 2) for p in front.points)


def test_pareto_front_with_decoy_budget():
    scenario = abstract_scenario(1, n_decoys=1)
    drone = DroneSpec(capacity=1, speed=1.0, stop_duration=0.0)
    front = pareto_front(scenario, drone, decoy_budget=1)
    assert front.total_routes == 4
    risks = {p.evaluation.avg_risk for p in front.points}
    assert F(1, 2) in risks  # a decoy detour buys privacy at a wait cost


@pytest.mark.parametrize("objective", ["avg_risk", "worst_risk"])
@pytest.mark.parametrize("n, budget", [(n, b) for n in range(1, 4) for b in range(3)] + [(4, 0)])
def test_pareto_front_matches_the_per_route_path(n, budget, objective):
    """pareto_front's fused loop equals enumerate_routes + evaluate + a fresh accumulator."""
    # The grid has many exactly tied waits, so multiplicities and tie-breaks get exercised.
    for scenario in (generate("uniform", n, n_decoys=2, seed=n), abstract_scenario(n, n_decoys=2)):
        for capacity in range(1, n + 1):
            drone = DroneSpec(capacity=capacity)
            front = pareto_front(scenario, drone, (objective, "avg_wait"), budget)
            acc = ParetoAccumulator()
            total = 0
            for route in enumerate_routes(scenario, drone, budget):
                e = evaluate(route, scenario, drone)
                acc.offer(getattr(e, objective), e.avg_wait, route.stops)
                total += 1
            assert front.total_routes == total
            assert [getattr(p.evaluation, objective) for p in front.points] == acc.risks
            assert [p.evaluation.avg_wait.hex() for p in front.points] == [w.hex() for w in acc.waits]
            assert [p.evaluation.route.stops for p in front.points] == acc.seqs
            assert [p.multiplicity for p in front.points] == acc.counts


def _front_rows(front):
    objective = front.objectives[0]
    return front.total_routes, [
        (getattr(p.evaluation, objective), p.evaluation.avg_wait.hex(), p.evaluation.route.stops,
         p.multiplicity)
        for p in front.points
    ]


def _assert_front_is_exhaustive(scenario, drone, objective, budget):
    front = pareto_front(scenario, drone, (objective, "avg_wait"), budget)
    oracle = exhaustive_front(scenario, drone, (objective, "avg_wait"), budget)
    assert _front_rows(front) == _front_rows(oracle)
    assert 0 < front.routes_walked <= front.total_routes
    return front


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_pruned_front_equals_the_exhaustive_front(topology, n):
    """The pruned walk gives the exhaustive front: risks, .hex() waits, routes, multiplicities, counts.

    Every capacity and both objectives, on two seeds with and without stop time (no stop time gives
    more exact wait ties); decoy budgets 0-2, except budget 2 at n = 4, which only the placeholder
    scenario below covers.
    """
    for seed in (0, 1):
        scenario = generate(topology, n, n_decoys=2, seed=seed)
        for stop_duration in (60.0, 0.0):
            for capacity in range(1, n + 1):
                drone = DroneSpec(capacity, stop_duration=stop_duration)
                for budget in range(3 if n < 4 else 2):
                    for objective in ("avg_risk", "worst_risk"):
                        _assert_front_is_exhaustive(scenario, drone, objective, budget)


@pytest.mark.parametrize("objective", ["avg_risk", "worst_risk"])
def test_front_is_unchanged_by_renaming_the_ids(objective):
    # The customers stay in order: a new order position would change the summation order of the
    # average wait.  Stored routes may differ, as renaming changes the sort order.
    base, renamed = _renamed_map(shuffled=False)
    for capacity in range(1, 4):
        for budget in range(2):
            fronts = []
            for scenario in (base, renamed):
                front = pareto_front(scenario, DroneSpec(capacity), (objective, "avg_wait"), budget)
                total, points = _front_rows(front)
                fronts.append((total, [(risk, wait, count) for risk, wait, _, count in points]))
            assert fronts[0] == fronts[1]


@pytest.mark.parametrize("objective", ["avg_risk", "worst_risk"])
def test_pruned_front_equals_the_exhaustive_front_on_tied_maps(objective):
    """Maps with many exactly equal waits: the placeholder grid (n <= 4, budget 2) and the unit squares."""
    for n in range(1, 5):
        scenario = abstract_scenario(n, n_decoys=2)
        for capacity in range(1, n + 1):
            for budget in range(3):
                _assert_front_is_exhaustive(scenario, DroneSpec(capacity), objective, budget)
    for config in ("diagonal", "adjacent"):
        _assert_front_is_exhaustive(unit_square_fixture(config), DroneSpec(2, 1.0, 0.0), objective, 0)


@pytest.mark.parametrize("objective", ["avg_risk", "worst_risk"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_pruned_front_equals_the_exhaustive_front_at_n5(topology, objective):
    scenario = generate(topology, 5, seed=3)
    for capacity in (2, 3):
        front = _assert_front_is_exhaustive(scenario, DroneSpec(capacity), objective, 0)
        assert front.routes_walked < front.total_routes


@pytest.mark.parametrize("objective", ["avg_risk", "worst_risk"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_front_equals_the_exhaustive_front_at_the_decoy_budget_limit(n, objective):
    """Budget MAX_DECOY_BUDGET (3) with three decoys, every capacity: the walk tracks the used decoys in a mask."""
    budget = search.MAX_DECOY_BUDGET
    for scenario in (generate("uniform", n, n_decoys=budget, seed=0), abstract_scenario(n, n_decoys=budget)):
        for capacity in range(1, n + 1):
            _assert_front_is_exhaustive(scenario, DroneSpec(capacity), objective, budget)


# Seed-0 fronts: (topology, n, decoys, budget, capacity, objective, prefixes visited, routes walked).
CUT_STRENGTH = [
    ("two_clusters", 6, 0, 0, 3, "avg_risk", 163_917, 317),
    ("two_clusters", 6, 0, 0, 3, "worst_risk", 1_024, 91),
    ("uniform", 5, 2, 2, 3, "avg_risk", 33_534, 1_117),
    ("linear", 6, 1, 1, 6, "avg_risk", 114_179, 997),
    ("hub_spoke", 6, 0, 0, 2, "avg_risk", 6_826, 123),
    ("linear", 6, 0, 0, 6, "worst_risk", 11_779, 130),
    ("uniform", 5, 2, 2, 3, "worst_risk", 7_637, 439),
]


@pytest.mark.parametrize("topology, n, n_decoys, budget, capacity, objective, prefixes, walked", CUT_STRENGTH)
def test_the_cut_is_no_weaker(monkeypatch, topology, n, n_decoys, budget, capacity, objective, prefixes, walked):
    """A front visits exactly these prefixes (the guard refuses one fewer) and walks exactly these routes.

    ``total_routes`` is the counting recurrence's total, not a sum over the walk, so these pins are
    what fixes the walk's coverage: a walk that skipped a subtree it should enter changes them.
    """
    scenario = generate(topology, n, n_decoys=n_decoys, seed=0)
    monkeypatch.setattr(search, "MAX_FRONT_NODES", prefixes - 1)
    with pytest.raises(GuardError, match=f"after {prefixes - 1:,} prefixes"):
        pareto_front(scenario, DroneSpec(capacity), (objective, "avg_wait"), budget)
    monkeypatch.setattr(search, "MAX_FRONT_NODES", prefixes)
    front = pareto_front(scenario, DroneSpec(capacity), (objective, "avg_wait"), budget)
    assert front.routes_walked == walked


def test_route_counter_matches_enumeration():
    """The counting recurrence behind the guards and ``ParetoFront.total_routes`` counts every route the
    walker yields."""
    for n in range(1, 5):
        for n_decoys in range(3):
            scenario = abstract_scenario(n, n_decoys=n_decoys)
            for capacity in range(1, n + 1):
                for budget in range(n_decoys + 1):
                    count = _route_counter(n_decoys, capacity, budget)(n, 0, budget)
                    assert count == sum(1 for _ in enumerate_routes(scenario, DroneSpec(capacity), budget))
                    if capacity == n and budget == n_decoys:
                        assert count == route_count_upper_bound(n, budget)


def test_front_guard_bounds_the_walk(monkeypatch):
    scenario = generate("uniform", 5, seed=3)
    monkeypatch.setattr(search, "MAX_FRONT_NODES", 50)
    with pytest.raises(GuardError, match=r"after 50 prefixes .*52,920 routes"):
        pareto_front(scenario, DroneSpec(capacity=3))


def test_front_guard_allows_n8_and_refuses_n9():
    front = pareto_front(generate("linear", 8, seed=0), DroneSpec(capacity=2))
    assert front.total_routes == _route_counter(0, 2, 0)(8, 0, 0)
    assert front.points
    with pytest.raises(GuardError, match=f"{route_count_upper_bound(9, 0):,} routes"):
        pareto_front(generate("uniform", 9, seed=0), DroneSpec(capacity=9))


def test_front_guard_refuses_600_orders_without_counting_them():
    """Past the walk limit the refusal says "at least n!" instead of running the 2n-deep count."""
    with pytest.raises(GuardError, match=r"at least 600! routes"):
        pareto_front(abstract_scenario(600), DroneSpec(capacity=600))


def test_wait_bound_table_holds_the_counted_states():
    """After the root call the table holds the start state plus, for each last stop, the other orders each
    unpicked, delivered or held, at most c - 1 of them held.  At c = n that is the guard's 2n * 3^(n-1) + 1, and
    at n = 8 it is ``MAX_WAIT_BOUND_STATES``: the largest table the guard admits is the one it counts."""
    def table_size(n, c):
        legs = [[1.0] * (2 * n)] * (2 * n + 1)  # a row per stop, and the start's row (last = -1)
        togo = _wait_to_go(legs, [(pos, pos, 1 << pos) for pos in range(n)],
                           [(n + pos, pos, 1 << pos) for pos in range(n)], c)
        togo(0, 0, -1)
        return togo.cache_info().currsize

    for n in range(1, 7):
        for c in range(1, n + 1):
            held = sum(math.comb(n - 1, h) * 2 ** (n - 1 - h) for h in range(min(c, n)))
            assert table_size(n, c) == 1 + 2 * n * held, (n, c)
        assert table_size(n, n) == 2 * n * 3 ** (n - 1) + 1
    assert table_size(8, 8) == search.MAX_WAIT_BOUND_STATES


def test_front_guard_prints_a_wait_table_past_4300_digits():
    """2n * 3^(n-1) + 1 wait-table states pass Python's 4,300-digit str limit from n = 9,014; the refusal prints
    the count as a power of two instead of failing to print it."""
    with pytest.raises(GuardError, match=r"more than 2\^14435 states .* at least 9100! routes"):
        pareto_front(abstract_scenario(9_100), DroneSpec(capacity=1))


def test_guard_counts_print_exactly_up_to_64_bits():
    assert format_count(2**64 - 1) == "18,446,744,073,709,551,615"
    assert format_count(2**64) == "more than 2^64"
    assert format_count(10**5000) == "more than 2^16609"
    # 21! is the first factorial past 64 bits, so n! stops growing there and still refuses what n! would.
    assert [factorial_count(n) for n in range(22)] == [math.factorial(n) for n in range(22)]
    assert math.factorial(20).bit_length() <= 64 < factorial_count(10**6).bit_length()


def _both_walks(scenario, capacity, budget, motion):
    """The average-risk walk and the worst-risk walk side by side, one pair of yields per route."""
    return zip(_sequences(scenario, capacity, budget, motion),
               _sequences(scenario, capacity, budget, motion, average=False), strict=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walker_state_and_sweep_match_the_per_route_path(n):
    """At every route, the objectives the walker yields equal a rescan by the public per-route functions.

    Risks must equal privacy_risks' Fractions (the risk sum from the average walk, the worst risk from
    the worst walk), waits must be bit-equal to wait_times' average (which is evaluate's avg_wait).
    The full walks (capacity n, budget 2) are checked route by route on the tie-heavy grid and on a
    generated map.  On the generated map, every smaller capacity and budget must then yield the
    objectives of exactly the full walks' routes that fit it (by their peak load), in the same order
    (which routes those are is checked by the enumeration tests above).  The same
    per-route risks give the brute-force minima that every min_avg_risk_sweep cell (n, c <= 4,
    d <= 2) must equal: the routes of abstract_scenario(n, d) are the grid's routes whose decoy ids
    are all at most d.  The least worst risk per cell must equal the worst mode of _risk_to_go from
    the start state, which the worst-risk front's bound reads.
    """
    motion = MotionModel()
    grid, spread = abstract_scenario(n, n_decoys=2), generate("uniform", n, n_decoys=2, seed=n)
    fingerprints = array("q")  # hash of both walks' objectives on the generated map, in full-walk order
    fits = []  # (peak, decoys used) per route of the full walk
    least: dict[tuple[int, int], F] = {}  # (peak, largest decoy id used) -> least average risk
    least_worst: dict[tuple[int, int], F] = {}  # the same keys -> least worst risk
    full_walks = zip(_both_walks(grid, n, 2, motion), _both_walks(spread, n, 2, motion), strict=True)
    for on_grid, on_spread in full_walks:
        (seq, (sum_nu, sum_de), wait), (worst_seq, (worst_nu, worst_de), worst_wait) = on_grid
        assert seq == worst_seq == on_spread[0][0] == on_spread[1][0]
        route = Route(seq)
        report = privacy_risks(route, grid, check=False)
        assert F(sum_nu, sum_de * n) == report.average
        assert F(worst_nu, worst_de) == report.worst_case
        assert wait.hex() == worst_wait.hex() == wait_times(route, grid, motion, check=False).average.hex()
        assert (on_spread[0][1], on_spread[1][1]) == ((sum_nu, sum_de), (worst_nu, worst_de))
        spread_wait = wait_times(route, spread, motion, check=False).average.hex()
        assert on_spread[0][2].hex() == on_spread[1][2].hex() == spread_wait
        fingerprints.append(hash((on_spread[0][1:], on_spread[1][1:])))
        decoy_ids = [stop.sid for stop in seq if stop.kind == "d"]
        peak = max_load(seq)
        fits.append((peak, len(decoy_ids)))
        key = (peak, max(decoy_ids, default=0))
        least[key] = min(report.average, least.get(key, report.average))
        least_worst[key] = min(report.worst_case, least_worst.get(key, report.worst_case))
    assert len(fingerprints) == route_count_upper_bound(n, 2)

    for capacity in range(1, n + 1):
        for budget in range(3 if capacity < n else 2):
            expected = [
                h for h, (peak, used) in zip(fingerprints, fits) if peak <= capacity and used <= budget
            ]
            got = [hash((avg[1:], worst[1:])) for avg, worst in _both_walks(spread, capacity, budget, motion)]
            assert got == expected, (capacity, budget)

    table = min_avg_risk_sweep([n], range(1, 5), range(3))
    for c in range(1, 5):
        for n_d in range(3):
            fits_cell = [key for key in least if key[0] <= c and key[1] <= n_d]
            assert table[(n, c, n_d)] == min(least[key] for key in fits_cell), (c, n_d)
            worst = _risk_to_go(c, n_d, average=False)(n, (), 0, n_d)
            assert F(*worst) == min(least_worst[key] for key in fits_cell), (c, n_d)
            assert worst == (F(*worst).numerator, F(*worst).denominator)  # a reduced pair


def test_walker_state_matches_the_per_route_path_on_every_n5_route():
    scenario = generate("uniform", 5, seed=11)
    drone = DroneSpec(capacity=3)
    count = 0
    for (seq, (sum_nu, sum_de), wait), (worst_seq, (worst_nu, worst_de), worst_wait) in _both_walks(
        scenario, 3, 0, MotionModel()
    ):
        assert seq == worst_seq
        e = evaluate(Route(seq), scenario, drone, check=False)
        assert F(sum_nu, sum_de * 5) == e.avg_risk
        assert F(worst_nu, worst_de) == e.worst_risk
        assert wait.hex() == worst_wait.hex() == e.avg_wait.hex()
        count += 1
    assert count == 52920


def test_pareto_rejects_bad_objectives():
    fixture = unit_square_fixture("diagonal")
    with pytest.raises(ValueError):
        pareto_front(fixture, DroneSpec(capacity=2), objectives=("avg_wait", "avg_risk"))
    for objectives in (None, ("avg_risk",), ("avg_risk", "avg_wait", "avg_wait"), "ab"):
        with pytest.raises(ValueError, match=r"objectives must pair one of \('avg_risk', 'worst_risk'\) with"):
            pareto_front(fixture, DroneSpec(capacity=2), objectives=objectives)


def test_accumulator_is_independent_of_offer_order():
    import random

    rng = random.Random(99)
    points = []
    for i in range(60):
        risk = F(rng.randrange(1, 30), 30)
        wait = float(rng.randrange(1, 40))
        for sid in (i + 1, i + 61):  # two routes per objective vector: an exact tie
            points.append((risk, wait, (Stop("v", sid), Stop("a", sid))))

    def build(ordered):
        acc = ParetoAccumulator()
        for risk, wait, seq in ordered:
            acc.offer(risk, wait, seq)
        return acc

    sequential = build(points)
    assert min(sequential.counts) >= 2
    assert 0 < len(sequential) == len(sequential.waits) < len(points) // 2  # some offers were dominated
    for _ in range(5):
        shuffled = points[:]
        rng.shuffle(shuffled)
        acc = build(shuffled)
        assert acc.waits == sequential.waits
        assert acc.risks == sequential.risks
        assert acc.counts == sequential.counts
        assert acc.seqs == sequential.seqs
        assert len(acc) == len(sequential)


def test_sweep_reference_cells():
    table = min_avg_risk_sweep(range(1, 4), range(1, 4), range(0, 1))
    assert table[(3, 1, 0)] == F(1)
    assert table[(3, 2, 0)] == F(5, 12)
    assert table[(3, 3, 0)] == F(1, 3)
    for n in range(1, 4):
        for c in range(n, 4):
            assert table[(n, c, 0)] == F(1, n)


def test_sweep_matches_direct_enumeration():
    table = min_avg_risk_sweep([3], [2], [1])
    scenario = abstract_scenario(3, n_decoys=1)
    direct = min(
        evaluate(route, scenario, DroneSpec(capacity=2)).avg_risk
        for route in enumerate_routes(scenario, DroneSpec(capacity=2), decoy_budget=1)
    )
    assert table[(3, 2, 1)] == direct


def test_sweep_checks_every_guard_before_its_first_walk(monkeypatch):
    """n = 7 at capacity 7 passes the guard (681,080,400 routes for the exhaustive walk); n = 8 is
    refused before any cell's memo is built."""
    def no_memo(*args, **kwargs):
        raise AssertionError("the sweep built a memo before it refused")

    monkeypatch.setattr(search, "_risk_to_go", no_memo)
    with pytest.raises(GuardError, match="n=8"):
        min_avg_risk_sweep(range(7, 9), [8], [0])


def test_sweep_refuses_a_million_orders_at_once():
    """The guard takes n, not a placeholder scenario of n orders, and never computes n! in full."""
    import time

    start = time.perf_counter()
    with pytest.raises(GuardError, match=r"n=1000000, capacity 1, decoy budget 0 refused: at least 1000000!"):
        min_avg_risk_sweep([10**6], [1], [0])
    assert time.perf_counter() - start < 1.0


_CAPPED_SWEEP = """
import resource, sys, time
cap = 512 * 2**20  # far less than a set of 10^8 ints needs
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from droneprivacy import GuardError, min_avg_risk_sweep
from droneprivacy.cli import main
n_hi, d_hi = int(sys.argv[1]), int(sys.argv[2])
start = time.perf_counter()
try:
    min_avg_risk_sweep(range(1, n_hi + 1), range(1, 2), range(d_hi + 1))
except GuardError:
    pass
else:
    sys.exit("the sweep was not refused")
code = main(["sweep", "--n", f"1..{n_hi}", "--capacity", "1", "--decoys", f"0..{d_hi}"])
print(f"{time.perf_counter() - start:.3f}")
sys.exit(code)
"""


@pytest.mark.parametrize("n_hi, d_hi", [(10**8, 0), (7, 10**8), (10**11, 0), (7, 10**11)])
def test_sweep_refuses_huge_ranges_before_building_them(n_hi, d_hi):
    """A range's largest n or budget is refused before the range is iterated: under a 512 MB address-space
    cap, the library raises GuardError and the CLI exits 4 with one ``refused:`` line, both in under 1 s."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import droneprivacy

    src = str(Path(droneprivacy.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _CAPPED_SWEEP, str(n_hi), str(d_hi)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("refused: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert float(proc.stdout) < 1.0


def test_sweep_refuses_a_table_of_too_many_cells(monkeypatch):
    """The cell count is n values * capacities * budgets, read from each range's ends without iterating it
    (``len`` fails past 2^63), and checked before any memo or row is built."""
    table = min_avg_risk_sweep(range(1, 3), range(1, 4), range(2))
    assert len(table) == 12
    monkeypatch.setattr(search, "MAX_SWEEP_CELLS", 12)
    assert min_avg_risk_sweep(range(1, 3), range(1, 4), range(2)) == table
    assert min_avg_risk_sweep([2, 1], [3, 1, 2, 2], [1, 0]) == table

    def no_memo(*args, **kwargs):
        raise AssertionError("the sweep built a memo before it refused")

    monkeypatch.setattr(search, "_risk_to_go", no_memo)
    with pytest.raises(GuardError, match=r"^sweep table of 15 cells refused \(limit 12\)$"):
        min_avg_risk_sweep(range(1, 4), range(1, 6), [0])
    monkeypatch.undo()
    for capacities, count in [(range(1, 10**11 + 1), "700,000,000,000"), (range(10**20, 0, -1), "more than 2^69")]:
        with pytest.raises(GuardError, match=re.escape(f"sweep table of {count} cells refused")):
            min_avg_risk_sweep(range(1, 8), capacities, [0])


def test_sweep_builds_one_memo_per_capacity_up_to_the_largest_n(monkeypatch):
    """A cell never holds more items than orders, so capacities past the largest n share its memo."""
    built = []
    risk_to_go = search._risk_to_go

    def counted(capacity, decoy_budget):
        built.append((capacity, decoy_budget))
        return risk_to_go(capacity, decoy_budget)

    monkeypatch.setattr(search, "_risk_to_go", counted)
    ranges = (range(1, 5), range(1, 10), range(2))
    table = min_avg_risk_sweep(*ranges)
    assert sorted(built) == [(c, d) for c in range(1, 5) for d in range(2)]
    assert table == exhaustive_sweep(*ranges)


@pytest.mark.parametrize("n_max, d_max", [(5, 0), (4, 3)])
def test_sweep_equals_the_exhaustive_walk(n_max, d_max):
    """The memoized sweep against the walk over every route, for capacities 1..n+1."""
    for n in range(1, n_max + 1):
        ranges = ([n], range(1, n + 2), range(d_max + 1))
        assert min_avg_risk_sweep(*ranges) == exhaustive_sweep(*ranges), n


@pytest.mark.parametrize("budget", [0.5, 1.0, True])
def test_decoy_budgets_must_be_integers(budget):
    """A budget of 0.5 used to recurse without end in the route counter (decoys left -0.5, -1.5, ...), and
    True counted as 1."""
    scenario = generate("uniform", 3, 1, seed=0)
    with pytest.raises(ValueError, match=f"decoy budget must be an integer, got {budget!r}"):
        list(enumerate_routes(scenario, DroneSpec(2), budget))
    with pytest.raises(ValueError, match=f"decoy budget must be an integer, got {budget!r}"):
        pareto_front(scenario, DroneSpec(2), decoy_budget=budget)


@pytest.mark.parametrize("ranges, message", [
    ((range(1, 3), [2], [0.5]), "decoy budget must be an integer, got 0.5"),
    (([1, 2], [True], [0]), "capacity must be an integer, got True"),
    (([1, 2.0], [1], [0]), "n must be an integer, got 2.0"),
    (((n for n in (1, "2")), [1], [0]), "n must be an integer, got '2'"),
])
def test_sweep_ranges_must_hold_integers(ranges, message):
    with pytest.raises(ValueError, match=message):
        min_avg_risk_sweep(*ranges)


def test_sweep_rejects_empty_or_bad_ranges():
    with pytest.raises(ValueError):
        min_avg_risk_sweep([], [1], [0])
    with pytest.raises(ValueError):
        min_avg_risk_sweep([1], [0], [0])
