"""Observer oracle: world enumeration and posterior marginals."""

import math
import random
from fractions import Fraction as F

import pytest

from droneprivacy import (
    CustomerSite,
    DroneSpec,
    GuardError,
    Route,
    Scenario,
    Stop,
    VendorSite,
    abstract_scenario,
    enumerate_routes,
    enumerate_worlds,
    generate,
    parse_route,
    posterior_matrix,
    privacy_risks,
    risks_from_posterior,
    validate_route,
)
from conftest import posterior_by_summing_worlds


def drop_payload_sizes(route, scenario):
    """Apparent payload size at each drop, recomputed independently here."""
    aboard = 0
    sizes = []
    for stop in route:
        if stop.kind == "a":
            sizes.append(aboard)
            aboard -= 1
        else:
            aboard += 1
    return sizes


def test_worked_example_worlds_match_the_stop_by_stop_table():
    scenario = abstract_scenario(3)
    worlds = enumerate_worlds(parse_route("v1,v2,a2,v3,a3,a1"), scenario)
    assert len(worlds) == 4
    assert all(w.probability == F(1, 4) for w in worlds)
    # a2 sees v1 or v2; a3 and a1 share the remainder with v3
    assignments = {tuple(item.token for _, item in w.assignment) for w in worlds}
    assert assignments == {
        ("v1", "v2", "v3"),
        ("v1", "v3", "v2"),
        ("v2", "v1", "v3"),
        ("v2", "v3", "v1"),
    }


def test_worked_example_posterior_rows():
    scenario = abstract_scenario(3)
    posterior = posterior_matrix(parse_route("v1,v2,a2,v3,a3,a1"), scenario)
    assert posterior.rows == (
        (F(1, 4), F(1, 4), F(1, 2)),
        (F(1, 2), F(1, 2), F(0)),
        (F(1, 4), F(1, 4), F(1, 2)),
    )
    assert risks_from_posterior(posterior) == (F(1, 4), F(1, 2), F(1, 2))


def test_single_order_route_has_one_certain_world():
    scenario = abstract_scenario(1)
    worlds = enumerate_worlds(parse_route("v1,a1"), scenario)
    assert len(worlds) == 1
    assert worlds[0].probability == F(1)
    posterior = posterior_matrix(parse_route("v1,a1"), scenario)
    assert posterior.rows == ((F(1),),)


def test_two_aggregated_orders_split_into_two_worlds():
    scenario = abstract_scenario(2)
    worlds = enumerate_worlds(parse_route("v1,v2,a1,a2"), scenario)
    assert len(worlds) == 2
    assert all(w.probability == F(1, 2) for w in worlds)


@pytest.mark.parametrize("n", [3, 10])
def test_fully_aggregated_orders_are_uniform(n):
    """n = 10 is the guard's limit, D = 10! worlds, counted without walking them."""
    scenario = abstract_scenario(n)
    route = Route(tuple(Stop("v", i + 1) for i in range(n)) + tuple(Stop("a", i + 1) for i in range(n)))
    posterior = posterior_matrix(route, scenario)
    assert posterior.rows == ((F(1, n),) * n,) * n
    assert posterior.worlds == math.factorial(n)
    assert risks_from_posterior(posterior) == (F(1, n),) * n


@pytest.mark.parametrize("tokens,n", [("a1,v1", 1), ("v1,a1,a2,v2", 2)])
def test_unchecked_route_without_a_complete_branch_has_an_all_zero_posterior(tokens, n):
    """A drop from an empty payload leaves no world: D = 0, and every cell stays 0."""
    scenario, route = abstract_scenario(n), parse_route(tokens)
    posterior = posterior_matrix(route, scenario, check=False)
    assert posterior.worlds == 0
    assert posterior.rows == ((F(0),) * n,) * n
    assert enumerate_worlds(route, scenario, check=False) == ()


def test_decoy_items_are_candidate_hypotheses():
    scenario = abstract_scenario(1, n_decoys=1)
    posterior = posterior_matrix(parse_route("v1,d1,a1"), scenario)
    assert [s.token for s in posterior.vendor_stops] == ["v1", "d1"]
    assert posterior.rows == ((F(1, 2), F(1, 2)),)


def test_unused_decoys_appear_as_zero_columns():
    scenario = abstract_scenario(1, n_decoys=2)
    posterior = posterior_matrix(parse_route("v1,d2,a1"), scenario)
    assert [s.token for s in posterior.vendor_stops] == ["v1", "d1", "d2"]
    assert posterior.rows == ((F(1, 2), F(0), F(1, 2)),)


@pytest.mark.parametrize(
    "tokens,n,n_d",
    [
        ("v1,v2,a2,v3,a3,a1", 3, 0),
        ("v1,a1,v2,a2", 2, 0),
        ("v1,v2,v3,a3,a1,a2", 3, 0),
        ("v1,d1,a1,v2,d2,a2", 2, 2),
        ("v2,v1,a2,v3,a1,a3", 3, 0),
    ],
)
def test_world_probabilities_sum_to_one_and_count_branches(tokens, n, n_d):
    scenario = abstract_scenario(n, n_decoys=n_d)
    route = parse_route(tokens)
    worlds = enumerate_worlds(route, scenario)
    assert sum(w.probability for w in worlds) == 1
    # every branch sequence has probability 1 / (product of payload sizes at
    # drops); the worlds must account for exactly that many branches
    branch_count = 1
    for size in drop_payload_sizes(route, scenario):
        branch_count *= size
    merged_branches = sum(w.probability * branch_count for w in worlds)
    assert merged_branches == branch_count
    assert len(worlds) == branch_count  # no two branches make the same assignment
    assert all((w.probability * branch_count).denominator == 1 for w in worlds)


def test_rows_always_sum_to_one_and_columns_without_decoys():
    scenario = abstract_scenario(3)
    posterior = posterior_matrix(parse_route("v1,v2,a2,v3,a3,a1"), scenario)
    for row in posterior.rows:
        assert sum(row) == 1
    for j in range(3):
        assert sum(posterior.rows[i][j] for i in range(3)) == 1  # doubly stochastic


def test_matches_fast_engine_on_a_handful_of_routes():
    cases = [
        ("v1,v2,a2,v3,a3,a1", 3, 0),
        ("v1,v2,a2,v3,a1,v4,a3,a4", 4, 0),
        ("v1,d1,a1,v2,a2,d2", 2, 2),
        ("v2,v1,d1,a2,a1", 2, 1),
    ]
    for tokens, n, n_d in cases:
        scenario = abstract_scenario(n, n_decoys=n_d)
        route = parse_route(tokens)
        assert risks_from_posterior(posterior_matrix(route, scenario)) == privacy_risks(route, scenario).risks


def test_size_guard_refuses_eleven_items():
    scenario = abstract_scenario(9, n_decoys=2)
    route = Route(
        tuple(Stop("v", i + 1) for i in range(9))
        + (Stop("d", 1), Stop("d", 2))
        + tuple(Stop("a", i + 1) for i in range(9))
    )
    # D = 11 * 10 * ... * 3 branches, past 10!
    with pytest.raises(GuardError, match="19,958,400 branches"):
        enumerate_worlds(route, scenario)
    with pytest.raises(GuardError, match="19,958,400 branches"):
        posterior_matrix(route, scenario)


def test_size_guard_refuses_a_2000_order_aggregated_route_at_once():
    """D = 2000! has 5,736 digits; the count stops growing past 64 bits and prints as a power of two."""
    scenario = abstract_scenario(2000)
    route = Route(tuple(Stop("v", i) for i in range(1, 2001)) + tuple(Stop("a", i) for i in range(1, 2001)))
    for walk in (enumerate_worlds, posterior_matrix):
        with pytest.raises(GuardError, match=r"more than 2\^\d+ branches exceeds the limit of 10! = 3,628,800"):
            walk(route, scenario)


def test_size_guard_allows_ten_items_on_a_cheap_route():
    scenario = abstract_scenario(10)
    route = Route(tuple(s for i in range(10) for s in (Stop("v", i + 1), Stop("a", i + 1))))
    worlds = enumerate_worlds(route, scenario)
    assert len(worlds) == 1


def test_branch_guard_admits_twelve_orders_served_one_at_a_time():
    """The guard bounds the branch count D, not the items: here 12 items but D = 1."""
    scenario = abstract_scenario(12)
    route = Route(tuple(s for i in range(12) for s in (Stop("v", i + 1), Stop("a", i + 1))))
    posterior = posterior_matrix(route, scenario)
    assert posterior.worlds == 1
    assert risks_from_posterior(posterior) == (1,) * 12
    assert len(enumerate_worlds(route, scenario)) == 1


def _one_at_a_time(n):
    return tuple(s for i in range(n) for s in (Stop("v", i + 1), Stop("a", i + 1)))


def test_world_walk_loops_through_forced_drops_of_a_600_order_route():
    """Only drops with two or more items aboard branch, so D = 1 routes are not limited by recursion depth."""
    scenario = abstract_scenario(600)
    worlds = enumerate_worlds(Route(_one_at_a_time(600)), scenario)
    assert len(worlds) == 1 and worlds[0].probability == 1
    assert worlds[0].assignment == tuple((i + 1, Stop("v", i + 1)) for i in range(600))
    # The last two orders aggregated: 598 forced drops, then one branch.
    tail = (Stop("v", 599), Stop("v", 600), Stop("a", 600), Stop("a", 599))
    worlds = enumerate_worlds(Route(_one_at_a_time(598) + tail), scenario)
    assert [w.probability for w in worlds] == [F(1, 2)] * 2
    assert [w.assignment[-2:] for w in worlds] == [
        ((600, Stop("v", 599)), (599, Stop("v", 600))), ((600, Stop("v", 600)), (599, Stop("v", 599))),
    ]
    assert worlds[0].assignment[:598] == worlds[1].assignment[:598]


def test_posterior_of_a_1000_order_route_served_one_at_a_time_is_the_identity():
    scenario = abstract_scenario(1000)
    posterior = posterior_matrix(Route(_one_at_a_time(1000)), scenario)
    assert posterior.worlds == 1
    assert all(row[i] == 1 and not any(row[:i] + row[i + 1:]) for i, row in enumerate(posterior.rows))


def test_invalid_route_rejected():
    with pytest.raises(ValueError):
        enumerate_worlds(parse_route("a1,v1"), abstract_scenario(1))


def _relabeled(scenario, rng):
    """The same map and orders under random ids, with the customer list shuffled."""
    orders = scenario.orders
    vendor_ids = rng.sample(range(20), len(orders))
    customer_ids = rng.sample(range(20), len(orders))
    decoy_ids = rng.sample(range(20), scenario.n_decoys)
    vendors = [VendorSite(vid, v.x, v.y) for vid, (v, _) in zip(vendor_ids, orders)]
    vendors += [VendorSite(did, d.x, d.y, decoy=True) for did, d in zip(decoy_ids, scenario.decoy_vendors)]
    customers = [
        CustomerSite(cid, c.x, c.y, vid) for cid, vid, (_, c) in zip(customer_ids, vendor_ids, orders)
    ]
    rng.shuffle(customers)
    return Scenario(vendors=tuple(vendors), customers=tuple(customers))


def _random_route(scenario, capacity, rng):
    """A random valid route: each step picks up (below capacity), visits a new decoy or drops an item."""
    pending = [(vendor.id, customer.id) for vendor, customer in scenario.orders]
    decoys = [d.id for d in scenario.decoy_vendors]
    aboard, stops = [], []
    while pending or aboard:
        choices = [("v", i) for i in range(len(pending))] if len(aboard) < capacity else []
        choices += [("d", i) for i in range(len(decoys))]
        choices += [("a", i) for i in range(len(aboard))]
        kind, i = rng.choice(choices)
        if kind == "v":
            vendor_id, customer_id = pending.pop(i)
            aboard.append(customer_id)
            stops.append(Stop("v", vendor_id))
        elif kind == "d":
            stops.append(Stop("d", decoys.pop(i)))
        else:
            stops.append(Stop("a", aboard.pop(i)))
    return Route(tuple(stops))


def _structural_cases():
    for n in range(1, 4):
        for budget in range(3):
            scenario = abstract_scenario(n, n_decoys=budget)
            for route in enumerate_routes(scenario, DroneSpec(capacity=n), budget):
                yield route, scenario


def _random_cases(count=200):
    rng = random.Random(20221018)
    topologies = ("uniform", "two_clusters", "hub_spoke", "linear")
    for k in range(count):
        n, n_decoys = rng.choice((5, 6)), rng.choice((1, 2))
        scenario = _relabeled(generate(topologies[k % 4], n, n_decoys, seed=k), rng)
        yield _random_route(scenario, rng.randint(1, 3), rng), scenario


def _sampled_cases():
    """Two random routes at every capacity for n = 5..7 and 0..2 decoys: payloads up to 9 items, where most
    cells repeat another cell's count (at most 9!/2 worlds, inside the 10! guard)."""
    rng = random.Random(1975)
    for n in range(5, 8):
        for n_decoys in range(3):
            scenario = abstract_scenario(n, n_decoys=n_decoys)
            for capacity in range(1, n + 1):
                for _ in range(2):
                    yield _random_route(scenario, capacity, rng), scenario


@pytest.mark.parametrize(
    "cases,count",
    [(_structural_cases, 200), (_random_cases, 200), (_sampled_cases, 108)],
    ids=["abstract-n-le-3", "random-n5-6", "sampled-n5-7-every-capacity"],
)
def test_posterior_matches_the_summed_worlds(cases, count):
    checked = 0
    for route, scenario in cases():
        worlds = enumerate_worlds(route, scenario)
        keys = [[(c, item.sort_key) for c, item in w.assignment] for w in worlds]
        assert keys == sorted(keys)
        assert len(set(map(tuple, keys))) == len(keys)
        probability = F(1, len(worlds))
        assert all(w.probability == probability for w in worlds)
        posterior = posterior_matrix(route, scenario)
        columns, rows = posterior_by_summing_worlds(worlds, scenario)
        assert posterior.vendor_stops == columns, route.tokens
        assert posterior.rows == rows, route.tokens
        assert posterior.worlds == len(worlds), route.tokens
        assert posterior.customer_ids == tuple(c.id for c in scenario.customers)
        checked += 1
    assert checked >= count


# (route, orders, decoys, validated): routes whose vendor runs share counts in every way the run grouping
# must get right, each checked against the summed worlds.
RUN_GROUPING_CASES = [
    ("v1,v2,v3,v4,a2,a4,v5,v6,v7,a1,a3,a5,a6,a7", 7, 0, True),  # runs of 4 and 3 items, 1,440 worlds
    ("v1,d1,v2,v3,a2,a1,v4,d2,v5,v6,a3,a6,a5,a4", 6, 2, True),  # a decoy inside each run, 4,320 worlds
    ("v1,v2,a1,d1,d2,a2,v3,a3", 3, 2, True),  # a run of decoys only
    ("d1,v1,a1,v2,a2,d2", 2, 2, True),  # a decoy-only run before the first drop and one after the last
    ("v1,v2,a2,a1,v3,d1,a3", 3, 1, True),  # the first run's items are handed over for sure by its second drop
    ("v3,v1,v2,a1,v4,a3,a2,v5,a4,a5", 5, 0, True),  # runs of 3, 1 and 1 items
    ("v1,v2,v1,a1,a2,a1", 2, 0, False),  # vendor v1 in one run twice, customer a1 served twice: counts add up
    ("v1,a1,v1,v2,a2,a1", 2, 0, False),  # vendor v1 in two runs
    ("v1,d1,v2,d1,a1,a2", 2, 1, False),  # decoy d1 twice in one run
    ("v1,v2,a1,a1,v2,a2", 2, 0, False),  # vendor v2 in two runs, a1 twice
    ("v1,a1,a2,v2", 2, 0, False),  # no complete branch: every cell 0
    ("v1,v2,a1,a2,a2,v3,a3", 3, 0, False),  # no complete branch, with sizes past 0
]


@pytest.mark.parametrize("tokens, n, n_decoys, valid", RUN_GROUPING_CASES)
def test_run_grouped_posterior_matches_the_summed_worlds(tokens, n, n_decoys, valid):
    scenario, route = abstract_scenario(n, n_decoys=n_decoys), parse_route(tokens)
    assert bool(validate_route(route, scenario)) == valid
    worlds = enumerate_worlds(route, scenario, check=False)
    posterior = posterior_matrix(route, scenario, check=valid)
    columns, rows = posterior_by_summing_worlds(worlds, scenario)
    assert posterior.vendor_stops == columns
    assert posterior.rows == rows
    assert posterior.worlds == len(worlds) == math.prod(drop_payload_sizes(route, scenario))


def test_column_layout_follows_the_orders_when_ids_do_not():
    """Customers listed 9, 2, 4, served by vendors 3, 7, 5; decoys 8 and 2 (a decoy id may equal a customer's)."""
    scenario = Scenario(
        vendors=(
            VendorSite(7, 0.0, 0.0), VendorSite(8, 1.0, 0.0, decoy=True), VendorSite(5, 2.0, 0.0),
            VendorSite(2, 3.0, 0.0, decoy=True), VendorSite(3, 4.0, 0.0),
        ),
        customers=(CustomerSite(9, 0.0, 1.0, vendor_id=3), CustomerSite(2, 1.0, 1.0, vendor_id=7),
                   CustomerSite(4, 2.0, 1.0, vendor_id=5)),
    )
    assert scenario.customer_ids == (9, 2, 4)
    assert [s.token for s in scenario.vendor_stops] == ["v3", "v7", "v5", "d2", "d8"]
    assert scenario.vendor_column == {("v", 3): 0, ("v", 7): 1, ("v", 5): 2, ("d", 2): 3, ("d", 8): 4}
    route = parse_route("v5,d8,v3,a4,v7,d2,a2,a9")
    posterior = posterior_matrix(route, scenario)
    assert posterior.customer_ids == scenario.customer_ids and posterior.vendor_stops == scenario.vendor_stops
    assert (posterior.vendor_stops, posterior.rows) == posterior_by_summing_worlds(
        enumerate_worlds(route, scenario), scenario)
    # Payload sizes 3 (v5, d8, v3), then 4 and 3 (v7 and d2 added): a4 holds v5 with chance 1/3.
    assert posterior.rows[2][2] == F(1, 3)
    assert risks_from_posterior(posterior) == privacy_risks(route, scenario).risks
