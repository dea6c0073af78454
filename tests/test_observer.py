"""Observer oracle: world enumeration and posterior marginals."""

from fractions import Fraction as F

import pytest

from droneprivacy import (
    GuardError,
    Route,
    Stop,
    abstract_scenario,
    enumerate_worlds,
    parse_route,
    posterior_matrix,
    privacy_risks,
    risks_from_posterior,
)


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


def test_fully_aggregated_three_orders_are_uniform():
    scenario = abstract_scenario(3)
    posterior = posterior_matrix(parse_route("v1,v2,v3,a1,a2,a3"), scenario)
    assert posterior.rows == ((F(1, 3),) * 3,) * 3
    assert risks_from_posterior(posterior) == (F(1, 3),) * 3


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
    # drops); merged worlds must account for exactly that many branches
    branch_count = 1
    for size in drop_payload_sizes(route, scenario):
        branch_count *= size
    merged_branches = sum(w.probability * branch_count for w in worlds)
    assert merged_branches == branch_count
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
    with pytest.raises(GuardError):
        enumerate_worlds(route, scenario)


def test_size_guard_allows_ten_items_on_a_cheap_route():
    scenario = abstract_scenario(10)
    route = Route(tuple(s for i in range(10) for s in (Stop("v", i + 1), Stop("a", i + 1))))
    worlds = enumerate_worlds(route, scenario)
    assert len(worlds) == 1


def test_invalid_route_rejected():
    with pytest.raises(ValueError):
        enumerate_worlds(parse_route("a1,v1"), abstract_scenario(1))
