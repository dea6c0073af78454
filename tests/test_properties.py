"""Property-based and randomized invariants across the whole pipeline."""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from droneprivacy import (
    DroneSpec,
    MotionModel,
    Route,
    ScenarioFile,
    abstract_scenario,
    enumerate_routes,
    enumerate_worlds,
    generate,
    instantiate_template,
    posterior_matrix,
    privacy_risks,
    risks_from_posterior,
    split_template,
    stuffing_template,
    validate_route,
    wait_times,
)
from droneprivacy.io import scenario_file_from_dict, scenario_file_to_dict
from conftest import random_valid_route, run_segments


@st.composite
def scenario_route_and_sizes(draw, max_n=5, max_decoys=2):
    n = draw(st.integers(1, max_n))
    n_d = draw(st.integers(0, max_decoys))
    capacity = draw(st.integers(1, n))
    budget = draw(st.integers(0, n_d))
    seed = draw(st.integers(0, 2**30))
    scenario = abstract_scenario(n, n_d)
    route = random_valid_route(scenario, capacity, budget, random.Random(seed))
    return scenario, route, capacity


@settings(max_examples=80, deadline=None)
@given(scenario_route_and_sizes(max_n=4))
def test_world_probabilities_and_posterior_rows_sum_to_one(case):
    scenario, route, _ = case
    worlds = enumerate_worlds(route, scenario)
    assert sum(w.probability for w in worlds) == 1
    posterior = posterior_matrix(route, scenario)
    for row in posterior.rows:
        assert sum(row) == 1
        assert all(0 <= p <= 1 for p in row)


@settings(max_examples=60, deadline=None)
@given(scenario_route_and_sizes(max_n=4, max_decoys=0))
def test_posterior_is_doubly_stochastic_without_decoys(case):
    scenario, route, _ = case
    posterior = posterior_matrix(route, scenario)
    size = scenario.n
    for j in range(size):
        assert sum(posterior.rows[i][j] for i in range(size)) == 1


@settings(max_examples=80, deadline=None)
@given(scenario_route_and_sizes(max_n=4))
def test_fast_engine_matches_oracle_on_samples(case):
    scenario, route, _ = case
    assert privacy_risks(route, scenario).risks == risks_from_posterior(
        posterior_matrix(route, scenario)
    )


@settings(max_examples=100, deadline=None)
@given(scenario_route_and_sizes())
def test_risks_are_probabilities_and_worst_case_floor(case):
    scenario, route, _ = case
    report = privacy_risks(route, scenario)
    used = sum(s.kind == "d" for s in route)
    for risk in report.risks:
        assert 0 < risk <= 1
    assert report.worst_case >= F(1, scenario.n + used)


@settings(max_examples=100, deadline=None)
@given(scenario_route_and_sizes())
def test_decomposition_partitions_and_length_accounting(case):
    scenario, route, _ = case
    segments = run_segments(route)
    assert segments[0][0] == 0 and segments[-1][1] == len(route)
    assert all(hi == lo for (_, hi), (lo, _) in zip(segments, segments[1:]))
    # a vendor run first, then customer and vendor runs in turn
    for k, (lo, hi) in enumerate(segments):
        assert lo < hi
        assert all(stop.is_vendor == (k % 2 == 0) for stop in route.stops[lo:hi])
    assert len(route) == 2 * scenario.n + sum(s.kind == "d" for s in route)


@settings(max_examples=60, deadline=None)
@given(scenario_route_and_sizes(max_n=4, max_decoys=1))
def test_suffix_stops_never_change_earlier_waits(case):
    scenario, route, _ = case
    motion = MotionModel(speed=15.0, stop_duration=20.0)
    base = wait_times(route, scenario, motion)
    unused = [d.id for d in scenario.decoy_vendors if all(
        not (s.kind == "d" and s.sid == d.id) for s in route
    )]
    if not unused:
        return
    from droneprivacy import Stop

    extended = Route(route.stops + (Stop("d", unused[0]),))
    assert wait_times(extended, scenario, motion).waits == base.waits


def test_within_run_permutations_never_change_risks_1000_cases():
    rng = random.Random(20250810)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 5)
        n_d = rng.randint(0, 2)
        scenario = abstract_scenario(n, n_d)
        capacity = rng.randint(1, n)
        route = random_valid_route(scenario, capacity, rng.randint(0, n_d), rng)
        segments = [(lo, hi) for lo, hi in run_segments(route) if hi - lo > 1]
        if not segments:
            continue
        lo, hi = rng.choice(segments)
        stops = list(route.stops)
        segment = stops[lo:hi]
        rng.shuffle(segment)
        permuted = Route(tuple(stops[:lo] + segment + stops[hi:]))
        original = privacy_risks(route, scenario)
        shuffled = privacy_risks(permuted, scenario)
        assert shuffled.risks == original.risks, (route.tokens, permuted.tokens)
        checked += 1
    assert checked == 1000


def test_routes_from_other_modules_revalidate_ok():
    scenario = abstract_scenario(3, n_decoys=1)
    drone = DroneSpec(capacity=2)
    for route in enumerate_routes(scenario, drone, decoy_budget=1):
        assert validate_route(route, scenario, drone).ok
    geo = generate("hub_spoke", 4, seed=8)
    drone4 = DroneSpec(capacity=4)
    for template in (split_template(4, 2, 2), stuffing_template(4, 2)):
        route = instantiate_template(template, geo, drone4)
        assert validate_route(route, geo, drone4).ok


@settings(max_examples=40, deadline=None)
@given(
    topology=st.sampled_from(["uniform", "two_clusters", "hub_spoke", "linear"]),
    n=st.integers(1, 6),
    n_d=st.integers(0, 2),
    seed=st.integers(0, 2**20),
    with_motion=st.booleans(),
)
def test_scenario_serialization_round_trip(topology, n, n_d, seed, with_motion):
    scenario = generate(topology, n, n_d, seed)
    motion = MotionModel(speed=17.5, stop_duration=42.0) if with_motion else None
    original = ScenarioFile(scenario=scenario, name=f"{topology}-{seed}", motion=motion)
    assert scenario_file_from_dict(scenario_file_to_dict(original)) == original
