"""Geometry: leg times, wait-time model, fixtures, and generators."""

import collections
import itertools
import math
import random
import sys
import time

import pytest

from droneprivacy import (
    UNIT_FIXTURE_MOTION,
    DroneSpec,
    MotionModel,
    Stop,
    abstract_scenario,
    generate,
    parse_route,
    pareto_front,
    unit_square_fixture,
    wait_times,
)
from droneprivacy import geometry
from droneprivacy.fixtures import UNIT_SQUARE_TABLE, WAIT_TOLERANCE
from droneprivacy.geometry import leg_times


def _sites(scenario):
    """Every site's stop: real vendors, decoys, customers."""
    return [Stop("d" if v.decoy else "v", v.id) for v in scenario.vendors] + [
        Stop("a", c.id) for c in scenario.customers
    ]


def test_unit_square_distances():
    fixture = unit_square_fixture("diagonal")
    v1, v2, a1, a2 = Stop("v", 1), Stop("v", 2), Stop("a", 1), Stop("a", 2)
    legs = leg_times([v1, v2, a1, a2], fixture, UNIT_FIXTURE_MOTION)  # time equals distance
    for i in range(4):
        assert legs[i][i] == 0.0
        for j in range(4):
            assert legs[i][j] == legs[j][i]
    assert legs[0][2] == pytest.approx(math.sqrt(2))  # v1 to its diagonally opposite customer a1
    assert legs[0][1] == pytest.approx(1.0)


def test_leg_times_triangle_inequality():
    """A detour through a third stop never takes less time than the direct leg.

    The pruned front's wait bound visits only real stops and relies on this
    (a decoy detour cannot shorten a leg), so it is checked on every topology
    with a positive stop time and no tolerance.
    """
    drone = DroneSpec(capacity=1, speed=13.0, stop_duration=30.0)
    for topology in ("uniform", "two_clusters", "hub_spoke", "linear"):
        scenario = generate(topology, 5, n_decoys=2, seed=11)
        legs = leg_times(_sites(scenario), scenario, drone)
        for i, j, k in itertools.permutations(range(len(legs)), 3):
            assert legs[i][j] <= legs[i][k] + legs[k][j], (topology, i, j, k)


@pytest.mark.parametrize("row", UNIT_SQUARE_TABLE, ids=lambda r: r.tag)
def test_unit_square_waits_match_reference_table(row):
    fixture = unit_square_fixture(row.config)
    report = wait_times(row.route, fixture, UNIT_FIXTURE_MOTION)
    for actual, expected in zip(report.waits, row.waits):
        assert abs(actual - expected) <= WAIT_TOLERANCE
    assert abs(report.average - row.avg_wait) <= WAIT_TOLERANCE


def test_wait_includes_prior_stop_durations():
    # 1200 m at 20 m/s plus one completed pickup stop of 60 s
    from droneprivacy import CustomerSite, Scenario, VendorSite

    scenario = Scenario(
        vendors=(VendorSite(1, 0.0, 0.0),),
        customers=(CustomerSite(1, 1200.0, 0.0, vendor_id=1),),
    )
    report = wait_times(parse_route("v1,a1"), scenario, MotionModel(speed=20.0, stop_duration=60.0))
    assert report.waits == (120.0,)


def test_waits_ignore_suffix_stops():
    scenario = abstract_scenario(2, n_decoys=1)
    motion = MotionModel(speed=10.0, stop_duration=30.0)
    base = wait_times(parse_route("v1,v2,a1,a2"), scenario, motion)
    extended = wait_times(parse_route("v1,v2,a1,a2,d1"), scenario, motion)
    assert base.waits == extended.waits


def test_average_wait_is_the_mean():
    scenario = generate("uniform", 6, seed=5)
    motion = MotionModel()
    route = parse_route("v1,v2,a2,v3,a3,a1,v4,v5,a4,v6,a6,a5")
    report = wait_times(route, scenario, motion)
    mean = sum(report.waits) / len(report.waits)
    assert abs(report.average - mean) <= 1e-12 * max(1.0, abs(mean))


def _two_orders(vendor_x: float, customer_x: float):
    from droneprivacy import CustomerSite, Scenario, VendorSite

    return Scenario(
        vendors=(VendorSite(1, -vendor_x, 0.0), VendorSite(2, vendor_x, 0.0)),
        customers=(CustomerSite(1, customer_x, 0.0, vendor_id=1),
                   CustomerSite(2, customer_x, 1.0, vendor_id=2)),
    )


def test_waits_too_long_to_time_are_refused():
    """Finite sites and motion whose legs or waits overflow raise instead of timing a route as inf."""
    route = parse_route("v1,v2,a1,a2")
    cases = [
        (_two_orders(1e308, 0.0), DroneSpec(capacity=2)),  # vendors at x = +-1e308
        (_two_orders(450.0, 0.0), MotionModel(speed=1e-320, stop_duration=0.0)),  # a subnormal speed
    ]
    for scenario, motion in cases:
        with pytest.raises(ValueError, match="too long to time"):
            leg_times(list(route), scenario, motion)
        with pytest.raises(ValueError, match="too long to time"):
            wait_times(route, scenario, motion)
    # Every leg is finite but no route's wait sum is: the front's points are refused when re-evaluated.
    scenario, drone = _two_orders(0.0, 1.2e308), DroneSpec(capacity=2, speed=1.0, stop_duration=0.0)
    assert max(map(max, leg_times(list(route), scenario, drone))) < math.inf
    with pytest.raises(ValueError, match="too long to time"):
        pareto_front(scenario, drone)


def test_generators_are_deterministic_in_seed():
    for topology in ("uniform", "two_clusters", "hub_spoke", "linear"):
        first = generate(topology, 6, n_decoys=2, seed=42)
        second = generate(topology, 6, n_decoys=2, seed=42)
        assert first == second
        different = generate(topology, 6, n_decoys=2, seed=43)
        assert first != different


def test_uniform_sites_stay_in_the_square():
    scenario = generate("uniform", 8, n_decoys=2, seed=3, extent_m=2000.0)
    for site in scenario.vendors + scenario.customers:
        assert 0.0 <= site.x <= 2000.0
        assert 0.0 <= site.y <= 2000.0


def test_two_clusters_separation_guarantee():
    scenario = generate("two_clusters", 6, seed=9, extent_m=20000.0, separation=5000.0)
    vendors = [(v.x, v.y) for v in scenario.vendors]
    customers = [(c.x, c.y) for c in scenario.customers]

    def dist(p, q):
        return math.hypot(p[0] - q[0], p[1] - q[1])

    max_intra = max(
        max((dist(p, q) for p, q in itertools.combinations(vendors, 2)), default=0.0),
        max((dist(p, q) for p, q in itertools.combinations(customers, 2)), default=0.0),
    )
    min_inter = min(dist(p, q) for p in vendors for q in customers)
    assert max_intra < min_inter


def test_two_clusters_rejects_oversized_radius():
    with pytest.raises(ValueError):
        generate("two_clusters", 3, seed=0, separation=1000.0, cluster_radius=600.0)


def test_linear_sites_stay_in_the_corridor():
    scenario = generate("linear", 6, n_decoys=1, seed=4, extent_m=8000.0, corridor_width=120.0)
    for site in scenario.vendors + scenario.customers:
        assert abs(site.y - 4000.0) <= 120.0


def test_hub_spoke_radii():
    scenario = generate("hub_spoke", 5, n_decoys=1, seed=6, extent_m=10000.0)
    center = (5000.0, 5000.0)
    for vendor in scenario.vendors:
        assert math.hypot(vendor.x - center[0], vendor.y - center[1]) <= 1000.0 + 1e-9
    for customer in scenario.customers:
        r = math.hypot(customer.x - center[0], customer.y - center[1])
        assert 3000.0 - 1e-9 <= r <= 4500.0 + 1e-9


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate("uniform", 0)
    with pytest.raises(ValueError):
        generate("uniform", 3, extent_m=-1.0)
    with pytest.raises(ValueError):
        generate("nowhere", 3)
    with pytest.raises(ValueError):
        generate("uniform", 3, corridor_width=5.0)  # parameter from another topology


def test_uniform_stream_is_bit_equal_to_numpy():
    """The generator's own PCG64 against ``numpy.random.default_rng``: seeds of one to five 32-bit
    words, defaults and the ranges generate draws from."""
    np = pytest.importorskip("numpy")
    ranges = [(), (0, 5000.0), (0, 2 * math.pi), (9e6, 2.025e7), (0, 120)]
    seeds = [*range(300), *(2**32 + k for k in range(30)), *(2**64 + k for k in range(30)), 2**128 + 7]
    for seed in seeds:
        ours, theirs = geometry._PCG64(seed), np.random.default_rng(seed)
        for args in ranges * 4:
            assert ours.uniform(*args).hex() == float(theirs.uniform(*args)).hex(), (seed, args)


@pytest.mark.parametrize("topology, params", [
    ("uniform", {"extent_m": 2000.0}),
    ("two_clusters", {"separation": 1500.0, "cluster_radius": 300.0}),
    ("hub_spoke", {"hub_radius": 400.0, "ring_inner": 1200.0, "ring_outer": 2400.0}),
    ("linear", {"corridor_width": 75.0}),
])
def test_generated_maps_equal_numpys(monkeypatch, topology, params):
    np = pytest.importorskip("numpy")
    for seed in (0, 1, 17, 2**32 + 3, 2**64 + 5):
        for n, n_decoys in ((1, 0), (4, 2), (7, 3)):
            ours = generate(topology, n, n_decoys, seed, **params)
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "_PCG64", np.random.default_rng)
                assert generate(topology, n, n_decoys, seed, **params) == ours, (seed, n)


def test_generate_refuses_bad_seeds_and_unbounded_ranges():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        generate("uniform", 3, seed=-1)
    with pytest.raises(TypeError):
        generate("uniform", 3, seed=1.5)
    with pytest.raises(TypeError):
        generate("uniform", 3, seed="7")
    with pytest.raises(ValueError, match="cannot draw uniformly"):
        generate("uniform", 3, extent_m=math.inf)
    with pytest.raises(ValueError, match="cannot draw uniformly"):
        generate("hub_spoke", 3, ring_outer=math.inf)
    # Finite parameters whose square or whose sites pass the largest float: refused, not drawn as infinity.
    with pytest.raises(ValueError, match="ring_outer 3e\\+154 is too large to square"):
        generate("hub_spoke", 3, ring_inner=2e154, ring_outer=3e154)
    with pytest.raises(ValueError, match="overflow to infinity"):
        generate("two_clusters", 3, separation=1.79e308, cluster_radius=8e307)
    with pytest.raises(ValueError, match="overflow to infinity"):
        generate("linear", 4, extent_m=1e308, corridor_width=1.7e308)
    # Finite sites whose x-spread passes the largest float: no leg between the clusters can be timed.
    with pytest.raises(ValueError, match="distance between the map's sites overflows"):
        generate("two_clusters", 2, separation=1.7e308, cluster_radius=1e307)


def test_distance_overflow_is_judged_on_pairs_not_on_the_bounding_box():
    """Four sites on the axes at +-7.5e307: the box's diagonal overflows, every pair's distance does not."""
    diamond = [(-7.5e307, 0.0), (7.5e307, 0.0), (0.0, -7.5e307), (0.0, 7.5e307)]
    assert math.hypot(1.5e308, 1.5e308) == math.inf
    assert not geometry._longest_distance_overflows(diamond)
    assert geometry._longest_distance_overflows(diamond + [(-1e308, 0.0), (1e308, 0.0)])
    assert not geometry._longest_distance_overflows([(0.0, 0.0), (3.0, 4.0)])


def _pair_scan_overflows(points):
    """The reference: ``math.hypot`` over every pair of points, the check the hull check replaced."""
    return not all(math.isfinite(math.hypot(x - px, y - py)) for (px, py), (x, y) in itertools.combinations(points, 2))


def _wide_point_set(rng, shape):
    """Up to 80 points, some repeated, whose farthest pair is about 0.8-1.1 times the largest float apart."""
    half, count = sys.float_info.max * rng.uniform(0.4, 0.55), rng.randint(2, 40)
    if shape == "square":
        points = [(half * rng.uniform(-1, 1), half * rng.uniform(-1, 1)) for _ in range(count)]
    elif shape == "circle":  # every point is a hull vertex
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(count)]
        points = [(half * math.cos(a), half * math.sin(a)) for a in angles]
    elif shape == "line":  # collinear: only the two ends are vertices
        ux, uy = math.cos(angle := rng.uniform(0, math.pi)), math.sin(angle)
        points = [(t * ux, t * uy) for t in [-half, half] + [half * rng.uniform(-1, 1) for _ in range(count)]]
    else:  # two tall clusters, with coordinates near zero (tiny and negative zero) among them
        ys = (-0.0, 1e-300, 0.5) + tuple(half * rng.uniform(-0.5, 0.5) for _ in range(2 * count))
        points = [(side * half * rng.uniform(0.85, 1), y) for side, y in zip((-1, 1) * count, ys)]
    return points + rng.sample(points, rng.randint(0, 2))


def test_hull_check_agrees_with_the_pair_scan_near_the_largest_float():
    rng = random.Random(2098)
    reached_hull = collections.Counter()  # pair scan's verdict, on the sets whose box's diagonal overflows
    for k in range(400):
        points = _wide_point_set(rng, ("square", "circle", "line", "clusters")[k % 4])
        overflows = _pair_scan_overflows(points)
        assert geometry._longest_distance_overflows(points) == overflows, points
        xs, ys = [x for x, _ in points], [y for _, y in points]
        if math.hypot(max(xs) - min(xs), max(ys) - min(ys)) == math.inf:
            reached_hull[overflows] += 1
    assert reached_hull[False] > 50 and reached_hull[True] > 100  # 89 and 172: neither verdict is vacuous


def test_hull_check_accepts_a_wide_4000_order_map_quickly():
    """The box's diagonal overflows but no pair's distance does: the pair scan over all 8,000 sites took 9-11 s
    on 2 CPUs, while the hull's vertices are paired in well under a second."""
    start = time.perf_counter()
    scenario = generate("two_clusters", 4000, separation=1.0e308, cluster_radius=1.95e307)
    assert time.perf_counter() - start < 1.0
    sites = scenario.vendors + scenario.customers
    xs, ys = [site.x for site in sites], [site.y for site in sites]
    assert math.hypot(max(xs) - min(xs), max(ys) - min(ys)) == math.inf


def test_motion_model_bounds():
    with pytest.raises(ValueError):
        MotionModel(speed=0.0)
    with pytest.raises(ValueError):
        MotionModel(stop_duration=-0.5)
    with pytest.raises(ValueError, match="speed must be positive"):
        MotionModel(speed=math.nan)
    with pytest.raises(ValueError, match="stop duration must be non-negative"):
        MotionModel(stop_duration=math.nan)
    with pytest.raises(ValueError, match="speed must be positive and finite"):
        MotionModel(speed=math.inf)
    with pytest.raises(ValueError, match="stop duration must be non-negative and finite"):
        MotionModel(stop_duration=math.inf)


def test_unknown_fixture_config_rejected():
    with pytest.raises(ValueError):
        unit_square_fixture("mirrored")
