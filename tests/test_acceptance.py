"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints one ``ACCEPTANCE <k>: PASS/FAIL`` line (run with ``-s`` to
see them live; they also appear in captured output).  Exact values are
compared with rational equality; waits use the stated 1e-3 tolerance.

Criterion 11 carries one documented exception: the per-order floor
``risk(i) >= 1/(n + n_d)`` is false as stated (criterion 1's own exact values
contain risk(1) = 1/4 < 1/3 at n = 3).  The floor holds for the worst-case
risk; the stated form is pinned by a strict xfail below.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from droneprivacy import (
    DroneSpec,
    HeuristicParams,
    Route,
    ScenarioFile,
    Stop,
    abstract_scenario,
    closed_form_risks,
    enumerate_worlds,
    evaluate,
    generate,
    instantiate_template,
    min_avg_risk_sweep,
    pareto_front,
    posterior_matrix,
    privacy_risks,
    reversal_template,
    risks_from_posterior,
    route_count_upper_bound,
    split_template,
    stuffing_risk_series,
    template_for,
    unit_square_fixture,
)
from droneprivacy.fixtures import (
    UNIT_SQUARE_TABLE,
    WAIT_TOLERANCE,
    WORKED_EXAMPLE_AVG,
    WORKED_EXAMPLE_POSTERIOR_ROWS,
    WORKED_EXAMPLE_RISKS,
    WORKED_EXAMPLE_ROUTE,
    WORKED_EXAMPLE_WORST,
    worked_example_scenario,
)
from droneprivacy.search import _sequences
from conftest import brute_force_routes, posterior_by_summing_worlds, random_valid_route, run_segments


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_criterion_01_worked_example_exact():
    report_obj = privacy_risks(WORKED_EXAMPLE_ROUTE, worked_example_scenario())
    ok = (
        report_obj.risks == WORKED_EXAMPLE_RISKS
        and report_obj.average == WORKED_EXAMPLE_AVG
        and report_obj.worst_case == WORKED_EXAMPLE_WORST
    )
    report(1, "worked example exactness", ok,
           f"risks={tuple(map(str, report_obj.risks))}, avg={report_obj.average}, "
           f"worst={report_obj.worst_case}")


def test_criterion_02_stop_by_stop_observer_table():
    scenario = worked_example_scenario()
    worlds = enumerate_worlds(WORKED_EXAMPLE_ROUTE, scenario)
    posterior = posterior_matrix(WORKED_EXAMPLE_ROUTE, scenario)
    ok = (
        len(worlds) == 4
        and all(w.probability == F(1, 4) for w in worlds)
        and posterior.rows == WORKED_EXAMPLE_POSTERIOR_ROWS
    )
    report(2, "observer table reproduction", ok,
           f"{len(worlds)} worlds; rows={[tuple(map(str, r)) for r in posterior.rows]}")


def _canonical_key_and_ranks(seq, order_of_vendor, order_of_customer):
    """Relabel orders and decoys by first appearance.

    Both the risk engine and the observer oracle treat ids only as opaque
    keys, so their outputs are equivariant under this relabeling; checking
    one representative per canonical pattern checks the whole class.
    """
    order_rank: dict[int, int] = {}
    decoy_rank: dict[int, int] = {}
    key = []
    for stop in seq:
        if stop.kind == "v":
            rank = order_rank.setdefault(order_of_vendor[stop.sid], len(order_rank))
            key.append(("v", rank))
        elif stop.kind == "d":
            rank = decoy_rank.setdefault(stop.sid, len(decoy_rank))
            key.append(("d", rank))
        else:
            key.append(("a", order_rank[order_of_customer[stop.sid]]))
    return tuple(key), order_rank


def test_criterion_03_oracle_equivalence_exhaustive():
    started = time.perf_counter()
    total_routes = 0
    total_classes = 0
    for n in range(1, 5):
        for n_d in range(0, 3):
            scenario = abstract_scenario(n, n_d)
            canon = abstract_scenario(n, n_d)
            order_of_vendor = scenario.order_index_by_vendor
            order_of_customer = scenario.order_index
            class_risks: dict[tuple, tuple] = {}
            cell_count = 0
            # capacity 4 >= n enumerates the union over capacities 1..4
            for seq, _, _ in _sequences(scenario, 4, n_d):
                cell_count += 1
                key, order_rank = _canonical_key_and_ranks(seq, order_of_vendor, order_of_customer)
                cached = class_risks.get(key)
                if cached is None:
                    canon_route = Route(tuple(Stop(kind, rank + 1) for kind, rank in key))
                    engine = privacy_risks(canon_route, canon, check=False).risks
                    posterior = posterior_matrix(canon_route, canon, check=False)
                    oracle = risks_from_posterior(posterior)
                    assert engine == oracle, f"engine/oracle mismatch on {canon_route.tokens}"
                    # the counted posterior against the brute-force world walk, full rows
                    worlds = enumerate_worlds(canon_route, canon, check=False)
                    assert (posterior.vendor_stops, posterior.rows) == posterior_by_summing_worlds(
                        worlds, canon
                    ), f"posterior/world-sum mismatch on {canon_route.tokens}"
                    assert posterior.worlds == len(worlds), canon_route.tokens
                    class_risks[key] = engine
                    cached = engine
                mine = privacy_risks(Route(seq), scenario, check=False).risks
                assert all(
                    mine[i] == cached[order_rank[i]] for i in range(n)
                ), f"risk vector not equivariant on {Route(seq).tokens}"
            assert cell_count == route_count_upper_bound(n, n_d)
            total_routes += cell_count
            total_classes += len(class_risks)
    # spot-check the capacity-subset argument used above
    small = {r.stops for r in _routes(abstract_scenario(3), 2)}
    large = {r.stops for r in _routes(abstract_scenario(3), 4)}
    assert small < large
    # and fully direct (no canonicalization) verification for n <= 2
    for n in (1, 2):
        for n_d in range(0, 3):
            scenario = abstract_scenario(n, n_d)
            for seq, _, _ in _sequences(scenario, n, n_d):
                route = Route(seq)
                assert privacy_risks(route, scenario).risks == risks_from_posterior(
                    posterior_matrix(route, scenario)
                )
    elapsed = time.perf_counter() - started
    report(3, "oracle equivalence, exhaustive", elapsed < 60,
           f"{total_routes:,} routes in {total_classes:,} canonical classes, {elapsed:.1f}s (< 60s)")


def _routes(scenario, capacity):
    return (Route(seq) for seq, _, _ in _sequences(scenario, capacity, 0))


def test_criterion_04_propositions_empirically():
    started = time.perf_counter()
    # aggregation: exact 1/n for n = 1..8
    for n in range(1, 9):
        route = Route(tuple(Stop("v", i + 1) for i in range(n)) + tuple(Stop("a", i + 1) for i in range(n)))
        assert privacy_risks(route, abstract_scenario(n)).risks == (F(1, n),) * n

    # capacity floor: every route obeys it and the best route attains it
    for n in range(1, 6):
        scenario = abstract_scenario(n)
        for c in range(1, 6):
            bound = max(F(1, n), F(1, c))
            best = None
            for route in _routes(scenario, c):
                worst = privacy_risks(route, scenario, check=False).worst_case
                assert worst >= bound, (n, c, route.tokens)
                if best is None or worst < best:
                    best = worst
            assert best == bound, (n, c, best)

    # decoy floor at every budget
    for n in range(1, 4):
        for n_d in range(0, 4):
            scenario = abstract_scenario(n, n_d)
            for c in range(1, 4):
                bound = max(F(1, n + n_d), F(1, c + n_d))
                for seq, _, _ in _sequences(scenario, c, n_d):
                    worst = privacy_risks(Route(seq), scenario, check=False).worst_case
                    assert worst >= bound, (n, c, n_d, Route(seq).tokens)
    elapsed = time.perf_counter() - started
    report(4, "aggregation/capacity/decoy floors", elapsed < 300,
           f"verified exhaustively in {elapsed:.1f}s (< 300s)")


def test_criterion_05_closed_forms_match_engine_on_grid():
    mismatches = []
    needs_normalization = True
    for n in range(1, 11):
        scenario = abstract_scenario(n)
        grid = [HeuristicParams("split", n, k=k, l=n - k) for k in range(1, n)]
        grid += [HeuristicParams("reversal", n, k=k) for k in range(0, n // 2 + 1)]
        grid += [HeuristicParams("stuffing", n, c=c) for c in range(1, n + 1)]
        for params in grid:
            closed = closed_form_risks(params)
            engine = privacy_risks(template_for(params).flatten(), scenario)
            if closed.risks != engine.risks:
                mismatches.append(params)
            if params.kind == "stuffing":
                series = stuffing_risk_series(n, params.c)
                # engine mean is ground truth; the series total needs 1/(n*c)
                if series != n * params.c * engine.average:
                    mismatches.append(("series", params))
                if n * params.c > 1 and series == engine.average:
                    needs_normalization = False
    spot = closed_form_risks(HeuristicParams("reversal", 6, k=1)).average
    ok = not mismatches and spot == F(13, 75) and needs_normalization
    report(5, "heuristic closed forms on the grid", ok,
           "per-order vectors equal engine values for all n<=10; "
           f"reversal(6,1) mean = {spot}; stuffing series total requires the 1/(n*c) factor: YES")


def test_criterion_06_unit_square_table_and_dominance():
    failures = []
    evaluations = {}
    for row in UNIT_SQUARE_TABLE:
        fixture = unit_square_fixture(row.config)
        drone = DroneSpec(capacity=2, speed=1.0, stop_duration=0.0)
        evaluation = evaluate(row.route, fixture, drone)
        risk_report = privacy_risks(row.route, fixture)
        if risk_report.risks != row.risks:
            failures.append(f"{row.tag}: risks {risk_report.risks}")
        for actual, expected in zip(evaluation.waits, row.waits):
            if abs(actual - expected) > WAIT_TOLERANCE:
                failures.append(f"{row.tag}: wait {actual} vs {expected}")
        if abs(evaluation.avg_wait - row.avg_wait) > WAIT_TOLERANCE:
            failures.append(f"{row.tag}: avg wait {evaluation.avg_wait} vs {row.avg_wait}")
        evaluations[row.tag] = evaluation

    def dominates(a, b):
        return (
            a.avg_risk <= b.avg_risk
            and a.avg_wait <= b.avg_wait
            and (a.avg_risk < b.avg_risk or a.avg_wait < b.avg_wait)
        )

    # one geometry lets aggregation win on both axes; the other forces a trade
    if not dominates(evaluations["diagonal-aggregated"], evaluations["diagonal-direct"]):
        failures.append("diagonal: aggregated route should dominate")
    if dominates(evaluations["adjacent-aggregated"], evaluations["adjacent-direct"]) or dominates(
        evaluations["adjacent-direct"], evaluations["adjacent-aggregated"]
    ):
        failures.append("adjacent: routes should be mutually non-dominated")
    report(6, "unit-square trade-off table", not failures, "; ".join(failures) or
           "all four rows exact/within 1e-3, dominance structure as published")


def test_criterion_07_stuffing_asymptote():
    params = HeuristicParams("stuffing", 500, c=3)
    closed_mean = closed_form_risks(params).average
    engine_mean = privacy_risks(template_for(params).flatten(), abstract_scenario(500)).average
    limit = F(4, 27)
    rel_err = abs(closed_mean - limit) / limit
    ok = closed_mean == engine_mean and rel_err < F(1, 100)
    report(7, "large-n stuffing asymptote", ok,
           f"mean={closed_mean} vs limit {limit}, rel err {float(rel_err):.3%} (< 1%), "
           "closed form equals engine at n=500")


def test_criterion_08_enumeration_scale():
    # cross-check the enumerator against a raw permutation filter first
    for n in range(1, 5):
        scenario = abstract_scenario(n)
        assert {r.stops for r in _routes(scenario, n)} == brute_force_routes(scenario, n)

    scenario = generate("uniform", 6, seed=42)
    drone = DroneSpec(capacity=6)
    started = time.perf_counter()
    front = pareto_front(scenario, drone)
    elapsed = time.perf_counter() - started
    expected = math.factorial(12) // 2**6
    ok = front.total_routes == expected == 7_484_400 and elapsed < 300
    report(8, "full n=6 enumeration and front", ok,
           f"{front.total_routes:,} routes, front size {len(front.points)}, {elapsed:.0f}s (< 300s)")


def test_criterion_09_sweep_shape_properties():
    table = min_avg_risk_sweep(range(1, 5), range(1, 5), range(0, 3))
    failures = []
    for (n, c, n_d), value in table.items():
        if (n + 1, c, n_d) in table and table[(n + 1, c, n_d)] > value:
            failures.append(f"not non-increasing in n at {(n, c, n_d)}")
        if (n, c + 1, n_d) in table and table[(n, c + 1, n_d)] > value:
            failures.append(f"not non-increasing in c at {(n, c, n_d)}")
        if (n, c, n_d + 1) in table and table[(n, c, n_d + 1)] > value:
            failures.append(f"not non-increasing in decoys at {(n, c, n_d)}")
        if c >= n and n_d == 0 and value != F(1, n):
            failures.append(f"cell {(n, c, n_d)} != 1/n")
        if c >= n and value > F(1, n):  # decoys can only improve on aggregation
            failures.append(f"cell {(n, c, n_d)} above 1/n")

    stuffing_mean = closed_form_risks(HeuristicParams("stuffing", 3, c=2)).average
    if table[(3, 2, 0)] != F(5, 12) or stuffing_mean != F(5, 12):
        failures.append("(3,2,0) cell mismatch")

    gaps_table = min_avg_risk_sweep([3], range(1, 4), range(0, 4))
    for c_small, c_big in ((1, 2), (1, 3), (2, 3)):
        gaps = [
            gaps_table[(3, c_small, n_d)] - gaps_table[(3, c_big, n_d)] for n_d in range(0, 4)
        ]
        if any(g < 0 for g in gaps):
            failures.append(f"negative capacity gap for c={c_small} vs {c_big}")
        if any(later > earlier for earlier, later in zip(gaps, gaps[1:])):
            failures.append(f"gap c={c_small} vs c={c_big} not shrinking: {gaps}")
    report(9, "risk sweep shape", not failures, "; ".join(failures) or
           "monotone in n, c, decoys; 1/n when c >= n; capacity gaps shrink with decoys; "
           "(3,2,0) = 5/12 = stuffing value")


def _heuristic_points(scenario, drone):
    n = scenario.n
    grid = [HeuristicParams("split", n, k=k, l=n - k) for k in range(1, n)]
    grid += [HeuristicParams("reversal", n, k=k) for k in range(0, n // 2 + 1)]
    grid += [HeuristicParams("stuffing", n, c=c) for c in range(1, n + 1)]
    points = []
    for params in grid:
        route = instantiate_template(template_for(params), scenario, drone)
        points.append(evaluate(route, scenario, drone, tag=params.label))
    return points


def test_criterion_10_heuristics_against_the_true_front():
    started = time.perf_counter()
    scenario = generate("two_clusters", 6, seed=0)
    drone = DroneSpec(capacity=6)
    front = pareto_front(scenario, drone)
    heuristics = _heuristic_points(scenario, drone)
    failures = []
    for h in heuristics:
        for point in front.points:
            f = point.evaluation
            if (
                h.avg_risk <= f.avg_risk
                and h.avg_wait <= f.avg_wait
                and (h.avg_risk < f.avg_risk or h.avg_wait < f.avg_wait)
            ):
                failures.append(f"{h.heuristic_tag} dominates a front point")
        if not any(
            p.evaluation.avg_risk <= h.avg_risk and p.evaluation.avg_wait <= h.avg_wait
            for p in front.points
        ):
            failures.append(f"{h.heuristic_tag} not covered by the front")

    # split buys efficiency, reversal buys privacy, at matching capacity
    exceptions = []
    seeds = range(7)
    for seed in seeds:
        seeded = generate("two_clusters", 6, seed=seed)
        seed_ok = True
        for capacity in (4, 5):
            cap_drone = DroneSpec(capacity=capacity)
            k = 6 - capacity
            reversal = evaluate(
                instantiate_template(reversal_template(6, k), seeded, cap_drone),
                seeded, cap_drone,
            )
            splits = [
                evaluate(
                    instantiate_template(split_template(6, ks, 6 - ks), seeded, cap_drone),
                    seeded, cap_drone,
                )
                for ks in range(1, 6)
                if max(ks, 6 - ks) == capacity
            ]
            best_split_wait = min(s.avg_wait for s in splits)
            # privacy side is exact and geometry-free
            assert reversal.avg_risk <= min(s.avg_risk for s in splits)
            if best_split_wait > reversal.avg_wait:
                seed_ok = False
        if not seed_ok:
            exceptions.append(seed)
    majority = len(exceptions) <= len(seeds) // 2
    if not majority:
        failures.append(f"split-vs-reversal efficiency failed on seeds {exceptions}")
    elapsed = time.perf_counter() - started
    detail = (
        f"{len(heuristics)} heuristic points vs {len(front.points)}-point front; "
        f"efficiency ordering held on {len(seeds) - len(exceptions)}/{len(seeds)} seeds"
    )
    if exceptions:
        detail += f" (exceptions: {exceptions})"
    report(10, "heuristics vs exact front", not failures, detail + f"; {elapsed:.0f}s")


def _sampled_cases(count=200):
    rng = random.Random(1234)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 4)
        n_d = rng.randint(0, 2)
        scenario = abstract_scenario(n, n_d)
        route = random_valid_route(scenario, rng.randint(1, n), rng.randint(0, n_d), rng)
        cases.append((scenario, route))
    return cases


def test_criterion_11_property_suites():
    clauses = []

    # posterior rows sum to one; doubly stochastic without decoys
    row_sums_ok = True
    doubly_ok = True
    for scenario, route in _sampled_cases(200):
        posterior = posterior_matrix(route, scenario)
        for row in posterior.rows:
            row_sums_ok = row_sums_ok and sum(row) == 1
        if scenario.n_decoys == 0:
            for j in range(scenario.n):
                doubly_ok = doubly_ok and sum(
                    posterior.rows[i][j] for i in range(scenario.n)
                ) == 1
    clauses.append(("posterior rows sum to 1", row_sums_ok))
    clauses.append(("doubly stochastic when no decoys", doubly_ok))

    # 1,000 within-run permutations leave the risk vector unchanged
    rng = random.Random(77)
    perm_ok = True
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 5)
        n_d = rng.randint(0, 2)
        scenario = abstract_scenario(n, n_d)
        route = random_valid_route(scenario, rng.randint(1, n), rng.randint(0, n_d), rng)
        segments = [(lo, hi) for lo, hi in run_segments(route) if hi - lo > 1]
        if not segments:
            continue
        lo, hi = rng.choice(segments)
        stops = list(route.stops)
        body = stops[lo:hi]
        rng.shuffle(body)
        permuted = Route(tuple(stops[:lo] + body + stops[hi:]))
        perm_ok = perm_ok and (
            privacy_risks(permuted, scenario).risks == privacy_risks(route, scenario).risks
        )
        checked += 1
    clauses.append(("1000 within-run permutation pairs", perm_ok))

    # serialization round trip
    from droneprivacy.io import scenario_file_from_dict, scenario_file_to_dict
    from droneprivacy import MotionModel

    round_trip_ok = True
    for topology in ("uniform", "two_clusters", "hub_spoke", "linear"):
        sf = ScenarioFile(
            scenario=generate(topology, 4, 1, seed=99),
            name=topology,
            motion=MotionModel(speed=11.0, stop_duration=7.0),
        )
        round_trip_ok = round_trip_ok and scenario_file_from_dict(scenario_file_to_dict(sf)) == sf
    clauses.append(("serialization round trip", round_trip_ok))

    # The per-order floor clause is false as stated: criterion 1's exact
    # values contain risk(1) = 1/4 < 1/(n + n_d) = 1/3.  The floor does hold
    # for the worst-case risk; the stated form is pinned by a strict xfail.
    counterexample = privacy_risks(WORKED_EXAMPLE_ROUTE, worked_example_scenario())
    floor_ok = all(
        privacy_risks(route, scenario, check=False).worst_case
        >= F(1, scenario.n + scenario.n_decoys)
        for scenario, route in _sampled_cases(200)
    )
    clauses.append(("worst-case risk floor 1/(n+n_d)", floor_ok))

    failures = [name for name, ok in clauses if not ok]
    detail = (
        f"{len(clauses)}/{len(clauses)} checkable clauses pass; per-order floor clause "
        f"excluded as internally inconsistent (risk(1)={counterexample.risks[0]} < 1/3 on the "
        "criterion-1 route; see strict xfail and notes)"
    )
    report(11, "property suites", not failures, detail if not failures else "; ".join(failures))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Stated per-order floor risk(i) >= 1/(n + n_d) contradicts the exact "
        "worked-example risks (1/4 < 1/3 at n=3, no decoys); only the "
        "worst-case risk obeys this floor."
    ),
)
def test_criterion_11_per_order_floor_as_stated():
    scenarios = [(worked_example_scenario(), WORKED_EXAMPLE_ROUTE)] + _sampled_cases(100)
    for scenario, route in scenarios:
        floor = F(1, scenario.n + scenario.n_decoys)
        for risk in privacy_risks(route, scenario, check=False).risks:
            assert risk >= floor, f"{route.tokens}: {risk} < {floor}"
