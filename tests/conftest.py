"""Shared test helpers: a random valid-route walker, a route's run segments,
an independent permutation-filter enumerator used as a counting oracle, the
reference leg-length sum, the posterior summed over brute-force observer
worlds, and the exhaustive Pareto front, risk sweep and template
instantiation that the counted posterior, the pruned front, the memoized
sweep and the group-wise DP are checked against.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import attrgetter

from droneprivacy import (
    DroneSpec, ParetoAccumulator, ParetoFront, ParetoPoint, Route, RouteTemplate, Scenario, Stop,
    abstract_scenario, evaluate,
)
from droneprivacy.heuristics import _bind_stop
from droneprivacy.search import _sequences


def random_valid_route(
    scenario: Scenario, capacity: int, decoy_budget: int, rng: random.Random
) -> Route:
    """Uniformly-ish random valid route built by random feasible choices."""
    n = scenario.n
    picked: set[int] = set()
    dropped: set[int] = set()
    decoys_left = [d.id for d in scenario.decoy_vendors][:]
    budget = decoy_budget
    aboard = 0
    path: list[Stop] = []
    vendor_of_order = {i: scenario.orders[i][0].id for i in range(n)}
    customer_of_order = {i: scenario.orders[i][1].id for i in range(n)}
    while len(dropped) < n:
        choices: list[Stop] = []
        if aboard < capacity:
            choices += [Stop("v", vendor_of_order[i]) for i in range(n) if i not in picked]
        if budget > 0:
            choices += [Stop("d", d) for d in decoys_left]
        choices += [
            Stop("a", customer_of_order[i]) for i in range(n) if i in picked and i not in dropped
        ]
        stop = rng.choice(choices)
        path.append(stop)
        if stop.kind == "v":
            picked.add(scenario.order_index_by_vendor[stop.sid])
            aboard += 1
        elif stop.kind == "d":
            decoys_left.remove(stop.sid)
            budget -= 1
        else:
            dropped.add(scenario.order_index[stop.sid])
            aboard -= 1
    return Route(tuple(path))


_LOAD_CHANGE = {"v": 1, "d": 0, "a": -1}


def max_load(stops) -> int:
    """The most real items aboard at once."""
    changes = map(_LOAD_CHANGE.__getitem__, map(attrgetter("kind"), stops))
    return max(itertools.accumulate(changes))


def run_segments(route: Route) -> list[tuple[int, int]]:
    """``(start, end)`` stop ranges of the route's maximal runs: vendor stops (decoys included) or customers."""
    ends = [i for i in range(1, len(route)) if route[i].is_vendor != route[i - 1].is_vendor]
    return list(zip([0] + ends, ends + [len(route)]))


def _filter_is_valid(stops: tuple[Stop, ...], scenario: Scenario, capacity: int) -> bool:
    """Validity check written independently of the library's validator."""
    vendor_of_customer = {c.id: c.vendor_id for c in scenario.customers}
    seen_v: set[int] = set()
    aboard = 0
    for stop in stops:
        if stop.kind == "v":
            aboard += 1
            if aboard > capacity:
                return False
            seen_v.add(stop.sid)
        elif stop.kind == "a":
            if vendor_of_customer[stop.sid] not in seen_v:
                return False
            aboard -= 1
    return True


def brute_force_routes(scenario: Scenario, capacity: int, decoy_budget: int = 0) -> set[tuple[Stop, ...]]:
    """All valid routes by filtering raw permutations (slow; n <= 4)."""
    base = [Stop("v", v.id) for v, _ in scenario.orders]
    base += [Stop("a", c.id) for c in scenario.customers]
    decoy_ids = [d.id for d in scenario.decoy_vendors]
    found: set[tuple[Stop, ...]] = set()
    for k in range(decoy_budget + 1):
        for combo in itertools.combinations(decoy_ids, k):
            stops = base + [Stop("d", d) for d in combo]
            for perm in itertools.permutations(stops):
                if _filter_is_valid(perm, scenario, capacity):
                    found.add(perm)
    return found


def posterior_by_summing_worlds(worlds, scenario: Scenario):
    """Reference marginalization: add each world's Fraction to the cells its assignment names
    (the counted posterior's oracle).  Returns the columns and the rows."""
    columns = [Stop("v", vendor.id) for vendor, _ in scenario.orders]
    columns += [Stop("d", d.id) for d in sorted(scenario.decoy_vendors, key=lambda v: v.id)]
    column_of = {stop: j for j, stop in enumerate(columns)}
    cells = [[Fraction(0)] * len(columns) for _ in range(scenario.n)]
    for world in worlds:
        for customer_id, item in world.assignment:
            cells[scenario.order_index[customer_id]][column_of[item]] += world.probability
    return tuple(columns), tuple(tuple(row) for row in cells)


def exhaustive_front(
    scenario: Scenario, drone: DroneSpec, objectives: tuple[str, str], decoy_budget: int = 0
) -> ParetoFront:
    """The Pareto front by offering every route the walker yields to one accumulator, with no cut
    (the pruned walk's oracle)."""
    average = objectives[0] == "avg_risk"
    front = ParetoAccumulator()
    total = 0
    for seq, risk, wait in _sequences(scenario, drone.capacity, decoy_budget, drone, average=average):
        total += 1
        front.offer(Fraction(*risk), wait, seq)
    points = tuple(
        ParetoPoint(evaluation=evaluate(Route(seq), scenario, drone, check=False), multiplicity=ties)
        for seq, ties in zip(front.seqs, front.counts)
    )
    return ParetoFront(objectives=objectives, points=points, total_routes=total, routes_walked=total)


def exhaustive_sweep(n_range, c_range, decoy_range) -> dict[tuple[int, int, int], Fraction]:
    """Each (n, capacity, budget) cell's least average risk by walking every route of the largest
    capacity once and keeping the least risk sum per peak load (the memoized sweep's oracle)."""
    table = {}
    for n in n_range:
        for n_d in decoy_range:
            best_by_peak: dict[int, tuple[int, int]] = {}  # the least risk sum, an integer pair
            for seq, (nu, de), _ in _sequences(abstract_scenario(n, n_d), min(max(c_range), n), n_d):
                peak = max_load(seq)
                best = best_by_peak.get(peak)
                if best is None or nu * best[1] < best[0] * de:
                    best_by_peak[peak] = (nu, de)
            for c in c_range:
                least = min(Fraction(*pair) for peak, pair in best_by_peak.items() if peak <= c)
                table[(n, c, n_d)] = least / n
    return table


def travel_length(stops, scenario: Scenario) -> float:
    """Total Euclidean length (meters) of the legs between consecutive stops, summed in route order."""
    xy = scenario.coords
    total = 0.0
    px, py = xy[stops[0].kind, stops[0].sid]
    for stop in stops[1:]:
        x, y = xy[stop.kind, stop.sid]
        total += math.hypot(x - px, y - py)
        px, py = x, y
    return total


def exhaustive_instantiation(template: RouteTemplate, scenario: Scenario, mapping: tuple[int, ...]) -> Route:
    """The shortest flattening of a template bound by ``mapping``, by trying every joint within-group
    ordering; ties go to the smallest stop sequence (the group-wise DP's oracle)."""
    groups = [[_bind_stop(s, scenario, mapping) for s in group] for group in template.groups]
    flats = (
        tuple(s for group in orderings for s in group)
        for orderings in itertools.product(*(itertools.permutations(g) for g in groups))
    )
    return Route(min(flats, key=lambda f: (travel_length(f, scenario), tuple(s.sort_key for s in f))))
