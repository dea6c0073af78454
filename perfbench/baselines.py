"""The cheap rows of the ROADMAP baseline table, measured untraced on fixed instances.

* an n=5, c=5 Pareto front on a uniform map (routes per second);
* enumeration alone on the same instance (routes per second);
* ``privacy_risks`` on an n=3 route, with and without validation (microseconds per call);
* ``enumerate_worlds`` on a fully aggregated n=8 route (seconds for all n! worlds).
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter

import droneprivacy as dp
from droneprivacy import DroneSpec

BATCHES = 5


def _us_per_call(fn, calls: int) -> float:
    """Median over batches of the mean microseconds per call."""
    per_batch = max(1, calls // BATCHES)
    times = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(per_batch):
            fn()
        times.append((perf_counter() - t0) / per_batch * 1e6)
    return statistics.median(times)


def measure(sizes, ledger) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    n = sizes.baseline_front_n
    scenario = dp.generate("uniform", n, 0, seed=0)
    drone = DroneSpec(n)
    expected = dp.route_count_upper_bound(n, 0)
    with ledger.op(f"baseline front n={n}") as problems:
        t0 = perf_counter()
        front = dp.pareto_front(scenario, drone)
        elapsed = perf_counter() - t0
        if front.total_routes != expected:
            problems.append(f"{front.total_routes} routes, expected {expected}")
        out["baseline.front.routes_per_s"] = (front.total_routes / elapsed, "1/s")
    with ledger.op(f"baseline enumeration n={n}") as problems:
        t0 = perf_counter()
        count = sum(1 for _ in dp.enumerate_routes(scenario, drone))
        elapsed = perf_counter() - t0
        if count != expected:
            problems.append(f"{count} routes, expected {expected}")
        out["baseline.enumerate.routes_per_s"] = (count / elapsed, "1/s")
    with ledger.op("baseline privacy_risks n=3") as problems:
        small = dp.generate("uniform", 3, 0, seed=0)
        route = dp.parse_route("v1,v2,a2,v3,a3,a1")
        if dp.privacy_risks(route, small).risks != (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)):
            problems.append("worked-example risks are not (1/4, 1/2, 1/2)")
        calls = sizes.baseline_risk_calls
        out["risk.privacy_risks.check_us_per_call"] = (
            _us_per_call(lambda: dp.privacy_risks(route, small), calls), "us")
        out["risk.privacy_risks.nocheck_us_per_call"] = (
            _us_per_call(lambda: dp.privacy_risks(route, small, check=False), calls), "us")
    w = sizes.baseline_worlds_n
    with ledger.op(f"baseline enumerate_worlds n={w}") as problems:
        scenario = dp.generate("uniform", w, 0, seed=0)
        route = dp.parse_route(",".join([f"v{i}" for i in range(1, w + 1)] + [f"a{i}" for i in range(1, w + 1)]))
        t0 = perf_counter()
        worlds = dp.enumerate_worlds(route, scenario)
        elapsed = perf_counter() - t0
        if len(worlds) != math.factorial(w):
            problems.append(f"{len(worlds)} worlds, expected {w}!")
        out["baseline.enumerate_worlds.s"] = (elapsed, "s")
    return out
