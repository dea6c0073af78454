"""Exact Pareto front on a generated map, with heuristic routes overlaid.

Covers every valid route for five orders on a uniform map (113,400 of them),
extracts the exact (average risk, average wait) front, and shows where the
heuristic constructions land.  The front's walk skips every partial route
that a route already found beats in both objectives, so it walks only a
small share of the routes; it counts the routes it walks, and the total it
covers comes from a counting recurrence.  Six orders (7.5M routes) take well
under a second with the same code.  On clustered maps the front
tends to collapse to one or two points (aggregation wins both objectives);
uniform maps keep a real trade-off curve.
"""

import time

from droneprivacy import (
    DroneSpec,
    HeuristicParams,
    evaluate,
    generate,
    instantiate_template,
    pareto_front,
    template_for,
)

N = 5
SEED = 1


def main():
    scenario = generate("uniform", N, seed=SEED)
    drone = DroneSpec(capacity=N)

    started = time.perf_counter()
    front = pareto_front(scenario, drone)
    elapsed = time.perf_counter() - started
    print(f"{front.total_routes:,} routes covered ({front.routes_walked:,} walked) in {elapsed:.1f}s; "
          f"{len(front.points)} points on the exact front:\n")
    for point in front.points:
        e = point.evaluation
        print(f"  ({str(e.avg_risk):>7}, {e.avg_wait:7.1f}s)  {e.route.tokens}  x{point.multiplicity}")

    print("\nheuristic routes on the same map:")
    grid = [HeuristicParams("split", N, k=k, l=N - k) for k in range(1, N)]
    grid += [HeuristicParams("reversal", N, k=k) for k in range(0, N // 2 + 1)]
    grid += [HeuristicParams("stuffing", N, c=c) for c in range(1, N + 1)]
    for params in grid:
        route = instantiate_template(template_for(params), scenario, drone)
        e = evaluate(route, scenario, drone, tag=params.label)
        dominated = any(
            p.evaluation.avg_risk <= e.avg_risk and p.evaluation.avg_wait <= e.avg_wait
            and (p.evaluation.avg_risk < e.avg_risk or p.evaluation.avg_wait < e.avg_wait)
            for p in front.points
        )
        on_front = any(
            p.evaluation.avg_risk == e.avg_risk and p.evaluation.avg_wait == e.avg_wait
            for p in front.points
        )
        status = "on the front" if on_front else ("dominated" if dominated else "non-dominated")
        print(f"  ({str(e.avg_risk):>7}, {e.avg_wait:7.1f}s)  {params.label:<18} {status}")


if __name__ == "__main__":
    main()
