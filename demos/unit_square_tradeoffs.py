"""Two unit-square geometries with opposite privacy/efficiency behavior.

Two vendors and two customers sit on the corners of a unit square; wait time
is just distance traveled (speed 1, no service time).  With vendors diagonal
to their customers, aggregating pickups improves privacy AND wait.  With
vendors adjacent to their customers, privacy costs wait: the exact Pareto
front keeps both routes.
"""

from droneprivacy import (
    DroneSpec,
    evaluate,
    pareto_front,
    parse_route,
    unit_square_fixture,
)

ROUTES = ("v1,a1,v2,a2", "v1,v2,a1,a2")


def main():
    drone = DroneSpec(capacity=2, speed=1.0, stop_duration=0.0)
    for config in ("diagonal", "adjacent"):
        fixture = unit_square_fixture(config)
        print(f"{config} square:")
        for v in fixture.vendors:
            print(f"  v{v.id} at ({v.x:g}, {v.y:g})")
        for c in fixture.customers:
            print(f"  a{c.id} at ({c.x:g}, {c.y:g})")
        for tokens in ROUTES:
            e = evaluate(parse_route(tokens), fixture, drone)
            print(f"  {tokens:<12} avg risk {str(e.avg_risk):>3}  waits "
                  f"{tuple(round(w, 3) for w in e.waits)}  avg wait {e.avg_wait:.3f}")
        front = pareto_front(fixture, drone)
        print(f"  exact front over all {front.total_routes} routes:")
        for point in front.points:
            e = point.evaluation
            print(f"    ({e.avg_risk}, {e.avg_wait:.3f})  via {e.route.tokens}  "
                  f"x{point.multiplicity}")
        print()


if __name__ == "__main__":
    main()
