"""Seeded benchmark inputs: map seeds and random valid routes.

Everything here is a pure function of the seed it is given.  The route
walker is the benchmark's own: at every step it picks uniformly among the
stops that keep the route valid (a pickup while below capacity, an unused
decoy while budget remains, the customer of any item aboard).

The walker's picks are stratified over seeds.  Which kind of stop comes
next, and which position of the pending, decoy and aboard lists it takes,
come from a stream that is the same for every seed; the seed shuffles
which order and which decoy sit at each position.  So every seed samples
the same mix of route shapes (payload sizes at each drop, which set the
observer's work), with other orders at each step, on its own maps.
Sampling the shapes per seed as well made verify p50 move by up to 20%
between seeds, because p50 sits where the shape mix makes the latency
distribution steep.
"""

from __future__ import annotations

import random

from droneprivacy import Route, Scenario, Stop

TOPOLOGIES = ("uniform", "two_clusters", "hub_spoke", "linear")


def rng_for(workload: str, seed: int, part: str) -> random.Random:
    """Independent generator per (workload, seed, part); string seeds hash deterministically."""
    return random.Random(f"{workload}/{seed}/{part}")


def route_rngs(workload: str, seed: int) -> tuple[random.Random, random.Random]:
    """The walker's (shape, label) generators: the shape stream is the same for every seed."""
    return random.Random(f"{workload}/shapes"), rng_for(workload, seed, "labels")


def map_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def random_route(scenario: Scenario, capacity: int, decoy_budget: int,
                 rngs: tuple[random.Random, random.Random]) -> Route:
    """One random valid route over the scenario's orders and at most ``decoy_budget`` decoys."""
    shape_rng, label_rng = rngs
    pending = [(vendor.id, customer.id) for vendor, customer in scenario.orders]
    label_rng.shuffle(pending)
    aboard: list[int] = []
    decoys = sorted(d.id for d in scenario.decoy_vendors)
    label_rng.shuffle(decoys)
    budget = decoy_budget
    stops: list[Stop] = []
    while pending or aboard:
        choices: list[tuple[str, int]] = []
        if len(aboard) < capacity:
            choices += [("v", i) for i in range(len(pending))]
        if budget:
            choices += [("d", i) for i in range(len(decoys))]
        choices += [("a", i) for i in range(len(aboard))]
        kind, i = shape_rng.choice(choices)
        if kind == "v":
            vendor_id, customer_id = pending.pop(i)
            stops.append(Stop("v", vendor_id))
            aboard.append(customer_id)
        elif kind == "d":
            stops.append(Stop("d", decoys.pop(i)))
            budget -= 1
        else:
            stops.append(Stop("a", aboard.pop(i)))
    return Route(tuple(stops))
