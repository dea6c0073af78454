"""Scenario geometry: generators, fixtures, leg times, and the customer wait-time model.

Generators are pure functions of their seed and parameters.  They draw from
PCG64 seeded as ``numpy.random.default_rng(seed)`` does, bit for bit, without
importing numpy; the saved scenario file, not the seed, is the interchange
artifact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from typing import Literal, Sequence

from .model import CustomerSite, DroneSpec, MotionModel, Route, Scenario, Stop, VendorSite, require_int, require_valid

Topology = Literal["uniform", "two_clusters", "hub_spoke", "linear"]

UNIT_FIXTURE_MOTION = MotionModel(speed=1.0, stop_duration=0.0)
"""Motion used with the unit-square fixtures: time equals distance traveled."""


@dataclass(frozen=True)
class WaitReport:
    """Per-order waits (seconds) in scenario order position, plus their mean."""

    waits: tuple[float, ...]
    average: float
    customer_ids: tuple[int, ...]


def wait_times(route: Route, scenario: Scenario, motion: MotionModel | DroneSpec, *,
               check: bool = True) -> WaitReport:
    """Wait of each customer: elapsed time from the route's first stop.

    The clock starts at zero at the first stop (no depot leg).  Every stop
    completed before reaching a customer contributes ``stop_duration``; every
    leg contributes ``distance / speed``.  A customer's own service time is
    not part of its wait.  ``motion`` is a :class:`MotionModel` or a drone,
    which carries the same two numbers.  Raises ``ValueError`` when the
    average wait overflows to infinity.
    """
    if check:
        require_valid(route, scenario)
    return WaitReport(*wait_summary(route.stops, scenario, motion), scenario.customer_ids)


def wait_summary(stops: Sequence[Stop], scenario: Scenario,
                 motion: MotionModel | DroneSpec) -> tuple[tuple[float, ...], float]:
    """The waits of a valid stop sequence in order position and their mean: a :class:`WaitReport`'s
    fields without the report.  This is the travel clock.  Raises ``ValueError`` when the mean
    overflows to infinity."""
    xy = scenario.coords
    order_of_customer = scenario.order_index
    speed, stop_s = motion.speed, motion.stop_duration
    waits = [0.0] * len(order_of_customer)
    t = 0.0
    px, py = xy[stops[0].kind, stops[0].sid]
    for stop in stops[1:]:
        x, y = xy[stop.kind, stop.sid]
        t += stop_s + math.hypot(x - px, y - py) / speed
        if stop.kind == "a":
            waits[order_of_customer[stop.sid]] = t
        px, py = x, y
    if not math.isfinite(average := sum(waits) / len(waits)):
        raise ValueError(f"the route's average wait is {average}: its legs are too long to time")
    return tuple(waits), average


def leg_times(
    stops: Sequence[Stop], scenario: Scenario, motion: MotionModel | DroneSpec
) -> list[list[float]]:
    """Clock increment between every pair of ``stops``: ``table[i][j]`` is the term
    :func:`wait_summary`'s clock adds for a leg from ``stops[i]`` to ``stops[j]``, bit for bit.
    Raises ``ValueError`` when a leg's time overflows to infinity."""
    points = [scenario.coords[stop.kind, stop.sid] for stop in stops]
    speed, stop_s = motion.speed, motion.stop_duration
    table = [[stop_s + math.hypot(x - px, y - py) / speed for x, y in points] for px, py in points]
    if not all(map(math.isfinite, chain.from_iterable(table))):
        raise ValueError("a leg between the scenario's sites is too long to time")
    return table


def unit_square_fixture(config: Literal["diagonal", "adjacent"]) -> Scenario:
    """Two orders on the corners of a unit square (meters).

    ``diagonal`` places each vendor diagonally opposite its own customer;
    ``adjacent`` places each vendor next to its own customer.  Use
    :data:`UNIT_FIXTURE_MOTION` so that wait equals distance traveled.
    """
    if config == "diagonal":
        v1, v2 = (0.0, 0.0), (1.0, 0.0)
        a1, a2 = (1.0, 1.0), (0.0, 1.0)
    elif config == "adjacent":
        v1, v2 = (0.0, 0.0), (1.0, 1.0)
        a1, a2 = (0.0, 1.0), (1.0, 0.0)
    else:
        raise ValueError(f"unknown unit-square config {config!r}")
    return Scenario(
        vendors=(VendorSite(1, *v1), VendorSite(2, *v2)),
        customers=(CustomerSite(1, *a1, vendor_id=1), CustomerSite(2, *a2, vendor_id=2)),
    )


def generate(
    topology: Topology,
    n: int,
    n_decoys: int = 0,
    seed: int = 0,
    extent_m: float = 5000.0,
    **params,
) -> Scenario:
    """Generate a random scenario on one of the supported map topologies.

    Sites are drawn in a fixed order (real vendors, decoys, customers) so the
    result is fully determined by ``(topology, n, n_decoys, seed, extent_m,
    params)``.

    Topology parameters (all meters):

    * ``two_clusters``: ``separation`` (gap between the two discs, default
      ``0.4 * extent``) and ``cluster_radius`` (default ``separation / 4``,
      must stay below ``separation / 2`` so the clusters cannot overlap the
      gap).
    * ``hub_spoke``: ``hub_radius`` (default ``0.1 * extent``), ``ring_inner``
      and ``ring_outer`` (defaults ``0.3`` / ``0.45 * extent``).
    * ``linear``: ``corridor_width`` (default ``0.02 * extent``); sites hug a
      horizontal axis with alternating side offsets.

    Raises ``ValueError`` when ``n`` or ``n_decoys`` is a bool or not an
    integer, and when a coordinate, or the distance between two sites, would
    overflow to infinity: no leg of such a map can be timed.
    """
    require_int("n", n)
    require_int("n_decoys", n_decoys)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n_decoys < 0:
        raise ValueError("decoy count must be non-negative")
    if extent_m <= 0:
        raise ValueError("extent must be positive")
    rng = _PCG64(seed)

    # Each topology checks its parameters and draws vendor i and customer i; the loop below draws them all.
    if topology == "uniform":
        vendor = customer = lambda i: (rng.uniform(0, extent_m), rng.uniform(0, extent_m))
    elif topology == "two_clusters":
        separation = float(params.pop("separation", 0.4 * extent_m))
        radius = float(params.pop("cluster_radius", separation / 4))
        if separation <= 0:
            raise ValueError("separation must be positive")
        if not 0 < radius < separation / 2:
            raise ValueError("cluster_radius must be in (0, separation / 2)")
        mid = extent_m / 2
        vendor_center = (mid - separation / 2 - radius, mid)
        customer_center = (mid + separation / 2 + radius, mid)
        vendor = lambda i: _polar(rng, vendor_center, radius * math.sqrt(rng.uniform()))
        customer = lambda i: _polar(rng, customer_center, radius * math.sqrt(rng.uniform()))
    elif topology == "hub_spoke":
        hub_radius = float(params.pop("hub_radius", 0.1 * extent_m))
        ring_inner = float(params.pop("ring_inner", 0.3 * extent_m))
        ring_outer = float(params.pop("ring_outer", 0.45 * extent_m))
        if not 0 < hub_radius <= ring_inner < ring_outer:
            raise ValueError("need 0 < hub_radius <= ring_inner < ring_outer")
        try:
            inner_sq, outer_sq = ring_inner**2, ring_outer**2
        except OverflowError:
            raise ValueError(f"ring_outer {ring_outer:g} is too large to square") from None
        center = (extent_m / 2, extent_m / 2)
        vendor = lambda i: _polar(rng, center, hub_radius * math.sqrt(rng.uniform()))
        customer = lambda i: _polar(rng, center, math.sqrt(rng.uniform(inner_sq, outer_sq)))
    elif topology == "linear":
        corridor = float(params.pop("corridor_width", 0.02 * extent_m))
        if corridor <= 0:
            raise ValueError("corridor_width must be positive")
        axis_y = extent_m / 2
        # The offset's side alternates, and customer i sits on the side opposite vendor i.
        vendor = lambda i: (rng.uniform(0, extent_m), axis_y + (-1) ** i * rng.uniform(0, corridor))
        customer = lambda i: vendor(i + 1)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    xy = [draw(i) for draw, count in ((vendor, n + n_decoys), (customer, n)) for i in range(count)]
    if params:
        raise ValueError(f"unknown parameters for topology {topology}: {sorted(params)}")
    if not all(map(math.isfinite, chain.from_iterable(xy))):
        raise ValueError("the map's coordinates overflow to infinity: its extent or spacing is too large")
    if _longest_distance_overflows(xy):
        raise ValueError("a distance between the map's sites overflows to infinity: its spacing is too large")

    vendors = [VendorSite(i + 1, *xy[i]) for i in range(n)]
    vendors += [VendorSite(i + 1, *xy[n + i], decoy=True) for i in range(n_decoys)]
    customers = [CustomerSite(i + 1, *xy[n + n_decoys + i], vendor_id=i + 1) for i in range(n)]
    return Scenario(vendors=tuple(vendors), customers=tuple(customers))


def _longest_distance_overflows(points: list[tuple[float, float]]) -> bool:
    """Whether ``math.hypot`` between two of the points is infinite.  The bounding box's diagonal is
    checked first, in O(n); only when it overflows are pairs compared, since a box can overflow while
    every pair stays finite.  Then only the convex hull's vertices are paired: a point on a hull edge
    is never farther from any point than both of that edge's endpoints, so the farthest pair is two
    vertices.  (Rounding could only split the verdicts of distances within a few ulps of each other.)"""
    xs, ys = [x for x, _ in points], [y for _, y in points]
    if math.isfinite(math.hypot(max(xs) - min(xs), max(ys) - min(ys))):
        return False
    hull = _hull_vertices(points)
    return not all(math.isfinite(math.hypot(x - px, y - py)) for (px, py), (x, y) in combinations(hull, 2))


def _hull_vertices(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The vertices of the points' convex hull (Andrew's monotone chain), collinear points left out; none
    when all points coincide, as nothing is paired then.  Orientation is tested on exact integers, each
    coordinate times the largest of the coordinates' denominators (powers of two), so no cross product
    rounds or overflows."""
    shift = max(v.as_integer_ratio()[1] for point in points for v in point).bit_length()

    def exact(v: float) -> int:
        num, den = v.as_integer_ratio()
        return num << shift - den.bit_length()

    by_key = {(exact(x), exact(y)): (x, y) for x, y in points}
    keys = sorted(by_key)

    def half(chain_keys) -> list[tuple[int, int]]:
        chain: list[tuple[int, int]] = []
        for bx, by in chain_keys:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0:  # a left turn: keep the middle point
                    break
                chain.pop()
            chain.append((bx, by))
        return chain[:-1]  # the last point starts the other half

    return [by_key[key] for key in half(keys) + half(reversed(keys))]


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hasher(const: int, mult: int):
    """numpy ``SeedSequence``'s hashmix: a multiply-xorshift hash whose constant advances each call."""
    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    """numpy ``SeedSequence``'s mix of two pool words."""
    x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return x ^ x >> 16


class _PCG64:
    """The uniform stream of ``numpy.random.default_rng(seed)``, bit for bit.

    numpy's ``SeedSequence`` hashes the seed's 32-bit words into a pool of four and draws from it
    the 128-bit state and increment of PCG64 (O'Neill 2014), seeded by ``srandom``.  A draw steps
    the LCG and takes its XSL-RR output; ``uniform`` scales its top 53 bits as numpy does.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)  # TypeError for a non-integer, as numpy
        if seed < 0:
            raise ValueError("expected non-negative integer")
        entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(word) for word in (entropy + [0] * 3)[:4]]
        for src, dst in permutations(range(4), 2):
            pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word, dst in product(entropy[4:], range(4)):
            pool[dst] = _mix(pool[dst], hashmix(word))
        words = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
        seed_hi, seed_lo, inc_hi, inc_lo = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
        self.inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        self.state = (self.inc + (seed_hi << 64 | seed_lo)) & _MASK128  # srandom: a step from 0 gives inc
        self._next()

    def _next(self) -> int:
        self.state = (self.state * 0x2360ED051FC65DA44385DF649FCCF645 + self.inc) & _MASK128
        rot = self.state >> 122
        x = (self.state >> 64 ^ self.state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        span = float(high) - low
        if not 0 <= span < math.inf:
            raise ValueError(f"cannot draw uniformly from [{low}, {high})")
        return low + span * ((self._next() >> 11) * 2**-53)


def _polar(rng, center, r):
    """The point at distance ``r`` from ``center`` in a uniformly drawn direction."""
    theta = rng.uniform(0, 2 * math.pi)
    return (center[0] + r * math.cos(theta), center[1] + r * math.sin(theta))
