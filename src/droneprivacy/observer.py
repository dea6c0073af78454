"""Brute-force third-party observer model.

Instead of the run-based recurrence in :mod:`droneprivacy.risk`, this module
replays the route stop by stop from the observer's point of view and branches
at every drop-off: any item aboard (including phantom items picked up at
decoy stops) may be the one handed over, each with probability
``1 / payload size``.  Every complete branch is a hypothetical *world*; the
posterior probability that customer ``a_i`` received vendor ``v_j``'s item is
the total probability of the worlds saying so.

This is intentionally exponential and serves as the independent correctness
oracle for the fast risk computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardError
from .model import Route, Scenario, Stop, require_valid

MAX_OBSERVED_ITEMS = 10
"""Upper bound on real orders plus used decoys before enumeration refuses to run."""


@dataclass(frozen=True)
class ObserverWorld:
    """One hypothesis: which carried item was dropped at each customer.

    ``assignment`` lists (customer id, pickup stop of the hypothesized item)
    in drop order.  Items picked up at decoy stops are legitimate hypotheses.
    """

    assignment: tuple[tuple[int, Stop], ...]
    probability: Fraction


@dataclass(frozen=True)
class PosteriorMatrix:
    """Observer posterior: rows are orders, columns are vendor stops.

    Column layout: the real vendors first, arranged so that column ``i`` is
    the vendor of order ``i`` (making the diagonal the per-order matching
    risks), followed by the scenario's decoy vendors in id order.
    """

    customer_ids: tuple[int, ...]
    vendor_stops: tuple[Stop, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def n_orders(self) -> int:
        return len(self.customer_ids)


def _guard_items(route: Route, scenario: Scenario) -> None:
    items = scenario.n + route.used_decoys
    if items > MAX_OBSERVED_ITEMS:
        raise GuardError(
            f"observer enumeration over {items} items (orders plus used decoys) "
            f"exceeds the limit of {MAX_OBSERVED_ITEMS}"
        )


def enumerate_worlds(route: Route, scenario: Scenario, *, check: bool = True) -> tuple[ObserverWorld, ...]:
    """All observer worlds for a route, with exact probabilities summing to 1.

    Worlds that make identical drop assignments are merged by summing their
    branch probabilities.
    """
    if check:
        require_valid(route, scenario)
    _guard_items(route, scenario)

    stops = route.stops
    merged: dict[tuple[tuple[int, Stop], ...], Fraction] = {}
    assignment: list[tuple[int, Stop]] = []

    def walk(idx: int, payload: tuple[Stop, ...], denominator: int) -> None:
        if idx == len(stops):
            key = tuple(assignment)
            prob = Fraction(1, denominator)
            merged[key] = merged.get(key, Fraction(0)) + prob
            return
        stop = stops[idx]
        if stop.is_vendor:
            walk(idx + 1, payload + (stop,), denominator)
            return
        size = len(payload)
        for j in range(size):
            assignment.append((stop.sid, payload[j]))
            walk(idx + 1, payload[:j] + payload[j + 1:], denominator * size)
            assignment.pop()

    walk(0, (), 1)
    worlds = tuple(
        ObserverWorld(assignment=key, probability=prob)
        for key, prob in sorted(merged.items(), key=lambda kv: [(c, s.sort_key) for c, s in kv[0]])
    )
    return worlds


def posterior_matrix(route: Route, scenario: Scenario, *, check: bool = True) -> PosteriorMatrix:
    """Marginalize the observer worlds into per-order vendor distributions."""
    worlds = enumerate_worlds(route, scenario, check=check)
    order_of_customer = scenario.order_index
    columns: list[Stop] = [Stop("v", vendor.id) for vendor, _ in scenario.orders]
    columns += [Stop("d", d.id) for d in sorted(scenario.decoy_vendors, key=lambda v: v.id)]
    col_index = {stop: j for j, stop in enumerate(columns)}
    n, m = scenario.n, len(columns)
    cells = [[Fraction(0)] * m for _ in range(n)]
    for world in worlds:
        for customer_id, item in world.assignment:
            cells[order_of_customer[customer_id]][col_index[item]] += world.probability
    return PosteriorMatrix(
        customer_ids=tuple(c.id for c in scenario.customers),
        vendor_stops=tuple(columns),
        rows=tuple(tuple(row) for row in cells),
    )


def risks_from_posterior(posterior: PosteriorMatrix) -> tuple[Fraction, ...]:
    """Per-order matching risks: the diagonal of the posterior over real vendors."""
    return tuple(posterior.rows[i][i] for i in range(posterior.n_orders))
