"""Named route constructions with closed-form risk profiles.

Three families are provided, each trading capacity for privacy in a different
way (``n`` is the order count):

* ``split``: two back-to-back batches, k orders then l = n - k orders, each
  batch fully aggregated.  Needs capacity ``max(k, l)``.
* ``reversal``: pick up the first ``n - k`` orders, serve the first ``k``
  customers, pick up the remaining ``k`` orders, serve the rest.  Needs
  capacity ``n - k``; ``k = 0`` is full aggregation.
* ``stuffing``: keep the drone stuffed at capacity ``c``: pick up ``c``
  orders, then alternate one drop / one pickup, and drain the last ``c``.
  First-in-first-out, so no order is dropped right after its pickup.

``closed_form_risks`` evaluates the known per-order risk formulas; templates
are bound to concrete scenarios by :func:`instantiate_template`, which only
permutes stops inside groups and therefore never changes the risk profile.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .errors import GuardError
from .geometry import travel_length
from .model import DroneSpec, Route, RouteTemplate, Scenario, Stop
from .risk import RiskReport

HeuristicKind = Literal["split", "reversal", "stuffing"]

EXHAUSTIVE_ORDERING_LIMIT = 10**6
"""Joint within-group orderings up to this count are searched exhaustively."""


@dataclass(frozen=True)
class HeuristicParams:
    """Parameters of one heuristic instance, validated per kind."""

    kind: HeuristicKind
    n: int
    k: int | None = None
    l: int | None = None
    c: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.kind == "split":
            if self.k is None or self.l is None or self.c is not None:
                raise ValueError("split takes k and l")
            if self.k < 1 or self.l < 1 or self.k + self.l != self.n:
                raise ValueError("split requires k >= 1, l >= 1, k + l = n")
        elif self.kind == "reversal":
            if self.k is None or self.l is not None or self.c is not None:
                raise ValueError("reversal takes k only")
            if self.k < 0 or self.n < 2 * self.k:
                raise ValueError("reversal requires 0 <= k and n >= 2k")
        elif self.kind == "stuffing":
            if self.c is None or self.k is not None or self.l is not None:
                raise ValueError("stuffing takes c only")
            if not 1 <= self.c <= self.n:
                raise ValueError("stuffing requires 1 <= c <= n")
        else:
            raise ValueError(f"unknown heuristic kind {self.kind!r}")

    @property
    def required_capacity(self) -> int:
        if self.kind == "split":
            return max(self.k, self.l)
        if self.kind == "reversal":
            return self.n - self.k
        return self.c

    @property
    def decay(self) -> Fraction:
        """Stuffing survival ratio per intermediate run: (c - 1) / c."""
        if self.kind != "stuffing":
            raise ValueError("decay is defined for stuffing only")
        return Fraction(self.c - 1, self.c)

    @property
    def plateau(self) -> int:
        """Stuffing decay-exponent cap: min(c - 1, n - c)."""
        if self.kind != "stuffing":
            raise ValueError("plateau is defined for stuffing only")
        return min(self.c - 1, self.n - self.c)

    @property
    def label(self) -> str:
        if self.kind == "split":
            return f"split(k={self.k},l={self.l})"
        if self.kind == "reversal":
            return f"reversal(k={self.k})"
        return f"stuffing(c={self.c})"


def split_template(n: int, k: int, l: int) -> RouteTemplate:
    """Batch the first k orders, then the remaining l = n - k."""
    HeuristicParams("split", n, k=k, l=l)
    return RouteTemplate((
        _vendor_group(1, k),
        _customer_group(1, k),
        _vendor_group(k + 1, n),
        _customer_group(k + 1, n),
    ))


def reversal_template(n: int, k: int) -> RouteTemplate:
    """Aggregate with the last k pickups and first k drops exchanged."""
    HeuristicParams("reversal", n, k=k)
    if k == 0:
        return RouteTemplate((_vendor_group(1, n), _customer_group(1, n)))
    return RouteTemplate((
        _vendor_group(1, n - k),
        _customer_group(1, k),
        _vendor_group(n - k + 1, n),
        _customer_group(k + 1, n),
    ))


def stuffing_template(n: int, c: int) -> RouteTemplate:
    """Keep the payload at c: c pickups, then drop/pick alternation, then drain."""
    HeuristicParams("stuffing", n, c=c)
    groups: list[tuple[Stop, ...]] = [_vendor_group(1, c)]
    for j in range(1, n - c + 1):
        groups.append((Stop("a", j),))
        groups.append((Stop("v", c + j),))
    groups.append(_customer_group(n - c + 1, n))
    return RouteTemplate(tuple(groups))


def template_for(params: HeuristicParams) -> RouteTemplate:
    if params.kind == "split":
        return split_template(params.n, params.k, params.l)
    if params.kind == "reversal":
        return reversal_template(params.n, params.k)
    return stuffing_template(params.n, params.c)


def _vendor_group(lo: int, hi: int) -> tuple[Stop, ...]:
    return tuple(Stop("v", i) for i in range(lo, hi + 1))


def _customer_group(lo: int, hi: int) -> tuple[Stop, ...]:
    return tuple(Stop("a", i) for i in range(lo, hi + 1))


def closed_form_risks(params: HeuristicParams) -> RiskReport:
    """Evaluate the heuristic's per-order risk formula exactly.

    The worst case is the vector maximum and the average is the vector mean
    (see :func:`stuffing_risk_series` for the related stuffing closed form).
    Order ids in the report are the abstract indices 1..n.
    """
    n = params.n
    if params.kind == "split":
        risks = [Fraction(1, params.k)] * params.k + [Fraction(1, params.l)] * params.l
    elif params.kind == "reversal":
        k = params.k
        ends = Fraction(1, n - k)
        middle = Fraction(n - 2 * k, (n - k) ** 2)
        risks = [ends if (i <= k or i > n - k) else middle for i in range(1, n + 1)]
    else:
        b, cap = params.decay, params.plateau
        c = params.c
        risks = [
            Fraction(1, c) * b ** min(cap, i - 1, n - i)
            for i in range(1, n + 1)
        ]
    return RiskReport.from_risks(risks, tuple(range(1, n + 1)))


def stuffing_risk_series(n: int, c: int) -> Fraction:
    """Closed-form series total for stuffing: sum over orders of c * risk(i).

    With ``b = (c-1)/c`` and ``d = min(c-1, n-c)`` this is
    ``2 * (b^0 + ... + b^d) + (n - 2(d+1)) * b^d``; dividing by ``n * c``
    yields the mean risk, which tends to ``(1/c) * b^(c-1)`` for large n.
    """
    params = HeuristicParams("stuffing", n, c=c)
    b, d = params.decay, params.plateau
    return 2 * sum(b**j for j in range(d + 1)) + (n - 2 * (d + 1)) * b**d


def required_template_capacity(template: RouteTemplate) -> int:
    """Peak count of real undelivered items over the template's groups."""
    aboard = 0
    peak = 0
    for group in template.groups:
        if group[0].is_vendor:
            aboard += sum(1 for s in group if s.kind == "v")
            peak = max(peak, aboard)
        else:
            aboard -= len(group)
    return peak


def _joint_orderings(template: RouteTemplate) -> int:
    return math.prod(math.factorial(size) for size in template.group_sizes)


def ordering_search_is_exact(template: RouteTemplate) -> bool:
    """Whether instantiation will search all joint within-group orderings."""
    return _joint_orderings(template) <= EXHAUSTIVE_ORDERING_LIMIT


def instantiate_template(
    template: RouteTemplate,
    scenario: Scenario,
    drone: DroneSpec,
    *,
    relabel: bool = False,
) -> Route:
    """Bind a template to a scenario and pick travel-minimizing group orderings.

    Template indices are abstract: ``v3``/``a3`` mean the vendor/customer of
    the scenario's third order (and ``d2`` its second decoy).  When the joint
    ordering count is at most ``EXHAUSTIVE_ORDERING_LIMIT`` the returned
    flattening has exactly minimal total travel; otherwise a nearest-neighbor
    pass is used (check :func:`ordering_search_is_exact`).  Ties always go to the
    lexicographically smallest stop sequence, so results are reproducible.

    With ``relabel=True`` the abstract-to-scenario order assignment itself is
    also searched (all ``n!`` relabelings).  That search raises
    :class:`GuardError` when ``n!`` times the work per assignment (the joint
    ordering count if the search is exact, else stops squared for the
    nearest-neighbor pass) exceeds ``EXHAUSTIVE_ORDERING_LIMIT``.
    """
    if required_template_capacity(template) > drone.capacity:
        raise ValueError(
            f"template needs capacity {required_template_capacity(template)}, "
            f"drone has {drone.capacity}"
        )
    n = scenario.n
    for group in template.groups:
        for stop in group:
            bound = n if stop.kind != "d" else scenario.n_decoys
            if not 1 <= stop.sid <= bound:
                raise ValueError(f"template stop {stop.token} has no counterpart in the scenario")

    if not relabel:
        return _instantiate_with_mapping(template, scenario, tuple(range(n)))

    stops = sum(template.group_sizes)
    per_mapping = _joint_orderings(template) if ordering_search_is_exact(template) else stops**2
    work = math.factorial(n) * per_mapping
    if work > EXHAUSTIVE_ORDERING_LIMIT:
        raise GuardError(f"relabeling search over {n}! order assignments refused: about {work:,} "
                         f"flattenings (limit {EXHAUSTIVE_ORDERING_LIMIT:,})")
    routes = (
        _instantiate_with_mapping(template, scenario, mapping)
        for mapping in itertools.permutations(range(n))
    )
    return min(routes, key=lambda route: (travel_length(route.stops, scenario), route.sort_key))


def _bind_stop(stop: Stop, scenario: Scenario, mapping: tuple[int, ...]) -> Stop:
    if stop.kind == "v":
        return Stop("v", scenario.orders[mapping[stop.sid - 1]][0].id)
    if stop.kind == "a":
        return Stop("a", scenario.orders[mapping[stop.sid - 1]][1].id)
    return Stop("d", sorted(d.id for d in scenario.decoy_vendors)[stop.sid - 1])


def _instantiate_with_mapping(
    template: RouteTemplate,
    scenario: Scenario,
    mapping: tuple[int, ...],
) -> Route:
    groups = [
        sorted((_bind_stop(s, scenario, mapping) for s in group), key=lambda s: s.sort_key)
        for group in template.groups
    ]
    if ordering_search_is_exact(template):
        flats = (
            tuple(s for group in orderings for s in group)
            for orderings in itertools.product(*(itertools.permutations(g) for g in groups))
        )
        # Shortest travel first; ties go to the lexicographically smallest stop sequence.
        return Route(min(flats, key=lambda f: (travel_length(f, scenario), tuple(s.sort_key for s in f))))

    # Too many joint orderings: greedy nearest-neighbor inside each group,
    # measured from the previously placed stop (first group starts at its
    # smallest stop).  Approximate but deterministic.
    placed: list[Stop] = []
    for group in groups:
        remaining = list(group)
        while remaining:
            if not placed:
                choice = min(remaining, key=lambda s: s.sort_key)
            else:
                last = placed[-1]
                choice = min(remaining, key=lambda s: (travel_length((last, s), scenario), s.sort_key))
            placed.append(choice)
            remaining.remove(choice)
    return Route(tuple(placed))
