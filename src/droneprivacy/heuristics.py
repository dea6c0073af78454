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

``_KINDS`` gives each kind's parameters (in label and builder order) and its
builder to the parameter check, ``label`` and ``template_for``.  The CLI
restates the kinds as ``--kind`` choices, so other commands skip this import.

``closed_form_risks`` evaluates the known per-order risk formulas; templates
are bound to concrete scenarios by :func:`instantiate_template`, which keeps
each order's closed-form risk (``relabel=True`` permutes the risks among the
orders) and picks the shortest flattening exactly, by a Held–Karp dynamic
program over each group's stops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Literal

from .errors import GuardError, factorial_count, format_count
from .model import DroneSpec, Route, RouteTemplate, Scenario, Stop, require_valid
from .risk import RiskReport

HeuristicKind = Literal["split", "reversal", "stuffing"]

MAX_TEMPLATE_DP_STEPS = 10**7
"""Instantiation is refused when the group-wise DP would take more steps than this (sum of 2^g * g^2,
times ``n!`` for a relabeling search, which runs one DP per order assignment)."""


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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown heuristic kind {self.kind!r}")
        names = _KINDS[self.kind][0]
        if any((getattr(self, name) is None) == (name in names) for name in ("k", "l", "c")):
            listed = " and ".join(names) if len(names) > 1 else f"{names[0]} only"
            raise ValueError(f"{self.kind} takes {listed}")
        if self.kind == "split":
            if self.k < 1 or self.l < 1 or self.k + self.l != self.n:
                raise ValueError("split requires k >= 1, l >= 1, k + l = n")
        elif self.kind == "reversal":
            if self.k < 0 or self.n < 2 * self.k:
                raise ValueError("reversal requires 0 <= k and n >= 2k")
        elif not 1 <= self.c <= self.n:
            raise ValueError("stuffing requires 1 <= c <= n")

    @property
    def required_capacity(self) -> int:
        if self.kind == "split":
            return max(self.k, self.l)
        if self.kind == "reversal":
            return self.n - self.k
        return self.c

    @property
    def label(self) -> str:
        return f"{self.kind}({','.join(f'{name}={getattr(self, name)}' for name in _KINDS[self.kind][0])})"


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


_KINDS = {"split": (("k", "l"), split_template),
          "reversal": (("k",), reversal_template),
          "stuffing": (("c",), stuffing_template)}


def template_for(params: HeuristicParams) -> RouteTemplate:
    names, build = _KINDS[params.kind]
    return build(params.n, *(getattr(params, name) for name in names))


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
        c = params.c
        b, cap = Fraction(c - 1, c), min(c - 1, n - c)
        risks = [Fraction(1, c) * b ** min(cap, i - 1, n - i) for i in range(1, n + 1)]
    return RiskReport.from_risks(risks, tuple(range(1, n + 1)))


def stuffing_risk_series(n: int, c: int) -> Fraction:
    """Closed-form series total for stuffing: sum over orders of c * risk(i).

    With ``b = (c-1)/c`` and ``d = min(c-1, n-c)`` this is
    ``2 * (b^0 + ... + b^d) + (n - 2(d+1)) * b^d``; dividing by ``n * c``
    yields the mean risk, which tends to ``(1/c) * b^(c-1)`` for large n.
    """
    HeuristicParams("stuffing", n, c=c)  # validates n and c
    b, d = Fraction(c - 1, c), min(c - 1, n - c)
    return 2 * sum(b**j for j in range(d + 1)) + (n - 2 * (d + 1)) * b**d


def ordering_search_is_exact(template: RouteTemplate) -> bool:
    """Always ``True``: the group-wise DP is exact (kept for callers that record exactness)."""
    return True


def instantiate_template(
    template: RouteTemplate,
    scenario: Scenario,
    drone: DroneSpec,
    *,
    relabel: bool = False,
) -> Route:
    """Bind a template to a scenario and pick travel-minimizing group orderings.

    Template indices are abstract: ``v3``/``a3`` mean the vendor/customer of
    the scenario's third order (and ``d2`` its second decoy).  A template whose
    flattening is not a valid route for the drone (a customer before its
    vendor, a repeated or missing stop, more items aboard than the capacity)
    raises ``ValueError``.  The within-group orderings are chosen by a
    Held–Karp dynamic program (Held & Karp 1962) run group by group in template
    order, so the returned flattening has exactly minimal total travel.  Each
    DP state keeps its least (length so far, stop sequence) prefix, so results
    are reproducible and prefixes of equal length go to the smaller stop
    sequence; when two prefixes of different lengths reach equal totals only
    after rounding, the route returned is still a shortest one but may not be
    the lexicographically smallest.  The DP takes up to ``2^g * g^2`` steps
    per group of ``g`` stops, and a template past ``MAX_TEMPLATE_DP_STEPS`` in
    total (aggregation beyond 14 orders) raises :class:`GuardError` before
    the search.

    With ``relabel=True`` the abstract-to-scenario order assignment itself is
    also searched (all ``n!`` relabelings, one DP each).  That search raises
    :class:`GuardError` when ``n!`` times the DP's steps exceeds
    ``MAX_TEMPLATE_DP_STEPS``.
    """
    n = scenario.n
    for group in template.groups:
        for stop in group:
            bound = n if stop.kind != "d" else scenario.n_decoys
            if not 1 <= stop.sid <= bound:
                raise ValueError(f"template stop {stop.token} has no counterpart in the scenario")
    # Validity depends neither on the order inside a group nor on the relabeling, so one flattening
    # checks them all.
    identity = tuple(range(n))
    require_valid(Route(tuple(_bind_stop(s, scenario, identity) for s in template.flatten().stops)),
                  scenario, drone)
    steps = sum(g * g << g for g in template.group_sizes)  # 2^g * g states per group, each extended <= g ways
    work = steps * (factorial_count(n) if relabel else 1)  # relabeling runs one DP per order assignment
    if work > MAX_TEMPLATE_DP_STEPS:
        over = f" over {n}! order assignments" if relabel else ""
        raise GuardError(f"template instantiation refused: {format_count(work)} dynamic-program steps{over} "
                         f"(limit {MAX_TEMPLATE_DP_STEPS:,})")

    if not relabel:
        return _instantiate_with_mapping(template, scenario, identity)[1]
    found = (_instantiate_with_mapping(template, scenario, m) for m in itertools.permutations(range(n)))
    return min(found, key=itemgetter(0))[1]  # the least (length, stop sort keys), legs summed in route order


def _bind_stop(stop: Stop, scenario: Scenario, mapping: tuple[int, ...]) -> Stop:
    if stop.kind == "v":
        return Stop("v", scenario.orders[mapping[stop.sid - 1]][0].id)
    if stop.kind == "a":
        return Stop("a", scenario.orders[mapping[stop.sid - 1]][1].id)
    return Stop("d", scenario.decoy_ids[stop.sid - 1])


def _instantiate_with_mapping(
    template: RouteTemplate,
    scenario: Scenario,
    mapping: tuple[int, ...],
) -> tuple[tuple[float, tuple], Route]:
    groups = [[_bind_stop(s, scenario, mapping) for s in group] for group in template.groups]
    stop_of = {s.sort_key: s for group in groups for s in group}
    xy = {key: scenario.coords[s.kind, s.sid] for key, s in stop_of.items()}
    # A prefix is (length so far, stop sort keys).  Legs are added in route order from 0.0, so each
    # length is the float that summing the full flattening's legs first to last would compute.
    ends = {None: (0.0, ())}  # the previous group's full states: last stop -> least prefix
    for group in groups:
        keys = [s.sort_key for s in group]
        full = (1 << len(keys)) - 1
        states = {0: ends}  # placed-stop mask -> last stop -> least prefix
        for mask in range(full):  # each mask is complete before it is extended
            for length, seq in states.pop(mask).values():
                for bit, key in enumerate(keys):
                    if mask >> bit & 1:
                        continue
                    if seq:
                        (px, py), (x, y) = xy[seq[-1]], xy[key]
                        step = (length + math.hypot(x - px, y - py), seq + (key,))
                    else:
                        step = (0.0, (key,))
                    slot = states.setdefault(mask | 1 << bit, {})
                    if key not in slot or step < slot[key]:
                        slot[key] = step
        ends = states[full]
    best = min(ends.values())
    return best, Route(tuple(map(stop_of.__getitem__, best[1])))
