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
orders) and picks the shortest flattening exactly, by one Held–Karp dynamic
program over the groups' stops.  With ``relabel=True`` the same program also
decides, group by group, which scenario order takes each abstract order's
place, so the ``n!`` order assignments are never tried one by one.
:func:`template_dp_steps` bounds its steps from the template alone, for the
guard.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .errors import GuardError, format_count
from .model import DroneSpec, Route, RouteTemplate, Scenario, Stop, require_valid
from .risk import RiskReport

HeuristicKind = Literal["split", "reversal", "stuffing"]

MAX_TEMPLATE_DP_STEPS = 10**7
"""Instantiation is refused when :func:`template_dp_steps` bounds the group-wise DP's steps above this:
aggregation up to n = 14 passes either way, and a relabeling search admits stuffing(3) up to n = 12."""


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
    order, so the returned flattening has exactly minimal total travel.  A DP
    state is the orders' statuses (unpicked, delivered, or aboard since a
    given vendor group), the decoys used and the last stop.  Each state keeps
    its least (length so far, stop sequence) prefix, so results are
    reproducible and prefixes of equal length go to the smaller stop sequence;
    when two prefixes of different lengths reach equal totals only after
    rounding, the route returned is still a shortest one but may not be the
    lexicographically smallest.

    With ``relabel=True`` the abstract-to-scenario order assignment is searched
    in the same DP, decided group by group: any unpicked order may fill a
    vendor group's slots, and a customer group may drop any order aboard whose
    vendor group still has drops in it (the template's count of orders from
    that vendor group to that customer group).  The route is the shortest over
    all ``n!`` relabelings, the one a search of each in turn would return (up
    to the rounding ties above); its risks are the template's, permuted among
    the orders.

    :func:`template_dp_steps` bounds the DP's steps from the template alone
    (``2^g * g^2`` per group of ``g`` stops without relabeling); past
    ``MAX_TEMPLATE_DP_STEPS`` this raises :class:`GuardError` with that count,
    before the search.  Aggregation passes up to 14 orders either way, and a
    relabeled stuffing(3) up to 12.
    """
    return _instantiate(template, scenario, drone, relabel)[0]


def template_dp_steps(template: RouteTemplate, *, relabel: bool = False) -> int:
    """An upper bound on the steps of :func:`instantiate_template`'s DP, from the template alone.

    A group counts the order statuses at each of its progress points, times
    the last stops a state there can hold, times the most ways a state in the
    group is extended.  Without relabeling a progress point is a subset of the
    group's ``g`` stops with one status each, and both factors are ``g``:
    ``2^g * g^2`` per group.  With relabeling the statuses at a point number a
    multinomial in the counts of unpicked, delivered and aboard-per-vendor-group
    orders, which the template fixes.  A state at a group's start ends where
    the previous group's did; past it, a vendor group's states end at one of
    its own stops and extend to an unpicked order or one of its decoys, and a
    customer group's end at any delivered order and extend to an order aboard
    from a vendor group that drops in it.
    """
    if not relabel:
        return sum(g * g << g for g in template.group_sizes)
    n = sum(s.kind == "v" for group in template.groups[::2] for s in group)
    fact = [1]  # fact[m] = m!
    for m in range(1, n + 1):
        fact.append(fact[-1] * m)
    unpicked, delivered = n, 0
    picked_in = {}  # template order -> the vendor group that picks it
    aboard = {}  # vendor group -> its orders picked and not yet dropped, while there are any
    steps, before = 0, 1  # the last stops a state may hold at the group's start: the empty route's None
    for gi, group in enumerate(template.groups):
        g = len(group)
        orders = [s.sid for s in group if s.kind != "d"]
        if gi % 2 == 0:  # any unpicked order may take one of the group's slots, or a decoy
            picked_in.update(dict.fromkeys(orders, gi))
            decoys = g - len(orders)
            kept, pools, into = [delivered, *aboard.values()], [(unpicked, len(orders))], 0
            lasts, fan_out = g, unpicked + decoys
            unpicked -= len(orders)
            aboard[gi] = len(orders)
        else:  # an order aboard from a vendor group with drops left here may be dropped
            decoys, drops = 0, Counter(picked_in[o] for o in orders)
            pools = [(aboard[k], count) for k, count in drops.items()]
            kept, into = [unpicked, *(m for k, m in aboard.items() if k not in drops)], delivered
            lasts, fan_out = delivered + g, sum(size for size, _ in pools)
            delivered += g
            for k, count in drops.items():
                aboard[k] -= count
                if not aboard[k]:
                    del aboard[k]
        statuses = _statuses(fact, kept, pools, into)
        placed = (sum(statuses) << decoys) - statuses[0]  # the statuses past the group's start
        steps += (statuses[0] * before + placed * lasts) * fan_out
        before = lasts
    return steps


def _statuses(fact: list[int], kept: list[int], pools: list[tuple[int, int]], into: int) -> list[int]:
    """The order statuses at a group's progress points, by the number r of orders it has moved: over
    every ``r_i <= take_i`` adding up to r, the multinomial of the ``len(fact) - 1`` orders into the
    ``kept`` class sizes, the pools' ``size_i - r_i`` and ``into + r``, the class it moves them into.
    ``fact[m]`` is ``m!``."""
    ways = [1]  # ways[r]: the sum over the r_i that add up to r of prod(size_i! / (size_i - r_i)!)
    for size, take in pools:
        falling = [fact[size] // fact[size - r] for r in range(take + 1)]
        ways = [sum(ways[r - i] * falling[i] for i in range(take + 1) if 0 <= r - i < len(ways))
                for r in range(len(ways) + take)]
    fixed = math.prod(fact[m] for m in kept) * math.prod(fact[size] for size, _ in pools)
    return [fact[-1] * w // (fixed * fact[into + r]) for r, w in enumerate(ways)]


def _bind_stop(stop: Stop, scenario: Scenario, mapping: tuple[int, ...]) -> Stop:
    if stop.kind == "v":
        return Stop("v", scenario.orders[mapping[stop.sid - 1]][0].id)
    if stop.kind == "a":
        return Stop("a", scenario.orders[mapping[stop.sid - 1]][1].id)
    return Stop("d", scenario.decoy_ids[stop.sid - 1])


def _instantiate(
    template: RouteTemplate, scenario: Scenario, drone: DroneSpec, relabel: bool
) -> tuple[Route, int]:
    """:func:`instantiate_template`'s route, and the steps its DP took."""
    n = scenario.n
    for group in template.groups:
        for stop in group:
            bound = n if stop.kind != "d" else scenario.n_decoys
            if not 1 <= stop.sid <= bound:
                raise ValueError(f"template stop {stop.token} has no counterpart in the scenario")
    # Validity depends neither on the order inside a group nor on the relabeling, so one flattening
    # checks them all.  Its stops are every order's vendor and customer and the template's decoys.
    flat = template.flatten().stops
    identity = tuple(range(n))
    bound = [_bind_stop(s, scenario, identity) for s in flat]
    require_valid(Route(tuple(bound)), scenario, drone)
    steps = template_dp_steps(template, relabel=relabel)
    if steps > MAX_TEMPLATE_DP_STEPS:
        how = " relabeling the orders" if relabel else ""
        raise GuardError(f"template instantiation refused: {format_count(steps)} dynamic-program steps{how} "
                         f"(limit {MAX_TEMPLATE_DP_STEPS:,})")

    site = {"v": {}, "a": {}, "d": {}}  # kind -> template index - 1 -> (sort key, x, y) of its bound stop
    stop_of, xy = {}, {}  # sort key -> stop, and -> (x, y)
    for stop, placed in zip(flat, bound):
        key = placed.sort_key
        stop_of[key] = placed
        xy[key] = scenario.coords[placed.kind, placed.sid]
        site[stop.kind][stop.sid - 1] = (key, *xy[key])
    # A status is one int: bit o for "order o picked", bit n + j for "decoy j used", and n bits from
    # aboard_at + k * n on for the orders aboard since vendor group k.  A move is (test, want, delta,
    # stop key, x, y): it may be taken while ``status & test == want``, and adds ``delta``.
    full = (1 << n) - 1
    aboard_at = n + scenario.n_decoys

    def pick(o, at):
        return (1 << o, 0, 1 << o | 1 << (at + o), *site["v"][o])

    def drop(o, at):
        bit = 1 << (at + o)
        return (bit, bit, -bit, *site["a"][o])

    def use(j):
        bit = 1 << (n + j)
        return (bit, 0, bit, *site["d"][j])

    picked_in = {}  # template order -> the first aboard bit of the vendor group that picks it
    aboard = {}  # a vendor group's first aboard bit -> its orders still aboard at the current group's start
    # A prefix is (length so far, stop sort keys).  Legs are added in route order from 0.0, so each
    # length is the float that summing the full flattening's legs first to last would compute.
    layer = {0: {None: (0.0, ())}}  # status -> last stop -> least prefix
    taken = 0
    for gi, group in enumerate(template.groups):
        orders = [s.sid - 1 for s in group if s.kind != "d"]
        # A source is (bits, count, moves): its moves may be taken while the n bits from ``bits`` on hold
        # other than ``count`` ones (a count of -1 never stops them).  Without relabeling the group's
        # own orders take its places, each once, so nothing needs counting.
        if gi % 2 == 0:
            at = aboard_at + gi // 2 * n
            picked_in.update(dict.fromkeys(orders, at))
            decoys = [use(s.sid - 1) for s in group if s.kind == "d"]
            if relabel:  # any unpicked order may take one of the group's slots
                aboard[at] = len(orders)
                sources = [(0, -1, decoys), (at, len(orders), [pick(o, at) for o in range(n)])]
            else:
                sources = [(0, -1, decoys + [pick(o, at) for o in orders])]
        elif relabel:  # any order aboard from a vendor group with drops left here may be dropped
            sources = []
            for at, count in Counter(picked_in[o] for o in orders).items():
                aboard[at] -= count
                sources.append((at, aboard[at], [drop(o, at) for o in range(n)]))
        else:
            sources = [(0, -1, [drop(o, picked_in[o]) for o in orders])]
        for _ in group:
            nxt = {}
            for status, lasts in layer.items():
                targets = []
                for bits, count, moves in sources:
                    if (status >> bits & full).bit_count() != count:
                        targets += [(nxt.setdefault(status + delta, {}), key, x, y)
                                    for test, want, delta, key, x, y in moves if status & test == want]
                taken += len(targets) * len(lasts)
                for last, (length, seq) in lasts.items():
                    if last is None:  # the route's first stop
                        for slot, key, _, _ in targets:
                            slot[key] = (0.0, (key,))
                        continue
                    px, py = xy[last]
                    for slot, key, x, y in targets:
                        step = (length + math.hypot(x - px, y - py), seq + (key,))
                        if key not in slot or step < slot[key]:
                            slot[key] = step
            layer = nxt
    (lasts,) = layer.values()
    best = min(lasts.values())
    return Route(tuple(map(stop_of.__getitem__, best[1]))), taken
