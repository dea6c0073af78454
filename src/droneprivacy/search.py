"""Exhaustive route enumeration, multi-objective evaluation, and Pareto fronts.

Enumeration is a depth-first walk over lexicographic stop choices (real
vendors by id, then decoys, then customers), so the route stream is
deterministic and free of duplicates.  The walk carries each prefix's clock
state and one risk objective (the risk sum or the worst risk) and yields each
route with that risk and its average wait, so a front never rescans a route.
Risk objectives are exact rationals; wait objectives are floats computed in a
fixed order, so fronts are bit-reproducible.  A front keeps each point's
smallest route and its exact tie count, so it does not depend on the order
routes are offered in.

Pareto fronts are exact by branch and bound (Land & Doig 1960) on the same
walk: a prefix is cut when a route already walked is no riskier than the
prefix's risk bound and waits strictly less than its wait bound (a
minimum-latency dynamic program over the real stops, after Psaraftis 1980).
The risk bound is the delivered risk sum plus the least risk sum still to
come, or the larger of the worst delivered risk and the least worst risk
still to come; one dynamic program over payload states gives either.  The
walk itself applies both bounds against the front it is building.  Every
route is either walked or lies under exactly one skipped prefix, so a
front's route total is the counting recurrence's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Iterable, Iterator

from .errors import GuardError, factorial_count, format_count
from .geometry import leg_times, wait_summary
from .model import DroneSpec, Route, Scenario, Stop, require_valid
from .risk import risk_summary

MAX_ORDERS = 7
MAX_DECOY_BUDGET = 3
MAX_FRONT_NODES = 20_000_000  # prefixes one pareto_front walk may visit
MAX_WAIT_BOUND_STATES = 34_992  # the front's wait-bound table, 2n * 3^(n-1) states, at n = 8
MAX_SWEEP_CELLS = 100_000  # (n, capacity, budget) cells one sweep table may hold

RISK_OBJECTIVES = ("avg_risk", "worst_risk")
WAIT_OBJECTIVE = "avg_wait"


@dataclass(frozen=True)
class Evaluation:
    """One route with its privacy and efficiency objectives.

    ``risks`` and ``waits`` are per order, in scenario order position, for the
    customers listed in ``customer_ids``.
    """

    route: Route
    avg_risk: Fraction
    worst_risk: Fraction
    avg_wait: float
    risks: tuple[Fraction, ...]
    waits: tuple[float, ...]
    customer_ids: tuple[int, ...]
    heuristic_tag: str | None = None


@dataclass(frozen=True)
class ParetoPoint:
    evaluation: Evaluation
    multiplicity: int


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated evaluations, ascending by wait, one per objective vector.

    ``multiplicity`` counts how many valid routes share a point's objective
    vector; the stored route is the lexicographically smallest of them.
    ``total_routes`` is the number of valid routes the front covers, by the
    counting recurrence; ``routes_walked`` is how many of them the walk
    reached.  The others lie under skipped prefixes: each waits strictly
    longer than a walked route that is no riskier, so it never ties a point.
    """

    objectives: tuple[str, str]
    points: tuple[ParetoPoint, ...]
    total_routes: int
    routes_walked: int


def _check_budget(n_decoys: int, decoy_budget: int) -> None:
    if decoy_budget < 0:
        raise ValueError("decoy budget must be non-negative")
    if decoy_budget > n_decoys:
        raise ValueError(f"decoy budget {decoy_budget} exceeds the scenario's {n_decoys} decoys")


def _route_total(n: int, n_decoys: int, capacity: int, decoy_budget: int) -> tuple[int, str]:
    """The route count and its refusal text; past the walk limit, ``factorial_count(n)``, "at least n!"."""
    routes = factorial_count(n)  # every walk holds the n! routes that serve one order at a time
    if routes > MAX_ROUTES:  # refused either way; the counter would recurse 2n deep
        return routes, f"at least {n}!"
    routes = _route_counter(n_decoys, capacity, decoy_budget)(n, 0, decoy_budget)
    return routes, format_count(routes)


def _check_guards(n: int, n_decoys: int, capacity: int, decoy_budget: int) -> None:
    """Refuse a walk over more routes than the full decoy-free walk at ``MAX_ORDERS`` orders."""
    _check_budget(n_decoys, decoy_budget)
    if decoy_budget > MAX_DECOY_BUDGET:
        raise GuardError(f"enumeration with decoy budget {decoy_budget} refused (limit {MAX_DECOY_BUDGET})")
    routes, size = _route_total(n, n_decoys, capacity, decoy_budget)
    if routes > MAX_ROUTES:
        raise GuardError(
            f"enumeration over n={n}, capacity {capacity}, decoy budget {decoy_budget} refused: "
            f"{size} routes (limit {MAX_ROUTES:,}, the full walk at n={MAX_ORDERS})"
        )


def route_count_upper_bound(n: int, decoy_budget: int) -> int:
    """Route count for capacity >= n: (2n)!/2^n base orderings times decoy insertions."""
    base = math.factorial(2 * n) // 2**n
    inserts = sum(math.comb(decoy_budget, k) * math.perm(2 * n + k, k) for k in range(decoy_budget + 1))
    return base * inserts


MAX_ROUTES = route_count_upper_bound(MAX_ORDERS, 0)  # the full decoy-free walk at n = 7: 681,080,400


def enumerate_routes(scenario: Scenario, drone: DroneSpec, decoy_budget: int = 0) -> Iterator[Route]:
    """Yield every valid route exactly once, in deterministic depth-first order.

    A route is valid when it serves every order, respects vendor precedence
    and the drone's capacity over real items, and visits at most
    ``decoy_budget`` distinct decoy vendors (anywhere in the route, trailing
    stops included).
    """
    _check_guards(scenario.n, scenario.n_decoys, drone.capacity, decoy_budget)
    for seq, _, _ in _sequences(scenario, drone.capacity, decoy_budget, average=False):
        yield Route(seq)


def _sequences(
    scenario: Scenario,
    capacity: int,
    decoy_budget: int,
    drone: DroneSpec | None = None,
    front: ParetoAccumulator | None = None,
    average: bool = True,
) -> Iterator[tuple[tuple[Stop, ...], tuple[int, int], float]]:
    """Every valid route as ``(stops, risk, avg_wait)``, in ``Route.sort_key`` order.

    ``risk`` is the sum of the per-order risks if ``average``, else the
    largest of them: an exact ``(numerator, denominator)`` pair, not
    reduced.  Every decision the walk makes cross-multiplies, so a pair is
    reduced only where something stores it: the survivor ratios that key
    :func:`_risk_to_go`'s memo, that memo's results, and the ``Fraction`` a
    caller builds per route.  ``avg_wait`` is bit-identical to
    :func:`~droneprivacy.geometry.wait_times`' average at the drone's speed
    and stop time, and 0.0 without a drone.

    The walk extends a prefix one stop at a time (real vendors by id, then
    decoys by id, then customers by id) and carries the prefix's risk and
    clock state, so a route costs amortized O(1) instead of a rescan.  The
    risk state is the one of the recurrence in
    :func:`~droneprivacy.risk.risk_summary`: the payload frozen at the start
    of the current customer run, and the product of the survivor fractions
    of the completed runs (``pn / pd``), which each order snapshots at
    pickup.  A delivered order's risk is final at once: the product's growth
    since its pickup, divided by the frozen payload; a delivery adds it to
    the risk sum, or keeps the larger of it and the worst risk so far.  The
    picked and delivered orders and the used decoys are bit masks (an order's
    bit is ``1 << position``, a decoy's ``1 << rank``).

    With a ``front`` (the incumbent set of the caller, whose risks are the
    walk's ``risk``), the walk is bounded: it skips a prefix, with every
    route that extends it, when a route on the front is no riskier than the
    prefix's risk bound and waits strictly less than its wait bound.  It
    raises :class:`GuardError` past ``MAX_FRONT_NODES`` prefixes.
    """
    n = scenario.n
    order_of_vendor = scenario.order_index_by_vendor
    order_of_customer = scenario.order_index
    vendor_ids = sorted(order_of_vendor)
    customer_ids = sorted(order_of_customer)
    stops = [Stop("v", i) for i in vendor_ids] + [Stop("d", i) for i in scenario.decoy_ids]
    stops += [Stop("a", i) for i in customer_ids]
    # (index into stops, order position, order bit); decoys need only the index and a bit
    reals = [(k, pos, 1 << pos) for k, pos in enumerate(order_of_vendor[i] for i in vendor_ids)]
    decoys = [(n + j, 1 << j) for j in range(scenario.n_decoys)]
    custs = [(n + scenario.n_decoys + k, pos, 1 << pos)
             for k, pos in enumerate(order_of_customer[i] for i in customer_ids)]
    full = (1 << n) - 1
    # Without a drone every leg takes no time.  The extra all-zero last row (``last`` = -1)
    # is the leg into the first stop, where the clock starts.
    no_legs = [[0.0] * len(stops)]
    legs = (no_legs * len(stops) if drone is None else leg_times(stops, scenario, drone)) + no_legs
    pickup_n = [1] * n  # pn and pd when each aboard order was picked up
    pickup_d = [1] * n
    waits = [0.0] * n
    path: list[Stop] = []
    visited = 0  # prefixes, counted on a bounded walk
    if front is not None:
        wait_to_go = _wait_to_go(legs, reals, custs, capacity)
        risk_to_go = _risk_to_go(capacity, decoy_budget, average)
        inc_waits, inc_risks = front.waits, front.risks
        # The bound adds in other orders than the walk's sum(waits) / n (in order position): ``done``
        # sums the delivered waits in delivery order.  The slack covers both differences.
        shrink = (1 - 1e-9) / n

    # picked / dropped / used: masks of the picked and delivered orders and the used decoys;
    # frozen: the current customer run's payload (0 in a vendor run); rn / rd: the delivered orders'
    # risk sum or worst risk; t: clock; done: the delivered orders' waits, summed; last: index of the
    # last stop.
    def walk(picked, dropped, used, aboard, decoys_left, frozen, pn, pd, rn, rd, t, done, last):
        nonlocal visited
        if front is not None:
            visited += 1
            if visited > MAX_FRONT_NODES:
                raise GuardError(
                    f"front walk refused after {visited - 1:,} prefixes (budget {MAX_FRONT_NODES:,}); "
                    f"{_route_total(n, scenario.n_decoys, capacity, decoy_budget)[1]} routes"
                )
            remaining = n - dropped.bit_count()
            i = bisect_left(inc_waits, (done + remaining * t + wait_to_go(picked, dropped, last)) * shrink)
            if i:
                # The least risk among the front's routes that wait less than the wait bound: if it is no
                # more than the risk bound, every extension waits longer than that route and none can tie it.
                fn, fd = inc_risks[i - 1].numerator, inc_risks[i - 1].denominator
                if fn * rd <= rn * fd:
                    return
                # The least risk still to come: the final risk sum is at least the delivered sum plus it,
                # and the final worst risk at least the larger of the delivered worst and it.
                held = picked ^ dropped
                ratios = []
                for _, pos, bit in reals:
                    if held & bit:
                        num, den = pn * pickup_d[pos], pd * pickup_n[pos]
                        g = math.gcd(num, den)
                        ratios.append((num // g, den // g))
                ratios.sort()
                tn, td = risk_to_go(remaining - aboard, tuple(ratios), frozen if aboard else 0, decoys_left)
                if (fn * rd * td <= (rn * td + tn * rd) * fd) if average else (fn * td <= tn * fd):
                    return
        if dropped == full:
            yield tuple(path), (rn, rd), sum(waits) / n
        row = legs[last]
        vpn, vpd = pn, pd  # the survivor product after a vendor or decoy stop
        if frozen and aboard:
            # That stop closes the customer run; the orders still aboard survived it.
            vpn, vpd = pn * (aboard + decoy_budget - decoys_left), pd * frozen
        if aboard < capacity:
            for k, pos, bit in reals:
                if not picked & bit:
                    pickup_n[pos] = vpn
                    pickup_d[pos] = vpd
                    path.append(stops[k])
                    yield from walk(picked | bit, dropped, used, aboard + 1, decoys_left, 0, vpn, vpd,
                                    rn, rd, t + row[k], done, k)
                    path.pop()
        if decoys_left:
            for k, bit in decoys:
                if not used & bit:
                    path.append(stops[k])
                    yield from walk(picked, dropped, used | bit, aboard, decoys_left - 1, 0, vpn, vpd,
                                    rn, rd, t + row[k], done, k)
                    path.pop()
        payload = frozen or aboard + decoy_budget - decoys_left
        held = picked ^ dropped
        for k, pos, bit in custs:
            if held & bit:
                num = pn * pickup_d[pos]
                den = pd * pickup_n[pos] * payload
                if average:
                    num, den = rn * den + num * rd, rd * den
                elif num * rd <= rn * den:
                    num, den = rn, rd
                wait = waits[pos] = t + row[k]
                path.append(stops[k])
                if dropped | bit == full and not decoys_left:
                    # The last delivery, and no decoy left to append: the route is complete.
                    yield tuple(path), (num, den), sum(waits) / n
                else:
                    yield from walk(picked, dropped | bit, used, aboard - 1, decoys_left, payload, pn, pd,
                                    num, den, wait, done + wait, k)
                path.pop()

    yield from walk(0, 0, 0, 0, decoy_budget, 0, 1, 1, 0, 1, 0.0, 0.0, -1)


def evaluate(
    route: Route,
    scenario: Scenario,
    drone: DroneSpec,
    *,
    tag: str | None = None,
    check: bool = True,
) -> Evaluation:
    """Full objective vector for one route: exact risks plus waits at the drone's speed and stop time.

    The fields are :func:`~droneprivacy.risk.privacy_risks`' and :func:`~droneprivacy.geometry.wait_times`',
    from the same risk and wait summaries, with no report built in between; so are the refusals.
    """
    if check:
        require_valid(route, scenario, drone)
    risks, worst_risk, avg_risk = risk_summary(route.stops, scenario)
    waits, avg_wait = wait_summary(route.stops, scenario, drone)
    return Evaluation(route, avg_risk, worst_risk, avg_wait, risks, waits, scenario.customer_ids, tag)


class ParetoAccumulator:
    """Incremental 2D non-dominated set over (risk, wait), risk exact.

    Entries are kept with waits strictly ascending and risks strictly
    descending; equal objective vectors are collapsed into one entry with a
    multiplicity count and the lexicographically smallest route, so the
    result does not depend on the order the routes are offered in.
    """

    def __init__(self):
        self.waits: list[float] = []
        self.risks: list[Fraction] = []
        self.seqs: list[tuple[Stop, ...]] = []
        self.counts: list[int] = []

    def offer(self, risk: Fraction, wait: float, seq: tuple[Stop, ...]) -> None:
        waits, risks = self.waits, self.risks
        i = bisect_left(waits, wait)
        if i < len(waits) and waits[i] == wait:
            existing = risks[i]
            if existing < risk:
                return
            if existing == risk:
                self.counts[i] += 1
                if tuple(s.sort_key for s in seq) < tuple(s.sort_key for s in self.seqs[i]):
                    self.seqs[i] = seq
                return
            # same wait, strictly better risk: the old entry falls
        elif i > 0 and risks[i - 1] <= risk:
            return  # an entry with smaller wait and no worse risk dominates
        j = i
        while j < len(waits) and risks[j] >= risk:
            j += 1
        del waits[i:j], risks[i:j], self.seqs[i:j], self.counts[i:j]
        waits.insert(i, wait)
        risks.insert(i, risk)
        self.seqs.insert(i, seq)
        self.counts.insert(i, 1)

    def __len__(self) -> int:
        return len(self.waits)


def _route_counter(n_decoys: int, capacity: int, decoy_budget: int) -> Callable[[int, int, int], int]:
    """``count(unpicked, aboard, decoys_left)``: how many valid routes extend a prefix in that state.

    The choices are those of :func:`_sequences`: any unpicked order while
    below capacity, any unused decoy site while budget is left, the customer
    of any item aboard.  A prefix with every order delivered is itself a
    route, and trailing decoys extend it.
    """
    @cache
    def count(unpicked, aboard, decoys_left):
        total = 0 if unpicked or aboard else 1
        if unpicked and aboard < capacity:
            total += unpicked * count(unpicked - 1, aboard + 1, decoys_left)
        if decoys_left:
            unused = n_decoys - decoy_budget + decoys_left
            total += unused * count(unpicked, aboard, decoys_left - 1)
        if aboard:
            total += aboard * count(unpicked, aboard - 1, decoys_left)
        return total

    return count


def _wait_to_go(
    legs: list[list[float]], reals: list, custs: list, capacity: int
) -> Callable[[int, int, int], float]:
    """``togo(picked, dropped, last)``: the least sum, over the undelivered orders, of the wait to come.

    A minimum-latency dynamic program over order bit masks and the index of
    the last stop: each leg costs its time times the orders not yet delivered
    when it starts.  Only real stops are visited; that keeps it a lower
    bound, because a decoy detour is never shorter than the leg it replaces
    (triangle inequality, stop times >= 0).
    """
    n = len(reals)

    @cache
    def togo(picked, dropped, last):
        undelivered = n - dropped.bit_count()
        if not undelivered:
            return 0.0
        best = math.inf
        row = legs[last]
        held = picked ^ dropped
        if held.bit_count() < capacity:
            for k, pos, bit in reals:
                if not picked & bit:
                    wait = undelivered * row[k] + togo(picked | bit, dropped, k)
                    if wait < best:
                        best = wait
        for k, pos, bit in custs:
            if held & bit:
                wait = undelivered * row[k] + togo(picked, dropped | bit, k)
                if wait < best:
                    best = wait
        return best

    return togo


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _risk_to_go(capacity: int, decoy_budget: int, average: bool = True) -> Callable[..., tuple[int, int]]:
    """``togo(unpicked, ratios, frozen, decoys_left)``: the least risk the undelivered orders can get.

    That is the least risk sum if ``average``, else the least worst risk
    (the smallest possible largest risk among them).  The arguments are a
    prefix's canonical payload state: the number of unpicked orders, the
    sorted survivor ratios of the items aboard (each a reduced pair: how
    much the survivor product of :func:`_sequences` grew since the item's
    pickup), the current customer run's frozen payload (0 outside a run or
    with nothing aboard) and the decoys left.  The moves and their risks are
    the walk's: a delivery adds its risk to the least sum to come, or keeps
    the larger of it and the least worst to come.  The result is exact, a
    reduced pair: the memo keys on the ratios and stores the results.
    """
    @cache
    def togo(unpicked, ratios, frozen, decoys_left):
        aboard = len(ratios)
        payload = aboard + decoy_budget - decoys_left
        options = [] if unpicked or aboard else [(0, 1)]
        closed = ratios  # after a vendor or decoy stop, which ends the customer run
        if frozen:
            closed = tuple(sorted(_reduced(a * payload, b * frozen) for a, b in ratios))
        if unpicked and aboard < capacity:
            options.append(togo(unpicked - 1, tuple(sorted(closed + ((1, 1),))), 0, decoys_left))
        if decoys_left:
            options.append(togo(unpicked, closed, 0, decoys_left - 1))
        run = frozen or payload
        for j, (a, b) in enumerate(ratios):
            if j and ratios[j - 1] == (a, b):
                continue  # the same ratio again: the same completions
            rest = ratios[:j] + ratios[j + 1:]
            tn, td = togo(unpicked, rest, run if rest else 0, decoys_left)
            if average:
                options.append(_reduced(a * td + tn * b * run, b * run * td))
            else:  # this delivery's risk or the worst still to come, whichever is larger
                options.append(_reduced(a, b * run) if a * td >= tn * b * run else (tn, td))
        best = options[0]
        for other in options[1:]:
            if other[0] * best[1] < best[0] * other[1]:
                best = other
        return best

    return togo


def pareto_front(
    scenario: Scenario,
    drone: DroneSpec,
    objectives: tuple[str, str] = ("avg_risk", "avg_wait"),
    decoy_budget: int = 0,
) -> ParetoFront:
    """Exact Pareto front of all valid routes under the chosen objective pair.

    ``objectives`` pairs one of ``avg_risk``/``worst_risk`` with ``avg_wait``;
    waits run at the drone's speed and stop duration.  The result is
    independent of enumeration order.  The walk skips a prefix when a walked
    route is no riskier than the prefix's risk bound and waits strictly less
    than its wait bound: every route under it then waits longer than that
    route, so it can neither reach nor tie the front, and multiplicities
    stay exact.  Raises :class:`GuardError` past ``MAX_FRONT_NODES``
    prefixes, or when the wait bound's table would pass
    ``MAX_WAIT_BOUND_STATES`` states.
    """
    risk_obj, wait_obj = objectives
    if risk_obj not in RISK_OBJECTIVES or wait_obj != WAIT_OBJECTIVE:
        raise ValueError(
            f"objectives must pair one of {RISK_OBJECTIVES} with {WAIT_OBJECTIVE!r}, got {objectives}"
        )
    n, n_decoys, capacity = scenario.n, scenario.n_decoys, drone.capacity
    _check_budget(n_decoys, decoy_budget)
    states = 2 * n * 3 ** (n - 1)
    if states > MAX_WAIT_BOUND_STATES or decoy_budget > MAX_DECOY_BUDGET:
        raise GuardError(
            f"front over n={n}, decoy budget {decoy_budget} refused (limits: a wait-bound table of "
            f"{format_count(states)} states <= {MAX_WAIT_BOUND_STATES:,}, budget <= {MAX_DECOY_BUDGET}); "
            f"{_route_total(n, n_decoys, capacity, decoy_budget)[1]} routes"
        )
    average = risk_obj == "avg_risk"

    # The walked routes' non-dominated (risk, wait) pairs (the risk sum for the average objective), which
    # the walk's bound reads; they end as the front, since every route that ties a front point is walked.
    incumbents = ParetoAccumulator()
    walked = 0
    for seq, risk, wait in _sequences(scenario, capacity, decoy_budget, drone, incumbents, average):
        walked += 1
        incumbents.offer(Fraction(*risk), wait, seq)

    points = tuple(
        ParetoPoint(evaluation=evaluate(Route(seq), scenario, drone, check=False), multiplicity=ties)
        for seq, ties in zip(incumbents.seqs, incumbents.counts)
    )
    return ParetoFront(objectives=(risk_obj, wait_obj), points=points,
                       total_routes=_route_total(n, n_decoys, capacity, decoy_budget)[0], routes_walked=walked)


def min_avg_risk_sweep(
    n_range: Iterable[int],
    c_range: Iterable[int],
    decoy_range: Iterable[int],
) -> dict[tuple[int, int, int], Fraction]:
    """Minimum average risk over all valid routes, per (n, capacity, decoy budget) cell.

    Risk depends only on route structure and order labels are interchangeable,
    so a cell is :func:`_risk_to_go`'s least risk sum from the start state
    ``(n, (), 0, budget)``, over n; one memo per (capacity, budget) serves
    every n, and capacities past the largest n share its memo.  The exhaustive
    walk's guard is checked first, at the largest cell: the route count grows
    with n, capacity and budget, so it is refused whenever any cell is.  Then
    a table of more than ``MAX_SWEEP_CELLS`` cells is refused, before any memo
    or row is built.
    """
    # A range is already distinct and ordered, so its ends are read without iterating it.
    n_values, c_values, d_values = (
        (r if r.step > 0 else r[::-1]) if isinstance(r, range) else sorted(set(r))
        for r in (n_range, c_range, decoy_range)
    )
    if not n_values or not c_values or not d_values:
        raise ValueError("all sweep ranges must be non-empty")
    if n_values[0] < 1 or c_values[0] < 1 or d_values[0] < 0:
        raise ValueError("sweep ranges out of bounds")
    n_max, d_max = n_values[-1], d_values[-1]
    _check_guards(n_max, d_max, min(c_values[-1], n_max), d_max)
    # A range's length from its ends: ``len`` fails past 2^63 values.
    cells = math.prod((v[-1] - v[0]) // v.step + 1 if isinstance(v, range) else len(v)
                      for v in (n_values, c_values, d_values))
    if cells > MAX_SWEEP_CELLS:
        raise GuardError(f"sweep table of {format_count(cells)} cells refused (limit {MAX_SWEEP_CELLS:,})")
    memos = {(c, n_d): _risk_to_go(c, n_d) for c, n_d in product({min(c, n_max) for c in c_values}, d_values)}
    return {(n, c, n_d): Fraction(*memos[min(c, n_max), n_d](n, (), 0, n_d)) / n
            for n, n_d, c in product(n_values, d_values, c_values)}
