"""Exhaustive route enumeration, multi-objective evaluation, and Pareto fronts.

Enumeration is a depth-first walk over lexicographic stop choices (real
vendors by id, then decoys, then customers), so the route stream is
deterministic and free of duplicates.  Risk objectives are exact rationals;
wait objectives are floats computed in a fixed order, so fronts are
bit-reproducible.  Front accumulation is merge-based: combining partial
fronts from any partition of the route stream in any order yields the same
result as one sequential pass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import GuardError
from .geometry import MotionModel, order_waits, wait_times
from .model import DroneSpec, Route, Scenario, Stop, abstract_scenario, require_valid
from .risk import _average_pair, _run_recurrence, _worst_pair, privacy_risks

MAX_ORDERS = 7
MAX_DECOY_BUDGET = 3

RISK_OBJECTIVES = ("avg_risk", "worst_risk")
WAIT_OBJECTIVE = "avg_wait"


@dataclass(frozen=True)
class Evaluation:
    """One route with its privacy and efficiency objectives."""

    route: Route
    avg_risk: Fraction
    worst_risk: Fraction
    avg_wait: float
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

    ``multiplicity`` counts how many enumerated routes share a point's
    objective vector; the stored route is the lexicographically smallest of
    them.  ``total_routes`` is the number of routes enumerated to build the
    front.
    """

    objectives: tuple[str, str]
    points: tuple[ParetoPoint, ...]
    total_routes: int


def _check_guards(scenario: Scenario, decoy_budget: int) -> None:
    if decoy_budget < 0:
        raise ValueError("decoy budget must be non-negative")
    if decoy_budget > scenario.n_decoys:
        raise ValueError(
            f"decoy budget {decoy_budget} exceeds the scenario's {scenario.n_decoys} decoys"
        )
    if scenario.n > MAX_ORDERS or decoy_budget > MAX_DECOY_BUDGET:
        raise GuardError(
            f"enumeration over n={scenario.n}, decoy budget {decoy_budget} refused "
            f"(limits: n <= {MAX_ORDERS}, budget <= {MAX_DECOY_BUDGET}); "
            f"roughly {route_count_upper_bound(scenario.n, decoy_budget):,} routes"
        )


def route_count_upper_bound(n: int, decoy_budget: int) -> int:
    """Route count for capacity >= n: (2n)!/2^n base orderings times decoy insertions."""
    base = math.factorial(2 * n) // 2**n
    inserts = sum(
        math.comb(decoy_budget, k) * math.factorial(2 * n + k) // math.factorial(2 * n)
        for k in range(decoy_budget + 1)
    )
    return base * inserts


def enumerate_routes(scenario: Scenario, drone: DroneSpec, decoy_budget: int = 0) -> Iterator[Route]:
    """Yield every valid route exactly once, in deterministic depth-first order.

    A route is valid when it serves every order, respects vendor precedence
    and the drone's capacity over real items, and visits at most
    ``decoy_budget`` distinct decoy vendors (anywhere in the route, trailing
    stops included).
    """
    _check_guards(scenario, decoy_budget)
    for seq in _sequences(scenario, drone.capacity, decoy_budget):
        yield Route(seq)


def _sequences(scenario: Scenario, capacity: int, decoy_budget: int) -> Iterator[tuple[Stop, ...]]:
    order_pos_by_vendor = scenario.order_index_by_vendor
    reals = sorted(
        ((Stop("v", v.id), order_pos_by_vendor[v.id]) for v in scenario.real_vendors),
        key=lambda t: t[0].sid,
    )
    custs = sorted(
        ((Stop("a", c.id), scenario.order_index[c.id]) for c in scenario.customers),
        key=lambda t: t[0].sid,
    )
    decoys = sorted((Stop("d", d.id) for d in scenario.decoy_vendors), key=lambda s: s.sid)
    n = scenario.n
    picked = [False] * n
    dropped = [False] * n
    decoy_used = [False] * len(decoys)
    path: list[Stop] = []

    def walk(remaining: int, aboard: int, decoys_left: int) -> Iterator[tuple[Stop, ...]]:
        if remaining == 0:
            yield tuple(path)
        if aboard < capacity:
            for stop, pos in reals:
                if not picked[pos]:
                    picked[pos] = True
                    path.append(stop)
                    yield from walk(remaining, aboard + 1, decoys_left)
                    path.pop()
                    picked[pos] = False
        if decoys_left:
            for j, stop in enumerate(decoys):
                if not decoy_used[j]:
                    decoy_used[j] = True
                    path.append(stop)
                    yield from walk(remaining, aboard, decoys_left - 1)
                    path.pop()
                    decoy_used[j] = False
        for stop, pos in custs:
            if picked[pos] and not dropped[pos]:
                dropped[pos] = True
                path.append(stop)
                yield from walk(remaining - 1, aboard - 1, decoys_left)
                path.pop()
                dropped[pos] = False

    yield from walk(n, 0, decoy_budget)


def evaluate(
    route: Route,
    scenario: Scenario,
    drone: DroneSpec,
    *,
    motion: MotionModel | None = None,
    tag: str | None = None,
    check: bool = True,
) -> Evaluation:
    """Full objective vector for one route: exact risks plus wait times.

    The motion model defaults to the drone's speed and stop duration.
    """
    if check:
        require_valid(route, scenario, drone)
    report = privacy_risks(route, scenario, check=False)
    motion = motion or MotionModel(speed=drone.speed, stop_duration=drone.stop_duration)
    waits = wait_times(route, scenario, motion, check=False)
    return Evaluation(
        route=route,
        avg_risk=report.average,
        worst_risk=report.worst_case,
        avg_wait=waits.average,
        waits=waits.waits,
        customer_ids=waits.customer_ids,
        heuristic_tag=tag,
    )


class ParetoAccumulator:
    """Incremental 2D non-dominated set over (risk, wait), risk exact.

    Entries are kept with waits strictly ascending and risks strictly
    descending; equal objective vectors are collapsed into one entry with a
    multiplicity count and the lexicographically smallest route.  ``merge``
    is associative and commutative, so partitioned accumulation is
    deterministic regardless of schedule.
    """

    def __init__(self):
        self.waits: list[float] = []
        self.risks: list[Fraction] = []
        self.seqs: list[tuple[Stop, ...]] = []
        self.counts: list[int] = []

    def offer(self, risk: Fraction, wait: float, seq: tuple[Stop, ...], count: int = 1) -> None:
        waits, risks = self.waits, self.risks
        i = bisect_left(waits, wait)
        if i < len(waits) and waits[i] == wait:
            existing = risks[i]
            if existing < risk:
                return
            if existing == risk:
                self.counts[i] += count
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
        self.counts.insert(i, count)

    def merge(self, other: "ParetoAccumulator") -> None:
        for risk, wait, seq, count in zip(other.risks, other.waits, other.seqs, other.counts):
            self.offer(risk, wait, seq, count)

    def __len__(self) -> int:
        return len(self.waits)


def pareto_front(
    scenario: Scenario,
    drone: DroneSpec,
    objectives: tuple[str, str] = ("avg_risk", "avg_wait"),
    decoy_budget: int = 0,
    *,
    motion: MotionModel | None = None,
) -> ParetoFront:
    """Exact Pareto front of all valid routes under the chosen objective pair.

    ``objectives`` pairs one of ``avg_risk``/``worst_risk`` with ``avg_wait``.
    The result is independent of enumeration order.
    """
    risk_obj, wait_obj = objectives
    if risk_obj not in RISK_OBJECTIVES or wait_obj != WAIT_OBJECTIVE:
        raise ValueError(
            f"objectives must pair one of {RISK_OBJECTIVES} with {WAIT_OBJECTIVE!r}, got {objectives}"
        )
    _check_guards(scenario, decoy_budget)
    motion = motion or MotionModel(speed=drone.speed, stop_duration=drone.stop_duration)
    risk_of = _average_pair if risk_obj == "avg_risk" else _worst_pair
    n = scenario.n

    front = ParetoAccumulator()
    total = 0
    for seq in _sequences(scenario, drone.capacity, decoy_budget):
        total += 1
        nums, dens, _ = _run_recurrence(seq, scenario)
        # Same summation as wait_times(), so the wait is bit-identical to evaluate()'s.
        wait = sum(order_waits(seq, scenario, motion)) / n
        front.offer(Fraction(*risk_of(nums, dens)), wait, seq)

    points = []
    for risk, wait, seq, count in zip(front.risks, front.waits, front.seqs, front.counts):
        evaluation = evaluate(Route(seq), scenario, drone, motion=motion, check=False)
        points.append(ParetoPoint(evaluation=evaluation, multiplicity=count))
    return ParetoFront(objectives=(risk_obj, wait_obj), points=tuple(points), total_routes=total)


def min_avg_risk_sweep(
    n_range: Iterable[int],
    c_range: Iterable[int],
    decoy_range: Iterable[int],
) -> dict[tuple[int, int, int], Fraction]:
    """Minimum average risk over all valid routes, per (n, capacity, decoy budget) cell.

    Risk depends only on route structure, never on geometry, so cells are
    computed on a placeholder scenario and wait evaluation is skipped
    entirely.  One enumeration per (n, budget) pair covers every capacity by
    tracking each route's peak payload.
    """
    n_values = sorted(set(n_range))
    c_values = sorted(set(c_range))
    d_values = sorted(set(decoy_range))
    if not n_values or not c_values or not d_values:
        raise ValueError("all sweep ranges must be non-empty")
    if min(n_values) < 1 or min(c_values) < 1 or min(d_values) < 0:
        raise ValueError("sweep ranges out of bounds")
    c_max = max(c_values)
    table: dict[tuple[int, int, int], Fraction] = {}
    for n in n_values:
        for n_d in d_values:
            scenario = abstract_scenario(n, n_d)
            _check_guards(scenario, n_d)
            best_by_peak: dict[int, tuple[int, int]] = {}
            for seq in _sequences(scenario, min(c_max, n), n_d):
                nums, dens, peak = _run_recurrence(seq, scenario)
                nu, de = _average_pair(nums, dens)
                cur = best_by_peak.get(peak)
                if cur is None or nu * cur[1] < cur[0] * de:
                    best_by_peak[peak] = (nu, de)
            for c in c_values:
                best: tuple[int, int] | None = None
                for peak, (nu, de) in best_by_peak.items():
                    if peak <= c and (best is None or nu * best[1] < best[0] * de):
                        best = (nu, de)
                table[(n, c, n_d)] = Fraction(*best)
    return table

