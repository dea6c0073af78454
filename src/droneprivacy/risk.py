"""Exact per-order matching risk of a route, computed run by run.

The risk of order ``i`` is the probability that a third-party observer of the
drone's trajectory correctly matches customer ``i`` to its vendor.  It is
computed by walking the route's alternating vendor/customer runs:

* Each pickup adds an item to the payload.  A decoy pickup adds a *phantom*
  item: the observer cannot tell it apart from a real pickup, so it inflates
  the apparent payload, but it is never droppable and always survives.
* At the start of a customer run the apparent payload size is frozen.  Every
  customer served inside the run has its risk divided by that size (the
  chance the correct item was the one handed over).
* Orders still aboard after the run are multiplied by the fraction of the
  apparent payload that survived the run: the chance their item was not
  handed to somebody else.

All arithmetic is exact rational; floats appear only at serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Route, Scenario, Stop, require_valid


@dataclass(frozen=True)
class RiskReport:
    """Per-order risks in scenario order position, with their max and mean."""

    risks: tuple[Fraction, ...]
    worst_case: Fraction
    average: Fraction
    customer_ids: tuple[int, ...]

    @classmethod
    def from_risks(cls, risks: Sequence[Fraction], customer_ids: Sequence[int]) -> "RiskReport":
        risks = tuple(risks)
        return cls(*_summary(risks, [r.numerator for r in risks], [r.denominator for r in risks]),
                   tuple(customer_ids))


def privacy_risks(route: Route, scenario: Scenario, *, check: bool = True) -> RiskReport:
    """Compute the exact risk of every order on ``route``.

    The route must satisfy precedence and completeness; capacity is the
    caller's concern (it does not change the result).  Risks are reported for
    real orders only; decoy stops have no risk entry.
    """
    if check:
        require_valid(route, scenario)
    return RiskReport(*risk_summary(route.stops, scenario), scenario.customer_ids)


def risk_summary(stops: Sequence[Stop], scenario: Scenario) -> tuple[tuple[Fraction, ...], Fraction, Fraction]:
    """The risks of a valid stop sequence in order position, their max and their mean: a
    :class:`RiskReport`'s fields without the report, for callers that copy them elsewhere.  The run
    recurrence keeps order ``i``'s risk as the unreduced integers ``nums[i] / dens[i]``."""
    order_of_vendor = scenario.order_index_by_vendor
    order_of_customer = scenario.order_index
    n = len(order_of_customer)
    nums = [1] * n
    dens = [1] * n
    aboard: list[int] = []
    phantoms = 0
    i, total = 0, len(stops)
    while i < total:
        while i < total and stops[i].kind != "a":
            if stops[i].kind == "v":
                aboard.append(order_of_vendor[stops[i].sid])
            else:
                phantoms += 1
            i += 1
        payload_at_run_start = len(aboard) + phantoms
        while i < total and stops[i].kind == "a":
            pos = order_of_customer[stops[i].sid]
            dens[pos] *= payload_at_run_start
            aboard.remove(pos)
            i += 1
        survivors = len(aboard) + phantoms
        if aboard and survivors != payload_at_run_start:
            for pos in aboard:
                nums[pos] *= survivors
                dens[pos] *= payload_at_run_start
    return _summary(tuple(map(Fraction, nums, dens)), nums, dens)


def _summary(risks: tuple, nums: list[int], dens: list[int]) -> tuple[tuple[Fraction, ...], Fraction, Fraction]:
    """The risks ``nums[i] / dens[i]`` (``risks``, as Fractions), the largest of them, and their mean."""
    if not risks:
        raise ValueError("risk vector is empty")
    return risks, risks[_worst_index(nums, dens)], Fraction(*_average_pair(nums, dens))


def _average_pair(nums: list[int], dens: list[int]) -> tuple[int, int]:
    """Exact mean of the risks ``nums[i] / dens[i]`` as an unreduced integer pair."""
    common = math.lcm(*dens)
    return sum(nu * (common // de) for nu, de in zip(nums, dens)), common * len(dens)


def _worst_index(nums: list[int], dens: list[int]) -> int:
    """Position of the first largest of the risks ``nums[i] / dens[i]``, compared by cross-multiplication."""
    best = 0
    best_nu, best_de = nums[0], dens[0]
    for i, (nu, de) in enumerate(zip(nums, dens)):
        if nu * best_de > best_nu * de:
            best, best_nu, best_de = i, nu, de
    return best
