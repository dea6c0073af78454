"""A fixed reference kernel that tracks the machine's current speed.

On a shared host the same Python code runs up to 70% slower for minutes at a
time, so raw times from runs minutes apart differ by more than a change to
the library would.  The benchmark times this kernel again and again during a
run and rescales its operation times by ``REFERENCE_S / kernel time``: the
reported times are those of a machine on which the kernel takes exactly
``REFERENCE_S``.  The kernel does the kind of work the library does (a
recursive generator over pickup/drop sequences, integer risk recurrences,
exact ``Fraction`` sums merged in a dict) but imports nothing from it, so a
change to the library cannot move the scale.  Of the kernels tried, this one
tracked the speed of ``pareto_front``, ``min_avg_risk_sweep`` and the verify
items most closely: a kernel of ``Fraction`` products alone, or one that
enumerates observer worlds, tracked them two to three times worse.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010  # the kernel's time on an unloaded 2-vCPU Intel Xeon VM, Python 3.11
ORDERS = 4


def _sequences(n: int, capacity: int):
    picked = [False] * n
    dropped = [False] * n
    path: list[tuple[str, int]] = []

    def walk(remaining: int, aboard: int):
        if remaining == 0:
            yield tuple(path)
        if aboard < capacity:
            for pos in range(n):
                if not picked[pos]:
                    picked[pos] = True
                    path.append(("v", pos))
                    yield from walk(remaining, aboard + 1)
                    path.pop()
                    picked[pos] = False
        for pos in range(n):
            if picked[pos] and not dropped[pos]:
                dropped[pos] = True
                path.append(("a", pos))
                yield from walk(remaining - 1, aboard - 1)
                path.pop()
                dropped[pos] = False

    yield from walk(n, 0)


def kernel(n: int = ORDERS) -> int:
    """Enumerate every route of ``n`` orders at capacity 2 and merge their exact risks; returns a checksum."""
    merged: dict[tuple[int, ...], Fraction] = {}
    for seq in _sequences(n, 2):
        nums = [1] * n
        dens = [1] * n
        aboard: list[int] = []
        i, total = 0, len(seq)
        while i < total:
            while i < total and seq[i][0] == "v":
                aboard.append(seq[i][1])
                i += 1
            payload = len(aboard)
            while i < total and seq[i][0] == "a":
                dens[seq[i][1]] *= payload
                aboard.remove(seq[i][1])
                i += 1
            if aboard and len(aboard) != payload:
                for pos in aboard:
                    nums[pos] *= len(aboard)
                    dens[pos] *= payload
        key = tuple(sorted(dens))
        merged[key] = merged.get(key, Fraction(0)) + sum(Fraction(nu, de) for nu, de in zip(nums, dens))
    return sum(merged.values()).numerator


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
