"""Exception types shared across the package, and the one way a refusal counts and prints its work."""

import math

EXACT_COUNT_BITS = 64  # a guard's count is exact up to this many bits; past them it may stop growing


class UnknownIdError(ValueError):
    """A route references a vendor or customer id that the scenario does not define."""


class GuardError(RuntimeError):
    """An exhaustive operation refused to run because the instance exceeds its size guard."""


def factorial_count(n: int) -> int:
    """``n!`` up to ``EXACT_COUNT_BITS`` bits; past them ``21!``, the first factorial past them."""
    return math.factorial(min(n, 21))


def format_count(count: int) -> str:
    """A count with thousands separators; past ``EXACT_COUNT_BITS`` bits, ``more than 2^(bit length - 1)``."""
    return f"{count:,}" if count.bit_length() <= EXACT_COUNT_BITS else f"more than 2^{count.bit_length() - 1}"
