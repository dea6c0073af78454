"""Core domain objects: scenarios, drones, routes, route validation, and templates.

Conventions used throughout the package:

* Order ``i`` pairs one real vendor with one customer; the pairing is carried
  by ``CustomerSite.vendor_id``.  Order positions follow the scenario's
  customer list.
* Decoy vendors have their own id space (stop token ``d3`` is decoy 3, which
  may coexist with real vendor ``v3``).  A decoy carries no payload item.
* Coordinates are planar meters under the Euclidean metric.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal

from .errors import UnknownIdError

StopKind = Literal["v", "d", "a"]

_KIND_RANK = {"v": 0, "d": 1, "a": 2}
_STOP_TOKEN = re.compile(r"^([vda])(\d+)$")


def require_int(name: str, value) -> None:
    """Refuse a bool or a non-integer ``value`` with ``ValueError("<name> must be an integer, got <value>")``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Stop:
    """One route stop: real vendor ``v``, decoy vendor ``d``, or customer ``a``."""

    kind: StopKind
    sid: int

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown stop kind {self.kind!r}")
        if self.sid < 0:
            raise ValueError(f"stop id must be non-negative, got {self.sid}")

    @property
    def is_vendor(self) -> bool:
        return self.kind != "a"

    @property
    def token(self) -> str:
        return f"{self.kind}{self.sid}"

    @property
    def sort_key(self) -> tuple[int, int]:
        """Fixed total order on stops: real vendors, then decoys, then customers."""
        return (_KIND_RANK[self.kind], self.sid)

    def __str__(self) -> str:
        return self.token


def parse_stop(token: str) -> Stop:
    m = _STOP_TOKEN.match(token.strip())
    if m is None:
        raise ValueError(f"malformed stop token {token!r} (expected v<k>, d<k>, or a<k>)")
    return Stop(m.group(1), int(m.group(2)))


def parse_route(text: str) -> "Route":
    """Parse a comma-separated stop list such as ``"v1, v2,a2"``; whitespace is tolerated."""
    tokens = [t for t in (piece.strip() for piece in text.split(",")) if t]
    if not tokens:
        raise ValueError("route string contains no stops")
    return Route(tuple(parse_stop(t) for t in tokens))


@dataclass(frozen=True)
class Route:
    """An ordered sequence of stops."""

    stops: tuple[Stop, ...]

    def __post_init__(self):
        object.__setattr__(self, "stops", tuple(self.stops))

    def __len__(self) -> int:
        return len(self.stops)

    def __iter__(self) -> Iterator[Stop]:
        return iter(self.stops)

    def __getitem__(self, i):
        return self.stops[i]

    @property
    def tokens(self) -> str:
        return ",".join(s.token for s in self.stops)

    @property
    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(s.sort_key for s in self.stops)

    def __str__(self) -> str:
        return self.tokens


@dataclass(frozen=True)
class VendorSite:
    id: int
    x: float
    y: float
    decoy: bool = False


@dataclass(frozen=True)
class CustomerSite:
    id: int
    x: float
    y: float
    vendor_id: int


@dataclass(frozen=True)
class Scenario:
    """Vendors (real and decoy) plus customers; one order per customer.

    Invariants enforced at construction: at least one order, exactly one real
    vendor per customer (a bijection through ``vendor_id``), no customer
    pointing at a decoy, and unique ids within real vendors, within decoys,
    and within customers.
    """

    vendors: tuple[VendorSite, ...]
    customers: tuple[CustomerSite, ...]

    def __post_init__(self):
        object.__setattr__(self, "vendors", tuple(self.vendors))
        object.__setattr__(self, "customers", tuple(self.customers))
        if len(self.customers) < 1:
            raise ValueError("scenario needs at least one customer order")
        real_ids = [v.id for v in self.vendors if not v.decoy]
        decoy_ids = [v.id for v in self.vendors if v.decoy]
        cust_ids = [c.id for c in self.customers]
        for label, ids in (("real vendor", real_ids), ("decoy vendor", decoy_ids), ("customer", cust_ids)):
            if len(ids) != len(set(ids)):
                raise ValueError(f"duplicate {label} ids")
        referenced = [c.vendor_id for c in self.customers]
        if sorted(referenced) != sorted(real_ids):
            if set(referenced) & (set(decoy_ids) - set(real_ids)):
                raise ValueError("a customer references a decoy vendor")
            raise ValueError(
                "customers and real vendors must pair one-to-one "
                f"(referenced ids {sorted(referenced)}, real vendor ids {sorted(real_ids)})"
            )

    @property
    def n(self) -> int:
        """Number of orders."""
        return len(self.customers)

    @property
    def n_decoys(self) -> int:
        return len(self.decoy_vendors)

    @cached_property
    def decoy_vendors(self) -> tuple[VendorSite, ...]:
        return tuple(v for v in self.vendors if v.decoy)

    @cached_property
    def decoy_ids(self) -> tuple[int, ...]:
        """Decoy ids, sorted: decoy rank ``k`` (template stop ``dk``) is ``decoy_ids[k - 1]``."""
        return tuple(sorted(v.id for v in self.decoy_vendors))

    @cached_property
    def _sites(self) -> dict[tuple[str, int], VendorSite | CustomerSite]:
        """``(stop kind, stop id)`` -> site, for every site."""
        sites = {("d" if v.decoy else "v", v.id): v for v in self.vendors}
        sites.update({("a", c.id): c for c in self.customers})
        return sites

    @cached_property
    def coords(self) -> dict[tuple[str, int], tuple[float, float]]:
        """``(stop kind, stop id)`` -> ``(x, y)``; the map the travel clock reads."""
        return {key: (site.x, site.y) for key, site in self._sites.items()}

    @cached_property
    def customer_ids(self) -> tuple[int, ...]:
        """Customer ids in order position."""
        return tuple(c.id for c in self.customers)

    @cached_property
    def vendor_stops(self) -> tuple[Stop, ...]:
        """The observer posterior's columns: the vendor of order ``i`` at column ``i``, then the decoys by id."""
        vendors = tuple(Stop("v", vendor.id) for vendor, _ in self.orders)
        return vendors + tuple(Stop("d", i) for i in self.decoy_ids)

    @cached_property
    def vendor_column(self) -> dict[tuple[str, int], int]:
        """``(stop kind, stop id)`` -> the column of that vendor or decoy in :attr:`vendor_stops`."""
        return {(stop.kind, stop.sid): j for j, stop in enumerate(self.vendor_stops)}

    @cached_property
    def order_index(self) -> dict[int, int]:
        """Customer id -> 0-based order position (customer list order)."""
        return {c.id: i for i, c in enumerate(self.customers)}

    @cached_property
    def order_index_by_vendor(self) -> dict[int, int]:
        """Real vendor id -> 0-based position of the order it supplies."""
        return {c.vendor_id: i for i, c in enumerate(self.customers)}

    @cached_property
    def orders(self) -> tuple[tuple[VendorSite, CustomerSite], ...]:
        """(vendor, customer) pairs in order position."""
        return tuple((self._sites["v", c.vendor_id], c) for c in self.customers)


def abstract_scenario(n: int, n_decoys: int = 0) -> Scenario:
    """Placeholder scenario for structure-only work: orders 1..n, decoys 1..n_decoys.

    Vendor, decoy and customer ``i`` sit at x = 100(i-1), y = 0, 50 and 200."""
    vendors = [VendorSite(i + 1, float(100 * i), 0.0) for i in range(n)]
    vendors += [VendorSite(i + 1, float(100 * i), 50.0, decoy=True) for i in range(n_decoys)]
    customers = [CustomerSite(i + 1, float(100 * i), 200.0, vendor_id=i + 1) for i in range(n)]
    return Scenario(vendors=tuple(vendors), customers=tuple(customers))


@dataclass(frozen=True)
class MotionModel:
    """Travel model: constant speed, fixed per-stop service time, Euclidean legs."""

    speed: float = 20.0
    stop_duration: float = 60.0

    def __post_init__(self):
        if not 0 < self.speed < math.inf:  # NaN fails too
            raise ValueError("speed must be positive and finite")
        if not 0 <= self.stop_duration < math.inf:
            raise ValueError("stop duration must be non-negative and finite")


@dataclass(frozen=True)
class DroneSpec:
    """Payload capacity plus the motion routes are timed with (:class:`MotionModel`'s defaults and rules)."""

    capacity: int
    speed: float = MotionModel.speed
    stop_duration: float = MotionModel.stop_duration

    def __post_init__(self):
        if type(self.capacity) is not int:  # the common case skips the abstract-class check
            require_int("capacity", self.capacity)
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        MotionModel.__post_init__(self)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of route validation; on failure, the first offending stop and rule."""

    ok: bool
    rule: str | None = None  # "precedence" | "completeness" | "capacity"
    index: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_route(route: Route, scenario: Scenario, drone: DroneSpec | None = None) -> ValidationResult:
    """Check precedence and completeness, and capacity when a drone is given.

    Unknown ids raise :class:`UnknownIdError`; rule violations are reported in
    the returned result, identifying the first failing stop index.
    """
    capacity = None if drone is None else drone.capacity
    seen_real: set[int] = set()
    seen_decoy: set[int] = set()
    seen_cust: set[int] = set()
    aboard = 0
    sites = scenario._sites
    for idx, stop in enumerate(route.stops):
        kind, sid = stop.kind, stop.sid
        site = sites.get((kind, sid))
        if site is None:
            raise UnknownIdError(f"scenario has no site for stop {stop.token}")
        if kind == "v":
            if sid in seen_real:
                return ValidationResult(False, "completeness", idx, f"vendor {stop.token} visited twice")
            if capacity is not None and aboard + 1 > capacity:
                return ValidationResult(
                    False, "capacity", idx,
                    f"picking up at {stop.token} would load {aboard + 1} items (capacity {capacity})",
                )
            seen_real.add(sid)
            aboard += 1
        elif kind == "d":
            if sid in seen_decoy:
                return ValidationResult(False, "completeness", idx, f"decoy {stop.token} visited twice")
            seen_decoy.add(sid)
        else:
            if sid in seen_cust:
                return ValidationResult(False, "completeness", idx, f"customer {stop.token} visited twice")
            if site.vendor_id not in seen_real:
                return ValidationResult(
                    False, "precedence", idx,
                    f"customer {stop.token} visited before its vendor v{site.vendor_id}",
                )
            seen_cust.add(sid)
            aboard -= 1
    if len(seen_cust) != scenario.n:
        missing = sorted(cid for cid in scenario.order_index if cid not in seen_cust)
        return ValidationResult(
            False, "completeness", len(route.stops),
            f"customers never visited: {', '.join('a%d' % m for m in missing)}",
        )
    return ValidationResult(True)


def require_valid(route: Route, scenario: Scenario, drone: DroneSpec | None = None) -> None:
    """Raise ``ValueError`` unless the route is valid (capacity checked only with a drone)."""
    result = validate_route(route, scenario, drone)
    if not result.ok:
        raise ValueError(f"invalid route at stop {result.index}: {result.message}")


@dataclass(frozen=True)
class RouteTemplate:
    """A route with free ordering inside each group.

    Groups alternate between vendor groups and customer groups, starting with
    vendors.  Stops inside a group are an unordered set; any within-group
    ordering flattens to the same risk profile.  Template stops use abstract
    1-based order indices (``v3`` means "the vendor of order 3"); they are
    bound to concrete scenario sites at instantiation time.
    """

    groups: tuple[tuple[Stop, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(sorted(g, key=lambda s: s.sort_key)) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ValueError("template needs at least one group")
        for gi, group in enumerate(groups):
            if not group:
                raise ValueError(f"group {gi} is empty")
            vendor_group = group[0].is_vendor
            if any(s.is_vendor != vendor_group for s in group):
                raise ValueError(f"group {gi} mixes vendor and customer stops")
            if vendor_group != (gi % 2 == 0):
                raise ValueError("groups must alternate vendor, customer, vendor, ...")

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    def flatten(self) -> Route:
        """Concatenate the groups into a route, each group in its sorted order."""
        return Route(tuple(s for group in self.groups for s in group))
