"""Third-party observer model.

Instead of the run-based recurrence in :mod:`droneprivacy.risk`, this module
replays the route stop by stop from the observer's point of view and branches
at every drop-off: any item aboard (including phantom items picked up at
decoy stops) may be the one handed over, each with probability
``1 / payload size``.  Every complete branch is a hypothetical *world*; the
posterior probability that customer ``a_i`` received vendor ``v_j``'s item is
the total probability of the worlds saying so.

Only :func:`enumerate_worlds` is exponential: it walks every branch and is the
brute-force reference.  :func:`posterior_matrix` counts the worlds behind each
cell in closed form.  Neither uses the run reasoning of the fast risk
computation (frozen payloads and survivor ratios), so both serve as its
independent correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .errors import EXACT_COUNT_BITS, GuardError, format_count
from .model import Route, Scenario, Stop, require_valid

MAX_OBSERVED_ITEMS = 10
"""Both observer functions refuse a route with more than ``MAX_OBSERVED_ITEMS!`` branches, a fully
aggregated route's count: it bounds :func:`enumerate_worlds`' walk, and the size of the denominator D
that :func:`posterior_matrix` counts over."""

_ZERO = Fraction(0)  # a posterior cell no count has filled, told apart by identity


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

    Column layout (:attr:`Scenario.vendor_stops`, built once per scenario): the real vendors first,
    arranged so that column ``i`` is the vendor of order ``i`` (making the diagonal the per-order
    matching risks), followed by the scenario's decoy vendors in id order.
    """

    customer_ids: tuple[int, ...]
    vendor_stops: tuple[Stop, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    worlds: int
    """Number of complete observer branches (worlds) the posterior sums over."""

    @property
    def n_orders(self) -> int:
        return len(self.customer_ids)


def _refuse_past_the_branch_limit(worlds: int) -> None:
    """Refuse a route whose branch count D passes ``MAX_OBSERVED_ITEMS!``; past ``EXACT_COUNT_BITS`` bits,
    the caller's count may have stopped growing, and it is refused either way."""
    if worlds > math.factorial(MAX_OBSERVED_ITEMS):
        raise GuardError(
            f"observer enumeration over {format_count(worlds)} branches exceeds the limit of "
            f"{MAX_OBSERVED_ITEMS}! = {math.factorial(MAX_OBSERVED_ITEMS):,}"
        )


def enumerate_worlds(route: Route, scenario: Scenario, *, check: bool = True) -> tuple[ObserverWorld, ...]:
    """All observer worlds for a route, with exact probabilities summing to 1.

    Each complete branch is one world: a valid route visits each vendor and
    decoy once, so no two branches make the same drop assignment.  The route
    fixes the payload size at every drop, so each of the D branches has
    probability ``1 / D``, where D is the product of those sizes.  Worlds come
    in ascending order of their assignments' ``(customer id, item sort key)``
    lists, because the walk keeps the payload in sort-key order.
    """
    if check:
        require_valid(route, scenario)
    stops = route.stops
    aboard = 0
    worlds = 1  # D, phantoms included; stops growing past EXACT_COUNT_BITS: refused either way
    for stop in stops:
        if stop.kind != "a":
            aboard += 1
        else:
            if worlds.bit_length() <= EXACT_COUNT_BITS:
                worlds *= aboard
            aboard -= 1
    _refuse_past_the_branch_limit(worlds)

    branches: list[tuple[tuple[int, Stop], ...]] = []
    assignment: list[tuple[int, Stop]] = []

    def walk(start: int, payload: tuple[Stop, ...]) -> None:
        # Loop through pickups and forced drops (one item aboard); recurse only where the walk branches.
        depth = len(assignment)
        for idx in range(start, len(stops)):
            stop = stops[idx]
            if stop.is_vendor:
                payload = tuple(sorted(payload + (stop,), key=attrgetter("sort_key")))
            elif len(payload) == 1:
                assignment.append((stop.sid, payload[0]))
                payload = ()
            else:
                for j, item in enumerate(payload):
                    assignment.append((stop.sid, item))
                    walk(idx + 1, payload[:j] + payload[j + 1:])
                    assignment.pop()
                break
        else:
            branches.append(tuple(assignment))
        del assignment[depth:]

    walk(0, ())
    if not branches:  # an unchecked route that drops from an empty payload
        return ()
    probability = Fraction(1, len(branches))
    return tuple(ObserverWorld(assignment=key, probability=probability) for key in branches)


def posterior_matrix(route: Route, scenario: Scenario, *, check: bool = True) -> PosteriorMatrix:
    """Marginalize the observer worlds into per-order vendor distributions, by counting them.

    Every world has probability ``1 / D`` (see :func:`enumerate_worlds`), so a cell is the number
    of worlds in which the drop hands over the item, over D.  A world places one non-attacking rook
    per drop (row) on an item picked up before it (column), phantoms included; the rows are nested,
    so the board is a Ferrers board and fixing one rook leaves another (Goldman, Joichi & White
    1975, *Rook theory I*).  With ``s_k`` the payload size at drop k and f the first drop after an
    item's pickup, drop k hands that item over in ``(prod_{j<f} s_j) * (prod_{f<=j<k} (s_j - 1))
    * (prod_{j>k} s_j)`` worlds: the drops before the pickup choose freely, those in between choose
    another item, and the later drops choose freely among what is left.  No branch is walked.

    The items of one vendor run (the pickups between two drops) share f, so they share every count.
    One scan of the stops collects the payload sizes, each drop's row and the runs; the
    ``MAX_OBSERVED_ITEMS!`` guard then refuses the route before any count.  Each run's count at each
    later drop is computed once, as one Fraction per distinct count, and placed in every column the
    run picked up: O(runs x drops) products instead of O(pickups x drops).
    """
    if check:
        require_valid(route, scenario)
    column_of = scenario.vendor_column
    order_of_customer = scenario.order_index
    cells = [[_ZERO] * len(column_of) for _ in range(scenario.n)]

    sizes: list[int] = []  # the payload size at each drop, phantoms included
    rows: list[list[Fraction]] = []  # each drop's row of cells
    runs: list[tuple[int, list[int]]] = []  # (first drop after a vendor run, the columns picked up in it)
    columns = None  # the current run's columns; None after a drop
    aboard = 0
    worlds = 1  # D, which stops growing past EXACT_COUNT_BITS: refused either way
    for stop in route.stops:
        kind = stop.kind
        if kind == "a":
            sizes.append(aboard)
            rows.append(cells[order_of_customer[stop.sid]])
            if worlds.bit_length() <= EXACT_COUNT_BITS:
                worlds *= aboard
            aboard -= 1
            columns = None
        else:
            if columns is None:
                columns = []
                runs.append((len(rows), columns))
            columns.append(column_of[kind, stop.sid])
            aboard += 1
    _refuse_past_the_branch_limit(worlds)

    m = len(sizes)
    before, after = [1] * (m + 1), [1] * (m + 1)  # products of the sizes before drop k / from drop k on
    for k in range(m):
        before[k + 1] = before[k] * sizes[k]
        after[m - 1 - k] = after[m - k] * sizes[m - 1 - k]
    denominator = worlds or 1  # no complete branch (an unchecked route): every count is 0
    share: dict[int, Fraction] = {}  # one (immutable, so shared) Fraction per distinct count
    for first, columns in runs:
        run = before[first]
        for k in range(first, m):
            if not run:  # the run's items are handed over for sure by now, or no world exists
                break
            count, row = run * after[k + 1], rows[k]
            cell = share.get(count)
            if cell is None:
                cell = share[count] = Fraction(count, denominator)
            for col in columns:
                # A cell filled twice (an unchecked route repeats a vendor or customer) adds up both counts.
                row[col] = cell if row[col] is _ZERO else row[col] + cell
            run *= sizes[k] - 1
    return PosteriorMatrix(
        customer_ids=scenario.customer_ids,
        vendor_stops=scenario.vendor_stops,
        rows=tuple(map(tuple, cells)),
        worlds=worlds,
    )


def risks_from_posterior(posterior: PosteriorMatrix) -> tuple[Fraction, ...]:
    """Per-order matching risks: the diagonal of the posterior over real vendors."""
    return tuple(posterior.rows[i][i] for i in range(posterior.n_orders))
