"""Built-in reference checks: frozen expected values for the worked example,
the unit-square trade-off table, and the heuristic closed forms.

These back the ``fixtures`` CLI subcommand and are imported by the test
suite, so the expected values live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import UNIT_FIXTURE_MOTION, unit_square_fixture, wait_times
from .heuristics import (
    HeuristicParams,
    closed_form_risks,
    stuffing_risk_series,
    template_for,
)
from .model import CustomerSite, Route, Scenario, VendorSite, abstract_scenario, parse_route
from .observer import enumerate_worlds, posterior_matrix, risks_from_posterior
from .risk import privacy_risks

F = Fraction


def worked_example_scenario() -> Scenario:
    """Three orders, coordinates arbitrary (risk is geometry-free)."""
    return Scenario(
        vendors=(
            VendorSite(1, 0.0, 0.0),
            VendorSite(2, 400.0, 100.0),
            VendorSite(3, 900.0, 300.0),
        ),
        customers=(
            CustomerSite(1, 1200.0, 1100.0, vendor_id=1),
            CustomerSite(2, 300.0, 600.0, vendor_id=2),
            CustomerSite(3, 1000.0, 200.0, vendor_id=3),
        ),
    )


WORKED_EXAMPLE_ROUTE = parse_route("v1,v2,a2,v3,a3,a1")
WORKED_EXAMPLE_RISKS = (F(1, 4), F(1, 2), F(1, 2))
WORKED_EXAMPLE_AVG = F(5, 12)
WORKED_EXAMPLE_WORST = F(1, 2)
WORKED_EXAMPLE_WORLDS = 4  # each with probability 1/4
WORKED_EXAMPLE_POSTERIOR_ROWS = (
    (F(1, 4), F(1, 4), F(1, 2)),
    (F(1, 2), F(1, 2), F(0)),
    (F(1, 4), F(1, 4), F(1, 2)),
)


@dataclass(frozen=True)
class UnitSquareRow:
    """Expected trade-off numbers for one route on one unit-square fixture."""

    tag: str
    config: str  # "diagonal" | "adjacent"
    route: Route
    risks: tuple[Fraction, Fraction]
    waits: tuple[float, float]
    avg_wait: float


# Waits are route distance traveled (speed 1, zero stop time), rounded here
# to the 3-4 significant figures used when quoting them; compare within 1e-3.
UNIT_SQUARE_TABLE = (
    UnitSquareRow("diagonal-direct", "diagonal", parse_route("v1,a1,v2,a2"),
                  (F(1), F(1)), (1.414, 3.828), 2.621),
    UnitSquareRow("diagonal-aggregated", "diagonal", parse_route("v1,v2,a1,a2"),
                  (F(1, 2), F(1, 2)), (2.0, 3.0), 2.5),
    UnitSquareRow("adjacent-direct", "adjacent", parse_route("v1,a1,v2,a2"),
                  (F(1), F(1)), (1.0, 3.0), 2.0),
    UnitSquareRow("adjacent-aggregated", "adjacent", parse_route("v1,v2,a1,a2"),
                  (F(1, 2), F(1, 2)), (2.414, 3.828), 3.121),
)

WAIT_TOLERANCE = 1e-3

# Heuristic spot values.
SPLIT_6_3_3_RISKS = (F(1, 3),) * 6
REVERSAL_6_1_RISKS = (F(1, 5), F(4, 25), F(4, 25), F(4, 25), F(4, 25), F(1, 5))
REVERSAL_6_1_AVG = F(13, 75)
STUFFING_3_2_RISKS = (F(1, 2), F(1, 4), F(1, 2))
STUFFING_ASYMPTOTE_C3 = F(4, 27)  # limit of the mean risk for capacity 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def run_fixture_checks() -> list[CheckResult]:
    """Recompute every built-in reference value and compare."""
    results: list[CheckResult] = []

    def record(name: str, ok: bool, detail: str) -> None:
        results.append(CheckResult(name, ok, detail))

    scenario = worked_example_scenario()
    report = privacy_risks(WORKED_EXAMPLE_ROUTE, scenario)
    record(
        "worked-example-risks",
        report.risks == WORKED_EXAMPLE_RISKS
        and report.average == WORKED_EXAMPLE_AVG
        and report.worst_case == WORKED_EXAMPLE_WORST,
        f"risks={tuple(map(str, report.risks))} avg={report.average} worst={report.worst_case}",
    )

    worlds = enumerate_worlds(WORKED_EXAMPLE_ROUTE, scenario)
    record(
        "worked-example-worlds",
        len(worlds) == WORKED_EXAMPLE_WORLDS
        and all(w.probability == F(1, 4) for w in worlds),
        f"{len(worlds)} worlds, probabilities {sorted(str(w.probability) for w in worlds)}",
    )

    posterior = posterior_matrix(WORKED_EXAMPLE_ROUTE, scenario)
    record(
        "worked-example-posterior",
        posterior.rows == WORKED_EXAMPLE_POSTERIOR_ROWS
        and risks_from_posterior(posterior) == WORKED_EXAMPLE_RISKS,
        " | ".join(" ".join(map(str, row)) for row in posterior.rows),
    )

    for row in UNIT_SQUARE_TABLE:
        fixture = unit_square_fixture(row.config)
        risks = privacy_risks(row.route, fixture).risks
        waits = wait_times(row.route, fixture, UNIT_FIXTURE_MOTION)
        wait_ok = all(
            abs(actual - expected) <= WAIT_TOLERANCE
            for actual, expected in zip(waits.waits, row.waits)
        ) and abs(waits.average - row.avg_wait) <= WAIT_TOLERANCE
        record(
            f"unit-square-{row.tag}",
            risks == row.risks and wait_ok,
            f"risks={tuple(map(str, risks))} waits={tuple(round(w, 4) for w in waits.waits)} "
            f"avg={waits.average:.4f}",
        )

    checks = (
        ("split-6-3-3", HeuristicParams("split", 6, k=3, l=3), SPLIT_6_3_3_RISKS, None),
        ("reversal-6-1", HeuristicParams("reversal", 6, k=1), REVERSAL_6_1_RISKS, REVERSAL_6_1_AVG),
        ("stuffing-3-2", HeuristicParams("stuffing", 3, c=2), STUFFING_3_2_RISKS, None),
    )
    for name, params, expected_risks, expected_avg in checks:
        closed = closed_form_risks(params)
        flattened = template_for(params).flatten()
        alg = privacy_risks(flattened, abstract_scenario(params.n))
        ok = closed.risks == expected_risks and alg.risks == expected_risks
        if expected_avg is not None:
            ok = ok and closed.average == expected_avg == alg.average
        record(name, ok, f"closed={tuple(map(str, closed.risks))} route={flattened.tokens}")

    params = HeuristicParams("stuffing", 500, c=3)
    mean = closed_form_risks(params).average
    alg_mean = privacy_risks(template_for(params).flatten(), abstract_scenario(500)).average
    rel_err = abs(mean - STUFFING_ASYMPTOTE_C3) / STUFFING_ASYMPTOTE_C3
    record(
        "stuffing-asymptote-c3",
        mean == alg_mean and rel_err < F(1, 100),
        f"mean={mean} limit={STUFFING_ASYMPTOTE_C3} rel_err={float(rel_err):.4%}",
    )

    normalized = all(
        stuffing_risk_series(n, c) == n * c * closed_form_risks(HeuristicParams("stuffing", n, c=c)).average
        for n in range(1, 11)
        for c in range(1, n + 1)
    )
    exceeds_one = stuffing_risk_series(6, 2) > 1
    record(
        "stuffing-series-normalization",
        normalized and exceeds_one,
        "series total equals n*c*mean on the full grid (unnormalized it exceeds 1, "
        "so it is not itself a probability)",
    )
    return results

