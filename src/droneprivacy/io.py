"""Serialization: scenario JSON files, result CSVs, exact rational strings.

Rationals cross file boundaries as ``"num/den"`` strings, which
``Fraction(text)`` reads back exactly; decimal renderings are display-only.
All writers are deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .model import CustomerSite, MotionModel, Scenario, VendorSite

if TYPE_CHECKING:  # annotations only: loading the search engine is left to the commands that run it
    from .search import ParetoFront

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScenarioFile:
    """On-disk scenario: sites in meters plus an optional motion model."""

    scenario: Scenario
    name: str = "scenario"
    motion: MotionModel | None = None


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def scenario_file_to_dict(sf: ScenarioFile) -> dict:
    data = {
        "format_version": FORMAT_VERSION,
        "name": sf.name,
        "units": "meters",
        "vendors": [
            {"id": v.id, "x": v.x, "y": v.y, "decoy": v.decoy} for v in sf.scenario.vendors
        ],
        "customers": [
            {"id": c.id, "x": c.x, "y": c.y, "vendor_id": c.vendor_id}
            for c in sf.scenario.customers
        ],
    }
    if sf.motion is not None:
        data["motion"] = {
            "speed_mps": sf.motion.speed,
            "stop_duration_s": sf.motion.stop_duration,
        }
    return data


def _integral(value) -> int:
    """A scenario file id: a non-negative integer, or a number or string that is one; never a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"scenario ids must be integers, got {value!r}")
    number = int(value)
    if number < 0:  # no route stop can name a negative id
        raise ValueError(f"scenario ids must be non-negative, got {value!r}")
    return number


def _real(value) -> float:
    """A scenario file coordinate or motion value: a finite number, or a string that is one; never a bool."""
    if isinstance(value, bool) or not math.isfinite(number := float(value)):
        raise ValueError(f"scenario coordinates and motion values must be finite numbers, got {value!r}")
    return number


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"a vendor's decoy flag must be true or false, got {value!r}")
    return value


def scenario_file_from_dict(data) -> ScenarioFile:
    """Build a scenario file from parsed JSON; the one boundary check for scenario files.

    Any malformed input (a non-object top level, a missing key, a boolean,
    non-numeric or non-finite coordinate or motion value, a fractional or
    negative id, a decoy flag that is not a JSON boolean, a boolean
    ``format_version``, ...) raises ``ValueError``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a scenario file must hold a JSON object, not {type(data).__name__}")
    version = data.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValueError(f"unsupported scenario format_version {version!r}")
    try:
        vendors = tuple(
            VendorSite(id=_integral(v["id"]), x=_real(v["x"]), y=_real(v["y"]),
                       decoy=_flag(v.get("decoy", False)))
            for v in data["vendors"]
        )
        customers = tuple(
            CustomerSite(id=_integral(c["id"]), x=_real(c["x"]), y=_real(c["y"]),
                         vendor_id=_integral(c["vendor_id"]))
            for c in data["customers"]
        )
        motion = None
        if "motion" in data:
            motion = MotionModel(
                speed=_real(data["motion"]["speed_mps"]),
                stop_duration=_real(data["motion"]["stop_duration_s"]),
            )
    except KeyError as exc:
        raise ValueError(f"scenario file is missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed scenario file: {exc}") from None
    return ScenarioFile(scenario=Scenario(vendors=vendors, customers=customers),
                        name=str(data.get("name", "scenario")), motion=motion)


def save_scenario(sf: ScenarioFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_file_to_dict(sf), indent=2) + "\n")


def load_scenario(path: str | Path) -> ScenarioFile:
    try:
        return scenario_file_from_dict(json.loads(Path(path).read_text()))
    except RecursionError:  # JSON nested deeper than the parser recurses: a malformed file like any other
        raise ValueError("malformed scenario file: JSON nested too deeply") from None


FRONT_CSV_COLUMNS = (
    "n", "c", "n_d", "route", "avg_risk", "worst_risk", "avg_wait", "heuristic_tag", "multiplicity",
)


def front_csv_rows(front: ParetoFront, scenario: Scenario, capacity: int, decoy_budget: int):
    for point in front.points:
        e = point.evaluation
        yield {
            "n": scenario.n,
            "c": capacity,
            "n_d": decoy_budget,
            "route": e.route.tokens,
            "avg_risk": format_fraction(e.avg_risk),
            "worst_risk": format_fraction(e.worst_risk),
            "avg_wait": repr(e.avg_wait),
            "heuristic_tag": e.heuristic_tag or "",
            "multiplicity": point.multiplicity,
        }


def write_front_csv(front: ParetoFront, scenario: Scenario, capacity: int, decoy_budget: int, out) -> None:
    """Write a front to a path or text stream using the fixed column set."""
    _write_csv(out, FRONT_CSV_COLUMNS, front_csv_rows(front, scenario, capacity, decoy_budget))


SWEEP_CSV_COLUMNS = ("n", "c", "n_d", "min_avg_risk", "min_avg_risk_decimal")


def write_sweep_csv(table: dict[tuple[int, int, int], Fraction], out) -> None:
    """Write a (n, c, n_d) -> minimum average risk table, rows sorted by cell."""
    rows = (
        {
            "n": n, "c": c, "n_d": n_d,
            "min_avg_risk": format_fraction(value),
            "min_avg_risk_decimal": f"{float(value):.9g}",
        }
        for (n, c, n_d), value in sorted(table.items())
    )
    _write_csv(out, SWEEP_CSV_COLUMNS, rows)


def _write_csv(out, columns, rows) -> None:
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as handle:
            _write_csv(handle, columns, rows)
        return
    writer = csv.DictWriter(out, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
