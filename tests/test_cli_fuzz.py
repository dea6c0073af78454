"""Command-line fuzzing: malformed scenario files and drone flags exit with their documented code.

``cli.main`` runs in-process on maps of at most three orders, so any exception
that escapes it fails the test.  Exit codes: 0 success, 2 usage error, 3 data
error.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from droneprivacy.cli import main

NOT_REAL = (math.nan, math.inf, -math.inf, True, False)  # non-finite, or a JSON boolean
BAD_IDS = st.one_of(
    st.integers(0, 3).map(lambda k: k + 0.5),  # fractional
    st.integers(-3, -1),
    st.booleans(),
    st.sampled_from(["", "x", "one", "1.5", "-1", "nan"]),
)
REQUIRED_KEYS = {"format_version", "vendors", "customers", "id", "x", "y", "vendor_id",
                 "speed_mps", "stop_duration_s"}


def _scenario(n: int, decoy: bool) -> dict:
    vendors = [{"id": i, "x": 400.0 * i, "y": 0.0, "decoy": False} for i in range(1, n + 1)]
    if decoy:
        vendors.append({"id": n + 1, "x": 0.0, "y": 250.0, "decoy": True})
    return {
        "format_version": 1,
        "name": "fuzz",
        "units": "meters",
        "vendors": vendors,
        "customers": [{"id": i, "x": 400.0 * i, "y": 900.0, "vendor_id": i} for i in range(1, n + 1)],
        "motion": {"speed_mps": 20.0, "stop_duration_s": 60.0},
    }


@st.composite
def malformed_files(draw):
    """``(n, file text)``: a valid map of ``n`` orders with one fault."""
    n = draw(st.integers(1, 3))
    data = _scenario(n, draw(st.booleans()))
    sites = data["vendors"] + data["customers"]
    faults = ["coordinate", "motion", "version", "id", "missing-key", "top-level", "nested", "not-json"]
    fault = draw(st.sampled_from(faults))
    if fault == "coordinate":
        draw(st.sampled_from(sites))[draw(st.sampled_from("xy"))] = draw(st.sampled_from(NOT_REAL))
    elif fault == "motion":
        data["motion"][draw(st.sampled_from(sorted(data["motion"])))] = draw(st.sampled_from(NOT_REAL))
    elif fault == "version":
        data["format_version"] = draw(st.booleans())
    elif fault == "id":
        site = draw(st.sampled_from(sites))
        site[draw(st.sampled_from(["id", "vendor_id"] if "vendor_id" in site else ["id"]))] = draw(BAD_IDS)
    elif fault == "missing-key":
        owner = draw(st.sampled_from([data, data["motion"], *sites]))
        del owner[draw(st.sampled_from(sorted(REQUIRED_KEYS & set(owner))))]
    elif fault == "top-level":
        data = draw(st.sampled_from([[data], 7, "scenario", None, True]))
    elif fault == "nested":
        return n, "[" * 200_000  # deeper than the JSON parser recurses
    else:
        return n, json.dumps(data)[:-1]  # truncated
    return n, json.dumps(data)  # NaN and Infinity as Python's json writes them


def _run(command: str, n: int, text: str, flags: list[str]) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(text)
        args = [command, "--scenario", str(path)]
        if command in ("eval", "oracle"):
            args += ["--route", ",".join(f"v{i},a{i}" for i in range(1, n + 1))]
        elif command == "heuristic":
            args += ["--kind", "reversal", "--k", "0"]
        if command != "oracle" and not any(flag.startswith("--capacity=") for flag in flags):
            args.append(f"--capacity={n}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args + flags)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["eval", "oracle", "heuristic", "pareto"]), case=malformed_files())
def test_malformed_scenario_files_exit_3(command, case):
    n, text = case
    code, out, err = _run(command, n, text, [])
    assert code == 3, err
    assert out == "" and err.startswith("error: ")


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["eval", "heuristic", "pareto"]),
    n=st.integers(1, 3),
    flag=st.sampled_from(["--capacity", "--speed", "--stop-duration"]),
    value=st.sampled_from(["0", "-1", "-0.5", "nan", "inf", "-inf"]),
)
def test_bad_drone_flags_exit_3(command, n, flag, value):
    code, out, err = _run(command, n, json.dumps(_scenario(n, decoy=False)), [f"{flag}={value}"])
    if flag == "--stop-duration" and value == "0":
        assert code == 0, err  # no service time at a stop is a valid drone
    elif flag == "--capacity" and value in ("-0.5", "nan", "inf", "-inf"):
        assert code == 2 and "invalid int value" in err  # not an integer: argparse's usage error
    else:
        assert code == 3, err
        assert out == "" and err.startswith("error: ")
