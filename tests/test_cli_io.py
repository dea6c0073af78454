"""Serialization round-trips and the command-line interface."""

import csv
import io as io_module
import json
import os
import sys
from fractions import Fraction as F

import pytest

from droneprivacy import (
    DroneSpec,
    MotionModel,
    ScenarioFile,
    UNIT_FIXTURE_MOTION,
    format_fraction,
    generate,
    load_scenario,
    parse_route,
    pareto_front,
    save_scenario,
    unit_square_fixture,
    wait_times,
    write_front_csv,
    write_sweep_csv,
    min_avg_risk_sweep,
)
from droneprivacy.cli import main
from droneprivacy.heuristics import stuffing_template


def test_fraction_round_trip():
    for value in (F(5, 12), F(1), F(0), F(13, 75), F(7, 3)):
        assert F(format_fraction(value)) == value
    assert format_fraction(F(1)) == "1/1"
    assert F("3") == F(3)


def test_scenario_round_trip(tmp_path):
    scenario = generate("two_clusters", 4, n_decoys=2, seed=12)
    original = ScenarioFile(scenario=scenario, name="roundtrip", motion=MotionModel(12.5, 45.0))
    path = tmp_path / "scenario.json"
    save_scenario(original, path)
    assert load_scenario(path) == original

    bare = ScenarioFile(scenario=unit_square_fixture("adjacent"), name="bare")
    save_scenario(bare, path)
    assert load_scenario(path) == bare


def test_scenario_format_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "vendors": [], "customers": []}))
    with pytest.raises(ValueError):
        load_scenario(path)


def test_front_csv_columns_and_exact_risks(tmp_path):
    fixture = unit_square_fixture("diagonal")
    drone = DroneSpec(capacity=2, speed=1.0, stop_duration=0.0)
    front = pareto_front(fixture, drone)
    buffer = io_module.StringIO()
    write_front_csv(front, fixture, 2, 0, buffer)
    rows = list(csv.DictReader(io_module.StringIO(buffer.getvalue())))
    assert list(rows[0].keys()) == [
        "n", "c", "n_d", "route", "avg_risk", "worst_risk", "avg_wait", "heuristic_tag", "multiplicity",
    ]
    assert rows[0]["avg_risk"] == "1/2"
    assert F(rows[0]["avg_risk"]) == F(1, 2)
    assert float(rows[0]["avg_wait"]) == pytest.approx(2.5)
    assert rows[0]["multiplicity"] == "2"
    assert parse_route(rows[0]["route"]).tokens == rows[0]["route"]
    again = io_module.StringIO()
    write_front_csv(front, fixture, 2, 0, again)
    assert again.getvalue() == buffer.getvalue()


def test_sweep_csv(tmp_path):
    table = min_avg_risk_sweep(range(2, 4), range(1, 3), range(0, 1))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(table, path)
    rows = list(csv.DictReader(open(path)))
    assert [r["min_avg_risk"] for r in rows if r["n"] == "3" and r["c"] == "2"] == ["5/12"]


def test_cli_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--topology", "uniform", "--n", "3", "--decoys", "1", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    loaded = load_scenario(a)
    assert loaded.scenario.n == 3
    assert loaded.scenario.n_decoys == 1


def test_cli_gen_refuses_a_negative_seed_or_an_unbounded_map(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    assert main(["gen", "--topology", "uniform", "--n", "3", "--seed=-1", "--out", path]) == 3
    assert "expected non-negative integer" in capsys.readouterr().err
    assert main(["gen", "--topology", "uniform", "--n", "3", "--extent", "inf", "--out", path]) == 3
    assert main(["gen", "--topology", "hub_spoke", "--n", "3", "--ring-outer", "inf", "--out", path]) == 3
    # Finite but extreme: a ring radius whose square overflows, sites that would lie at infinity, and
    # finite sites too far apart for a leg between them to be timed.
    for flags in (["--topology", "hub_spoke", "--n", "3", "--ring-inner", "2e154", "--ring-outer", "3e154"],
                  ["--topology", "two_clusters", "--n", "3", "--separation", "1.79e308",
                   "--cluster-radius", "8e307"],
                  ["--topology", "linear", "--n", "4", "--extent", "1e308", "--corridor-width", "1.7e308"],
                  ["--topology", "two_clusters", "--n", "2", "--separation", "1.7e308",
                   "--cluster-radius", "1e307"]):
        assert main(["gen", *flags, "--out", path]) == 3
        assert "error: " in capsys.readouterr().err
        assert not os.path.exists(path)


def test_cli_eval_prints_nothing_when_a_risk_is_too_long_to_print(tmp_path, capsys):
    """Stuffing with 300 aboard on 600 orders gives risks past 640 digits: under that int-to-str limit
    eval exits 3 with an error line and writes nothing to stdout, not the lines before the failure."""
    path = str(tmp_path / "n600.json")
    assert main(["gen", "--topology", "uniform", "--n", "600", "--seed", "0", "--out", path]) == 0
    capsys.readouterr()
    route = stuffing_template(600, 300).flatten().tokens
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["eval", "--scenario", path, "--route", route, "--capacity", "300"])
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("error: Exceeds the limit (640 digits)")


_LOADED_MODULES = """
import contextlib, io, sys
if sys.argv[1:]:
    from droneprivacy.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(sys.argv[1:])
    print(code)
else:
    import droneprivacy
print(*sorted(name for name in sys.modules if name.startswith("droneprivacy.") or name == "numpy"))
"""

_LIBRARY_MODULES = {"errors", "geometry", "heuristics", "io", "model", "observer", "risk", "search", "fixtures"}


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    """A command-line run compiles and sets up only the modules its command calls into; none loads numpy,
    and ``import droneprivacy`` alone loads no submodule."""
    import subprocess
    from pathlib import Path

    import droneprivacy

    src = str(Path(droneprivacy.__file__).resolve().parents[1])
    scenario = str(tmp_path / "s.json")
    route = "v1,v2,a1,v3,a2,a3"
    main(["gen", "--topology", "uniform", "--n", "3", "--seed", "0", "--out", scenario])
    runs = {
        "import": ([], _LIBRARY_MODULES),
        "gen": (["gen", "--topology", "linear", "--n", "3", "--out", str(tmp_path / "g.json")],
                {"search", "risk", "observer", "heuristics", "fixtures"}),
        "eval": (["eval", "--scenario", scenario, "--route", route, "--capacity", "2"],
                 {"observer", "heuristics", "fixtures"}),
        "oracle": (["oracle", "--scenario", scenario, "--route", route],
                   {"search", "geometry", "risk", "heuristics", "fixtures"}),
        "heuristic": (["heuristic", "--scenario", scenario, "--kind", "stuffing", "--c", "2", "--capacity", "2"],
                      {"observer", "fixtures"}),
        "pareto": (["pareto", "--scenario", scenario, "--capacity", "2"], {"observer", "heuristics", "fixtures"}),
        "sweep": (["sweep", "--n", "1..3", "--capacity", "1..3"], {"observer", "heuristics", "fixtures"}),
        "fixtures": (["fixtures"], set()),
    }
    for command, (args, left_out) in runs.items():
        proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        *code, loaded = proc.stdout.splitlines()
        assert code == ([] if command == "import" else ["0"]), command
        loaded = set(loaded.split())
        assert "numpy" not in loaded, command
        assert not loaded & {f"droneprivacy.{name}" for name in left_out}, (command, sorted(loaded))


def test_cli_eval_prints_exact_average(tmp_path, capsys):
    path = tmp_path / "s.json"
    main(["gen", "--topology", "uniform", "--n", "3", "--seed", "2", "--out", str(path)])
    capsys.readouterr()
    code = main(["eval", "--scenario", str(path), "--route", "v1,v2,a2,v3,a3,a1", "--capacity", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "avg_risk = 5/12" in out
    assert "worst_risk = 1/2" in out


def test_cli_eval_invalid_route_exits_3(tmp_path, capsys):
    path = tmp_path / "s.json"
    main(["gen", "--topology", "uniform", "--n", "2", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    assert main(["eval", "--scenario", str(path), "--route", "a1,v1,v2,a2", "--capacity", "2"]) == 3
    assert main(["eval", "--scenario", str(path), "--route", "v1,v9,a1,a9", "--capacity", "2"]) == 3
    assert main(["eval", "--scenario", str(path), "--route", "zz", "--capacity", "2"]) == 3


def test_cli_usage_error_exits_2():
    assert main(["eval", "--route", "v1,a1"]) == 2
    assert main(["nonsense"]) == 2


def test_cli_guard_exits_4(tmp_path, capsys):
    path = tmp_path / "s.json"
    main(["gen", "--topology", "uniform", "--n", "9", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    assert main(["pareto", "--scenario", str(path), "--capacity", "9"]) == 4
    err = capsys.readouterr().err
    assert "refused" in err


def test_cli_pareto_on_600_orders_exits_4(tmp_path, capsys):
    path = tmp_path / "s.json"
    assert main(["gen", "--topology", "uniform", "--n", "600", "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["pareto", "--scenario", str(path), "--capacity", "600"]) == 4
    assert "at least 600! routes" in capsys.readouterr().err


def test_cli_oracle_output(tmp_path, capsys):
    path = tmp_path / "s.json"
    main(["gen", "--topology", "uniform", "--n", "3", "--seed", "2", "--out", str(path)])
    capsys.readouterr()
    code = main(["oracle", "--scenario", str(path), "--route", "v1,v2,a2,v3,a3,a1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "columns: v1 v2 v3" in out
    assert "a1: 1/4 1/4 1/2" in out
    assert "a2: 1/2 1/2 0/1" in out
    assert "worlds: 4" in out


def test_cli_heuristic_output(tmp_path, capsys):
    path = tmp_path / "s.json"
    main(["gen", "--topology", "two_clusters", "--n", "4", "--seed", "3", "--out", str(path)])
    capsys.readouterr()
    code = main(["heuristic", "--scenario", str(path), "--kind", "split",
                 "--k", "2", "--l", "2", "--capacity", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "heuristic: split(k=2,l=2)" in out
    assert "ordering:" not in out
    assert "avg_risk = 1/2" in out


def test_cli_heuristic_bad_params_exit_3(tmp_path, capsys):
    path = tmp_path / "s.json"
    main(["gen", "--topology", "uniform", "--n", "4", "--seed", "3", "--out", str(path)])
    capsys.readouterr()
    assert main(["heuristic", "--scenario", str(path), "--kind", "split",
                 "--k", "3", "--l", "2", "--capacity", "4"]) == 3


def test_cli_pareto_csv(tmp_path, capsys):
    scenario_path = tmp_path / "unit.json"
    save_scenario(
        ScenarioFile(scenario=unit_square_fixture("diagonal"), name="unit", motion=UNIT_FIXTURE_MOTION),
        scenario_path,
    )
    out_path = tmp_path / "front.csv"
    code = main(["pareto", "--scenario", str(scenario_path), "--capacity", "2",
                 "--out", str(out_path)])
    assert code == 0
    rows = list(csv.DictReader(open(out_path)))
    assert len(rows) == 1
    assert rows[0]["avg_risk"] == "1/2"
    assert float(rows[0]["avg_wait"]) == pytest.approx(2.5)
    assert capsys.readouterr().err == "6 routes covered (2 walked), 1 on the front\n"


@pytest.mark.parametrize("flag, objectives", [
    (None, ("avg_risk", "avg_wait")),
    ("worst-risk,avg-wait", ("worst_risk", "avg_wait")),
    (" avg-risk , avg-wait ", ("avg_risk", "avg_wait")),
])
def test_cli_pareto_objectives_write_the_library_csv(tmp_path, flag, objectives):
    scenario = generate("two_clusters", 4, seed=3)
    scenario_path, out_path, expected = tmp_path / "s.json", tmp_path / "front.csv", tmp_path / "expected.csv"
    save_scenario(ScenarioFile(scenario=scenario, name="s", motion=MotionModel(12.5, 45.0)), scenario_path)
    args = ["pareto", "--scenario", str(scenario_path), "--capacity", "3", "--out", str(out_path)]
    assert main(args + (["--objectives", flag] if flag else [])) == 0
    front = pareto_front(scenario, DroneSpec(3, 12.5, 45.0), objectives)
    write_front_csv(front, scenario, 3, 0, expected)
    assert out_path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("text", ["avg-wait,avg-risk", "avg-risk"])
def test_cli_pareto_bad_objectives_exit_2(tmp_path, capsys, text):
    path = tmp_path / "s.json"
    save_scenario(ScenarioFile(scenario=generate("uniform", 2, seed=1), name="s"), path)
    assert main(["pareto", "--scenario", str(path), "--capacity", "2", "--objectives", text]) == 2
    assert "objectives must be" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["heuristic", "--kind", "split", "--k", "2"], "split takes k and l"),
    (["heuristic", "--kind", "reversal", "--k", "1", "--c", "2"], "reversal takes k only"),
    (["heuristic", "--kind", "stuffing", "--k", "1"], "stuffing takes c only"),
    (["pareto", "--decoy-budget", "-1"], "decoy budget must be non-negative"),
    (["gen", "--topology", "uniform", "--decoys", "-1"], "decoy count must be non-negative"),
    (["gen", "--topology", "two_clusters", "--separation", "-5"], "separation must be positive"),
    (["gen", "--topology", "hub_spoke", "--hub-radius", "500", "--ring-inner", "400"],
     "need 0 < hub_radius <= ring_inner < ring_outer"),
    (["gen", "--topology", "linear", "--corridor-width", "0"], "corridor_width must be positive"),
])
def test_cli_bad_parameters_exit_3_with_their_message(tmp_path, capsys, args, message):
    """A refused parameter exits 3 with its message on stderr, and ``gen`` writes no file."""
    scenario_path, out_path = tmp_path / "s.json", tmp_path / "out.json"
    save_scenario(ScenarioFile(scenario=generate("uniform", 4, seed=3), name="s"), scenario_path)
    if args[0] == "gen":
        args = args + ["--n", "3", "--out", str(out_path)]
    else:
        args = args + ["--scenario", str(scenario_path), "--capacity", "4"]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not out_path.exists()


def test_cli_sweep_csv(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "1..3", "--capacity", "1..3", "--decoys", "0", "--out", str(out_path)])
    assert code == 0
    rows = {(r["n"], r["c"], r["n_d"]): r["min_avg_risk"] for r in csv.DictReader(open(out_path))}
    assert rows[("3", "2", "0")] == "5/12"
    assert rows[("2", "2", "0")] == "1/2"


def test_cli_sweep_bad_range_exits_2(capsys):
    assert main(["sweep", "--n", "3..1", "--capacity", "1"]) == 2
    assert "empty range '3..1'" in capsys.readouterr().err
    for args in (["--n", "abc", "--capacity", "1"], ["--n", "3", "--capacity", "1..x"]):
        assert main(["sweep", *args]) == 2, args
        assert "expected N or A..B" in capsys.readouterr().err, args


def test_cli_sweep_refuses_a_huge_capacity_range():
    """Seven n values times 10^11 capacities pass the route guard at n = 7 but make a table of 7 * 10^11
    cells: refused with one line before any row is built, not iterated."""
    import subprocess
    from pathlib import Path

    import droneprivacy

    src = str(Path(droneprivacy.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "droneprivacy.cli", "sweep", "--n", "1..7", "--capacity", "1..100000000000"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=10,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "refused: sweep table of 700,000,000,000 cells refused (limit 100,000)\n"


def test_cli_sweep_guard_exits_4():
    """n = 6 with a decoy budget of 3 is 24,818,270,400 routes: refused at once, not walked."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import droneprivacy

    src = str(Path(droneprivacy.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "droneprivacy.cli", "sweep", "--n", "6", "--capacity", "6", "--decoys", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("refused: ") and "24,818,270,400 routes" in proc.stderr


def test_cli_fixtures_all_pass(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def _one_order_file(edit=lambda data: None):
    data = {
        "format_version": 1,
        "name": "one-order",
        "units": "meters",
        "vendors": [{"id": 1, "x": 0.0, "y": 0.0, "decoy": False}],
        "customers": [{"id": 1, "x": 300.0, "y": 400.0, "vendor_id": 1}],
        "motion": {"speed_mps": 20.0, "stop_duration_s": 60.0},
    }
    edit(data)
    return data


_MALFORMED_SCENARIOS = {
    "top-level-list": [_one_order_file()],
    "top-level-number": 7,
    "no-customers": _one_order_file(lambda d: d.pop("customers")),
    "no-vendors": _one_order_file(lambda d: d.pop("vendors")),
    "vendors-not-a-list": _one_order_file(lambda d: d.update(vendors={"id": 1})),
    "vendor-without-x": _one_order_file(lambda d: d["vendors"][0].pop("x")),
    "customer-without-vendor-id": _one_order_file(lambda d: d["customers"][0].pop("vendor_id")),
    "vendor-id-null": _one_order_file(lambda d: d["vendors"][0].update(id=None)),
    "nan-vendor-x": _one_order_file(lambda d: d["vendors"][0].update(x=float("nan"))),
    "infinite-customer-y": _one_order_file(lambda d: d["customers"][0].update(y=float("inf"))),
    "string-coordinate": _one_order_file(lambda d: d["customers"][0].update(x="east")),
    "nan-speed": _one_order_file(lambda d: d["motion"].update(speed_mps=float("nan"))),
    "infinite-stop-duration": _one_order_file(lambda d: d["motion"].update(stop_duration_s=float("inf"))),
    "motion-without-speed": _one_order_file(lambda d: d["motion"].pop("speed_mps")),
    "motion-not-an-object": _one_order_file(lambda d: d.update(motion=20.0)),
    "fractional-vendor-id": _one_order_file(
        lambda d: (d["vendors"][0].update(id=1.7), d["customers"][0].update(vendor_id=1.7))),
    "fractional-customer-id": _one_order_file(lambda d: d["customers"][0].update(id=1.7)),
    "boolean-vendor-id": _one_order_file(
        lambda d: (d["vendors"][0].update(id=True), d["customers"][0].update(vendor_id=True))),
    "string-decoy-flag": _one_order_file(
        lambda d: d["vendors"].append({"id": 2, "x": 0.0, "y": 0.0, "decoy": "false"})),
    "numeric-decoy-flag": _one_order_file(
        lambda d: d["vendors"].append({"id": 2, "x": 0.0, "y": 0.0, "decoy": 1})),
    "negative-vendor-id": _one_order_file(
        lambda d: (d["vendors"][0].update(id=-1), d["customers"][0].update(vendor_id=-1))),
    "negative-customer-id": _one_order_file(lambda d: d["customers"][0].update(id=-1)),
    "negative-decoy-id": _one_order_file(
        lambda d: d["vendors"].append({"id": -2, "x": 0.0, "y": 0.0, "decoy": True})),
    "negative-string-vendor-id": _one_order_file(
        lambda d: (d["vendors"][0].update(id="-1"), d["customers"][0].update(vendor_id="-1"))),
    "boolean-vendor-x": _one_order_file(lambda d: d["vendors"][0].update(x=True)),
    "boolean-customer-y": _one_order_file(lambda d: d["customers"][0].update(y=False)),
    "boolean-speed": _one_order_file(lambda d: d["motion"].update(speed_mps=True)),
    "boolean-stop-duration": _one_order_file(lambda d: d["motion"].update(stop_duration_s=False)),
    "boolean-format-version": _one_order_file(lambda d: d.update(format_version=True)),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SCENARIOS))
def test_cli_malformed_scenario_file_exits_3_without_traceback(tmp_path, case):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import droneprivacy

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_MALFORMED_SCENARIOS[case]))  # NaN/Infinity as Python's json writes them
    src = str(Path(droneprivacy.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "droneprivacy.cli", "eval", "--scenario", str(path),
         "--route", "v1,a1", "--capacity", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    if case.startswith("negative-"):  # refused at load, not later by a route stop that cannot name the site
        assert "scenario ids must be non-negative" in proc.stderr


_OVERFLOWING_SCENARIOS = {
    # The leg v1 -> v2 is 2e308 m long, past the largest float.
    "far-vendors": {"vendors": [{"id": 1, "x": -1e308, "y": 0.0}, {"id": 2, "x": 1e308, "y": 0.0}]},
    # A subnormal speed passes as positive and finite, but 900 m at 1e-320 m/s is not.
    "subnormal-speed": {"motion": {"speed_mps": 1e-320, "stop_duration_s": 60.0}},
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_SCENARIOS))
@pytest.mark.parametrize("command", ["eval", "pareto"])
def test_cli_waits_too_long_to_time_exit_3(tmp_path, capsys, command, case):
    data = {
        "format_version": 1,
        "vendors": [{"id": 1, "x": -450.0, "y": 0.0}, {"id": 2, "x": 450.0, "y": 0.0}],
        "customers": [{"id": 1, "x": 0.0, "y": 0.0, "vendor_id": 1},
                      {"id": 2, "x": 0.0, "y": 1.0, "vendor_id": 2}],
        **_OVERFLOWING_SCENARIOS[case],
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    args = ["--route", "v1,v2,a1,a2"] if command == "eval" else []
    assert main([command, "--scenario", str(path), "--capacity", "2", *args]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "too long to time" in captured.err


_MOTION_FLAGS = {"no-flag": [], "speed-flag": ["--speed", "5"], "stop-flag": ["--stop-duration", "7"]}


@pytest.mark.parametrize("flag", sorted(_MOTION_FLAGS))
@pytest.mark.parametrize("motion_block", [False, True], ids=["no-motion-block", "motion-block"])
@pytest.mark.parametrize("command", ["eval", "heuristic", "pareto"])
def test_cli_motion_precedence(tmp_path, capsys, command, motion_block, flag):
    """Speed and stop time: the flag, else the scenario file's motion block, else 20 m/s and 60 s."""
    scenario = generate("uniform", 3, seed=4)
    path = tmp_path / "s.json"
    file_motion = MotionModel(speed=2.0, stop_duration=3.0) if motion_block else None
    save_scenario(ScenarioFile(scenario=scenario, motion=file_motion), path)
    speed, stop = (2.0, 3.0) if motion_block else (20.0, 60.0)
    if flag == "speed-flag":
        speed = 5.0
    elif flag == "stop-flag":
        stop = 7.0
    expected = MotionModel(speed=speed, stop_duration=stop)
    args = {
        "eval": ["--route", "v1,v2,a2,v3,a3,a1"],
        "heuristic": ["--kind", "split", "--k", "1", "--l", "2"],
        "pareto": [],
    }[command]
    assert main([command, "--scenario", str(path), "--capacity", "2", *args, *_MOTION_FLAGS[flag]]) == 0
    out = capsys.readouterr().out
    if command == "pareto":
        rows = list(csv.DictReader(io_module.StringIO(out)))
        assert rows
        for row in rows:
            assert row["avg_wait"] == repr(wait_times(parse_route(row["route"]), scenario, expected).average)
        return
    route = parse_route(next(line for line in out.splitlines() if line.startswith("route: "))[7:])
    report = wait_times(route, scenario, expected)
    lines = [f"wait a{cid} = {wait:.3f} s" for cid, wait in zip(report.customer_ids, report.waits)]
    for line in lines + [f"avg_wait = {report.average:.3f} s"]:
        assert line in out.splitlines()


@pytest.mark.parametrize("flag", ["--speed", "--stop-duration"])
def test_cli_nan_motion_flag_exits_3(tmp_path, capsys, flag):
    """A NaN flag would time every route as NaN; it is refused like a negative one."""
    path = tmp_path / "s.json"
    save_scenario(ScenarioFile(scenario=generate("uniform", 2, seed=1)), path)
    assert main(["pareto", "--scenario", str(path), "--capacity", "2", flag, "nan"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--speed", "--stop-duration"])
@pytest.mark.parametrize("command", ["eval", "pareto"])
def test_cli_infinite_motion_flag_exits_3(tmp_path, capsys, command, flag):
    """An infinite speed would time every leg as 0 s, an infinite stop time every wait as inf."""
    path = tmp_path / "s.json"
    save_scenario(ScenarioFile(scenario=generate("uniform", 2, seed=1)), path)
    args = ["--route", "v1,a1,v2,a2"] if command == "eval" else []
    assert main([command, "--scenario", str(path), "--capacity", "2", *args, flag, "inf"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err


@pytest.mark.parametrize("flags, stored", [
    ([], None),
    (["--speed", "5"], {"speed_mps": 5.0, "stop_duration_s": 60.0}),
    (["--stop-duration", "7"], {"speed_mps": 20.0, "stop_duration_s": 7.0}),
])
def test_cli_gen_fills_a_missing_motion_flag_with_the_default(tmp_path, flags, stored):
    path = tmp_path / "s.json"
    assert main(["gen", "--topology", "uniform", "--n", "2", "--out", str(path), *flags]) == 0
    assert json.loads(path.read_text()).get("motion") == stored
