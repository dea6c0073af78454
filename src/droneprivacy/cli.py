"""Command-line interface.

Subcommands: ``gen``, ``eval``, ``oracle``, ``heuristic``, ``pareto``,
``sweep``, ``fixtures``.  Data goes to stdout (or ``--out``); diagnostics go
to stderr.  Exit codes: 0 success, 2 usage error, 3 validation or data error,
4 size-guard refusal.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from typing import TYPE_CHECKING

# The parser needs only these; each command imports the modules it runs, so a run loads no others.
from .errors import GuardError
from .model import DroneSpec, MotionModel

if TYPE_CHECKING:
    from .io import ScenarioFile

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_GUARD = 4

_RANGE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def _parse_range(text: str) -> range:
    m = _RANGE.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_objectives(text: str) -> tuple[str, str]:
    mapping = {"avg-risk": "avg_risk", "worst-risk": "worst_risk", "avg-wait": "avg_wait"}
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or parts[0] not in ("avg-risk", "worst-risk") or parts[1] != "avg-wait":
        raise argparse.ArgumentTypeError(
            f"objectives must be 'avg-risk,avg-wait' or 'worst-risk,avg-wait', got {text!r}"
        )
    return (mapping[parts[0]], mapping[parts[1]])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droneprivacy",
        description="Privacy-risk analysis and privacy-aware routing for drone package delivery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    drone_flags = argparse.ArgumentParser(add_help=False)
    drone_flags.add_argument("--capacity", type=int, required=True)
    drone_flags.add_argument("--speed", type=float, help="cruise speed m/s "
                             f"(default: the scenario file's, else {MotionModel.speed:g})")
    drone_flags.add_argument("--stop-duration", type=float, help="seconds per stop "
                             f"(default: the scenario file's, else {MotionModel.stop_duration:g})")

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen.add_argument("--topology", required=True,
                     choices=["uniform", "two_clusters", "hub_spoke", "linear"])
    gen.add_argument("--n", type=int, required=True, help="number of orders")
    gen.add_argument("--decoys", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--extent", type=float, default=5000.0, help="map side length in meters")
    gen.add_argument("--separation", type=float, help="two_clusters: gap between the discs")
    gen.add_argument("--cluster-radius", type=float, help="two_clusters: disc radius")
    gen.add_argument("--hub-radius", type=float, help="hub_spoke: vendor disc radius")
    gen.add_argument("--ring-inner", type=float, help="hub_spoke: customer ring inner radius")
    gen.add_argument("--ring-outer", type=float, help="hub_spoke: customer ring outer radius")
    gen.add_argument("--corridor-width", type=float, help="linear: max offset from the axis")
    gen.add_argument("--speed", type=float, help="store a motion model: cruise speed m/s")
    gen.add_argument("--stop-duration", type=float, help="store a motion model: seconds per stop")
    gen.add_argument("--name")
    gen.add_argument("--out", required=True)

    ev = sub.add_parser("eval", parents=[drone_flags], help="evaluate one route: exact risks plus waits")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--route", required=True, help='comma-separated stops, e.g. "v1,v2,a2,v3,a3,a1"')

    orc = sub.add_parser("oracle", help="dump the observer posterior for one route")
    orc.add_argument("--scenario", required=True)
    orc.add_argument("--route", required=True)

    heu = sub.add_parser("heuristic", parents=[drone_flags],
                         help="instantiate a heuristic route and evaluate it")
    heu.add_argument("--scenario", required=True)
    heu.add_argument("--kind", required=True, choices=["split", "reversal", "stuffing"])
    heu.add_argument("--k", type=int)
    heu.add_argument("--l", type=int)
    heu.add_argument("--c", type=int)

    par = sub.add_parser("pareto", parents=[drone_flags],
                         help="compute the exact Pareto front over all routes and emit it as CSV")
    par.add_argument("--scenario", required=True)
    par.add_argument("--decoy-budget", type=int, default=0)
    par.add_argument("--objectives", type=_parse_objectives, default=("avg_risk", "avg_wait"),
                     help="'avg-risk,avg-wait' (default) or 'worst-risk,avg-wait'")
    par.add_argument("--out", help="CSV path (default: stdout)")

    sw = sub.add_parser("sweep", help="minimum average risk per (n, capacity, decoys) cell")
    sw.add_argument("--n", type=_parse_range, required=True, help="N or A..B")
    sw.add_argument("--capacity", type=_parse_range, required=True, help="N or A..B")
    sw.add_argument("--decoys", type=_parse_range, default=range(0, 1), help="N or A..B (default 0)")
    sw.add_argument("--out", help="CSV path (default: stdout)")

    sub.add_parser("fixtures", help="run all built-in reference-value checks")
    return parser


def _motion_flags(args, base):
    """``base`` (a motion model or a drone) with the ``--speed`` and ``--stop-duration`` values given."""
    given = {key: getattr(args, key) for key in ("speed", "stop_duration") if getattr(args, key) is not None}
    return dataclasses.replace(base, **given)


def _drone_for(args, scenario_file: ScenarioFile) -> DroneSpec:
    """``--capacity``; speed and stop time from the flag, else the file's motion block, else the default."""
    motion = scenario_file.motion or MotionModel()
    return _motion_flags(args, DroneSpec(args.capacity, motion.speed, motion.stop_duration))


def _risk_and_wait_lines(evaluation) -> list[str]:
    """An evaluation's output lines.  A command builds all its text before printing any of it, so a
    risk too long to format (Python's int-to-str digit limit) leaves stdout empty."""
    from .io import format_fraction

    lines = [f"risk a{cid} = {format_fraction(risk)} ({float(risk):.6g})"
             for cid, risk in zip(evaluation.customer_ids, evaluation.risks)]
    lines.append(f"avg_risk = {format_fraction(evaluation.avg_risk)} ({float(evaluation.avg_risk):.6g})")
    lines.append(f"worst_risk = {format_fraction(evaluation.worst_risk)} ({float(evaluation.worst_risk):.6g})")
    lines += [f"wait a{cid} = {wait:.3f} s" for cid, wait in zip(evaluation.customer_ids, evaluation.waits)]
    lines.append(f"avg_wait = {evaluation.avg_wait:.3f} s")
    return lines


def cmd_gen(args) -> int:
    from .geometry import generate
    from .io import ScenarioFile, save_scenario

    params = {}
    for key in ("separation", "cluster_radius", "hub_radius", "ring_inner", "ring_outer", "corridor_width"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    scenario = generate(args.topology, args.n, args.decoys, args.seed, args.extent, **params)
    motion = None
    if args.speed is not None or args.stop_duration is not None:
        motion = _motion_flags(args, MotionModel())
    name = args.name or f"{args.topology}-n{args.n}-d{args.decoys}-seed{args.seed}"
    save_scenario(ScenarioFile(scenario=scenario, name=name, motion=motion), args.out)
    print(f"wrote {args.out}: {name} ({scenario.n} orders, {scenario.n_decoys} decoys)",
          file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .io import load_scenario
    from .model import parse_route
    from .search import evaluate

    sf = load_scenario(args.scenario)
    route = parse_route(args.route)
    evaluation = evaluate(route, sf.scenario, _drone_for(args, sf))
    lines = [f"scenario: {sf.name} (n={sf.scenario.n}, decoys={sf.scenario.n_decoys})",
             f"route: {route.tokens}"]
    print("\n".join(lines + _risk_and_wait_lines(evaluation)))
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .io import format_fraction, load_scenario
    from .model import parse_route
    from .observer import posterior_matrix

    sf = load_scenario(args.scenario)
    route = parse_route(args.route)
    posterior = posterior_matrix(route, sf.scenario)
    print("columns: " + " ".join(s.token for s in posterior.vendor_stops))
    for cid, row in zip(posterior.customer_ids, posterior.rows):
        print(f"a{cid}: " + " ".join(format_fraction(p) for p in row))
    print(f"worlds: {posterior.worlds}")
    return EXIT_OK


def cmd_heuristic(args) -> int:
    from .heuristics import HeuristicParams, instantiate_template, template_for
    from .io import load_scenario
    from .search import evaluate

    sf = load_scenario(args.scenario)
    n = sf.scenario.n
    params = HeuristicParams(args.kind, n, k=args.k, l=args.l, c=args.c)
    template = template_for(params)
    drone = _drone_for(args, sf)
    route = instantiate_template(template, sf.scenario, drone)
    evaluation = evaluate(route, sf.scenario, drone, tag=params.label)
    lines = [f"heuristic: {params.label} (required capacity {params.required_capacity})",
             f"route: {route.tokens}"]
    print("\n".join(lines + _risk_and_wait_lines(evaluation)))
    return EXIT_OK


def cmd_pareto(args) -> int:
    from .io import load_scenario, write_front_csv
    from .search import pareto_front

    sf = load_scenario(args.scenario)
    front = pareto_front(sf.scenario, _drone_for(args, sf), objectives=args.objectives,
                         decoy_budget=args.decoy_budget)
    print(f"{front.total_routes} routes covered ({front.routes_walked} walked), "
          f"{len(front.points)} on the front", file=sys.stderr)
    write_front_csv(front, sf.scenario, args.capacity, args.decoy_budget, args.out or sys.stdout)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .io import write_sweep_csv
    from .search import min_avg_risk_sweep

    table = min_avg_risk_sweep(args.n, args.capacity, args.decoys)
    write_sweep_csv(table, args.out or sys.stdout)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    from .fixtures import run_fixture_checks

    results = run_fixture_checks()
    for result in results:
        print(f"{'PASS' if result.ok else 'FAIL'} {result.name}: {result.detail}")
    failed = sum(1 for r in results if not r.ok)
    print(f"{len(results) - failed}/{len(results)} fixture checks passed",
          file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_INVALID


_COMMANDS = {
    "gen": cmd_gen,
    "eval": cmd_eval,
    "oracle": cmd_oracle,
    "heuristic": cmd_heuristic,
    "pareto": cmd_pareto,
    "sweep": cmd_sweep,
    "fixtures": cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
