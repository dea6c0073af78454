"""The three benchmark workloads: ``front``, ``sweep`` and ``audit``.

Each workload builds its inputs from the seed in ``setup`` and then runs
passes.  A pass has four phases, in this order, and times each operation in
them:

* ``solve``: the workload's exact computation (Pareto fronts, minimum-risk
  sweeps; ``audit`` has none and reports its verify phase);
* ``verify``: one item per seeded sampled route: the engine (``evaluate``;
  ``privacy_risks`` on ``sweep``, which has no geometry), then
  ``posterior_matrix``, each item timed up to there; then engine == oracle,
  plus a check against the solve phase's result (the route is covered by the
  front / is no better than the sweep cell);
* ``template``: heuristic templates checked against closed forms and, where
  there is one, against the solve phase's result;
* ``cli``: a ``droneprivacy`` subprocess, run ``CLI_RUNS`` times, whose
  output is compared with the same computation done in-process.

Every phase also times the reference kernel of ``calibrate.py`` at its
start and end and, between operations, at most every ``PROBE_INTERVAL_S``.

Every check is an operation in the ledger; an exception inside an operation
counts as a failure of that operation and the run goes on.  Each pass also
hashes the exact outputs (Fractions as ``num/den``, route tokens,
multiplicities, wait reprs) into a digest.
"""

from __future__ import annotations

import functools
import hashlib
import io as textio
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import droneprivacy as dp
from droneprivacy import DroneSpec, MotionModel, ParetoAccumulator
from droneprivacy.heuristics import HeuristicParams, closed_form_risks, template_for

import calibrate
from inputs import TOPOLOGIES, map_seed, random_route, rng_for, route_rngs

CLI_TIMEOUT_S = 150
CLI_RUNS = 2  # runs of the workload's CLI command per pass
PROBE_INTERVAL_S = 0.1  # inside a phase, time the reference kernel at most this often
FRONT_PROBE = 0  # the front case run through the CLI and replayed in the traced run


@dataclass(frozen=True)
class Sizes:
    """Instance sizes; ``FULL`` is the benchmark, ``SMOKE`` a seconds-long check of the harness."""

    front_cases: tuple[tuple[str, int, int, int, int, str], ...]  # topology, n, decoys, budget, capacity, objective
    front_samples_per_case: int
    sweep_blocks: tuple[tuple[int, int], ...]  # (n_max, decoy budget): one sweep call over n = 1..n_max
    sweep_c: int
    sweep_samples_per_cell: Callable[[int], int]  # of n; heavier cells get more, so the p99 tail is well filled
    sweep_cli: tuple[int, int, int]  # (n, c, d) upper ends of the CLI sub-sweep
    closed_form_n: int
    audit_n: int
    audit_decoys: int
    audit_capacity: int
    audit_samples_per_map: int
    audit_cli_n: int  # orders on the route the oracle CLI enumerates
    template_n: int
    template_jobs: tuple[tuple[int, str, dict], ...]  # (map index, kind, parameters)
    baseline_front_n: int
    baseline_risk_calls: int
    baseline_worlds_n: int


FULL = Sizes(
    front_cases=(
        ("uniform", 5, 0, 0, 3, "avg_risk"), ("two_clusters", 5, 0, 0, 3, "worst_risk"),
        ("hub_spoke", 5, 0, 0, 2, "avg_risk"), ("linear", 5, 0, 0, 2, "worst_risk"),
        ("uniform", 4, 2, 2, 1, "avg_risk"), ("two_clusters", 3, 2, 2, 3, "worst_risk"),
    ),
    front_samples_per_case=167,
    sweep_blocks=((5, 0), (4, 1), (3, 2)), sweep_c=5, sweep_samples_per_cell=lambda n: 2 * n * n + 1,
    sweep_cli=(5, 5, 0),
    closed_form_n=40,
    audit_n=5, audit_decoys=1, audit_capacity=3, audit_samples_per_map=300, audit_cli_n=8,
    template_n=6,
    template_jobs=tuple(
        (index, kind, kw) for index in range(4)
        for kind, kw in (("split", {"k": 3, "l": 3}), ("reversal", {"k": 2}), ("reversal", {"k": 3}),
                         ("stuffing", {"c": 3}), ("stuffing", {"c": 4}))
    ),
    baseline_front_n=5, baseline_risk_calls=20000, baseline_worlds_n=8,
)

SMOKE = Sizes(
    front_cases=(
        ("uniform", 3, 0, 0, 3, "avg_risk"), ("two_clusters", 3, 0, 0, 2, "worst_risk"),
        ("hub_spoke", 3, 0, 0, 2, "avg_risk"), ("linear", 3, 0, 0, 1, "worst_risk"),
        ("uniform", 2, 2, 2, 1, "avg_risk"), ("two_clusters", 2, 2, 2, 2, "worst_risk"),
    ),
    front_samples_per_case=8,
    sweep_blocks=((3, 0), (2, 1)), sweep_c=3, sweep_samples_per_cell=lambda n: 2, sweep_cli=(2, 2, 1),
    closed_form_n=6,
    audit_n=3, audit_decoys=1, audit_capacity=2, audit_samples_per_map=10, audit_cli_n=4,
    template_n=4,
    template_jobs=((0, "split", {"k": 2, "l": 2}), (1, "reversal", {"k": 1}), (2, "stuffing", {"c": 2})),
    baseline_front_n=3, baseline_risk_calls=200, baseline_worlds_n=5,
)


class Ledger:
    """Counts attempted and failed operations; keeps the first failure messages."""

    def __init__(self, max_messages: int = 20):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.max_messages = max_messages

    @contextmanager
    def op(self, what: str):
        """One operation: yields a list to append problems to; an exception is a problem too."""
        problems: list[str] = []
        try:
            yield problems
        except Exception as exc:  # a failing operation is counted, the benchmark keeps running
            problems.append(f"raised {type(exc).__name__}: {exc}")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < self.max_messages:
                self.messages.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Pass:
    """One pass over the workload: seconds per operation, keyed by (phase, index), the reference
    kernel's times in each phase, and for each operation the index of the kernel time just before it
    (the next one was taken just after it)."""

    seconds: dict[tuple[str, int], float] = field(default_factory=dict)
    kernel_s: dict[str, list[float]] = field(default_factory=dict)
    probe_index: dict[tuple[str, int], int] = field(default_factory=dict)
    routes: int = 0  # routes enumerated by the solve phase
    wall_s: float = 0.0
    digest: str = ""

    def record(self, key: tuple[str, int], seconds: float) -> None:
        self.seconds[key] = seconds
        self.probe_index[key] = len(self.kernel_s[key[0]]) - 1


def fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def covered(points: list[tuple[Fraction, float]], risk: Fraction, wait: float) -> bool:
    """Whether some (risk, wait) front point is no worse than the given pair in both objectives."""
    return any(r <= risk and w <= wait for r, w in points)


def dominance_problems(points: list[tuple[Fraction, float]]) -> list[str]:
    """Front shape: waits strictly ascending, risks strictly descending, so nothing dominates."""
    problems = []
    for (r0, w0), (r1, w1) in zip(points, points[1:]):
        if not (w0 < w1 and r0 > r1):
            problems.append(f"points ({r0}, {w0}) and ({r1}, {w1}) are not mutually non-dominated")
    return problems


def template_grid(n: int) -> list[HeuristicParams]:
    grid = [HeuristicParams("split", n, k=k, l=n - k) for k in range(1, n)]
    grid += [HeuristicParams("reversal", n, k=k) for k in range(0, n // 2 + 1)]
    grid += [HeuristicParams("stuffing", n, c=c) for c in range(1, n + 1)]
    return grid


class Workload:
    """Shared pass structure; subclasses fill in setup and the phases."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, root: Path, outdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.root = root
        self.outdir = outdir
        self._last_probe = 0.0

    # -- set-up ---------------------------------------------------------------

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def _generate(self, tracer, topology: str, n: int, decoys: int, rng):
        return tracer.call("geometry.generate", dp.generate, topology, n, decoys, seed=map_seed(rng))

    def _sample(self, tracer, scenario, capacity: int, budget: int, rngs):
        """A random valid route; set-up refuses a sample the library's validator rejects."""
        route = random_route(scenario, capacity, budget, rngs)
        result = tracer.call("model.validate_route", dp.validate_route, route, scenario, DroneSpec(capacity))
        if not result.ok:
            raise RuntimeError(f"sampled route {route.tokens} is invalid: {result.message}")
        return route

    # -- one pass -------------------------------------------------------------

    def run_pass(self, tracer, ledger: Ledger) -> Pass:
        result = Pass()
        digest = hashlib.sha256()
        start = perf_counter()
        for phase in (self.solve, self.verify, self.template, self.cli):
            with tracer.span(f"phase.{phase.__name__}"):
                self.probe(result, phase.__name__, force=True)
                phase(tracer, ledger, digest, result)
                self.probe(result, phase.__name__, force=True)
        result.wall_s = perf_counter() - start
        result.digest = digest.hexdigest()
        return result

    def probe(self, result: Pass, phase: str, force: bool = False) -> None:
        """Time the reference kernel between two operations of a phase (see ``calibrate``)."""
        if force or perf_counter() - self._last_probe >= PROBE_INTERVAL_S:
            result.kernel_s.setdefault(phase, []).append(calibrate.time_kernel())
            self._last_probe = perf_counter()

    def solve(self, tracer, ledger, digest, result) -> None:
        pass

    def samples(self):
        """(scenario, capacity, route, extra check) for every verify item."""
        raise NotImplementedError

    def engine(self, tracer, route, scenario, capacity: int):
        """The library's answer for one verify route: average risk, worst risk, extra check's input, digest text."""
        evaluation = tracer.call("search.evaluate", dp.evaluate, route, scenario, DroneSpec(capacity))
        return evaluation.avg_risk, evaluation.worst_risk, evaluation, repr(evaluation.avg_wait)

    def verify(self, tracer, ledger, digest, result) -> None:
        for index, (scenario, capacity, route, extra) in enumerate(self.samples()):
            self.probe(result, "verify")
            with ledger.op(f"verify {route.tokens}") as problems:
                t0 = perf_counter()
                avg, worst, answer, text = self.engine(tracer, route, scenario, capacity)
                posterior = tracer.call("observer.posterior_matrix", dp.posterior_matrix, route, scenario,
                                        check=False)
                result.record(("verify", index), perf_counter() - t0)
                diag = dp.risks_from_posterior(posterior)
                if Fraction(sum(diag), len(diag)) != avg or max(diag) != worst:
                    problems.append(f"engine ({avg}, {worst}) != oracle {diag}")
                if any(sum(row) != 1 for row in posterior.rows):
                    problems.append("an oracle row does not sum to 1")
                if extra is not None:
                    problems.extend(extra(answer))
                digest.update(f"verify|{route.tokens}|{fmt(avg)}|{fmt(worst)}|{text}\n".encode())

    def template(self, tracer, ledger, digest, result) -> None:
        pass

    def cli(self, tracer, ledger, digest, result) -> None:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    def _instantiate(self, tracer, params: HeuristicParams, scenario, drone, relabel: bool = False):
        tpl = template_for(params)
        with tracer.span("heuristics.instantiate_template") as span:
            route = dp.instantiate_template(tpl, scenario, drone, relabel=relabel)
        relabelings = math.factorial(scenario.n) if relabel else 1
        span.count("orderings", relabelings * math.prod(math.factorial(g) for g in tpl.group_sizes))
        span.count("exact", int(dp.ordering_search_is_exact(tpl)))
        return route

    def run_cli(self, tracer, span_name: str, args: list[str], result: Pass) -> subprocess.CompletedProcess:
        """Run one CLI command ``CLI_RUNS`` times against this checkout's sources, each run one ``cli``
        operation of the pass; returns the first run, and raises if the runs' results differ."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        procs = []
        for run in range(CLI_RUNS):
            if run:
                self.probe(result, "cli", force=True)
            with tracer.span(span_name):
                t0 = perf_counter()
                procs.append(subprocess.run(
                    [sys.executable, "-m", "droneprivacy.cli", *args],
                    capture_output=True, env=env, cwd=self.root, timeout=CLI_TIMEOUT_S, check=False,
                ))
                result.record(("cli", run), perf_counter() - t0)
        first = procs[0]
        if any((p.returncode, p.stdout) != (first.returncode, first.stdout) for p in procs[1:]):
            raise RuntimeError(f"{CLI_RUNS} runs of the same command gave different results")
        return first

    def replay(self, tracer, ledger) -> None:
        """Traced run only: replay hot paths through public functions for per-layer shares.

        Here: observer world counts for the verify samples, which ``posterior_matrix`` does not report.
        """
        with tracer.span("replay.worlds"):
            for scenario, _, route, _ in self.samples():
                with ledger.op(f"worlds {route.tokens}") as problems:
                    with tracer.span("observer.enumerate_worlds") as span:
                        worlds = dp.enumerate_worlds(route, scenario, check=False)
                        span.count("worlds", len(worlds))
                    if sum(w.probability for w in worlds) != 1:
                        problems.append("world probabilities do not sum to 1")


# -- front ---------------------------------------------------------------------


@dataclass
class FrontCase:
    topology: str
    scenario: object
    capacity: int
    budget: int
    objective: str

    @property
    def label(self) -> str:
        return f"{self.topology}/n{self.scenario.n}/c{self.capacity}/d{self.budget}/{self.objective}"


class Front(Workload):
    name = "front"

    def setup(self, tracer) -> None:
        s = self.sizes
        rng = rng_for(self.name, self.seed, "maps")
        sample_rngs = route_rngs(self.name, self.seed)
        self.cases = [
            FrontCase(topology, self._generate(tracer, topology, n, decoys, rng), capacity, budget, objective)
            for topology, n, decoys, budget, capacity, objective in s.front_cases
        ]
        self.sample_routes = [
            (index, self._sample(tracer, case.scenario, case.capacity, case.budget, sample_rngs))
            for index, case in enumerate(self.cases)
            for _ in range(s.front_samples_per_case)
        ]
        # Stuffing templates have few within-group orderings, so they also search every order relabeling.
        self.templates = [
            (index, params, params.kind == "stuffing")
            for index, case in enumerate(self.cases) if case.budget == 0
            for params in template_grid(case.scenario.n) if params.required_capacity <= case.capacity
        ]
        self.cli_case = self.cases[FRONT_PROBE]
        self.scenario_path = self.outdir / "front-scenario.json"
        tracer.call("io.save_scenario", dp.save_scenario,
                    dp.ScenarioFile(self.cli_case.scenario, name="front-cli"), self.scenario_path)
        self.fronts: dict[int, object] = {}

    def solve(self, tracer, ledger, digest, result) -> None:
        self.fronts = {}
        for index, case in enumerate(self.cases):
            self.probe(result, "solve")
            with ledger.op(f"front {case.label}") as problems:
                with tracer.span("search.pareto_front") as span:
                    t0 = perf_counter()
                    front = dp.pareto_front(case.scenario, DroneSpec(case.capacity), (case.objective, "avg_wait"),
                                            case.budget)
                    result.record(("solve", index), perf_counter() - t0)
                    span.count("routes", front.total_routes)
                    span.count("front_points", len(front.points))
                self.fronts[index] = front
                result.routes += front.total_routes
                if case.capacity >= case.scenario.n:
                    expected = dp.route_count_upper_bound(case.scenario.n, case.budget)
                    if front.total_routes != expected:
                        problems.append(f"{front.total_routes} routes enumerated, expected {expected}")
                problems.extend(dominance_problems(self._points(index)))
                if any(p.multiplicity < 1 for p in front.points):
                    problems.append("a point has multiplicity < 1")
                buf = textio.StringIO()
                dp.write_front_csv(front, case.scenario, case.capacity, case.budget, buf)
                digest.update(f"front|{case.label}|{front.total_routes}\n{buf.getvalue()}".encode())

    def _points(self, index: int) -> list[tuple[Fraction, float]]:
        objective = self.cases[index].objective
        return [(getattr(p.evaluation, objective), p.evaluation.avg_wait) for p in self.fronts[index].points]

    def _covered_by_front(self, index: int, evaluation) -> list[str]:
        """The exhaustive front must cover every valid route: some point no worse in both objectives."""
        case = self.cases[index]
        if index not in self.fronts:
            return [f"front {case.label} is missing"]
        if not covered(self._points(index), getattr(evaluation, case.objective), evaluation.avg_wait):
            return [f"not covered by front {case.label}"]
        return []

    def samples(self):
        for index, route in self.sample_routes:
            case = self.cases[index]
            yield case.scenario, case.capacity, route, functools.partial(self._covered_by_front, index)

    def template(self, tracer, ledger, digest, result) -> None:
        for op_index, (index, params, relabel) in enumerate(self.templates):
            case = self.cases[index]
            drone = DroneSpec(case.capacity)
            self.probe(result, "template")
            with ledger.op(f"template {params.label} on {case.label}") as problems:
                t0 = perf_counter()
                route = self._instantiate(tracer, params, case.scenario, drone, relabel=relabel)
                evaluation = tracer.call("search.evaluate", dp.evaluate, route, case.scenario, drone)
                engine = tracer.call("risk.privacy_risks", dp.privacy_risks, route, case.scenario)
                closed = tracer.call("heuristics.closed_form_risks", closed_form_risks, params)
                result.record(("template", op_index), perf_counter() - t0)
                # A relabeling permutes which order gets which risk, never the risks themselves.
                if sorted(engine.risks) != sorted(closed.risks) or (not relabel and engine.risks != closed.risks):
                    problems.append("closed form differs from the engine")
                problems.extend(self._covered_by_front(index, evaluation))
                digest.update(f"template|{index}|{params.label}|{route.tokens}|{fmt(evaluation.avg_risk)}|"
                              f"{evaluation.avg_wait!r}\n".encode())

    def cli(self, tracer, ledger, digest, result) -> None:
        case = self.cli_case
        with ledger.op(f"cli pareto {case.label}") as problems:
            proc = self.run_cli(tracer, "cli.pareto", [
                "pareto", "--scenario", str(self.scenario_path), "--capacity", str(case.capacity),
            ], result)
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            loaded = tracer.call("io.load_scenario", dp.load_scenario, self.scenario_path)
            if loaded.scenario != case.scenario:
                problems.append("saved scenario does not load back equal")
            buf = textio.StringIO()
            with tracer.span("io.write_front_csv") as span:
                dp.write_front_csv(self.fronts[FRONT_PROBE], loaded.scenario, case.capacity, case.budget, buf)
                expected = buf.getvalue().encode()
                span.count("bytes", len(expected))
            if proc.stdout != expected:
                problems.append("CLI CSV differs from the in-process CSV")
            digest.update(b"cli|" + hashlib.sha256(proc.stdout).hexdigest().encode() + b"\n")

    def replay(self, tracer, ledger) -> None:
        """Replay one n=5 front through the public per-route functions pareto_front wraps."""
        index = FRONT_PROBE
        case = self.cases[index]
        drone = DroneSpec(case.capacity)
        motion = MotionModel(speed=drone.speed, stop_duration=drone.stop_duration)
        objective = "average" if case.objective == "avg_risk" else "worst_case"
        with ledger.op(f"replay {case.label}") as problems, tracer.span("replay.front") as replay_span:
            acc = ParetoAccumulator()
            routes = dp.enumerate_routes(case.scenario, drone, case.budget)
            count = 0
            while True:
                with tracer.span("search.enumerate_routes") as span:
                    route = next(routes, None)
                if route is None:
                    break
                span.count("routes")
                count += 1
                report = tracer.call("risk.privacy_risks", dp.privacy_risks, route, case.scenario, check=False)
                waits = tracer.call("geometry.wait_times", dp.wait_times, route, case.scenario, motion,
                                    check=False)
                tracer.call("search.ParetoAccumulator.offer", acc.offer, getattr(report, objective),
                            waits.average, route.stops)
            replay_span.count("kept", len(acc))
            front = self.fronts.get(index)
            if front is None:
                problems.append("no front to compare the replay with")
            elif (count != front.total_routes
                  or list(zip(acc.risks, acc.waits, acc.counts))
                  != [(getattr(p.evaluation, case.objective), p.evaluation.avg_wait, p.multiplicity)
                      for p in front.points]
                  or [tuple(seq) for seq in acc.seqs] != [p.evaluation.route.stops for p in front.points]):
                problems.append("replayed front differs from pareto_front")
        super().replay(tracer, ledger)


# -- sweep ---------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"

    def setup(self, tracer) -> None:
        s = self.sizes
        if s.sweep_c < max(n for n, _ in s.sweep_blocks):
            raise ValueError("the sweep's route count assumes a capacity range reaching n")
        rng = rng_for(self.name, self.seed, "maps")
        sample_rngs = route_rngs(self.name, self.seed)
        self.capacities = range(1, s.sweep_c + 1)
        self.cells = [(n, c, d) for n_max, d in s.sweep_blocks for n in range(1, n_max + 1) for c in self.capacities]
        self.maps = {}
        for n, _, d in self.cells:
            if (n, d) not in self.maps:
                self.maps[(n, d)] = self._generate(tracer, rng.choice(TOPOLOGIES), n, d, rng)
        self.sample_routes = [
            ((n, c, d), self._sample(tracer, self.maps[(n, d)], c, d, sample_rngs))
            for n, c, d in self.cells
            for _ in range(s.sweep_samples_per_cell(n))
        ]
        self.template_maps = {
            n: self.maps[(n, 0)] if (n, 0) in self.maps else self._generate(tracer, "uniform", n, 0, rng)
            for n in range(1, s.closed_form_n + 1)
        }
        # One enumeration per (n, budget) at capacity n covers every capacity cell.
        self.block_routes = [
            sum(dp.route_count_upper_bound(n, d) for n in range(1, n_max + 1)) for n_max, d in s.sweep_blocks
        ]
        n_cli, c_cli, d_cli = s.sweep_cli
        self.cli_ranges = (range(1, n_cli + 1), range(1, c_cli + 1), range(0, d_cli + 1))
        self.table: dict = {}

    def solve(self, tracer, ledger, digest, result) -> None:
        self.table = {}
        for index, ((n_max, d), routes) in enumerate(zip(self.sizes.sweep_blocks, self.block_routes)):
            self.probe(result, "solve")
            with ledger.op(f"sweep n<={n_max} d={d}") as problems:
                with tracer.span("search.min_avg_risk_sweep") as span:
                    t0 = perf_counter()
                    block = dp.min_avg_risk_sweep(range(1, n_max + 1), self.capacities, [d])
                    result.record(("solve", index), perf_counter() - t0)
                    span.count("cells", len(block))
                    span.count("routes", routes)
                result.routes += routes
                if set(block) != {(n, c, d) for n in range(1, n_max + 1) for c in self.capacities}:
                    problems.append("the table does not have exactly the requested cells")
                self.table.update(block)
        table = self.table
        with ledger.op("sweep shape") as problems:
            for (n, c, d), value in sorted(table.items()):
                if c >= n and d == 0 and value != Fraction(1, n):
                    problems.append(f"cell {(n, c, d)} = {value}, expected 1/{n}")
                for neighbour in ((n + 1, c, d), (n, c + 1, d), (n, c, d + 1)):
                    if neighbour in table and table[neighbour] > value:
                        problems.append(f"cell {neighbour} exceeds cell {(n, c, d)}")
                digest.update(f"cell|{n}|{c}|{d}|{fmt(value)}\n".encode())

    def samples(self):
        for (n, c, d), route in self.sample_routes:
            yield self.maps[(n, d)], c, route, functools.partial(self._no_better_than_cell, (n, c, d))

    def engine(self, tracer, route, scenario, capacity: int):
        """Risks only: the sweep has no geometry, so waits stay out of its verify phase and its digest."""
        report = tracer.call("risk.privacy_risks", dp.privacy_risks, route, scenario)
        return report.average, report.worst_case, report.average, ""

    def _no_better_than_cell(self, cell, avg_risk) -> list[str]:
        """No valid route may beat the sweep's exact minimum for its cell."""
        if cell not in self.table:
            return [f"cell {cell} is missing"]
        if avg_risk < self.table[cell]:
            return [f"avg risk {avg_risk} is below the sweep minimum {self.table[cell]}"]
        return []

    def template(self, tracer, ledger, digest, result) -> None:
        op_index = 0
        for n, scenario in self.template_maps.items():
            for params in template_grid(n):
                self.probe(result, "template")
                with ledger.op(f"closed form {params.label}") as problems:
                    t0 = perf_counter()
                    closed = tracer.call("heuristics.closed_form_risks", closed_form_risks, params)
                    engine = tracer.call("risk.privacy_risks", dp.privacy_risks, template_for(params).flatten(),
                                         scenario)
                    result.record(("template", op_index), perf_counter() - t0)
                    op_index += 1
                    if engine.risks != closed.risks:
                        problems.append("closed form differs from the engine")
                    cell = (n, params.required_capacity, 0)
                    if cell in self.table and closed.average < self.table[cell]:
                        problems.append(f"closed form {closed.average} is below the sweep minimum")
                    digest.update(f"closed|{params.label}|{fmt(closed.average)}\n".encode())

    def cli(self, tracer, ledger, digest, result) -> None:
        ns, cs, ds = self.cli_ranges
        with ledger.op("cli sweep") as problems:
            proc = self.run_cli(tracer, "cli.sweep", [
                "sweep", "--n", f"{ns[0]}..{ns[-1]}", "--capacity", f"{cs[0]}..{cs[-1]}",
                "--decoys", f"{ds[0]}..{ds[-1]}",
            ], result)
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            sub = {(n, c, d): self.table[(n, c, d)] for n in ns for c in cs for d in ds}
            buf = textio.StringIO()
            dp.write_sweep_csv(sub, buf)
            if proc.stdout != buf.getvalue().encode():
                problems.append("CLI CSV differs from the in-process sub-table")
            digest.update(b"cli|" + hashlib.sha256(proc.stdout).hexdigest().encode() + b"\n")

    def replay(self, tracer, ledger) -> None:
        """Enumeration plus the risk kernel on the sweep's largest decoy-free cell."""
        n = self.sizes.sweep_blocks[0][0]
        scenario = self.maps[(n, 0)]
        with ledger.op(f"replay sweep n={n}") as problems, tracer.span("replay.sweep"):
            routes = dp.enumerate_routes(scenario, DroneSpec(n), 0)
            count, best = 0, None
            while True:
                with tracer.span("search.enumerate_routes") as span:
                    route = next(routes, None)
                if route is None:
                    break
                span.count("routes")
                count += 1
                report = tracer.call("risk.privacy_risks", dp.privacy_risks, route, scenario, check=False)
                if best is None or report.average < best:
                    best = report.average
            if count != dp.route_count_upper_bound(n, 0) or best != self.table.get((n, n, 0)):
                problems.append(f"replay found {count} routes with minimum {best}")
        super().replay(tracer, ledger)


# -- audit ---------------------------------------------------------------------


class Audit(Workload):
    name = "audit"

    def setup(self, tracer) -> None:
        s = self.sizes
        rng = rng_for(self.name, self.seed, "maps")
        sample_rngs = route_rngs(self.name, self.seed)
        self.maps = [self._generate(tracer, t, s.audit_n, s.audit_decoys, rng) for t in TOPOLOGIES]
        self.sample_routes = [
            (scenario, self._sample(tracer, scenario, s.audit_capacity, s.audit_decoys, sample_rngs))
            for scenario in self.maps
            for _ in range(s.audit_samples_per_map)
        ]
        self.template_maps = [self._generate(tracer, t, s.template_n, 0, rng) for t in TOPOLOGIES]
        self.template_params = [
            (index, HeuristicParams(kind, s.template_n, **kw)) for index, kind, kw in s.template_jobs
        ]
        # The CLI's oracle gets a route of fixed shape, so its work is seed-independent: pick up half the
        # orders, drop two, pick up the rest, drop the rest (8,640 worlds at n=8).
        n, half = s.audit_cli_n, s.audit_cli_n // 2
        self.cli_scenario = self._generate(tracer, rng.choice(TOPOLOGIES), n, 0, rng)
        self.cli_route = dp.Route(tuple(dp.Stop("v", i) for i in range(1, half + 1))
                                  + (dp.Stop("a", 1), dp.Stop("a", 2))
                                  + tuple(dp.Stop("v", i) for i in range(half + 1, n + 1))
                                  + tuple(dp.Stop("a", i) for i in range(3, n + 1)))
        self.scenario_path = self.outdir / "audit-scenario.json"
        tracer.call("io.save_scenario", dp.save_scenario,
                    dp.ScenarioFile(self.cli_scenario, name="audit-cli"), self.scenario_path)

    def samples(self):
        for scenario, route in self.sample_routes:
            yield scenario, self.sizes.audit_capacity, route, None

    def template(self, tracer, ledger, digest, result) -> None:
        drone = DroneSpec(self.sizes.template_n)
        for op_index, (index, params) in enumerate(self.template_params):
            scenario = self.template_maps[index]
            self.probe(result, "template")
            with ledger.op(f"template {params.label} on map {index}") as problems:
                t0 = perf_counter()
                route = self._instantiate(tracer, params, scenario, drone)
                valid = tracer.call("model.validate_route", dp.validate_route, route, scenario, drone)
                engine = tracer.call("risk.privacy_risks", dp.privacy_risks, route, scenario)
                closed = tracer.call("heuristics.closed_form_risks", closed_form_risks, params)
                result.record(("template", op_index), perf_counter() - t0)
                if not valid.ok:
                    problems.append(f"instantiated route is invalid: {valid.message}")
                if engine.risks != closed.risks:
                    problems.append("closed form differs from the engine")
                digest.update(f"template|{index}|{params.label}|{route.tokens}|"
                              f"{','.join(fmt(r) for r in engine.risks)}\n".encode())

    def cli(self, tracer, ledger, digest, result) -> None:
        route = self.cli_route
        with ledger.op(f"cli oracle {route.tokens}") as problems:
            proc = self.run_cli(tracer, "cli.oracle", [
                "oracle", "--scenario", str(self.scenario_path), "--route", route.tokens,
            ], result)
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            if proc.stdout.decode().splitlines() != oracle_lines(route, self.cli_scenario):
                problems.append("CLI posterior differs from the in-process posterior")
            digest.update(b"cli|" + hashlib.sha256(proc.stdout).hexdigest().encode() + b"\n")


@functools.lru_cache(maxsize=1)
def oracle_lines(route, scenario) -> list[str]:
    """What ``droneprivacy oracle`` prints, computed in-process once per run: every pass's set-up
    builds an equal route and scenario."""
    posterior = dp.posterior_matrix(route, scenario)
    lines = ["columns: " + " ".join(s.token for s in posterior.vendor_stops)]
    lines += [f"a{cid}: " + " ".join(fmt(p) for p in row) for cid, row in zip(posterior.customer_ids, posterior.rows)]
    lines.append(f"worlds: {len(dp.enumerate_worlds(route, scenario))}")
    return lines


WORKLOADS = {cls.name: cls for cls in (Front, Sweep, Audit)}
