"""The benchmark's three workloads, each a closed loop with one client.

A workload turns the workload seed into a stream of operations, runs one
operation at a time (timing only the operation itself), checks every
operation's output outside the timed region, and finally checks one
sampled operation against the serial ``SystematicTester`` oracle.

The workload seed reaches only the generated inputs: the per-operation
strategy seeds.  Every other setting is fixed here.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class Op:
    """One operation the client submits: its kind, index and input seed."""

    kind: str
    index: int
    seed: int


@dataclass
class Outcome:
    """What one operation did, as the benchmark saw it."""

    op: Op
    seconds: float
    work: float
    failures: List[str] = field(default_factory=list)
    #: Named sub-timings (e.g. ``cex_s`` within a hunt) and properties.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Raw to host-normalised seconds, from the calibrations around the op.
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def norm_s(self) -> float:
        return self.seconds * self.scale


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _per_op(ops: List[Outcome], key: str) -> float:
    return sum(o.extra.get(key, 0.0) for o in ops) / max(1, len(ops))


def _op_seeds(seed: int) -> Iterator[int]:
    rng = random.Random(f"perfbench:{seed}")
    while True:
        yield rng.randrange(2**31)


def _record_keys(records: Any) -> List[Tuple[Any, ...]]:
    """The parts of execution records two equivalent testers must agree on."""
    return [
        (
            record.index,
            record.steps,
            tuple(record.trail or ()),
            tuple((v.time, v.monitor, v.message) for v in record.violations),
        )
        for record in records
    ]


class Workload:
    """Shared workload logic; subclasses define the operations."""

    name = ""
    #: The operation kinds in one cycle of the fixed operation mix.
    mix: Tuple[str, ...] = ()
    #: The kind whose latency is the workload's ``op_s`` metric.
    primary = ""
    #: What one unit of ``work_per_s`` is, and its name in the report.
    work_unit = ""
    work_label = ""
    #: Printed latency names per operation kind (``cex`` is a hunt's
    #: submit-to-confirmed-counterexample time).
    latency_labels: Dict[str, str] = {}
    #: Kinds with a serial oracle.  One operation per run is re-checked
    #: against it; the seed fixes which kind, before anything is timed.
    oracle_kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._seeds = _op_seeds(seed)
        self._count = 0
        kinds = self.oracle_kinds
        self.oracle_kind = kinds[seed % len(kinds)] if kinds else None
        self._oracle_op: Optional[Op] = None
        self._oracle_keys: Any = None

    def cycles(self) -> Iterator[List[Op]]:
        """The operation stream, one whole cycle of the mix at a time."""
        while True:
            cycle = []
            for kind in self.mix:
                cycle.append(Op(kind, self._count, next(self._seeds)))
                self._count += 1
            yield cycle

    def setup(self) -> None:
        """Warm what a user pays for once: one untimed operation of each kind.

        The warm-up inputs are the same for every workload seed, so every
        run's set-up does the same work.
        """
        warm_seeds = _op_seeds(-1)
        for kind in dict.fromkeys(self.mix):
            outcome = self.run(Op(kind, -1, next(warm_seeds)))
            if not outcome.ok:
                raise RuntimeError(f"warm-up {kind} failed: {outcome.failures}")

    def run(self, op: Op) -> Outcome:
        raise NotImplementedError

    def check_oracle(self) -> List[str]:
        """Compare the sampled operation with the serial oracle."""
        if self.oracle_kind is None:
            return []
        if self._oracle_op is None:
            return [f"no {self.oracle_kind} operation ran to sample"]
        expected = self.oracle(self._oracle_op)
        if expected != self._oracle_keys:
            return [f"{self._oracle_op} differs from the serial oracle"]
        return []

    def _want_oracle(self, op: Op) -> bool:
        return op.index >= 0 and self._oracle_op is None and op.kind == self.oracle_kind

    def _keep_oracle(self, op: Op, keys: Any) -> None:
        self._oracle_op, self._oracle_keys = op, keys

    def oracle(self, op: Op) -> Any:
        raise NotImplementedError

    def layer_values(self, ops: List[Outcome], untraced: List[Outcome]) -> Dict[str, float]:
        """Per-layer counts and property shares from the workload's own
        bookkeeping: ``ops`` is every operation of the run, ``untraced``
        those run without span wrappers."""
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# population: fresh PopulationTester sweeps
# --------------------------------------------------------------------- #

SWEEP_EXECUTIONS = 2048
SWEEP_HORIZON = 1.0
PLANT_EXECUTIONS = 48
PLANT_SIZES = {"plant4": 4, "plant12": 12}


class Population(Workload):
    """Repeated fresh-``PopulationTester`` sweeps at a fixed mix."""

    name = "population"
    mix = ("sweep", "sweep", "sweep", "plant4", "sweep", "sweep", "sweep", "plant12")
    primary = "sweep"
    work_unit = "exec"
    work_label = "exec_per_s"
    latency_labels = {"sweep": "sweep_s", "plant4": "plant4_s", "plant12": "plant12_s"}
    oracle_kinds = ("sweep", "plant4", "plant12")

    def _tester(self, op: Op, serial: bool = False) -> Any:
        from repro.testing import (
            PopulationTester,
            RandomStrategy,
            SystematicTester,
            scenario_factory,
        )

        if op.kind == "sweep":
            factory = scenario_factory("drone-surveillance", horizon=SWEEP_HORIZON)
            budget = SWEEP_EXECUTIONS
        else:
            factory = scenario_factory(
                "plant-surveillance", drones=PLANT_SIZES[op.kind], unsafe_start=True
            )
            budget = PLANT_EXECUTIONS
        strategy = RandomStrategy(seed=op.seed, max_executions=budget)
        if serial:
            return SystematicTester(factory, strategy, max_permuted=1, reuse_instances=True)
        return PopulationTester(factory, strategy, max_permuted=1)

    def run(self, op: Op) -> Outcome:
        tester = self._tester(op)
        started = time.perf_counter()
        report = tester.explore()
        seconds = time.perf_counter() - started
        stats = tester.stats
        budget = SWEEP_EXECUTIONS if op.kind == "sweep" else PLANT_EXECUTIONS
        failures = []
        if report.execution_count != budget or stats.executions != budget:
            failures.append(f"ran {stats.executions} of {budget} executions")
        if stats.live_runs + stats.compacted != stats.executions:
            failures.append("live + compacted rows != executions")
        if stats.pickle_fallbacks:
            failures.append(f"{stats.pickle_fallbacks} pickle fallbacks")
        if self._want_oracle(op):
            self._keep_oracle(op, (_record_keys(report.executions), dict(tester.coverage.counts)))
        return Outcome(
            op,
            seconds,
            float(stats.executions),
            failures,
            {
                "compacted": stats.compacted,
                "live_runs": stats.live_runs,
                "delta_restores": stats.delta_restores,
                "pickle_fallbacks": stats.pickle_fallbacks,
                "vehicles": PLANT_SIZES.get(op.kind, 0),
            },
        )

    def oracle(self, op: Op) -> Any:
        tester = self._tester(op, serial=True)
        return _record_keys(tester.explore().executions), dict(tester.coverage.counts)

    def layer_values(self, ops: List[Outcome], untraced: List[Outcome]) -> Dict[str, float]:
        from repro.simulation.plantenv import BATCH_PLANT_MIN_ROWS

        executions = sum(o.work for o in ops)
        rows = [(o.extra["vehicles"] * o.work, o.extra["vehicles"]) for o in ops]
        return {
            "testing.executions": executions / len(ops),
            "testing.live_executions": _per_op(ops, "live_runs"),
            "testing.population.compacted_frac": _ratio(
                sum(o.extra["compacted"] for o in ops), executions
            ),
            "testing.population.delta_restores": _per_op(ops, "delta_restores"),
            "testing.population.pickle_fallbacks": _per_op(ops, "pickle_fallbacks"),
            "share.plant_rows_at_gate": _ratio(
                sum(r for r, vehicles in rows if vehicles >= BATCH_PLANT_MIN_ROWS),
                sum(r for r, _ in rows),
            ),
        }


# --------------------------------------------------------------------- #
# city-flights: the paper's Fig. 12b surveillance flights
# --------------------------------------------------------------------- #

FLIGHT_GOALS = 3
FLIGHT_TIMEOUT = 300.0


class CityFlights(Workload):
    """Fresh RTA-protected stacks over one shared city, one flight each."""

    name = "city-flights"
    mix = ("flight",)
    primary = "flight"
    work_unit = "sim-s"
    work_label = "sim_s_per_s"
    latency_labels = {"flight": "flight_s"}
    # Flights have no serial twin; the per-flight checks are the oracle.

    def setup(self) -> None:
        from repro.simulation import surveillance_city

        self.world = surveillance_city()
        super().setup()

    def _config(self, op: Op) -> Any:
        from repro.apps import StackConfig

        return StackConfig(
            world=self.world,
            goals=[],
            random_goals=FLIGHT_GOALS,
            loop_goals=False,
            planner="astar",
            tracker="learned",
            protect_battery=True,
            seed=op.seed,
        )

    def run(self, op: Op) -> Outcome:
        from repro.apps import build_stack

        config = self._config(op)
        started = time.perf_counter()
        metrics, _ = build_stack(config).run(duration=FLIGHT_TIMEOUT)
        seconds = time.perf_counter() - started
        failures = []
        if not metrics.completed:
            failures.append(f"flight incomplete ({metrics.stop_reason})")
        if metrics.collided:
            failures.append("flight collided")
        for module, count in metrics.disengagements.items():
            if metrics.reengagements.get(module, 0) < count:
                failures.append(f"{module} disengaged {count}x without re-engaging")
        return Outcome(
            op,
            seconds,
            float(metrics.mission_time),
            failures,
            {"sc_engagements": float(metrics.total_disengagements)},
        )

    def layer_values(self, ops: List[Outcome], untraced: List[Outcome]) -> Dict[str, float]:
        engaged = sum(o.extra.get("sc_engagements", 0.0) > 0 for o in ops)
        return {"share.flights_with_sc": engaged / len(ops)}


# --------------------------------------------------------------------- #
# service-missions: sweep and hunting missions through MissionServer
# --------------------------------------------------------------------- #

FLEET = 2
SWEEP_MISSION_EXECUTIONS = 100
SWEEP_MISSION_HORIZON = 2.0
HUNT_DEEP_OPTIONS = 96
HUNT_BUDGET = 4000


class ServiceMissions(Workload):
    """Sweep and hunting missions alternating on one ``MissionServer``."""

    name = "service-missions"
    mix = ("mission", "hunt")
    primary = "mission"
    work_unit = "exec"
    work_label = "exec_per_s"
    latency_labels = {"mission": "mission_s", "cex": "cex_s"}
    # Hunts are checked by their replay confirmation instead.
    oracle_kinds = ("mission",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: Any = None

    def setup(self) -> None:
        from repro.service import MissionClient, MissionServer

        self.server = MissionServer(fleet=FLEET).start()
        self.client = MissionClient(self.server.url)
        super().setup()

    def _spec(self, op: Op) -> Tuple[str, Any, Dict[str, Any]]:
        from repro.testing import RandomStrategy

        if op.kind == "mission":
            return (
                "drone-surveillance",
                RandomStrategy(seed=op.seed, max_executions=SWEEP_MISSION_EXECUTIONS),
                {
                    "overrides": {"horizon": SWEEP_MISSION_HORIZON},
                    "track_coverage": True,
                    "confirm": False,
                },
            )
        return (
            "deep-menu-surveillance",
            RandomStrategy(seed=op.seed, max_executions=HUNT_BUDGET),
            {
                "overrides": {
                    "include_unsafe_position": True,
                    "deep_options": HUNT_DEEP_OPTIONS,
                },
                "stop_at_first_violation": True,
                "confirm": True,
            },
        )

    def run(self, op: Op) -> Outcome:
        scenario, strategy, options = self._spec(op)
        client = self.client
        records = 0
        first_record = cex = None
        confirmed = None
        finished: Dict[str, Any] = {}
        started = time.perf_counter()
        mission_id = client.submit(scenario, strategy=strategy, **options)
        for event in client.events(mission_id):
            kind = event["type"]
            if kind == "record":
                records += 1
                if first_record is None:
                    first_record = time.perf_counter() - started
            elif kind == "confirmation" and cex is None:
                cex = time.perf_counter() - started
                confirmed = bool(event.get("confirmed"))
            elif kind == "finished":
                finished = event
        report = client.result(mission_id)
        seconds = time.perf_counter() - started
        failures = []
        if finished.get("error"):
            failures.append(f"mission error: {finished['error']}")
        if report["duplicates"] != 0:
            failures.append(f"{report['duplicates']} duplicate records")
        if records != len(report["records"]):
            failures.append(f"streamed {records} records, report has {len(report['records'])}")
        extra = {
            "first_record_s": first_record or seconds,
            "duplicates": float(report["duplicates"]),
            "requeues": float(sum("requeued" in event for event in report["events"])),
        }
        if op.kind == "mission":
            if records != SWEEP_MISSION_EXECUTIONS:
                failures.append(f"streamed {records} of {SWEEP_MISSION_EXECUTIONS} records")
            if self._want_oracle(op):
                self._keep_oracle(op, _mission_keys(report))
        else:
            if confirmed is not True:
                failures.append("hunt ended without a confirmed counterexample")
            else:
                extra["cex_s"] = cex
                extra["cex_execs"] = float(_first_failing_depth(report))
        return Outcome(op, seconds, float(records), failures, extra)

    def oracle(self, op: Op) -> Any:
        from repro.testing import SystematicTester, scenario_factory

        scenario, strategy, options = self._spec(op)
        tester = SystematicTester(
            scenario_factory(scenario, **options["overrides"]),
            strategy=strategy,
            track_coverage=True,
        )
        report = tester.explore()
        return _record_keys(report.executions), dict(tester.coverage.counts)

    def layer_values(self, ops: List[Outcome], untraced: List[Outcome]) -> Dict[str, float]:
        executions = sum(o.work for o in ops) / len(ops)
        hunts = [o for o in ops if o.op.kind == "hunt"]
        depths = [o.extra["cex_execs"] for o in hunts if "cex_execs" in o.extra]
        first = [o.extra["first_record_s"] * o.scale for o in untraced if o.op.kind == "mission"]
        return {
            "testing.executions": executions,
            "testing.live_executions": executions,
            "testing.cex_execs.p50": statistics.median(depths) if depths else 0.0,
            "swarm.duplicates": _per_op(ops, "duplicates"),
            "swarm.requeues": _per_op(ops, "requeues"),
            "service.first_record_s.p50": statistics.median(first) if first else 0.0,
            "share.hunt_missions": len(hunts) / len(ops),
            "share.hunt_time": _ratio(
                sum(o.norm_s for o in hunts), sum(o.norm_s for o in ops)
            ),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _mission_keys(report: Dict[str, Any]) -> Tuple[Any, Any]:
    from repro.service.client import decode_report_coverage, decode_report_records

    coverage = decode_report_coverage(report)
    return (
        _record_keys(decode_report_records(report)),
        dict(coverage.counts) if coverage is not None else {},
    )


def _first_failing_depth(report: Dict[str, Any]) -> int:
    """Executions the hunt needed: the failing record's index within its shard.

    Random shards are contiguous index blocks, so the first failing index
    minus its block start is the depth that shard reached.
    """
    failing = [r["index"] for r in report["records"] if r.get("violations")]
    if not failing:
        return 0
    shards = max(1, int(report.get("workers") or FLEET))
    block = HUNT_BUDGET // shards
    return 1 + min(index % block for index in failing)


WORKLOADS = {
    cls.name: cls for cls in (Population, CityFlights, ServiceMissions)
}
