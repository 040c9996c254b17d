"""Span tracing of the program's layers, installed from outside the program.

:func:`Tracer.install` replaces each traced public function (and every
subclass override of a traced method) with a wrapper that records a span:
name, start, end, parent span, and the operation it belongs to.  Spans on
drone threads belong to the mission whose session their lease carries;
every other span belongs to the operation the client is running (the
loop is closed, so exactly one is in flight).

A span's *self time* is its duration minus the time its child spans
cover.  Self time and call counts are summed per layer metric as spans
close; the first :data:`MAX_KEPT_SPANS` spans are also kept whole and
written out by :meth:`Tracer.write`.  :meth:`Tracer.uninstall` restores
every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept whole for the span file; later spans still count in totals.
MAX_KEPT_SPANS = 100_000

#: Modules imported before wrapping, so every subclass override exists.
MODULES = (
    "repro.apps",
    "repro.control",
    "repro.core",
    "repro.dynamics",
    "repro.geometry",
    "repro.planning",
    "repro.reachability",
    "repro.runtime",
    "repro.service",
    "repro.simulation",
    "repro.swarm",
    "repro.testing",
)

#: Layer metric -> the functions whose self time it sums.  ``module:Class.m``
#: covers ``m`` on the class and every subclass that overrides it;
#: ``module:f`` covers a function wherever a ``repro`` module bound it;
#: ``*:m`` covers every ``repro`` class that defines ``m``.
SPANS: Dict[str, Tuple[str, ...]] = {
    "core.engine_self_s": (
        "repro.testing.explorer:SystematicTester.run_single",
        "repro.simulation.sim:DroneSimulation.run",
    ),
    "core.monitor_s": ("repro.core.monitor:MonitorSuite.check_all",),
    "core.decision_s": ("repro.core.decision:DecisionModule.step",),
    "geometry.field_s": (
        "repro.geometry.clearance:ClearanceField.lower_bound",
        "repro.geometry.clearance:ClearanceField.exceeds",
        "repro.geometry.clearance:ClearanceField.at_most",
        "repro.geometry.clearance:ClearanceField.below",
    ),
    "geometry.exact_s": (
        "repro.geometry.workspace:Workspace.clearance",
        "repro.geometry.workspace:Workspace.in_obstacle",
        "repro.geometry.workspace:Workspace.segment_is_free",
        "repro.geometry.workspace:Workspace.distance_to_nearest_obstacle",
        "repro.geometry.shapes:AABB.distance_to_point",
        "repro.geometry.shapes:AABB.segment_intersects",
        "repro.geometry.shapes:min_distance_to_boxes",
    ),
    "reachability.s": (
        "repro.reachability.intervals:WorstCaseReachability.reach_ball",
        "repro.reachability.intervals:WorstCaseReachability.may_leave_safe",
        "repro.reachability.intervals:WorstCaseReachability.must_switch",
    ),
    "control.s": (
        "repro.control.primitives:MotionPrimitiveNode.step",
        "repro.control.base:WaypointTracker.command",
    ),
    "dynamics.s": (
        "repro.dynamics.base:DynamicsModel.step",
        "repro.dynamics.battery:BatteryModel.step",
    ),
    "simulation.plant_s": ("repro.simulation.drone:DronePlant.apply",),
    "simulation.row_group_s": ("repro.simulation.plantenv:RowGroupPlant.step_window",),
    "simulation.sensor_s": ("repro.simulation.sensors:StateEstimator.estimate",),
    "planning.plan_s": ("repro.planning.astar:GridAStarPlanner.plan",),
    "planning.validate_s": ("repro.planning.validation:PlanValidator.validate",),
    "testing.strategy_s": ("repro.testing.strategies:RandomStrategy.choose",),
    "testing.scheduler_s": ("repro.testing.scheduler:BoundedAsynchronyScheduler.order",),
    "testing.environment_s": (
        "repro.testing.abstractions:AbstractEnvironment.apply",
        "repro.simulation.plantenv:PlantEnvironment.apply",
    ),
    "testing.coverage_s": (
        "repro.testing.coverage:CoverageTracker.check",
        "repro.testing.coverage:CoverageTracker.capture",
        "repro.testing.coverage:CoverageTracker.flush",
        "repro.testing.coverage:CoverageTracker.take_execution_map",
        "repro.testing.coverage:CoverageMap.merge",
    ),
    "testing.population.snapshot_s": ("*:capture_delta_state", "*:restore_delta_state"),
    "testing.replay_s": ("repro.testing.explorer:SystematicTester.replay",),
    "swarm.codec_s": (
        "repro.swarm.protocol:dumps",
        "repro.swarm.protocol:loads",
        "repro.swarm.protocol:encode_shard",
        "repro.swarm.protocol:decode_shard",
        "repro.swarm.protocol:encode_strategy",
        "repro.swarm.protocol:decode_strategy",
        "repro.swarm.protocol:encode_record",
        "repro.swarm.protocol:decode_record",
        "repro.swarm.protocol:encode_coverage",
        "repro.swarm.protocol:decode_coverage",
        "repro.swarm.protocol:encode_violation",
        "repro.swarm.protocol:decode_violation",
    ),
    # Drone-side round trips only (the client's calls are service.* spans);
    # idle lease long-polls are split out as swarm.lease_poll_s.
    "swarm.http_s": ("repro.swarm.drone#post_json", "repro.swarm.drone#get_json"),
    "swarm.lease_poll_s": (),
    "swarm.ingest_s": ("repro.swarm.controlplane:ControlPlane.ingest",),
    "swarm.lease_wait_s": ("repro.swarm.controlplane:ControlPlane.wait_for_work",),
    "service.stream_s": (
        "repro.service.missions:MissionService.events_after",
        "repro.service.client:MissionClient.events",
    ),
    "service.result_s": ("repro.service.client:MissionClient.result",),
}

#: Metrics that sum whole span durations, children included: a replay's
#: cost is the engine work it re-runs.
INCLUSIVE = frozenset({"testing.replay_s"})

#: Drone-side requests to this path are idle waits for work.
LEASE_PATH = "/api/v1/lease"


class _Frame:
    __slots__ = ("span_id", "child")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child = 0.0


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.op: Optional[int] = None
        self.totals: Optional[Dict[str, List[float]]] = None


class Tracer:
    """Span recorder; one per process, installed for the traced window."""

    def __init__(self) -> None:
        self.op: Optional[int] = None
        self._thread = _ThreadState()
        self._ids = itertools.count(1)
        self._per_thread: List[Dict[str, List[float]]] = []
        self._per_thread_lock = threading.Lock()
        self._session_ops: Dict[str, Optional[int]] = {}
        self._fields: Dict[int, Tuple[Any, int, int]] = {}
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[int]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _totals(self) -> Dict[str, List[float]]:
        totals = self._thread.totals
        if totals is None:
            totals = defaultdict(lambda: [0.0, 0.0])
            self._thread.totals = totals
            with self._per_thread_lock:
                self._per_thread.append(totals)
        return totals

    def count(self, metric: str, amount: float = 1.0) -> None:
        self._totals()[metric][1] += amount

    def _open(self) -> Tuple[_Frame, Optional[int], float]:
        stack = self._thread.stack
        parent = stack[-1].span_id if stack else None
        frame = _Frame(next(self._ids))
        stack.append(frame)
        return frame, parent, time.perf_counter()

    def _close(self, metric: str, name: str, frame: _Frame, parent: Optional[int], start: float) -> None:
        end = time.perf_counter()
        stack = self._thread.stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1].child += duration
        entry = self._totals()[metric]
        entry[0] += duration if metric in INCLUSIVE else duration - frame.child
        entry[1] += 1
        if len(self.spans) < MAX_KEPT_SPANS:
            op = self._thread.op if self._thread.op is not None else self.op
            self.spans.append((frame.span_id, name, start, end, parent, op))

    def _wrap(self, metric: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        if metric == "swarm.http_s":

            @functools.wraps(fn)
            def traced_request(base_url: str, path: str, *args: Any, **kwargs: Any) -> Any:
                which = "swarm.lease_poll_s" if path == LEASE_PATH else metric
                frame, parent, start = tracer._open()
                try:
                    return fn(base_url, path, *args, **kwargs)
                finally:
                    tracer._close(which, f"{name} {path}", frame, parent, start)

            return traced_request
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = fn(*args, **kwargs)
                while True:
                    frame, parent, start = tracer._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(metric, name, frame, parent, start)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame, parent, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(metric, name, frame, parent, start)

        return traced

    # ------------------------------------------------------------------ #
    # installing wrappers
    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # A class keeps the raw descriptor (staticmethod, classmethod).
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_method(self, klass: type, attr: str, metric: str, around: Optional[Callable] = None) -> None:
        raw = klass.__dict__[attr]
        name = f"{klass.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            self._patch(klass, attr, type(raw)(self._wrap(metric, name, raw.__func__)))
        elif callable(raw):
            wrapped = around(raw) if around is not None else raw
            self._patch(klass, attr, self._wrap(metric, name, wrapped))

    def _wrap_function(self, module_name: str, attr: str, metric: str, everywhere: bool) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = self._wrap(metric, attr, original)
        owners = [m for m in _repro_modules() if getattr(m, attr, None) is original] if everywhere else [module]
        for owner in owners:
            self._patch(owner, attr, wrapped)

    def install(self) -> None:
        for name in MODULES:
            importlib.import_module(name)
        for metric, targets in SPANS.items():
            for target in targets:
                self._install_target(metric, target)
        self._install_counters()

    def _install_target(self, metric: str, target: str) -> None:
        if "#" in target:  # one module's binding only
            module_name, attr = target.split("#")
            self._wrap_function(module_name, attr, metric, everywhere=False)
            return
        module_name, path = target.split(":")
        if module_name == "*":
            for klass in _repro_classes():
                if path in klass.__dict__:
                    self._wrap_method(klass, path, metric)
            return
        if "." not in path:
            self._wrap_function(module_name, path, metric, everywhere=True)
            return
        class_name, attr = path.split(".")
        base = getattr(importlib.import_module(module_name), class_name)
        around = self._field_probe if class_name == "ClearanceField" else None
        if class_name == "DecisionModule":
            around = self._switch_probe
        for klass in [base, *_subclasses(base)]:
            if attr in klass.__dict__:
                self._wrap_method(klass, attr, metric, around)

    def _install_counters(self) -> None:
        from repro.core.semantics import SemanticsEngine
        from repro.service.missions import MissionService
        from repro.simulation.plantenv import RowGroupPlant
        from repro.swarm import protocol
        from repro.swarm.drone import Drone

        tracer = self

        def counting(metric: str, fn: Callable, amount: Callable[..., float]) -> Callable:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                tracer.count(metric, amount(args, result))
                return result

            return counted

        self._patch(SemanticsEngine, "_fire_ordered", counting(
            "core.steps", SemanticsEngine.__dict__["_fire_ordered"], lambda a, r: 1.0))
        step_window = RowGroupPlant.__dict__["step_window"]
        self._patch(RowGroupPlant, "step_window", counting(
            "simulation.row_group_rows", step_window, lambda a, r: float(a[0].size)))
        for attr, size in (("dumps", lambda a, r: len(r)), ("loads", lambda a, r: len(a[0]))):
            current = getattr(protocol, attr)
            counted = counting("swarm.bytes", current, size)
            for owner in [m for m in _repro_modules() if getattr(m, attr, None) is current]:
                self._patch(owner, attr, counted)

        run_lease = Drone.__dict__["_run_lease"]

        @functools.wraps(run_lease)
        def leased(drone: Any, grant: Dict[str, Any]) -> Any:
            previous = tracer._thread.op
            tracer._thread.op = tracer._session_ops.get(grant.get("session"), tracer.op)
            try:
                return run_lease(drone, grant)
            finally:
                tracer._thread.op = previous

        self._patch(Drone, "_run_lease", leased)
        attach = MissionService.__dict__["_attach_session"]

        @functools.wraps(attach)
        def attached(service: Any, mission: Any, session_id: str) -> Any:
            tracer._session_ops[session_id] = tracer.op
            return attach(service, mission, session_id)

        self._patch(MissionService, "_attach_session", attached)

    def _field_probe(self, fn: Callable) -> Callable:
        """Note each clearance field's counters the first time it is queried."""
        fields = self._fields

        @functools.wraps(fn)
        def probed(field: Any, *args: Any, **kwargs: Any) -> Any:
            if id(field) not in fields:
                # setdefault: a racing thread's later baseline never replaces the first.
                fields.setdefault(id(field), (field, field.stats.queries, field.stats.decisive))
            return fn(field, *args, **kwargs)

        return probed

    def _switch_probe(self, fn: Callable) -> Callable:
        """Count the mode switches a decision-module step makes."""
        tracer = self

        @functools.wraps(fn)
        def probed(dm: Any, *args: Any, **kwargs: Any) -> Any:
            before = len(dm.switches)
            result = fn(dm, *args, **kwargs)
            if len(dm.switches) != before:
                tracer.count("core.mode_switches", len(dm.switches) - before)
            return result

        return probed

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Tuple[float, float]]:
        """Per metric: (self seconds, calls or counted amount)."""
        merged: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
        with self._per_thread_lock:
            for totals in self._per_thread:
                for metric, (seconds, calls) in list(totals.items()):
                    merged[metric][0] += seconds
                    merged[metric][1] += calls
        return {metric: (v[0], v[1]) for metric, v in merged.items()}

    def span_count(self) -> int:
        """Spans closed, kept whole or not."""
        totals = self.totals()
        return int(sum(totals[metric][1] for metric in SPANS if metric in totals))

    def field_hit_ratio(self) -> float:
        queries = decisive = 0
        for field, queries0, decisive0 in self._fields.values():
            queries += field.stats.queries - queries0
            decisive += field.stats.decisive - decisive0
        return decisive / queries if queries else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"kept": len(self.spans), "closed": self.span_count()}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")


def _repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items()) if name.startswith("repro") and m is not None]


def _repro_classes() -> List[type]:
    seen: Dict[int, type] = {}
    for module in _repro_modules():
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                seen[id(value)] = value
    return list(seen.values())


def _subclasses(base: type) -> List[type]:
    found: List[type] = []
    pending = list(base.__subclasses__())
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found
