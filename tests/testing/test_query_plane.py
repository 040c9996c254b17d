"""End-to-end equivalence of the batched/cached safety-query plane.

The tentpole guarantee of the query-plane refactor: routing the stack's
clearance checks through the ClearanceField memo and evaluating monitors
in vectorised windows changes *nothing* about what the systematic tester
observes — same violations, same times, same trails.  The uncached
reference runs every build on a private world whose clearance queries go
to :class:`tests.oracles.clearance.ExactClearanceField`.
"""

import numpy as np
import pytest

from repro.apps import scenarios as app_scenarios
from repro.apps.scenarios import _shared_world
from repro.testing import RandomStrategy, SystematicTester, scenario_factory

from ..oracles.clearance import ExactClearanceField, exact_scenarios


def _report_key(report):
    return [
        (
            record.index,
            record.steps,
            tuple((v.time, v.monitor, v.message) for v in record.violations),
            tuple(record.trail or ()),
        )
        for record in report.executions
    ]


def _sweep(executions=40, *, monitor_window=64, unsafe=True, seed=11):
    factory = scenario_factory(
        "drone-surveillance",
        horizon=2.0,
        include_unsafe_position=unsafe,
    )
    tester = SystematicTester(
        factory,
        strategy=RandomStrategy(seed=seed, max_executions=executions),
        monitor_window=monitor_window,
    )
    return tester.explore()


class TestQueryPlaneEquivalence:
    def test_cached_plane_reproduces_uncached_reports(self):
        cached = _sweep()
        shared = _shared_world().workspace.clearance_field().stats
        queries = shared.queries
        with exact_scenarios():
            uncached = _sweep()
            # Builds inside the block get private worlds with the exact field.
            world = app_scenarios._shared_world()
            assert isinstance(world.workspace.clearance_field(), ExactClearanceField)
        assert shared.queries == queries  # the reference never touched the cache
        assert _report_key(cached) == _report_key(uncached)
        assert not cached.ok  # the unsafe variant must produce violations

    def test_windowed_monitors_reproduce_per_step_reports(self):
        windowed = _sweep(monitor_window=64)
        per_step = _sweep(monitor_window=1)
        assert _report_key(windowed) == _report_key(per_step)

    def test_geofence_scenario_unaffected(self):
        factory = scenario_factory("multi-obstacle-geofence", include_breach=True)
        reports = [
            SystematicTester(
                factory,
                strategy=RandomStrategy(seed=5, max_executions=24),
                monitor_window=window,
            ).explore()
            for window in (1, 64)
        ]
        assert _report_key(reports[0]) == _report_key(reports[1])
        assert not reports[0].ok

    def test_monitor_window_validated(self):
        with pytest.raises(ValueError):
            SystematicTester(lambda: None, monitor_window=0)


class TestWarmOracle:
    def test_scenario_builders_share_one_world(self):
        factory = scenario_factory("drone-surveillance", horizon=1.0)
        first = factory()
        second = factory()
        assert first is not second  # fresh model per execution...
        world = _shared_world()
        assert world is _shared_world()  # ...but one immutable world per process

    def test_clearance_field_cache_warms_across_executions(self):
        # Since the dense whole-workspace grid (ClearanceField.densify),
        # the shared oracle is pre-warmed at world build: in-grid queries
        # are array lookups, and only off-grid cells touch the lazy dict.
        world = _shared_world()
        field = world.workspace.clearance_field()
        assert field.dense_cells > 0, "the shared world densifies its field"
        before_hits = field.stats.dense_hits
        _sweep(executions=4, unsafe=False)
        assert field.stats.dense_hits > before_hits, (
            "explored executions must hit the shared dense grid"
        )
        lazy_before = len(field)
        _sweep(executions=4, unsafe=False)
        # Re-running the same workload stays on the precomputed cells.
        assert len(field) == lazy_before
