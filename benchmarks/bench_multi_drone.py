"""Multi-drone shared-airspace workloads: fleet exploration and N² separation.

Quantifies the two halves of the multi-drone PR:

* **Fleet exploration scaling** — executions/s of the
  ``multi-drone-surveillance`` scenario at N = 1, 2, 3 composed protected
  stacks under the reset-and-reuse explorer.  The N=1 row doubles as a
  sanity anchor: a fleet of one is bit-identical to ``drone-surveillance``
  (proven in ``tests/testing/test_multi_drone_differential.py``), so its
  throughput tracks the single-drone sweep.

* **Pairwise separation: batched vs scalar** — a
  :class:`~repro.core.monitor.SeparationMonitor` window of S samples ×
  N vehicles flushed through one batched N² query
  (:func:`~repro.geometry.pairwise_separations`) versus the scalar
  pairwise loop (``tests.oracles.monitors.ScalarSeparationMonitor``).  Violation sequences must be identical (the batch plane
  is bit-exact by construction) and the batched flush at least 2x faster
  (≈4x measured on the reference machine).

Both wall times feed the benchmark regression gate.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.core import MonitorSuite, SeparationMonitor
from repro.dynamics import DroneState
from repro.geometry import Vec3
from repro.testing import RandomStrategy, SystematicTester, scenario_factory
from tests.oracles.monitors import ScalarSeparationMonitor

FLEET_SIZES = (1, 2, 3)
SWEEP_EXECUTIONS = 60
SWEEP_HORIZON = 1.0
SWEEP_SEED = 11
SWEEP_REPEATS = 3

SEPARATION_VEHICLES = 8
SEPARATION_SAMPLES = 2048
SEPARATION_MINIMUM = 6.0
SEPARATION_REPEATS = 3


# --------------------------------------------------------------------- #
# fleet exploration scaling
# --------------------------------------------------------------------- #
def _fleet_sweep(drones: int) -> float:
    factory = scenario_factory(
        "multi-drone-surveillance", drones=drones, horizon=SWEEP_HORIZON
    )
    tester = SystematicTester(
        factory,
        strategy=RandomStrategy(seed=SWEEP_SEED, max_executions=SWEEP_EXECUTIONS),
    )
    started = time.perf_counter()
    report = tester.explore()
    elapsed = time.perf_counter() - started
    assert report.execution_count == SWEEP_EXECUTIONS
    assert report.ok  # the default menus are conflict-free for up to 3 drones
    return elapsed


@pytest.mark.benchmark(group="multi-drone")
def test_fleet_exploration_scaling(table_printer, benchmark_gate):
    """Executions/s as the shared airspace grows from 1 to 3 protected stacks."""
    _fleet_sweep(FLEET_SIZES[0])  # warm the per-process world/clearance memos
    walls = {
        drones: min(_fleet_sweep(drones) for _ in range(SWEEP_REPEATS))
        for drones in FLEET_SIZES
    }
    baseline = walls[FLEET_SIZES[0]]
    table_printer(
        f"Fleet exploration: {SWEEP_EXECUTIONS}-execution 'multi-drone-surveillance' sweeps",
        ["drones", "nodes/system", "wall time [s]", "executions/s", "vs 1 drone"],
        [
            [
                drones,
                6 * drones,  # surveillance, planner, relay, MP module (ac/sc/dm)
                f"{wall:.3f}",
                f"{SWEEP_EXECUTIONS / wall:.0f}",
                f"{wall / baseline:.2f}x",
            ]
            for drones, wall in walls.items()
        ],
    )
    benchmark_gate("multi-drone/explorer-2-drones", walls[2])
    if os.environ.get("BENCH_UPDATE_REFERENCE") != "1":
        # Composition overhead must stay roughly linear: a 3-stack airspace
        # may not cost more than ~6x the single stack per execution
        # (generous slack over the ~3x node count).  The ~40 ms 1-drone
        # baseline is too easily perturbed on loaded shared runners, so —
        # like bench_reset_reuse's machine-relative bar — the assertion is
        # skipped when references are being re-recorded (the CI smoke run).
        assert walls[3] <= 6.0 * baseline, (
            f"3-drone sweep {walls[3]:.3f}s vs 1-drone {baseline:.3f}s — "
            "fleet composition overhead is no longer near-linear"
        )


# --------------------------------------------------------------------- #
# pairwise separation: one batched N² query per window vs the scalar loop
# --------------------------------------------------------------------- #
class _StubEngine:
    """The minimal engine surface the monitor reads: topics and the clock."""

    def __init__(self) -> None:
        self.current_time = 0.0
        self.board = {}

    def read_topic(self, topic):
        return self.board.get(topic)


def _separation_window():
    topics = [f"drone{i}/localPosition" for i in range(SEPARATION_VEHICLES)]
    rng = random.Random(0)
    samples = []
    for step in range(SEPARATION_SAMPLES):
        values = {
            topic: DroneState(
                position=Vec3(rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0), 2.0)
            )
            for topic in topics
        }
        samples.append((0.1 * step, values))
    return topics, samples


def _flush_window(topics, samples, monitor_class):
    monitor = monitor_class(topics, min_separation=SEPARATION_MINIMUM)
    suite = MonitorSuite([monitor])
    engine = _StubEngine()
    for sample_time, values in samples:
        engine.current_time = sample_time
        engine.board = values
        suite.capture_all(engine)
    started = time.perf_counter()
    violations = suite.flush()
    elapsed = time.perf_counter() - started
    return elapsed, [(violation.time, violation.message) for violation in violations]


@pytest.mark.benchmark(group="multi-drone")
def test_separation_batched_vs_scalar(table_printer, benchmark_gate):
    """One batched N² flush ≥ 2x the scalar pair loop, identical violations."""
    topics, samples = _separation_window()
    pair_count = SEPARATION_VEHICLES * (SEPARATION_VEHICLES - 1) // 2
    scalar_wall, scalar_violations = min(
        (_flush_window(topics, samples, ScalarSeparationMonitor) for _ in range(SEPARATION_REPEATS)),
        key=lambda result: result[0],
    )
    batched_wall, batched_violations = min(
        (_flush_window(topics, samples, SeparationMonitor) for _ in range(SEPARATION_REPEATS)),
        key=lambda result: result[0],
    )
    assert batched_violations == scalar_violations, (
        "batched separation verdicts diverged from the scalar pairwise loop"
    )
    table_printer(
        f"Pairwise separation: {SEPARATION_SAMPLES}-sample window, "
        f"{SEPARATION_VEHICLES} vehicles ({pair_count} pairs/sample)",
        ["plane", "wall time [ms]", "pair checks/s", "speedup"],
        [
            [
                "scalar pair loop",
                f"{scalar_wall * 1e3:.1f}",
                f"{SEPARATION_SAMPLES * pair_count / scalar_wall:,.0f}",
                "1.0x",
            ],
            [
                "batched N^2 query",
                f"{batched_wall * 1e3:.1f}",
                f"{SEPARATION_SAMPLES * pair_count / batched_wall:,.0f}",
                f"{scalar_wall / batched_wall:.1f}x",
            ],
        ],
    )
    benchmark_gate("multi-drone/separation-batched", batched_wall)
    assert scalar_wall / batched_wall >= 2.0, (
        f"expected >= 2x on the batched separation flush, measured "
        f"{scalar_wall / batched_wall:.1f}x"
    )
