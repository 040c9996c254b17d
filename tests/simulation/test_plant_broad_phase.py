"""The plant's Lipschitz broad phase against a plant that runs every exact query.

:class:`~repro.simulation.drone.DronePlant` skips the exact obstacle and
segment tests on steps the clearance field certifies, skips the
``min_clearance`` update when the bound at the new position is above it,
and memoises its clearance per state.  :class:`tests.oracles.plant.ExactDronePlant`
does none of that; every observable must agree with ``==``.
"""

import math
import random

import pytest

import repro.apps.stack as stack_module
from repro.apps import StackConfig, build_stack
from repro.dynamics import BoundedDoubleIntegrator, ControlCommand, DoubleIntegratorParams, DroneState
from repro.geometry import AABB, Vec3, Workspace, empty_workspace
from repro.simulation import DronePlant, surveillance_city
from repro.simulation.drone import BROAD_PHASE_SLACK

from ..geometry.test_batch_equivalence import random_workspace
from ..oracles import geometry as oracle
from ..oracles.plant import ExactDronePlant

MARGINS = (0.0, 0.05, 0.3)


def _model(max_speed=4.0):
    return BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=max_speed, max_acceleration=6.0))


def _fly(seed, plant_class=None, monkeypatch=None):
    """One Fig. 12b flight; ``plant_class`` replaces the stack's DronePlant."""
    if plant_class is not None:
        monkeypatch.setattr(stack_module, "DronePlant", plant_class)
    config = StackConfig(
        world=surveillance_city(),
        goals=[],
        random_goals=3,
        loop_goals=False,
        planner="astar",
        tracker="learned",
        protect_battery=True,
        seed=seed,
    )
    stack = build_stack(config)
    metrics, result = stack.run(duration=300.0)
    if plant_class is not None:
        monkeypatch.undo()
    return stack, metrics, result


def _plant_fields(plant):
    return (
        plant.time,
        plant.state,
        plant.battery,
        plant.collided,
        plant.collision_position,
        plant.battery_failed,
        plant.distance_flown,
        plant.min_clearance,
        plant.clearance,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fig12b_flights_match_the_exact_plant(seed, monkeypatch):
    exact_stack, exact_metrics, exact_result = _fly(seed, ExactDronePlant, monkeypatch)
    assert type(exact_stack.plant) is ExactDronePlant
    stack, metrics, result = _fly(seed)
    assert type(stack.plant) is DronePlant
    assert metrics == exact_metrics
    assert result.trajectory.samples == exact_result.trajectory.samples
    assert result.trace.signal("clearance") == exact_result.trace.signal("clearance")
    assert _plant_fields(stack.plant) == _plant_fields(exact_stack.plant)


def _near_wall_start(workspace, rng):
    """An in-bounds airborne point within ~1.5 m of some obstacle's face."""
    while True:
        box = rng.choice(workspace.obstacles)
        point = Vec3(
            rng.uniform(box.lo.x - 1.5, box.hi.x + 1.5),
            rng.uniform(box.lo.y - 1.5, box.hi.y + 1.5),
            rng.uniform(0.5, min(box.hi.z + 1.0, workspace.bounds.hi.z - 0.5)),
        )
        if workspace.in_bounds(point) and not oracle.in_obstacle(workspace, point, margin=0.4):
            return point, box


@pytest.mark.parametrize("max_speed", [4.0, 30.0])  # fast: steps long enough to clip corners
@pytest.mark.parametrize("margin", MARGINS)
def test_near_wall_steps_match_the_exact_plant(margin, max_speed):
    model = _model(max_speed)
    collided = certified = 0
    for seed in range(12):
        workspace = random_workspace(seed)
        rng = random.Random(100 + seed)
        start, box = _near_wall_start(workspace, rng)
        speed = max_speed / 2.0
        state = DroneState(
            position=start, velocity=Vec3(rng.uniform(-speed, speed), rng.uniform(-speed, speed), 0.0)
        )
        fast = DronePlant(model, workspace, initial_state=state, collision_margin=margin)
        exact = ExactDronePlant(model, workspace, initial_state=state, collision_margin=margin)
        assert _plant_fields(fast) == _plant_fields(exact)
        stats = workspace.clearance_field().stats
        before = stats.decisive
        for _ in range(80):
            toward = (box.center - fast.state.position).unit()
            jitter = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            command = ControlCommand(acceleration=(toward + jitter) * rng.uniform(0.0, 6.0))
            if rng.random() < 0.2:  # re-aim the velocity: grazing passes, not only head-on hits
                heading = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
                fast.state = exact.state = DroneState(fast.state.position, heading * max_speed)
            dt = rng.choice((0.02, 0.05, 0.1))
            gust = Vec3(rng.uniform(-1, 1), 0.0, 0.0) if rng.random() < 0.3 else Vec3()
            fast.apply(command, dt, disturbance=gust)
            exact.apply(command, dt, disturbance=gust)
            assert _plant_fields(fast) == _plant_fields(exact)
        collided += fast.collided
        certified += stats.decisive > before
    # The runs exercise both outcomes: certified skips and real collisions.
    assert collided >= 3
    assert certified >= 4


@pytest.mark.parametrize("margin", MARGINS)
def test_certified_steps_are_free_by_the_exact_queries(margin):
    """The certificate itself: every step it accepts is collision-free by the oracle."""
    pad = math.sqrt(3.0) * margin + BROAD_PHASE_SLACK
    accepted = 0
    for seed in range(4):
        workspace = random_workspace(seed)
        field = workspace.clearance_field()
        rng = random.Random(200 + seed)
        for _ in range(1500):
            prev, _box = _near_wall_start(workspace, rng)
            step = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) * rng.uniform(0.0, 1.2)
            pos = prev + step
            if not (workspace.in_bounds(prev) and workspace.in_bounds(pos)):
                continue
            if field.decides_above(prev, prev.distance_to(pos) + pad):
                accepted += 1
                assert not oracle.in_obstacle(workspace, pos, margin=margin)
                assert oracle.segment_is_free(workspace, prev, pos)
                assert oracle.clearance(workspace, prev) > prev.distance_to(pos) + math.sqrt(3.0) * margin
    assert accepted > 500


def test_obstacle_added_after_construction_is_hit():
    workspace = empty_workspace(side=20.0, ceiling=10.0)
    model = _model()
    state = DroneState(position=Vec3(2.0, 5.0, 2.0))
    fast = DronePlant(model, workspace, initial_state=state)
    exact = ExactDronePlant(model, workspace, initial_state=state)
    hover = ControlCommand.hover()
    for _ in range(5):  # warm the field's bounds over open space
        fast.apply(hover, 0.1)
        exact.apply(hover, 0.1)
    assert workspace.clearance_field().stats.decisive > 0
    workspace.add_obstacle(AABB.from_footprint(6.0, 3.0, 1.0, 4.0, 6.0))
    forward = ControlCommand(acceleration=Vec3(6.0, 0.0, 0.0))
    for _ in range(40):
        fast.apply(forward, 0.1)
        exact.apply(forward, 0.1)
        assert _plant_fields(fast) == _plant_fields(exact)
    assert fast.collided
    assert 5.9 <= fast.collision_position.x <= 7.5


@pytest.mark.parametrize("margin", MARGINS)
def test_step_through_a_thin_wall_is_a_collision(margin):
    """Both endpoints are clear of the wall; only the segment test sees the hit."""
    workspace = empty_workspace(side=20.0, ceiling=10.0)
    workspace.add_obstacle(AABB.from_footprint(5.0, 2.0, 0.3, 16.0, 8.0))
    model = _model(max_speed=40.0)
    state = DroneState(position=Vec3(3.5, 10.0, 2.0), velocity=Vec3(30.0, 0.0, 0.0))
    fast = DronePlant(model, workspace, initial_state=state, collision_margin=margin)
    exact = ExactDronePlant(model, workspace, initial_state=state, collision_margin=margin)
    fast.apply(ControlCommand.hover(), 0.1)
    exact.apply(ControlCommand.hover(), 0.1)
    assert fast.collided and fast.collision_position.x > 6.0
    assert _plant_fields(fast) == _plant_fields(exact)


def test_step_into_the_margin_is_a_collision():
    """The start's cell bound exceeds the step but not step + √3·margin.

    The start (4.49, 10.25, 2.25) lies in the cell centred 0.75 m from the
    box face at x = 5 (bound 0.75 - 0.433 = 0.317); a 0.3 m step ends
    0.21 m from the face, inside the 0.3 m margin.
    """
    workspace = empty_workspace(side=20.0, ceiling=10.0)
    workspace.add_obstacle(AABB.from_footprint(5.0, 0.0, 1.0, 20.0, 8.0))
    model = _model()
    state = DroneState(position=Vec3(4.49, 10.25, 2.25), velocity=Vec3(3.0, 0.0, 0.0))
    fast = DronePlant(model, workspace, initial_state=state, collision_margin=0.3)
    exact = ExactDronePlant(model, workspace, initial_state=state, collision_margin=0.3)
    fast.apply(ControlCommand.hover(), 0.1)
    exact.apply(ControlCommand.hover(), 0.1)
    assert fast.collided and fast.collision_position.x > 4.7
    assert _plant_fields(fast) == _plant_fields(exact)


def test_leaving_through_a_raised_floor_is_a_collision():
    """Clearance ignores the floor, so the certificate needs the explicit bounds test."""
    workspace = Workspace(bounds=AABB(Vec3(0.0, 0.0, 1.0), Vec3(20.0, 20.0, 10.0)))
    model = _model()
    state = DroneState(position=Vec3(10.0, 10.0, 1.3), velocity=Vec3(0.0, 0.0, -2.0))
    fast = DronePlant(model, workspace, initial_state=state)
    exact = ExactDronePlant(model, workspace, initial_state=state)
    for _ in range(5):
        fast.apply(ControlCommand.hover(), 0.1)
        exact.apply(ControlCommand.hover(), 0.1)
        assert _plant_fields(fast) == _plant_fields(exact)
    assert fast.collided and fast.collision_position.z < 1.0


def test_clearance_memo_follows_state_and_obstacles():
    workspace = empty_workspace(side=20.0, ceiling=10.0)
    plant = DronePlant(_model(), workspace, initial_state=DroneState(position=Vec3(5.0, 5.0, 2.0)))
    assert plant.clearance == 5.0
    workspace.add_obstacle(AABB.from_footprint(6.0, 4.0, 2.0, 2.0, 4.0))
    assert plant.clearance == 1.0
    plant.state = DroneState(position=Vec3(3.0, 5.0, 2.0))
    assert plant.clearance == 3.0


def test_field_counters_see_the_plant_traffic():
    """Broad-phase decisions go through ClearanceField.decides_above and are counted."""
    config = StackConfig(
        world=surveillance_city(),
        goals=[],
        random_goals=2,
        loop_goals=False,
        planner="astar",
        seed=4,
    )
    stack = build_stack(config)
    stats = stack.plant.workspace.clearance_field().stats
    applies = airborne = queries = decisive = 0
    apply = stack.plant.apply

    def counted(*args, **kwargs):
        # The RTA modules share the field; count only what the plant asks.
        nonlocal applies, airborne, queries, decisive
        queries0, decisive0 = stats.queries, stats.decisive
        apply(*args, **kwargs)
        queries += stats.queries - queries0
        decisive += stats.decisive - decisive0
        applies += 1
        airborne += stack.plant.airborne

    stack.plant.apply = counted
    metrics, _ = stack.run(duration=120.0)
    assert metrics.completed and not metrics.collided
    assert applies > 100
    # One min_clearance query per step, one collision certificate per airborne step.
    assert queries == applies + airborne
    assert queries // 2 < decisive < queries
