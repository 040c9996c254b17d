"""Tests for worst-case interval reachability (the DM's ttf_2Δ substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import (
    BoundedDoubleIntegrator,
    ControlCommand,
    DoubleIntegratorParams,
    DroneState,
)
from repro.geometry import AABB, Vec3, empty_workspace
from repro.reachability import (
    ReachBall,
    SampledControllerReachability,
    WorstCaseReachability,
    reach_ball_union,
)


@pytest.fixture
def model():
    return BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0, drag=0.0))


@pytest.fixture
def workspace_with_wall():
    workspace = empty_workspace(side=20.0, ceiling=10.0)
    workspace.add_obstacle(AABB.from_footprint(10.0, 0.0, 2.0, 20.0, 8.0))
    return workspace


class TestReachBall:
    def test_contains_and_box(self):
        ball = ReachBall(center=Vec3(1, 1, 1), radius=2.0, horizon=0.5)
        assert ball.contains(Vec3(2, 1, 1))
        assert not ball.contains(Vec3(4, 1, 1))
        box = ball.as_box()
        assert box.lo == Vec3(-1, -1, -1)

    def test_union_bounding_box(self):
        balls = [
            ReachBall(Vec3(0, 0, 0), 1.0, 0.1),
            ReachBall(Vec3(5, 0, 0), 1.0, 0.1),
        ]
        box = reach_ball_union(balls)
        assert box.lo.x == pytest.approx(-1.0)
        assert box.hi.x == pytest.approx(6.0)
        with pytest.raises(ValueError):
            reach_ball_union([])


class TestWorstCaseReachability:
    def test_reach_ball_radius_grows_with_speed_and_horizon(self, model):
        reach = WorstCaseReachability(model)
        slow = reach.reach_ball(DroneState(velocity=Vec3(0.5, 0, 0)), 0.2)
        fast = reach.reach_ball(DroneState(velocity=Vec3(3.5, 0, 0)), 0.2)
        longer = reach.reach_ball(DroneState(velocity=Vec3(0.5, 0, 0)), 0.4)
        assert fast.radius > slow.radius
        assert longer.radius > slow.radius

    def test_may_leave_safe_near_wall(self, model, workspace_with_wall):
        reach = WorstCaseReachability(model)
        near = DroneState(position=Vec3(9.5, 10.0, 2.0), velocity=Vec3(3.0, 0.0, 0.0))
        far = DroneState(position=Vec3(2.0, 10.0, 2.0), velocity=Vec3(3.0, 0.0, 0.0))
        field = workspace_with_wall.clearance_field()
        assert reach.may_leave_safe(near, field, 0.2)
        assert not reach.may_leave_safe(far, field, 0.2)

    def test_unavoidable_travel_radius_includes_braking(self, model):
        reach = WorstCaseReachability(model)
        state = DroneState(velocity=Vec3(3.0, 0.0, 0.0))
        plain = model.max_displacement(3.0, 0.2)
        with_braking = reach.unavoidable_travel_radius(state, 0.2)
        assert with_braking > plain

    def test_ttf_checker_variants(self, model, workspace_with_wall):
        reach = WorstCaseReachability(model)
        field = workspace_with_wall.clearance_field()
        # A state from which pure 2Δ reach is fine but braking is not
        # (clearance 1.5 m: above the 0.8 m travel bound, below the
        # 2.1 m travel-plus-stopping bound at full speed).
        state = DroneState(position=Vec3(8.5, 10.0, 2.0), velocity=Vec3(4.0, 0.0, 0.0))
        assert reach.must_switch(state, field, 0.2)
        assert not reach.may_leave_safe(state, field, 0.2)

    @given(
        x=st.floats(min_value=1.0, max_value=9.0, allow_nan=False),
        speed=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        ax=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
        ay=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
        horizon=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_reach_ball_soundness_against_simulation(self, x, speed, ax, ay, horizon):
        """Every simulated behaviour stays inside the analytic reach ball."""
        model = BoundedDoubleIntegrator(
            DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0, drag=0.0)
        )
        reach = WorstCaseReachability(model)
        state = DroneState(position=Vec3(x, 10.0, 2.0), velocity=Vec3(speed, 0.0, 0.0))
        ball = reach.reach_ball(state, horizon)
        final = model.rollout(state, ControlCommand(acceleration=Vec3(ax, ay, 0.0)), horizon, dt=0.01)
        assert ball.contains(final.position) or state.position.distance_to(final.position) <= ball.radius + 1e-6


class TestSampledControllerReachability:
    def test_rollout_length_and_content(self, model):
        rollouts = SampledControllerReachability(model, dt=0.1)
        states = rollouts.rollout(
            DroneState(), lambda state, now: ControlCommand(acceleration=Vec3(1.0, 0, 0)), 1.0
        )
        assert len(states) == 11
        assert states[-1].velocity.x > 0.0

    def test_stays_within_predicate(self, model):
        rollouts = SampledControllerReachability(model, dt=0.05)
        braking = lambda state, now: ControlCommand(acceleration=state.velocity * -6.0)
        start = DroneState(position=Vec3(0, 0, 2), velocity=Vec3(1.0, 0, 0))
        assert rollouts.stays_within(start, braking, 2.0, lambda s: s.position.x < 1.0)

    def test_invalid_arguments(self, model):
        with pytest.raises(ValueError):
            SampledControllerReachability(model, dt=0.0)
        rollouts = SampledControllerReachability(model)
        with pytest.raises(ValueError):
            rollouts.rollout(DroneState(), lambda s, t: ControlCommand.hover(), -1.0)
