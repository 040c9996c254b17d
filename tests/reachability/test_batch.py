"""Batch/scalar equivalence for the worst-case reachability queries."""

import random

import numpy as np
import pytest

from repro.dynamics import BoundedDoubleIntegrator, DoubleIntegratorParams, DroneState
from repro.geometry import Vec3, grid_city_workspace
from repro.reachability import LevelSetAnalysis, WorstCaseReachability, states_as_arrays

from ..oracles.clearance import ExactClearanceField


@pytest.fixture(scope="module")
def setup():
    workspace = grid_city_workspace()
    model = BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0)
    )
    rng = random.Random(5)
    states = [
        DroneState(
            position=workspace.bounds.random_point(rng),
            velocity=Vec3(rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-1, 1)),
        )
        for _ in range(500)
    ]
    return workspace, model, WorstCaseReachability(model), states


@pytest.mark.parametrize("horizon", [0.0, 0.2, 1.0, 3.0])
class TestBatchedReachability:
    def test_max_displacement_batch_bit_equal(self, setup, horizon):
        _, model, _, states = setup
        _, speeds = states_as_arrays(states)
        scalar = np.array([model.max_displacement(s.speed, horizon) for s in states])
        assert (scalar == model.max_displacement_batch(speeds, horizon)).all()

    def test_stopping_distance_batch_bit_equal(self, setup, horizon):
        _, model, _, states = setup
        _, speeds = states_as_arrays(states)
        scalar = np.array([model.stopping_distance(s.speed) for s in states])
        assert (scalar == model.stopping_distance_batch(speeds)).all()

    def test_may_leave_safe_batch_bit_equal(self, setup, horizon):
        workspace, _, reach, states = setup
        positions, speeds = states_as_arrays(states)
        field = workspace.clearance_field()
        for margin in (0.0, 0.05):
            scalar = np.array(
                [reach.may_leave_safe(s, field, horizon, margin=margin) for s in states]
            )
            batch = reach.may_leave_safe_batch(positions, speeds, workspace, horizon, margin=margin)
            assert (scalar == batch).all()

    def test_must_switch_batch_bit_equal(self, setup, horizon):
        workspace, _, reach, states = setup
        positions, speeds = states_as_arrays(states)
        field = workspace.clearance_field()
        scalar = np.array([reach.must_switch(s, field, horizon, margin=0.05) for s in states])
        batch = reach.must_switch_batch(positions, speeds, workspace, horizon, margin=0.05)
        assert (scalar == batch).all()


class TestFieldBackedScalarPath:
    def test_field_does_not_change_decisions(self, setup):
        workspace, _, reach, states = setup
        field = workspace.clearance_field()
        exact = ExactClearanceField(workspace)
        for state in states[:250]:
            for horizon in (0.2, 1.0):
                assert reach.may_leave_safe(
                    state, field, horizon, margin=0.05
                ) == reach.may_leave_safe(state, exact, horizon, margin=0.05)
                assert reach.must_switch(
                    state, field, horizon, margin=0.05
                ) == reach.must_switch(state, exact, horizon, margin=0.05)


class TestLevelSetBatch:
    def test_backward_reachable_set_batches(self, setup):
        workspace, model, _, states = setup
        analysis = LevelSetAnalysis(workspace, model, resolution=0.5)
        brs = analysis.backward_reachable_set(0.2)
        positions, _ = states_as_arrays(states)
        contains_scalar = np.array([brs.contains(s.position) for s in states])
        assert (contains_scalar == brs.contains_batch(positions)).all()
        margin_scalar = np.array([brs.clearance_margin(s.position) for s in states])
        assert (margin_scalar == brs.clearance_margin_batch(positions)).all()
