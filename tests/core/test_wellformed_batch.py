"""Batched well-formedness falsification: identical to the scalar checks.

The checker's batch plane (structure-of-arrays rollouts, one-shot
reachability, flag-level φ verdicts) must reproduce the scalar loops
exactly: the same sampled states, bit-identical rollout trajectories, and
the same check verdicts and failure details.  The scalar loops run on
:class:`tests.oracles.checker.HooklessClosedLoop`, which hides the model's
batch hooks from the checker.
"""

import numpy as np
import pytest

from repro.apps.modules import DroneClosedLoopModel, build_safe_motion_primitive
from repro.control import AggressiveTracker
from repro.core import CheckerOptions, WellFormednessChecker
from repro.dynamics import BoundedDoubleIntegrator, DoubleIntegratorParams
from repro.simulation import surveillance_city

from ..oracles.checker import HooklessClosedLoop

SEED = 5


@pytest.fixture(scope="module")
def drone_setup():
    world = surveillance_city()
    model = BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0)
    )
    module = build_safe_motion_primitive(world.workspace, model, AggressiveTracker())
    return world, model, module


def _fresh_model(drone_setup):
    world, model, module = drone_setup
    return DroneClosedLoopModel(module, model, world.workspace, seed=SEED)


def _checker(drone_setup, batched, samples=6, horizon=3.0):
    options = CheckerOptions(
        samples=samples,
        p2a_horizon=horizon,
        p2b_max_time=horizon,
        trust_certificates=False,
    )
    model = _fresh_model(drone_setup)
    return WellFormednessChecker(model if batched else HooklessClosedLoop(model), options)


class TestSamplerStreamEquivalence:
    def test_batch_sampling_matches_repeated_scalar_draws(self, drone_setup):
        scalar_model = _fresh_model(drone_setup)
        batch_model = _fresh_model(drone_setup)
        scalar = [scalar_model.sample_safe_state() for _ in range(8)]
        batch = batch_model.sample_safe_state_batch(8)
        assert [s.as_tuple() for s in scalar] == [s.as_tuple() for s in batch]
        scalar_safer = [scalar_model.sample_safer_state() for _ in range(8)]
        batch_safer = batch_model.sample_safer_state_batch(8)
        assert [s.as_tuple() for s in scalar_safer] == [s.as_tuple() for s in batch_safer]


class TestRolloutEquivalence:
    def test_batched_rollouts_are_bit_identical(self, drone_setup):
        model = _fresh_model(drone_setup)
        starts = model.sample_safe_state_batch(5)
        scalar = [model.rollout_under_safe_controller(s, 2.0) for s in starts]
        batch = model.rollout_under_safe_controller_batch(starts, 2.0)
        assert len(scalar) == len(batch)
        for scalar_traj, batch_traj in zip(scalar, batch):
            assert len(scalar_traj) == len(batch_traj)
            for a, b in zip(scalar_traj, batch_traj):
                assert a.as_tuple() == b.as_tuple()

    def test_flag_rollouts_match_scalar_predicates(self, drone_setup):
        world, model, module = drone_setup
        flag_model = _fresh_model(drone_setup)
        scalar_model = _fresh_model(drone_setup)
        starts, flags = flag_model.rollout_safe_flags_batch(4, 2.0)
        scalar_starts = [scalar_model.sample_safe_state() for _ in range(4)]
        assert [s.as_tuple() for s in starts] == [s.as_tuple() for s in scalar_starts]
        for start, sample_flags in zip(scalar_starts, flags):
            visited = scalar_model.rollout_under_safe_controller(start, 2.0)
            expected = [module.spec.safe_spec.contains(state) for state in visited]
            assert [bool(f) for f in sample_flags] == expected

    def test_worst_case_batch_matches_scalar(self, drone_setup):
        model = _fresh_model(drone_setup)
        states = model.sample_safer_state_batch(16)
        batch = model.worst_case_stays_safe_batch(states, 0.2)
        scalar = [model.worst_case_stays_safe(state, 0.2) for state in states]
        assert [bool(b) for b in batch] == scalar


class TestCheckerEquivalence:
    @pytest.mark.parametrize("check", ["check_p2a", "check_p2b", "check_p3"])
    def test_batch_and_scalar_checks_agree(self, drone_setup, check):
        _, _, module = drone_setup
        scalar = getattr(_checker(drone_setup, batched=False), check)(module.spec)
        batch = getattr(_checker(drone_setup, batched=True), check)(module.spec)
        assert (scalar.name, scalar.passed, scalar.evidence, scalar.detail) == (
            batch.name,
            batch.passed,
            batch.evidence,
            batch.detail,
        )

    def test_p3_verdict_and_failure_detail_identical(self, drone_setup):
        """Force a P3 failure: a 2Δ horizon long enough to escape φ_safe."""
        world, model, module = drone_setup
        spec = module.spec
        results = {}
        for batched in (False, True):
            model = _fresh_model(drone_setup)
            checker = WellFormednessChecker(
                model if batched else HooklessClosedLoop(model),
                CheckerOptions(samples=40, trust_certificates=False),
            )
            # A spec twin with a huge Δ makes Reach(s, *, 2Δ) escape for
            # some sample, exercising the failing branch of both planes.
            import dataclasses

            wide = dataclasses.replace(spec, delta=3.0)
            results[batched] = checker.check_p3(wide)
        scalar, batch = results[False], results[True]
        assert not scalar.passed
        assert (scalar.passed, scalar.evidence, scalar.detail) == (
            batch.passed,
            batch.evidence,
            batch.detail,
        )

    @pytest.mark.parametrize("check", ["check_p2a", "check_p2b"])
    def test_trajectory_level_batch_plane_agrees(self, drone_setup, check):
        """Models with trajectory hooks but no flag hooks hit the middle plane."""
        _, _, module = drone_setup
        inner = _fresh_model(drone_setup)

        class TrajectoryOnly:
            """Exposes sample/rollout batch hooks, hides the flags hooks."""

            sample_safe_state = inner.sample_safe_state
            sample_safer_state = inner.sample_safer_state
            sample_safe_state_batch = staticmethod(inner.sample_safe_state_batch)
            sample_safer_state_batch = staticmethod(inner.sample_safer_state_batch)
            rollout_under_safe_controller = staticmethod(inner.rollout_under_safe_controller)
            rollout_under_safe_controller_batch = staticmethod(
                inner.rollout_under_safe_controller_batch
            )
            worst_case_stays_safe = staticmethod(inner.worst_case_stays_safe)

        options = CheckerOptions(
            samples=6, p2a_horizon=3.0, p2b_max_time=3.0, trust_certificates=False
        )
        scalar = getattr(_checker(drone_setup, batched=False), check)(module.spec)
        batch = getattr(WellFormednessChecker(TrajectoryOnly(), options), check)(module.spec)
        assert (scalar.passed, scalar.evidence, scalar.detail) == (
            batch.passed,
            batch.evidence,
            batch.detail,
        )

    def test_scalar_fallback_without_batch_hooks(self, drone_setup):
        """Models without batch hooks (the protocol minimum) still work."""
        _, _, module = drone_setup
        checker = WellFormednessChecker(
            HooklessClosedLoop(_fresh_model(drone_setup)),
            CheckerOptions(samples=3, p2a_horizon=1.0, p2b_max_time=1.0, trust_certificates=False),
        )
        result = checker.check_p2a(module.spec)
        assert result.evidence == "falsification"
