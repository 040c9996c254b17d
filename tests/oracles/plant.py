"""A drone plant that runs every exact collision and clearance query on every step.

:class:`~repro.simulation.drone.DronePlant` skips the exact tests on
steps its clearance-field certificate covers and memoises its clearance
per state.  :class:`ExactDronePlant` is the same plant without either
shortcut, built on the per-box oracle queries of
:mod:`tests.oracles.geometry` — the reference the broad phase must match
bit for bit.
"""

from __future__ import annotations

from typing import Optional

from repro.dynamics import ControlCommand, DroneState
from repro.geometry import Vec3
from repro.simulation import DronePlant

from . import geometry


class ExactDronePlant(DronePlant):
    """:class:`DronePlant` with no broad phase and no clearance memo."""

    def apply(self, command: Optional[ControlCommand], dt: float, disturbance: Vec3 = Vec3()) -> None:
        if dt < 0.0:
            raise ValueError("dt must be non-negative")
        self.time += dt
        if self.collided:
            return
        command = command or ControlCommand.hover()
        if disturbance.norm() > 0.0:
            command = ControlCommand(
                acceleration=command.acceleration + disturbance, yaw_rate=command.yaw_rate
            )
        if self.battery.depleted and self.airborne:
            command = ControlCommand(acceleration=Vec3(0.0, 0.0, -self.model.max_acceleration))
        previous_position = self.state.position
        self.state = self.model.step(self.state, command, dt)
        if self.state.position.z < 0.0:
            self.state = DroneState(
                position=self.state.position.with_z(0.0),
                velocity=Vec3(self.state.velocity.x, self.state.velocity.y, 0.0),
            )
        self.distance_flown += previous_position.distance_to(self.state.position)
        self.battery = self.battery_model.step(self.battery, command, dt)
        if self.battery.depleted and self.airborne:
            self.battery_failed = True
        self._check_collision(previous_position)
        self.min_clearance = min(self.min_clearance, self.clearance)

    def _check_collision(self, previous_position: Vec3) -> None:
        position = self.state.position
        if not self.airborne:
            return
        hit_obstacle = geometry.in_obstacle(self.workspace, position, margin=self.collision_margin)
        out_of_bounds = not self.workspace.in_bounds(position)
        crossed = not geometry.segment_is_free(self.workspace, previous_position, position)
        if hit_obstacle or out_of_bounds or crossed:
            self.collided = True
            self.collision_position = position
            self.state = DroneState(position=position, velocity=Vec3.zero())

    @property
    def clearance(self) -> float:
        return geometry.clearance(self.workspace, self.state.position)
