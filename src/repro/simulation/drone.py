"""The simulated drone plant: kinematics, battery, and collision bookkeeping.

This is the reproduction's stand-in for the Gazebo + PX4-in-the-loop plant
of the paper's evaluation.  It advances the selected dynamics model with
the currently commanded control, drains the battery, and detects
collisions against the workspace — the ground truth the mission metrics
are computed from.

Broad phase
-----------
Clearance is 1-Lipschitz, so a step from ``prev`` to ``pos`` cannot touch
any obstacle inflated by the collision margin ``m`` while
``clearance(prev) > |pos - prev| + √3·m`` (a point inside a box grown by
``m`` on every face lies within ``√3·m`` of the box).  Each physics step
first asks the workspace's :class:`~repro.geometry.clearance.ClearanceField`
whether its cached lower bound proves that; only steps it cannot certify
run the exact containment and segment tests.  The running minimum
clearance is skipped the same way when the bound at ``pos`` already
exceeds it.  Every skipped test would have returned the answer the
certificate implies, so the plant's trajectory, collision flag and
``min_clearance`` are bit-identical to running every exact query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..dynamics import (
    BatteryModel,
    BatteryState,
    ControlCommand,
    DroneState,
    DynamicsModel,
)
from ..geometry import Vec3, Workspace


#: Slack on the broad-phase certificate, far above the exact tests' own
#: tolerances (the slab test's ``1e-12`` parallel case, rounding in the
#: inflated bounds), so a certified step can never be one they would flag.
BROAD_PHASE_SLACK = 1e-9

#: A point inside a box grown by ``m`` on every face is within ``√3·m`` of it.
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class BatteryStatus:
    """The battery sensor reading published to the battery-safety RTA module."""

    charge: float
    altitude: float

    @property
    def depleted(self) -> bool:
        return self.charge <= 0.0


@dataclass
class PlantStatus:
    """A snapshot of everything the simulator knows about the plant."""

    time: float
    state: DroneState
    battery: BatteryState
    collided: bool
    distance_flown: float


class DronePlant:
    """Ground-truth drone: dynamics + battery + collision detection."""

    def __init__(
        self,
        model: DynamicsModel,
        workspace: Workspace,
        battery_model: Optional[BatteryModel] = None,
        initial_state: Optional[DroneState] = None,
        initial_charge: float = 1.0,
        collision_margin: float = 0.0,
        ground_altitude: float = 0.15,
    ) -> None:
        self.model = model
        self.workspace = workspace
        self.battery_model = battery_model or BatteryModel()
        self._initial_state = initial_state or DroneState(position=Vec3(1.0, 1.0, 2.0))
        self._initial_charge = initial_charge
        self.collision_margin = collision_margin
        self.ground_altitude = ground_altitude
        # The broad phase's cached clearance bounds; the field drops them
        # itself when the workspace grows an obstacle.
        self._field = workspace.clearance_field()
        # The exact clearance of ``_clearance_state`` while the workspace
        # has ``_clearance_obstacles`` obstacles.
        self._clearance_state: Optional[DroneState] = None
        self._clearance_obstacles = 0
        self._clearance_value = math.inf
        self.reset()

    def reset(self) -> None:
        """Restore the plant to its construction-time state (Resettable).

        The workspace geometry and dynamics model are immutable and stay
        warm; only the evolving plant state — pose, battery, collision
        bookkeeping, odometry — rewinds, which lets a co-simulation reuse
        one plant across missions instead of rebuilding it.
        """
        self.state = self._initial_state
        self.battery = BatteryState(charge=self._initial_charge)
        self.collided = False
        self.collision_position: Optional[Vec3] = None
        self.battery_failed = False
        self.distance_flown = 0.0
        self.time = 0.0
        self.min_clearance = self.clearance

    # ------------------------------------------------------------------ #
    # plant evolution
    # ------------------------------------------------------------------ #
    def apply(self, command: Optional[ControlCommand], dt: float, disturbance: Vec3 = Vec3()) -> None:
        """Advance the plant by ``dt`` seconds under ``command`` (None = no thrust)."""
        if dt < 0.0:
            raise ValueError("dt must be non-negative")
        self.time += dt
        if self.collided:
            # A collided drone stays where it hit; only the clock advances.
            return
        command = command or ControlCommand.hover()
        if disturbance.norm() > 0.0:
            command = ControlCommand(
                acceleration=command.acceleration + disturbance, yaw_rate=command.yaw_rate
            )
        if self.battery.depleted and self.airborne:
            # No charge left: the drone free-falls (modelled as strong descent).
            command = ControlCommand(acceleration=Vec3(0.0, 0.0, -self.model.max_acceleration))
        previous_position = self.state.position
        self.state = self.model.step(self.state, command, dt)
        # Keep the drone on or above the ground plane.
        if self.state.position.z < 0.0:
            self.state = DroneState(
                position=self.state.position.with_z(0.0),
                velocity=Vec3(self.state.velocity.x, self.state.velocity.y, 0.0),
            )
        step = previous_position.distance_to(self.state.position)
        self.distance_flown += step
        self.battery = self.battery_model.step(self.battery, command, dt)
        if self.battery.depleted and self.airborne:
            # Latch the failure: running out of charge in the air is a crash
            # (φ_bat violation) even though the drone subsequently falls to
            # the ground.
            self.battery_failed = True
        self._update_collision(previous_position, step)
        # A bound above the running minimum leaves it unchanged.
        if not self._field.decides_above(self.state.position, self.min_clearance):
            self.min_clearance = min(self.min_clearance, self.clearance)

    def _update_collision(self, previous_position: Vec3, step: float) -> None:
        position = self.state.position
        # Only collisions while airborne count: sitting on the ground is fine.
        if not self.airborne:
            return
        if (
            self.workspace.in_bounds(previous_position)
            and self.workspace.in_bounds(position)
            and self._field.decides_above(
                previous_position, step + _SQRT3 * self.collision_margin + BROAD_PHASE_SLACK
            )
        ):
            return  # certified: no point of the step is near an obstacle
        hit_obstacle = self.workspace.in_obstacle(position, margin=self.collision_margin)
        out_of_bounds = not self.workspace.in_bounds(position)
        crossed = not self.workspace.segment_is_free(previous_position, position)
        if hit_obstacle or out_of_bounds or crossed:
            self.collided = True
            self.collision_position = position
            self.state = DroneState(position=position, velocity=Vec3.zero())

    # ------------------------------------------------------------------ #
    # derived observations
    # ------------------------------------------------------------------ #
    @property
    def airborne(self) -> bool:
        """True while the drone is above the ground-contact altitude."""
        return self.state.position.z > self.ground_altitude

    @property
    def clearance(self) -> float:
        """Current clearance to the nearest obstacle or boundary.

        Memoised per state object (and obstacle count), so the simulator's
        trace sample reuses the value :meth:`apply` computed.
        """
        state = self.state
        obstacles = len(self.workspace.obstacles)
        if state is not self._clearance_state or obstacles != self._clearance_obstacles:
            self._clearance_value = self.workspace.clearance(state.position)
            self._clearance_state = state
            self._clearance_obstacles = obstacles
        return self._clearance_value

    @property
    def crashed(self) -> bool:
        """True if the drone collided or ran out of battery while airborne."""
        return self.collided or self.battery_failed

    @property
    def landed(self) -> bool:
        """True once the drone is on the ground and essentially at rest."""
        return (not self.airborne) and self.state.speed < 0.3

    def battery_status(self) -> BatteryStatus:
        """The value published on the battery-status topic."""
        return BatteryStatus(charge=self.battery.charge, altitude=self.state.position.z)

    def status(self) -> PlantStatus:
        """A snapshot for logging and metrics."""
        return PlantStatus(
            time=self.time,
            state=self.state,
            battery=self.battery,
            collided=self.collided,
            distance_flown=self.distance_flown,
        )
