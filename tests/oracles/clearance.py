"""An exact stand-in for the workspace's :class:`~repro.geometry.ClearanceField`.

Every clearance threshold query of the stack — φ_safe/φ_safer membership,
the DM's ``ttf_2Δ`` switching check, the φ_obs/φ_Inv monitors, the
reachability queries and the safe tracker's urgency law — goes through
``workspace.clearance_field()``.  :class:`ExactClearanceField` answers the
same queries with no cache at all: each one computes
``workspace.clearance(p)`` and compares it.  Installed on a private world
(:func:`exact_world`, :func:`exact_scenarios`), it reproduces the stack as
it ran before the cache existed, which the cached plane must match with
``==``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.geometry import Vec3, Workspace
from repro.simulation import MissionWorld, surveillance_city


class ExactClearanceField:
    """The :class:`~repro.geometry.ClearanceField` queries the stack makes, uncached."""

    def __init__(self, workspace: Workspace) -> None:
        self.workspace = workspace

    def clearance(self, point: Vec3) -> float:
        return self.workspace.clearance(point)

    def exceeds(self, point: Vec3, threshold: float, strict: bool = True) -> bool:
        clearance = self.workspace.clearance(point)
        return (clearance > threshold) if strict else (clearance >= threshold)

    def decides_above(self, point: Vec3, threshold: float, margin: float = 0.0) -> bool:
        # Never decisive: every caller falls through to the exact comparison.
        return False

    def handout(self, resolution: float = 0.5) -> "ExactClearanceField":
        """Stands in for ``Workspace.clearance_field`` on the patched workspace."""
        return self


def install_exact_field(workspace: Workspace) -> ExactClearanceField:
    """Make ``workspace.clearance_field()`` return an :class:`ExactClearanceField`."""
    field = ExactClearanceField(workspace)
    workspace.clearance_field = field.handout
    return field


def exact_world() -> MissionWorld:
    """A private surveillance city whose workspace hands out the exact field."""
    world = surveillance_city()
    install_exact_field(world.workspace)
    return world


@contextmanager
def exact_scenarios() -> Iterator[None]:
    """Scenario builds use a private :func:`exact_world` instead of the shared one.

    Every build inside the block gets its own world, as builds did before
    the process-wide warm world existed; builders with a world of their
    own (the pillar field) are unaffected.
    """
    from repro.apps import scenarios

    shared = scenarios._shared_world
    scenarios._shared_world = exact_world
    try:
        yield
    finally:
        scenarios._shared_world = shared
