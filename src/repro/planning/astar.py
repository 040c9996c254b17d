"""Grid A* planner: the certified motion planner (SC of the planner RTA module).

Section V-C of the paper wraps the (buggy) third-party RRT* planner in an
RTA module; the safe counterpart must be a planner that is simple enough
to certify.  A deterministic A* search over an inflated occupancy grid,
followed by plan validation, is that counterpart here: it always returns a
plan whose every segment keeps the configured clearance, or reports that
no such plan exists.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..geometry import OccupancyGrid, Vec3, Workspace
from .plan import Plan

Cell = Tuple[int, int]

#: The 8-connected moves, in :meth:`OccupancyGrid.neighbors` order.
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


@dataclass
class GridAStarPlanner:
    """Deterministic A* over a 2-D occupancy grid at a fixed flight altitude."""

    workspace: Workspace
    resolution: float = 0.5
    clearance: float = 1.0
    altitude: float = 2.0
    name: str = "grid-astar"

    def __post_init__(self) -> None:
        if self.resolution <= 0.0:
            raise ValueError("resolution must be positive")
        if self.clearance < 0.0:
            raise ValueError("clearance must be non-negative")
        self.grid = OccupancyGrid.from_workspace(
            self.workspace, resolution=self.resolution, inflate=self.clearance, altitude=self.altitude
        )
        # Occupancy as nested Python lists: a neighbour test reads a bool
        # instead of a numpy scalar.
        self._occupied_rows = self.grid.occupied.tolist()
        # (di, dj, step cost) per move; hypot ignores sign, so each cost is
        # exactly the distance between a cell and that neighbour.
        self._moves = tuple((di, dj, math.hypot(di, dj) * self.resolution) for di, dj in _MOVES)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, start: Vec3, goal: Vec3, created_at: float = 0.0) -> Optional[Plan]:
        """Plan from ``start`` to ``goal``; returns None when no safe path exists."""
        start_cell = self._nearest_free_cell(self.grid.world_to_cell(start))
        goal_cell = self._nearest_free_cell(self.grid.world_to_cell(goal))
        if start_cell is None or goal_cell is None:
            return None
        cells = self._search(start_cell, goal_cell)
        if cells is None:
            return None
        waypoints = self._cells_to_waypoints(start, goal, cells)
        return Plan(waypoints=tuple(waypoints), goal=goal, planner=self.name, created_at=created_at)

    def _search(self, start: Cell, goal: Cell) -> Optional[List[Cell]]:
        """A* over the free cells; step cost and heuristic are the metric cell distance.

        Out-of-grid and occupied neighbours are skipped, and each step cost
        and heuristic is ``hypot(di, dj) * resolution`` exactly as
        :meth:`OccupancyGrid.neighbors` + a cell-distance helper would give
        them, so heap pushes — and plans — match the neighbour-list search.
        """
        occupied = self._occupied_rows
        nx, ny = self.grid.shape
        moves = self._moves
        resolution = self.resolution
        hypot = math.hypot
        heappush = heapq.heappush
        heappop = heapq.heappop
        inf = math.inf
        goal_i, goal_j = goal
        open_heap: List[Tuple[float, Cell]] = [(0.0, start)]
        came_from: Dict[Cell, Cell] = {}
        g_score: Dict[Cell, float] = {start: 0.0}
        closed: set = set()
        while open_heap:
            _, current = heappop(open_heap)
            if current in closed:
                continue
            if current == goal:
                return self._reconstruct(came_from, current)
            closed.add(current)
            ci, cj = current
            g_current = g_score[current]
            for di, dj, step in moves:
                ni = ci + di
                nj = cj + dj
                neighbor = (ni, nj)
                if not (0 <= ni < nx and 0 <= nj < ny) or occupied[ni][nj] or neighbor in closed:
                    continue
                tentative = g_current + step
                if tentative < g_score.get(neighbor, inf):
                    g_score[neighbor] = tentative
                    came_from[neighbor] = current
                    priority = tentative + hypot(ni - goal_i, nj - goal_j) * resolution
                    heappush(open_heap, (priority, neighbor))
        return None

    @staticmethod
    def _reconstruct(came_from: Dict[Cell, Cell], current: Cell) -> List[Cell]:
        path = [current]
        while current in came_from:
            current = came_from[current]
            path.append(current)
        path.reverse()
        return path

    def _nearest_free_cell(self, cell: Cell, max_radius: int = 6) -> Optional[Cell]:
        """The cell itself if free, otherwise the closest free cell nearby."""
        if self.grid.in_grid(cell) and not self.grid.is_occupied_cell(cell):
            return cell
        best: Optional[Cell] = None
        best_dist = math.inf
        ci, cj = cell
        for di in range(-max_radius, max_radius + 1):
            for dj in range(-max_radius, max_radius + 1):
                candidate = (ci + di, cj + dj)
                if not self.grid.in_grid(candidate) or self.grid.is_occupied_cell(candidate):
                    continue
                dist = math.hypot(di, dj)
                if dist < best_dist:
                    best_dist = dist
                    best = candidate
        return best

    # ------------------------------------------------------------------ #
    # path post-processing
    # ------------------------------------------------------------------ #
    def _cells_to_waypoints(self, start: Vec3, goal: Vec3, cells: List[Cell]) -> List[Vec3]:
        raw = [start.with_z(self.altitude)]
        raw.extend(self.grid.cell_to_world(cell, altitude=self.altitude) for cell in cells)
        raw.append(goal.with_z(self.altitude))
        return self._shortcut(raw)

    def _shortcut(self, waypoints: List[Vec3]) -> List[Vec3]:
        """Greedy line-of-sight shortcutting that preserves the clearance margin."""
        if len(waypoints) <= 2:
            return waypoints
        result = [waypoints[0]]
        index = 0
        while index < len(waypoints) - 1:
            # Find the furthest waypoint reachable in a straight, safe segment.
            next_index = index + 1
            for candidate in range(len(waypoints) - 1, index, -1):
                if self.workspace.segment_is_free(
                    waypoints[index], waypoints[candidate], margin=self.clearance * 0.9
                ):
                    next_index = candidate
                    break
            result.append(waypoints[next_index])
            index = next_index
        return result
