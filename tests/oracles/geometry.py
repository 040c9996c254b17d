"""The per-``AABB`` scalar collision queries and the neighbour-list grid A*.

:class:`~repro.geometry.workspace.Workspace` answers its scalar queries
from flat per-obstacle float tuples, as does the safe tracker's
away-direction law, and :class:`~repro.planning.astar.GridAStarPlanner`
searches a free-cell set with inlined moves.  The functions here are the
straightforward versions those replace — one
:class:`~repro.geometry.shapes.AABB` method call and a few
:class:`~repro.geometry.vec.Vec3` temporaries per box, and an A* that asks
the :class:`~repro.geometry.occupancy.OccupancyGrid` for every neighbour —
kept as the oracles the fast paths are compared against.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.geometry import Vec3, Workspace, min_distance_to_boxes
from repro.planning import Plan

Cell = Tuple[int, int]


# --------------------------------------------------------------------- #
# workspace queries
# --------------------------------------------------------------------- #
def distance_to_nearest_obstacle(workspace: Workspace, point: Vec3) -> float:
    return min_distance_to_boxes(point, workspace.obstacles)


def clearance(workspace: Workspace, point: Vec3) -> float:
    return min(distance_to_nearest_obstacle(workspace, point), workspace.distance_to_boundary(point))


def in_obstacle(workspace: Workspace, point: Vec3, margin: float = 0.0) -> bool:
    return any(obstacle.contains(point, margin=margin) for obstacle in workspace.obstacles)


def segment_is_free(workspace: Workspace, seg_a: Vec3, seg_b: Vec3, margin: float = 0.0) -> bool:
    if not (workspace.in_bounds(seg_a) and workspace.in_bounds(seg_b)):
        return False
    return not any(
        obstacle.segment_intersects(seg_a, seg_b, margin=margin) for obstacle in workspace.obstacles
    )


def away_direction(workspace: Workspace, position: Vec3) -> Vec3:
    """``SafeWaypointTracker._compute_away_direction`` as a per-``AABB`` loop."""
    nearest_box = None
    nearest_dist = float("inf")
    for obstacle in workspace.obstacles:
        dist = obstacle.distance_to_point(position)
        if dist < nearest_dist:
            nearest_dist = dist
            nearest_box = obstacle
    directions = []
    if nearest_box is not None and nearest_dist < float("inf"):
        closest = nearest_box.closest_point(position)
        away = position - closest
        if away.norm() < 1e-6:
            away = position - nearest_box.center
        directions.append(away.unit())
    boundary_dist = workspace.distance_to_boundary(position)
    if boundary_dist < nearest_dist:
        center = workspace.bounds.center
        toward_center = (center - position).with_z(0.0)
        if toward_center.norm() > 1e-6:
            directions = [toward_center.unit()]
    if not directions:
        return Vec3.zero()
    combined = Vec3.zero()
    for direction in directions:
        combined = combined + direction
    return combined.unit() if combined.norm() > 1e-6 else Vec3.zero()


# --------------------------------------------------------------------- #
# grid A*
# --------------------------------------------------------------------- #
def _distance(planner, a: Cell, b: Cell) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1]) * planner.resolution


def astar_search(planner, start: Cell, goal: Cell) -> Optional[List[Cell]]:
    """A* over ``planner.grid``, one ``neighbors``/``is_occupied_cell`` call per step."""
    grid = planner.grid
    open_heap: List[Tuple[float, Cell]] = [(0.0, start)]
    came_from: Dict[Cell, Cell] = {}
    g_score: Dict[Cell, float] = {start: 0.0}
    closed: set = set()
    while open_heap:
        _, current = heapq.heappop(open_heap)
        if current in closed:
            continue
        if current == goal:
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            path.reverse()
            return path
        closed.add(current)
        for neighbor in grid.neighbors(current, diagonal=True):
            if grid.is_occupied_cell(neighbor) or neighbor in closed:
                continue
            tentative = g_score[current] + _distance(planner, current, neighbor)
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                priority = tentative + _distance(planner, neighbor, goal)
                heapq.heappush(open_heap, (priority, neighbor))
    return None


def _nearest_free_cell(planner, cell: Cell, max_radius: int = 6) -> Optional[Cell]:
    grid = planner.grid
    if grid.in_grid(cell) and not grid.is_occupied_cell(cell):
        return cell
    best: Optional[Cell] = None
    best_dist = math.inf
    ci, cj = cell
    for di in range(-max_radius, max_radius + 1):
        for dj in range(-max_radius, max_radius + 1):
            candidate = (ci + di, cj + dj)
            if not grid.in_grid(candidate) or grid.is_occupied_cell(candidate):
                continue
            dist = math.hypot(di, dj)
            if dist < best_dist:
                best_dist = dist
                best = candidate
    return best


def _shortcut(planner, waypoints: List[Vec3]) -> List[Vec3]:
    if len(waypoints) <= 2:
        return waypoints
    result = [waypoints[0]]
    index = 0
    while index < len(waypoints) - 1:
        next_index = index + 1
        for candidate in range(len(waypoints) - 1, index, -1):
            if segment_is_free(
                planner.workspace, waypoints[index], waypoints[candidate], margin=planner.clearance * 0.9
            ):
                next_index = candidate
                break
        result.append(waypoints[next_index])
        index = next_index
    return result


def astar_plan(planner, start: Vec3, goal: Vec3, created_at: float = 0.0) -> Optional[Plan]:
    """``GridAStarPlanner.plan`` built from the oracle search, snapping and shortcutting."""
    start_cell = _nearest_free_cell(planner, planner.grid.world_to_cell(start))
    goal_cell = _nearest_free_cell(planner, planner.grid.world_to_cell(goal))
    if start_cell is None or goal_cell is None:
        return None
    cells = astar_search(planner, start_cell, goal_cell)
    if cells is None:
        return None
    raw = [start.with_z(planner.altitude)]
    raw.extend(planner.grid.cell_to_world(cell, altitude=planner.altitude) for cell in cells)
    raw.append(goal.with_z(planner.altitude))
    return Plan(
        waypoints=tuple(_shortcut(planner, raw)), goal=goal, planner=planner.name, created_at=created_at
    )
