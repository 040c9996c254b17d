"""The per-cell occupancy rasterisation and the brushfire distance transform.

:meth:`~repro.geometry.occupancy.OccupancyGrid.from_workspace` marks cells
with one batched ``in_obstacle`` query, and
:meth:`~repro.geometry.occupancy.OccupancyGrid.distance_to_occupied` runs a
vectorised two-pass chamfer sweep.  The functions here are the loops those
replace: one scalar ``in_obstacle`` call per cell, and a multi-source
Dijkstra over the 8-connected grid.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Tuple

import numpy as np

from repro.geometry import OccupancyGrid, Vec3, Workspace


def from_workspace_scalar(
    workspace: Workspace,
    resolution: float = 0.5,
    inflate: float = 0.0,
    altitude: float = 2.0,
) -> OccupancyGrid:
    """``OccupancyGrid.from_workspace`` as a per-cell loop: the cells it must mark."""
    if resolution <= 0.0:
        raise ValueError("grid resolution must be positive")
    lo, hi = workspace.bounds.lo, workspace.bounds.hi
    nx = max(1, int(math.ceil((hi.x - lo.x) / resolution)))
    ny = max(1, int(math.ceil((hi.y - lo.y) / resolution)))
    occupied = np.zeros((nx, ny), dtype=bool)
    for i in range(nx):
        for j in range(ny):
            x = lo.x + (i + 0.5) * resolution
            y = lo.y + (j + 0.5) * resolution
            point = Vec3(x, y, altitude)
            if workspace.in_obstacle(point, margin=inflate):
                occupied[i, j] = True
    return OccupancyGrid(origin_x=lo.x, origin_y=lo.y, resolution=resolution, occupied=occupied)


def distance_to_occupied_dijkstra(grid: OccupancyGrid) -> np.ndarray:
    """Brushfire (multi-source Dijkstra) octile distance to the nearest occupied cell."""
    nx, ny = grid.shape
    inf = float("inf")
    dist = np.full((nx, ny), inf, dtype=float)
    heap: List[Tuple[float, int, int]] = []
    for i in range(nx):
        for j in range(ny):
            if grid.occupied[i, j]:
                dist[i, j] = 0.0
                heapq.heappush(heap, (0.0, i, j))
    if not heap:
        return dist
    diag = math.sqrt(2.0) * grid.resolution
    straight = grid.resolution
    while heap:
        d, i, j = heapq.heappop(heap)
        if d > dist[i, j]:
            continue
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)):
            ni, nj = i + di, j + dj
            if not (0 <= ni < nx and 0 <= nj < ny):
                continue
            step = diag if di != 0 and dj != 0 else straight
            nd = d + step
            if nd < dist[ni, nj]:
                dist[ni, nj] = nd
                heapq.heappush(heap, (nd, ni, nj))
    return dist
