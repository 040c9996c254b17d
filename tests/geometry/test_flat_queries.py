"""The flat scalar queries and the table-driven A* against their oracles.

``Workspace.clearance``/``in_obstacle``/``segment_is_free`` and the safe
tracker's away direction loop over flat per-obstacle float tuples and
``GridAStarPlanner`` searches a free-cell set; :mod:`tests.oracles.geometry`
keeps the per-``AABB`` loops and the neighbour-list search they replace.  Every answer must match with ``==``:
points inside boxes, exactly on faces, edges and corners, and outside the
bounds; segments that are axis-parallel, zero-length or grazing, with and
without a margin.
"""

import itertools
import math
import random

import pytest

from repro.control import SafeWaypointTracker
from repro.dynamics import BoundedDoubleIntegrator, DoubleIntegratorParams
from repro.geometry import AABB, Vec3, empty_workspace
from repro.planning import GridAStarPlanner
from repro.reachability import synthesize_safe_tracker
from repro.simulation import surveillance_city

from ..oracles import geometry as oracle
from .test_batch_equivalence import random_workspace

SEEDS = range(6)
MARGINS = (0.0, 0.05, 0.3)


def probe_points(workspace, seed, count=150):
    """Random points plus every box's center, face centers, edges, corners and near misses."""
    rng = random.Random(seed + 11)
    points = [workspace.bounds.random_point(rng) for _ in range(count)]
    points += [
        Vec3(-1.0, 5.0, 2.0),
        Vec3(50.0, 50.0, 50.0),
        Vec3(3.0, 3.0, 0.0),
        Vec3(5.0, -0.5, 11.0),
    ]
    for box in workspace.obstacles:
        xs = (box.lo.x, (box.lo.x + box.hi.x) / 2.0, box.hi.x)
        ys = (box.lo.y, (box.lo.y + box.hi.y) / 2.0, box.hi.y)
        zs = (box.lo.z, (box.lo.z + box.hi.z) / 2.0, box.hi.z)
        for x, y, z in itertools.product(xs, ys, zs):
            points.append(Vec3(x, y, z))
            points.append(Vec3(math.nextafter(x, -math.inf), y, z))
            points.append(Vec3(x, math.nextafter(y, math.inf), z))
            points.append(Vec3(x + 0.05, y - 0.3, z + 0.05))
    return points


def probe_segments(workspace, points, seed):
    rng = random.Random(seed + 13)
    segments = list(zip(points[:-1], points[1:]))
    for a in points[::5]:
        segments.append((a, a))  # zero length
        axis_step = rng.uniform(-6.0, 6.0)
        segments.append((a, Vec3(a.x + axis_step, a.y, a.z)))
        segments.append((a, Vec3(a.x, a.y + axis_step, a.z)))
        segments.append((a, Vec3(a.x, a.y, a.z + axis_step)))
        segments.append((a, Vec3(a.x + 1e-13, a.y + axis_step, a.z)))  # nearly parallel
    for box in workspace.obstacles:
        # Along a face, along an edge and corner to corner.
        segments.append((Vec3(box.lo.x, box.lo.y - 1.0, 1.0), Vec3(box.lo.x, box.hi.y + 1.0, 1.0)))
        segments.append((Vec3(box.lo.x, box.lo.y, box.hi.z), Vec3(box.hi.x, box.lo.y, box.hi.z)))
        segments.append((box.lo, box.hi))
    return segments


@pytest.mark.parametrize("seed", SEEDS)
class TestFlatWorkspaceQueries:
    def test_clearance_and_distance(self, seed):
        workspace = random_workspace(seed)
        for point in probe_points(workspace, seed):
            assert workspace.distance_to_nearest_obstacle(point) == oracle.distance_to_nearest_obstacle(
                workspace, point
            )
            assert workspace.clearance(point) == oracle.clearance(workspace, point)

    def test_in_obstacle(self, seed):
        workspace = random_workspace(seed)
        for margin in MARGINS + (-0.1,):
            for point in probe_points(workspace, seed):
                assert workspace.in_obstacle(point, margin=margin) == oracle.in_obstacle(
                    workspace, point, margin=margin
                )

    def test_segment_is_free(self, seed):
        workspace = random_workspace(seed)
        segments = probe_segments(workspace, probe_points(workspace, seed, count=80), seed)
        hits = 0
        for margin in MARGINS:
            for a, b in segments:
                free = workspace.segment_is_free(a, b, margin=margin)
                assert free == oracle.segment_is_free(workspace, a, b, margin=margin), (a, b, margin)
                hits += not free
        assert 0 < hits < len(segments) * len(MARGINS)


def test_empty_workspace_queries():
    workspace = empty_workspace()
    point = Vec3(3.0, 4.0, 2.0)
    assert workspace.distance_to_nearest_obstacle(point) == math.inf
    assert workspace.clearance(point) == oracle.clearance(workspace, point)
    assert not workspace.in_obstacle(point, margin=0.3)
    assert workspace.segment_is_free(point, Vec3(8.0, 8.0, 3.0), margin=0.3)


def test_added_obstacle_reaches_the_flat_queries():
    workspace = empty_workspace()
    point = Vec3(5.0, 5.0, 1.0)
    assert workspace.clearance(point) == oracle.clearance(workspace, point)
    workspace.add_obstacle(AABB.from_footprint(4.0, 4.0, 2.0, 2.0, 3.0))
    assert workspace.in_obstacle(point)
    assert workspace.clearance(point) == oracle.clearance(workspace, point) == 0.0
    assert not workspace.segment_is_free(Vec3(1.0, 5.0, 1.0), Vec3(9.0, 5.0, 1.0))


def test_collapsing_negative_margin_raises_like_the_box():
    workspace = empty_workspace()
    workspace.add_obstacle(AABB.from_footprint(4.0, 4.0, 0.4, 3.0, 3.0))
    a, b = Vec3(1.0, 5.0, 1.0), Vec3(9.0, 5.0, 1.0)
    for query in (workspace.segment_is_free, lambda *args, **kw: oracle.segment_is_free(workspace, *args, **kw)):
        with pytest.raises(ValueError, match="collapsed"):
            query(a, b, margin=-0.3)


def _bits(vector):
    return tuple(component.hex() for component in vector.as_tuple())


@pytest.mark.parametrize("seed", range(3))
def test_away_direction_matches_the_per_box_loop(seed):
    workspace = surveillance_city().workspace
    model = BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0))
    params, _ = synthesize_safe_tracker(model, workspace, safe_speed_fraction=0.35)
    tracker = SafeWaypointTracker(params=params, workspace=workspace)
    # Inside boxes (the degenerate closest-point case), on faces and
    # corners, near the walls and outside the bounds, plus random points.
    points = probe_points(workspace, seed, count=300)
    rng = random.Random(seed)
    points += [
        Vec3(rng.uniform(-0.5, 0.8), rng.uniform(0.0, 36.0), rng.uniform(0.0, 8.0))
        for _ in range(50)
    ]
    for point in points:
        assert _bits(tracker._compute_away_direction(point)) == _bits(
            oracle.away_direction(workspace, point)
        ), point


def test_away_direction_without_obstacles():
    workspace = empty_workspace()
    model = BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0))
    params, _ = synthesize_safe_tracker(model, workspace, safe_speed_fraction=0.35)
    tracker = SafeWaypointTracker(params=params, workspace=workspace)
    for point in (Vec3(0.5, 5.0, 2.0), Vec3(5.0, 5.0, 2.0), Vec3(5.0, 5.0, 9.9)):
        assert _bits(tracker._compute_away_direction(point)) == _bits(
            oracle.away_direction(workspace, point)
        )


@pytest.mark.parametrize("clearance", [1.0, 0.6])
def test_astar_plans_match_the_oracle_search(clearance):
    world = surveillance_city()
    workspace = world.workspace
    planner = GridAStarPlanner(workspace=workspace, clearance=clearance, altitude=world.cruise_altitude)
    rng = random.Random(int(clearance * 10))
    pairs = [
        (workspace.bounds.random_point(rng), workspace.bounds.random_point(rng)) for _ in range(50)
    ]
    # Starts/goals inside buildings and outside the bounds snap to (or miss) free cells.
    pairs.append((workspace.obstacles[0].center, world.surveillance_points[2]))
    pairs.append((Vec3(-2.0, 25.0, 2.0), Vec3(52.0, 25.0, 2.0)))
    planned = 0
    for start, goal in pairs:
        plan = planner.plan(start, goal)
        reference = oracle.astar_plan(planner, start, goal)
        if reference is None:
            assert plan is None
            continue
        planned += 1
        assert plan is not None and plan.waypoints == reference.waypoints
    assert planned >= 50


def test_astar_search_matches_the_oracle_cell_path():
    world = surveillance_city()
    planner = GridAStarPlanner(workspace=world.workspace, altitude=world.cruise_altitude)
    rng = random.Random(5)
    free = sorted(planner.grid.free_cells())
    for _ in range(30):
        start, goal = rng.choice(free), rng.choice(free)
        assert planner._search(start, goal) == oracle.astar_search(planner, start, goal)
