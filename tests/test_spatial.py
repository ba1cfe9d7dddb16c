import numpy as np
import pytest

from cloudnav.core import (
    ConstantAccelSegment,
    PointCloud,
    Trajectory,
    UavState,
    load_cloud_txt,
    voxel_filter,
)
from cloudnav.spatial import (
    KdTree,
    MapConfig,
    TemporalLocalMap,
    check_trajectory,
    dump_map,
)


def brute_nearest_distance(points, q, r):
    """O(n) oracle: the distance from q to the nearest of `points` if it lies
    under the trees' padded, exclusive bound r + 1e-9, else inf."""
    if len(points) == 0:
        return np.inf
    d = np.linalg.norm(points - np.asarray(q, dtype=float), axis=1).min()
    return d if d < r + 1e-9 else np.inf


def test_kdtree_empty():
    t = KdTree()
    assert t.size == 0
    assert t.nearest_distance([0, 0, 0], 1.0) == np.inf
    assert np.array_equal(t.nearest_distance(np.zeros((4, 3)), 10.0), np.full(4, np.inf))
    assert not t.any_within(np.zeros((4, 3)), 10.0).any()


def test_kdtree_single_point():
    t = KdTree(np.array([[1.0, 2.0, 3.0]]))
    assert t.nearest_distance([1.1, 2.0, 3.0], 0.5) == pytest.approx(0.1)
    assert t.nearest_distance([1.6, 2.0, 3.0], 0.5) == np.inf


def test_kdtree_nearest_matches_bruteforce():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, (1000, 3))
    t = KdTree(pts)
    qs = rng.uniform(-5, 5, (100, 3))
    got = t.nearest_distance(qs, 10.0)
    assert np.isfinite(got).all()
    for q, d in zip(qs, got):
        assert d == brute_nearest_distance(pts, q, 10.0)


def test_nearest_within_boundary_inclusive():
    t = KdTree(np.array([[0.0, 0.0, 0.0]]))
    assert t.nearest_distance([0.3, 0.0, 0.0], 0.3) == 0.3
    assert t.nearest_distance([0.300001, 0.0, 0.0], 0.3) == np.inf
    assert t.any_within(np.array([[0.3, 0, 0]]), 0.3)[0]
    assert not t.any_within(np.array([[0.300001, 0, 0]]), 0.3)[0]


def test_radius_queries_match_bruteforce():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-4, 4, (5000, 3))
    t = KdTree(pts)
    qs = rng.uniform(-4, 4, (1000, 3))
    rs = rng.uniform(0.05, 1.5, 1000)
    hits = 0
    for q, r in zip(qs, rs):
        want = brute_nearest_distance(pts, q, r)
        assert t.nearest_distance(q, r) == want
        assert t.any_within(q[None, :], r)[0] == (want <= r)
        hits += bool(np.isfinite(want))
    assert 0 < hits < len(qs)


def _scan(points, stamp=0.0):
    return PointCloud(points=np.atleast_2d(np.asarray(points, dtype=float)), stamp=stamp)


def replay_tree_contents(scans, h, n, resolution):
    """Oracle: re-derive each tree's point set from the scan log alone.

    Scan j goes to tree (j mod h*n) // h; a tree's current contents is the
    voxel-filtered union of the scans of its most recent (possibly partial)
    accumulation block.
    """
    window = h * n
    blocks = {}
    for j, scan in enumerate(scans):
        slot = j % window
        tree = slot // h
        if slot % h == 0:
            blocks[tree] = [scan]
        else:
            blocks[tree].append(scan)
    out = {}
    for tree, block in blocks.items():
        pts = np.concatenate([s.points for s in block])
        out[tree] = voxel_filter(_scan(pts), resolution).points
    return out


def test_map_update_example_h2_n2():
    m = TemporalLocalMap(MapConfig(scans_per_tree=2, resolution=0.1))
    scans = [_scan([[float(i), 0, 0]], stamp=float(i)) for i in range(5)]  # A..E
    for s in scans:
        m.update(s)
    assert np.array_equal(m.trees[0].points, np.array([[4.0, 0, 0]]))  # filter(E)
    assert np.array_equal(
        np.sort(m.trees[1].points, axis=0), np.array([[2.0, 0, 0], [3.0, 0, 0]])
    )  # filter(C u D)


def test_map_update_paper_parameter_boundaries():
    h, n = 50, 2
    m = TemporalLocalMap(MapConfig(scans_per_tree=h, resolution=0.1))
    rng = np.random.default_rng(3)
    infos = []
    for i in range(2 * h * n + 1):
        infos.append(m.update(_scan(rng.uniform(0, 5, (20, 3)), stamp=float(i))))
        assert 0 <= m.scan_input_num < h * n
    # scans 0..49 rebuild tree 0, scan 50 starts tree 1 from scratch
    assert [i.tree_index for i in infos[:51]] == [0] * 50 + [1]
    # scan 100 wraps and overwrites tree 0; so does scan 200
    assert infos[100].tree_index == 0 and infos[100].wrapped
    assert infos[200].tree_index == 0 and infos[200].wrapped
    assert not any(i.wrapped for i in infos[:100])


def test_map_update_matches_replay_oracle_every_step():
    h, n = 3, 2
    cfg = MapConfig(scans_per_tree=h, resolution=0.2)
    m = TemporalLocalMap(cfg)
    rng = np.random.default_rng(8)
    scans = []
    for i in range(25):
        scans.append(_scan(rng.uniform(-2, 2, (rng.integers(1, 40), 3)), stamp=float(i)))
        m.update(scans[-1])
        want = replay_tree_contents(scans, h, n, cfg.resolution)
        for tree, pts in want.items():
            assert np.array_equal(m.trees[tree].points, pts), f"tree {tree} step {i}"


def _corridor_scan(rng, n=600):
    """Two walls and a floor of a 3 m wide corridor, re-hit by every scan."""
    side = rng.integers(0, 3, n)
    pts = np.column_stack(
        [rng.uniform(0, 8, n), rng.uniform(-1.5, 1.5, n), rng.uniform(0, 2.5, n)]
    )
    pts[side == 0, 1] = -1.5
    pts[side == 1, 1] = 1.5
    pts[side == 2, 2] = 0.0
    return pts + rng.normal(0, 0.02, (n, 3))


def _assert_matches_oracle(m, info, scans, h, n, resolution):
    """Every tree equals the replay oracle; the info counts the current block."""
    want = replay_tree_contents(scans, h, n, resolution)
    for tree, pts in want.items():
        assert np.array_equal(m.trees[tree].points, pts), f"tree {tree} step {len(scans) - 1}"
    block_start = (len(scans) - 1) // h * h
    block = np.concatenate([s.points for s in scans[block_start:]])
    assert info.raw_accumulated == len(block)
    assert info.filtered_size == len(want[info.tree_index])


def test_running_sums_match_replay_oracle_paper_parameters():
    # paper parameters over 120 corridor scans: empty scans open blocks 0 and 1
    # and fall mid-block, and the walls revisit occupied voxels on every scan
    h, n = 50, 2
    cfg = MapConfig(scans_per_tree=h, resolution=0.1)
    m = TemporalLocalMap(cfg)
    rng = np.random.default_rng(21)
    empty = {0, 1, 17, 50, 73, 74, 100}
    scans = []
    for i in range(120):
        pts = np.empty((0, 3)) if i in empty else _corridor_scan(rng)
        scans.append(_scan(pts, stamp=i * 0.02))
        info = m.update(scans[-1])
        _assert_matches_oracle(m, info, scans, h, n, cfg.resolution)
    assert m.trees[0].size > 0 and m.trees[1].size > 0


def test_rejected_scans_leave_map_unchanged():
    h, n = 3, 2
    cfg = MapConfig(scans_per_tree=h, resolution=0.2)
    m = TemporalLocalMap(cfg)
    rng = np.random.default_rng(22)
    bad_nan = rng.uniform(-2, 2, (20, 3))
    bad_nan[7, 1] = np.nan
    bad_range = rng.uniform(-2, 2, (20, 3))
    bad_range[3, 0] = 1e6  # beyond the packable voxel index range
    accepted = []
    for i in range(14):
        # i = 3 and 9 are block starts, i = 5 and 10 are mid-block
        if i in (3, 5, 9, 10):
            trees = list(m.trees)
            counters = (m.scan_input_num, m.total_scans)
            for bad in (bad_nan, bad_range):
                with pytest.raises(ValueError):
                    m.update(_scan(bad, stamp=float(i)))
            assert all(a is b for a, b in zip(m.trees, trees))
            assert (m.scan_input_num, m.total_scans) == counters
        accepted.append(_scan(rng.uniform(-2, 2, (rng.integers(1, 40), 3)), stamp=float(i)))
        info = m.update(accepted[-1])
        _assert_matches_oracle(m, info, accepted, h, n, cfg.resolution)


def test_repeated_identical_scan_idempotent_trees():
    h, n = 2, 2
    cfg = MapConfig(scans_per_tree=h, resolution=0.1)
    m = TemporalLocalMap(cfg)
    rng = np.random.default_rng(4)
    scan = _scan(rng.uniform(0, 1, (50, 3)))
    expected = voxel_filter(scan, cfg.resolution).points
    for _ in range(h * n):
        m.update(scan)
    for tree in m.trees:
        assert np.allclose(np.sort(tree.points, axis=0), np.sort(expected, axis=0), atol=1e-9)


def test_map_update_leaves_other_tree_untouched():
    m = TemporalLocalMap(MapConfig(scans_per_tree=2, resolution=0.1))
    rng = np.random.default_rng(5)
    for i in range(3):  # scans 0,1 -> tree 0; scan 2 -> tree 1
        m.update(_scan(rng.uniform(0, 3, (30, 3)), stamp=float(i)))
    tree0_before = m.trees[0]
    pts_before = tree0_before.points.copy()
    m.update(_scan(rng.uniform(0, 3, (30, 3)), stamp=3.0))  # scan 3 -> tree 1
    assert m.trees[0] is tree0_before
    assert np.array_equal(m.trees[0].points, pts_before)


def test_window_bound_no_points_older_than_two_h():
    h, n = 3, 2
    m = TemporalLocalMap(MapConfig(scans_per_tree=h, resolution=0.01))
    # encode the scan index in the x coordinate so age is readable from points
    for i in range(40):
        m.update(_scan([[float(i), 0, 0]], stamp=float(i)))
        union = np.concatenate([t.points for t in m.trees if t.size])
        oldest = union[:, 0].min()
        assert i - oldest < 2 * h


def test_map_collision_both_trees_consulted():
    m = TemporalLocalMap(MapConfig(scans_per_tree=1, resolution=0.1))
    assert m.nearest_distance([0, 0, 0], 0.45) == np.inf
    # scan 0 -> tree 0 (far point), scan 1 -> tree 1 (the dynamic one, nearby)
    m.update(_scan([[5.0, 5.0, 5.0]], stamp=0.0))
    m.update(_scan([[0.3, 0.0, 0.0]], stamp=1.0))
    assert m.trees[0].size == 1 and m.trees[1].size == 1
    assert m.nearest_distance([0, 0, 0], 0.45) == pytest.approx(0.3)
    # and the far tree answers when the near one is out of reach
    assert m.nearest_distance([5.0, 5.0, 5.2], 0.45) == pytest.approx(0.2)


def test_map_collision_matches_bruteforce_union():
    rng = np.random.default_rng(12)
    m = TemporalLocalMap(MapConfig(scans_per_tree=2, resolution=0.001))
    scans = [
        _scan(rng.uniform(-3, 3, (400, 3)), stamp=float(i)) for i in range(4)
    ]
    for s in scans:
        m.update(s)
    union = np.concatenate([t.points for t in m.trees])
    hits = 0
    for _ in range(300):
        q = rng.uniform(-3, 3, 3)
        r = rng.uniform(0.1, 1.0)
        want = brute_nearest_distance(union, q, r)
        assert m.nearest_distance(q, r) == want
        hits += bool(np.isfinite(want))
    assert 0 < hits < 300


def brute_any_within(points, qs, r):
    """O(n*m) oracle: is any of `points` within distance r (inclusive) of each query?"""
    if len(points) == 0:
        return np.zeros(len(qs), dtype=bool)
    d = np.linalg.norm(qs[:, None, :] - points[None, :, :], axis=2)
    return (d <= r).any(axis=1)


def _two_tree_map(tree0, tree1):
    """Map whose trees hold exactly `tree0` and `tree1` (either may be empty)."""
    m = TemporalLocalMap(MapConfig(scans_per_tree=1, resolution=0.001))
    m.update(_scan(np.reshape(tree0, (-1, 3)), stamp=0.0))
    m.update(_scan(np.reshape(tree1, (-1, 3)), stamp=1.0))
    return m


_FAR = [[9.0, 9.0, 9.0]]
_ORIGIN = [[0.0, 0.0, 0.0]]


@pytest.mark.parametrize(
    "tree0, tree1",
    [
        pytest.param([], [], id="empty-map"),
        pytest.param([], _ORIGIN, id="first-tree-empty"),
        pytest.param(_ORIGIN, [], id="second-tree-empty"),
        pytest.param(_FAR, _ORIGIN, id="second-tree-answers"),
        pytest.param(_ORIGIN, _FAR, id="first-tree-answers"),
    ],
)
def test_map_any_within_matches_bruteforce_union(tree0, tree1):
    m = _two_tree_map(tree0, tree1)
    assert m.tree_sizes == [len(tree0), len(tree1)]
    union = np.concatenate([t.points for t in m.trees])
    # (0.3, 0, 0) lies exactly r from the origin: inclusive, so it hits, and in
    # "second-tree-answers" only the second tree can answer it
    qs = np.array([[0.3, 0.0, 0.0], [0.300001, 0.0, 0.0], [0.0, -0.1, 0.2], [9.0, 9.3, 9.0], [5.0, 5.0, 5.0]])
    got = m.any_within(qs, 0.3)
    assert got.dtype == bool and got.shape == (len(qs),)
    assert np.array_equal(got, brute_any_within(union, qs, 0.3))
    empty = m.any_within(np.empty((0, 3)), 0.3)
    assert empty.dtype == bool and empty.shape == (0,)


def test_map_any_within_random_matches_bruteforce_union():
    rng = np.random.default_rng(21)
    m = _two_tree_map(rng.uniform(-3, 0.5, (300, 3)), rng.uniform(-0.5, 3, (300, 3)))
    union = np.concatenate([t.points for t in m.trees])
    qs = rng.uniform(-3.5, 3.5, (2000, 3))
    for r in (0.1, 0.35, 0.8):
        got = m.any_within(qs, r)
        assert np.array_equal(got, brute_any_within(union, qs, r))
        assert 0 < got.sum() < len(qs)


def _straight_trajectory(p0, v, tau):
    start = UavState(t=0.0, p=p0, v=v, a=[0, 0, 0])
    return Trajectory(segments=(ConstantAccelSegment(start=start, u=np.zeros(3), tau=tau),), t0=0.0)


def test_check_trajectory_clear_in_empty_map():
    m = TemporalLocalMap(MapConfig())
    traj = _straight_trajectory([0, 0, 0], [1, 0, 0], 3.0)
    assert check_trajectory(m, traj, 0.45, 0.1) is None


def test_check_trajectory_collision_time_matches_geometry():
    m = TemporalLocalMap(MapConfig(resolution=0.001))
    m.update(_scan([[2.0, 0.2, 0.0]]))
    traj = _straight_trajectory([0, 0, 0], [1, 0, 0], 4.0)
    dt = 0.05
    t_hit = check_trajectory(m, traj, 0.45, dt)
    # point sits 0.2 m off the line: first sample within sqrt(r^2 - 0.2^2) of x=2
    reach = np.sqrt(0.45**2 - 0.2**2)
    t_enter = 2.0 - reach
    assert t_hit is not None
    assert t_enter <= t_hit <= t_enter + dt + 1e-9
    # from beyond the collision the remainder is clear
    assert check_trajectory(m, traj, 0.45, dt, t_from=2.0 + reach + dt) is None


def test_check_trajectory_clear_when_point_outside_clearance():
    m = TemporalLocalMap(MapConfig(resolution=0.001))
    m.update(_scan([[2.0, 0.5, 0.0]]))
    traj = _straight_trajectory([0, 0, 0], [1, 0, 0], 4.0)
    assert check_trajectory(m, traj, 0.45, 0.05) is None


def test_dump_map(tmp_path):
    m = TemporalLocalMap(MapConfig(scans_per_tree=2))
    rng = np.random.default_rng(2)
    for i in range(3):
        m.update(_scan(rng.uniform(0, 1, (30, 3)), stamp=float(i)))
    dump_map(m, tmp_path)
    t0 = load_cloud_txt(tmp_path / "tree0.txt")
    t1 = load_cloud_txt(tmp_path / "tree1.txt")
    assert len(t0) == m.trees[0].size
    assert len(t1) == m.trees[1].size
    counters = (tmp_path / "counters.txt").read_text().splitlines()
    assert counters[0] == f"scan_input_num {m.scan_input_num}"
    assert counters[1] == f"total_scans {m.total_scans}"
    assert counters[2] == f"tree_sizes {m.trees[0].size} {m.trees[1].size}"


def test_dump_map_writes_an_empty_tree_as_a_bare_header(tmp_path):
    m = TemporalLocalMap(MapConfig(scans_per_tree=2))
    m.update(_scan([[1.0, 2.0, 3.0]], stamp=0.5))  # fills tree 0; tree 1 is still empty
    dump_map(m, tmp_path)
    assert (tmp_path / "tree0.txt").read_text() == "stamp 0.500000000 count 1\n1.000000000 2.000000000 3.000000000\n"
    assert (tmp_path / "tree1.txt").read_text() == "stamp 0.000000000 count 0\n"
    assert (tmp_path / "counters.txt").read_text().splitlines()[2] == "tree_sizes 1 0"
