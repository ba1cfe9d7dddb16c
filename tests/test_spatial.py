import numpy as np
import pytest

from cloudnav.core import (
    ConstantAccelSegment,
    PointCloud,
    Trajectory,
    UavState,
)
from cloudnav.spatial import (
    KdTree,
    MapConfig,
    TemporalLocalMap,
    check_trajectory,
    dump_map,
)

from oracles import load_cloud_txt, voxel_filter


def brute_nearest_distance(points, q, r):
    """O(n) oracle: the distance from q to the nearest of `points` if it lies
    under the trees' padded, exclusive bound r + 1e-9, else inf."""
    if len(points) == 0:
        return np.inf
    d = np.linalg.norm(points - np.asarray(q, dtype=float), axis=1).min()
    return d if d < r + 1e-9 else np.inf


def test_kdtree_empty():
    t = KdTree(np.empty((0, 3)))
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


def _padded_box_edge(x, r):
    """The first coordinate past `x` + KdTree's box pad at radius r."""
    return np.nextafter(x + (r + 1e-9) * (1 + 1e-9), np.inf)


_BIG = [1e5, -1e5, 1e5]

# (stored points, query points, r, points in the first read's box): each one
# an edge of that box or of the padded bound
_EDGE_CASES = {
    "exactly-r-on-an-axis": ([[0.3, 0, 0], [5, 5, 5]], [[0, 0, 0], [0.6, 0, 0]], 0.3, 1),
    "exactly-r-on-a-diagonal": ([[1.0, 2.0, 2.0]], [[0, 0, 0], [2.0, 4.0, 4.0]], 3.0, 1),
    "just-under-the-padded-bound": ([[np.nextafter(0.3 + 1e-9, 0), 0, 0]], [[0, 0, 0]], 0.3, 1),
    "at-the-padded-bound": ([[0.3 + 1e-9, 0, 0]], [[0, 0, 0]], 0.3, 1),
    "between-the-bound-and-the-pad": ([[np.nextafter(0.3 + 1e-9, 1), 0, 0]], [[0, 0, 0]], 0.3, 1),
    "just-outside-the-box": (
        [[_padded_box_edge(0.5, 0.3), 0, 0], [0, -_padded_box_edge(0, 0.3), 0]],
        [[0, 0, 0], [0.5, 0, 0]],
        0.3,
        0,
    ),
    "near-1e5-m": (
        np.add(_BIG, [[0.25, 0, 0], [0, 0.3, 0], [0.1, 0.1, 0.1], [0, 0, -0.5], [0, 0, 0.5]]),
        np.add(_BIG, [[0, 0, 0], [0.2, 0.2, 0.2], [0, 0, -0.25]]),
        0.25,
        4,
    ),
    "near-minus-1e5-m": (np.negative(np.add(_BIG, [[0.25, 0, 0], [0, 0, 0.4]])), [np.negative(_BIG)], 0.25, 1),
    "a-(3,)-query": ([[0.3, 0, 0], [0, 0.2, 0.2], [0, 0.4, 0]], [0.0, 0.0, 0.0], 0.3, 2),
    "empty-box": ([[5.0, 5.0, 5.0], [-5.0, 0, 0]], [[0, 0, 0], [1, 1, 1]], 0.3, 0),
}


@pytest.mark.parametrize("points, queries, r, boxed", _EDGE_CASES.values(), ids=_EDGE_CASES.keys())
def test_first_and_second_reads_match_bruteforce_at_the_box_edges(points, queries, r, boxed):
    points, queries = np.asarray(points, dtype=float), np.asarray(queries, dtype=float)
    rows = np.atleast_2d(queries)
    want = np.array([brute_nearest_distance(points, q, r) for q in rows]).reshape(queries.shape[:-1])
    t = KdTree(points)
    assert t._box_tree(queries, r + 1e-9).n == boxed
    first = t.nearest_distance(queries, r)  # unbuilt: from the points in the queries' box
    assert t._kd is None
    second = t.nearest_distance(queries, r)  # built: from the full tree
    assert t._kd is not None
    assert np.array_equal(first, want) and np.array_equal(second, want)
    assert np.shape(first) == queries.shape[:-1]
    t = KdTree(points)
    want_hits = brute_any_within(points, rows, r)
    assert np.array_equal(t.any_within(rows, r), want_hits)
    assert t._kd is None
    assert np.array_equal(t.any_within(rows, r), want_hits)
    assert t._kd is not None


@pytest.mark.parametrize("points", [[[0.0, 0, 0], [5, 5, 5]], np.empty((0, 3))], ids=["points", "empty-set"])
@pytest.mark.parametrize(
    "queries",
    [[[0.1, 0, 0], [0, 0, np.nan]], [[50.0, 50, 50], [np.nan, 50, 50]], [[0.0, 0, np.inf], [0, 0, 0.1]],
     [[-np.inf, 0, 0], [0.1, 0, 0]], [np.nan, 0.0, 0.0]],
    ids=["nan-beside-a-near-query", "nan-beside-a-far-query", "inf", "minus-inf", "a-(3,)-nan"],
)
def test_reads_refuse_non_finite_query_points_built_or_not(points, queries):
    # a NaN empties the first read's box; an infinity stretches it over stored points
    t = KdTree(np.asarray(points, dtype=float))
    for _ in range(2):  # the first read from the box, the second from the built tree
        with pytest.raises(ValueError, match="'x' must be finite"):
            t.nearest_distance(np.asarray(queries), 0.3)
    assert (t._kd is not None) == (t.size > 0)
    m = _two_tree_map(_ORIGIN, _FAR)
    for built in (False, True):  # the unbuilt map state asks its trees; the second read builds it
        with pytest.raises(ValueError, match="'x' must be finite"):
            m.any_within(np.atleast_2d(queries), 0.3)
        assert (m._state._kd is not None) == built


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
    assert m.tree_sizes[info.tree_index] == len(want[info.tree_index])


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


def _assert_reads_match_bruteforce(m, rng, reads):
    """`reads` map reads alternating between a batch any_within and a single
    nearest_distance, each equal to the brute-force answer over every tree."""
    union = np.concatenate([t.points for t in m.trees])
    for i in range(reads):
        r = rng.uniform(0.05, 0.8)
        if i % 2:
            q = rng.uniform([-3.5, -3.5, -3.5], [8.5, 3.5, 3.5])
            assert m.nearest_distance(q, r) == brute_nearest_distance(union, q, r)
        else:
            qs = rng.uniform([-3.5, -3.5, -3.5], [8.5, 3.5, 3.5], (50, 3))
            assert np.array_equal(m.any_within(qs, r), brute_any_within(union, qs, r))


@pytest.mark.parametrize("sizes", [(300, 300), (0, 300), (300, 0)],
                         ids=["both-trees", "first-empty", "second-empty"])
def test_map_queries_match_bruteforce_before_and_after_the_state_build(sizes, builds):
    rng = np.random.default_rng(31)
    m = _two_tree_map(rng.uniform(-3, 0.5, (sizes[0], 3)), rng.uniform(-0.5, 3, (sizes[1], 3)))
    state = m._state
    _assert_reads_match_bruteforce(m, rng, 1)  # the first read: the least of the trees' box reads
    assert builds["full"] == 0 and builds["box"] == 2
    _assert_reads_match_bruteforce(m, rng, 1)  # the second read builds the state, and only it
    assert builds["trees"] == [state] and builds["box"] == 2
    _assert_reads_match_bruteforce(m, rng, 40)  # many reads of the built state
    assert builds["trees"] == [state] and builds["box"] == 2
    m.update(_scan(rng.uniform(-3, 3, (200, 3)), stamp=2.0))  # the cycle wraps onto tree 0
    assert m._state is not state
    _assert_reads_match_bruteforce(m, rng, 1)  # a fresh state reads its trees again
    assert builds["full"] == 1 + (sizes[1] > 0)  # the kept tree's second read builds it
    _assert_reads_match_bruteforce(m, rng, 9)
    assert builds["trees"][-1] is m._state and builds["full"] == 2 + (sizes[1] > 0)


def test_map_update_makes_a_fresh_unbuilt_state():
    m = _two_tree_map(_ORIGIN, _FAR)
    for _ in range(3):
        assert m.any_within(_ORIGIN, 0.1)[0]
    assert m._state._kd is not None
    m.update(_scan([[5.0, 5.0, 5.0]], stamp=2.0))  # the cycle wraps: tree 0 now holds only this scan
    assert m._state._kd is None
    assert m.any_within([[5.0, 5.0, 5.0]], 0.1)[0]
    assert not m.any_within(_ORIGIN, 0.1)[0]
    assert m.nearest_distance([9.0, 9.0, 9.05], 0.1) == pytest.approx(0.05)


@pytest.fixture
def builds(monkeypatch):
    """Counts the scipy trees that cloudnav.spatial builds: `full`, each over a
    tree's or a map state's whole point set (the built `KdTree`s in `trees`),
    and `box`, each over the points in a first read's box."""
    counts = {"full": 0, "box": 0, "trees": []}
    build, box_tree = KdTree.build, KdTree._box_tree

    def counted_build(self):
        unbuilt = self._kd is None
        build(self)
        if unbuilt and self._kd is not None:
            counts["full"] += 1
            counts["trees"].append(self)

    def counted_box_tree(self, *args):
        counts["box"] += 1
        return box_tree(self, *args)

    monkeypatch.setattr(KdTree, "build", counted_build)
    monkeypatch.setattr(KdTree, "_box_tree", counted_box_tree)
    return counts


def test_updates_without_a_query_build_no_tree(builds):
    m = TemporalLocalMap(MapConfig(scans_per_tree=50, resolution=0.1))
    rng = np.random.default_rng(40)
    for i in range(100):
        m.update(_scan(_corridor_scan(rng), stamp=i * 0.02))
    assert builds == {"full": 0, "box": 0, "trees": []}
    assert not m.any_within(_FAR, 0.1)[0]  # a first read answers from each tree's box
    assert builds == {"full": 0, "box": 2, "trees": []}
    assert not m.any_within(_FAR, 0.1)[0]  # the second read builds the map state, once
    assert not m.any_within(_FAR, 0.1)[0]
    assert builds == {"full": 1, "box": 2, "trees": [m._state]}


def test_second_read_builds_one_tree_into_its_update(builds):
    m = TemporalLocalMap(MapConfig(scans_per_tree=2, resolution=0.1))
    empty = m.update(_scan(np.empty((0, 3))))
    for _ in range(3):
        assert m.nearest_distance([0, 0, 0], 0.45) == np.inf
    # an empty state is never built: each read asks both empty trees, each from its empty box
    assert builds["full"] == 0 and builds["box"] == 6 and empty.build_seconds == 0.0
    builds.update(full=0, box=0)
    m = TemporalLocalMap(MapConfig(scans_per_tree=2, resolution=0.1))
    rng = np.random.default_rng(41)
    # scans 0-1 fill tree 0 and 2-3 tree 1: updates 0 and 2 make trees that 1 and 3 replace unread
    infos = [m.update(_scan(_corridor_scan(rng), stamp=float(i))) for i in range(4)]
    assert not m.any_within(_FAR, 0.1)[0]
    assert builds["full"] == 0 and builds["box"] == 2 and all(info.build_seconds == 0.0 for info in infos)
    m.nearest_distance([0, 0, 0], 0.45)
    # the state's second read builds one tree over both trees' points, and no per-tree tree
    assert builds["trees"] == [m._state] and builds["box"] == 2
    assert np.array_equal(m._state._kd.data, np.concatenate([t.points for t in m.trees]))
    assert [info.build_seconds > 0 for info in infos] == [False, False, False, True]
    built = [info.build_seconds for info in infos]
    m.nearest_distance([0, 0, 0], 0.45)
    m.any_within(_FAR, 0.1)
    assert builds["full"] == 1 and builds["box"] == 2  # later reads build nothing and time nothing
    assert [info.build_seconds for info in infos] == built
    # scan 4 wraps onto tree 0; tree 1, read in two states, is built at its second read,
    # into update 3, which made it; the new tree 0 is read once from its box
    state, tree1 = m._state, m.trees[1]
    wrapped = m.update(_scan(_corridor_scan(rng), stamp=4.0))
    assert not m.any_within(_FAR, 0.1)[0]
    assert builds["trees"] == [state, tree1] and builds["box"] == 3
    assert infos[3].build_seconds > built[3] and wrapped.build_seconds == 0.0
    for info in infos:
        assert info.total_seconds >= info.filter_seconds + info.build_seconds
    # read once, then replaced by scan 5, the wrapped tree and its state are never built
    m.update(_scan(_corridor_scan(rng), stamp=5.0))
    assert builds["full"] == 2 and wrapped.build_seconds == 0.0


def test_indoor_flight_builds_a_tree_only_at_its_second_read(builds):
    from cloudnav import load_scenario, simulate
    from cloudnav.cli import resolve_scenario_path

    log = simulate(load_scenario(resolve_scenario_path("indoor_bar")), seed=1)
    assert log.outcome == "goal_reached"
    # the re-check reads each new map state once, each tree from its box; only
    # the reads of a plan or a relaxed check build a state or a tree read in two
    assert len(log.map_updates) == 505
    assert builds["full"] == 14  # at this seed
    assert builds["box"] >= len(log.map_updates)
    # each build is timed into the record of the one update that made its tree or state
    records = [tree._record for tree in builds["trees"]]
    assert all(any(info is rec for info in log.map_updates) for rec in records)
    timed = [info for info in log.map_updates if info.build_seconds > 0]
    assert len(timed) == len({id(rec) for rec in records}) <= builds["full"]


def test_interleaved_updates_and_reads_match_bruteforce_union(builds):
    """Reads after several updates each: across a tree switch (both trees
    unbuilt at once) and wraparounds, one read or many on one state."""
    h = 3
    m = TemporalLocalMap(MapConfig(scans_per_tree=h, resolution=0.05))
    rng = np.random.default_rng(42)
    scans = 0
    want_builds = 0
    reads_of = {}  # reads of each tree, as the one rule counts them
    for updates, reads in ((2, 3), (4, 1), (3, 70), (5, 1), (1, 4), (1, 1), (6, 2)):
        for _ in range(updates):
            m.update(_scan(_corridor_scan(rng, n=200), stamp=scans * 0.02))
            scans += 1
        # a state's first read reads each tree once; a tree's second read builds it;
        # a state's second read builds the state
        for tree in m.trees:
            reads_of[tree] = reads_of.get(tree, 0) + 1
            want_builds += reads_of[tree] == 2
        want_builds += reads > 1
        union = np.concatenate([t.points for t in m.trees])
        for i in range(reads):
            r = rng.uniform(0.05, 0.6)
            if i % 2:
                q = rng.uniform([-0.5, -2, -0.5], [8.5, 2, 3])
                assert m.nearest_distance(q, r) == brute_nearest_distance(union, q, r)
            else:
                qs = rng.uniform([-0.5, -2, -0.5], [8.5, 2, 3], (40, 3))
                assert np.array_equal(m.any_within(qs, r), brute_any_within(union, qs, r))
        assert (m._state._kd is not None) == (reads > 1)
        assert builds["full"] == want_builds, f"after {scans} scans"
    assert scans > 2 * h * 2  # the cycle wrapped twice


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
    return Trajectory(segments=(ConstantAccelSegment(start=start, u=np.zeros(3), duration=tau),), t0=0.0)


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


@pytest.mark.parametrize("t_from", [4.0, 4.0 + 1e-12, 9.0])
@pytest.mark.parametrize("y, hit", [(0.2, True), (0.5, False)])
def test_check_trajectory_from_its_end_or_past_it_checks_the_end_sample(t_from, y, hit):
    m = TemporalLocalMap(MapConfig(resolution=0.001))
    m.update(_scan([[4.0, y, 0.0]]))
    traj = _straight_trajectory([0, 0, 0], [1, 0, 0], 4.0)
    assert check_trajectory(m, traj, 0.45, 0.05, t_from=t_from) == (traj.t_end if hit else None)


@pytest.mark.parametrize("t_from", [None, 9.0])
@pytest.mark.parametrize("dt", [0.0, -0.05])
def test_check_trajectory_refuses_a_step_that_is_not_positive(t_from, dt):
    traj = _straight_trajectory([0, 0, 0], [1, 0, 0], 4.0)
    with pytest.raises(ValueError, match="dt must be > 0"):
        check_trajectory(TemporalLocalMap(MapConfig()), traj, 0.45, dt, t_from=t_from)


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
