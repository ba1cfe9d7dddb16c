import numpy as np
import pytest

from cloudnav.core import (
    ConstantAccelSegment,
    PointCloud,
    QuinticSegment,
    Trajectory,
    UavState,
    load_cloud_txt,
    sample_times,
    save_cloud_txt,
    voxel_filter,
    voxel_keys,
)


def rk4_propagate(p, v, u, tau, dt=1e-4):
    """Independent fixed-step integrator for the double integrator."""
    p = np.array(p, dtype=float)
    v = np.array(v, dtype=float)
    u = np.array(u, dtype=float)
    n = int(round(tau / dt))
    h = tau / n if n else 0.0
    for _ in range(n):
        # state y = (p, v), y' = (v, u)
        k1p, k1v = v, u
        k2p, k2v = v + 0.5 * h * k1v, u
        k3p, k3v = v + 0.5 * h * k2v, u
        k4p, k4v = v + h * k3v, u
        p = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return p, v


def end_state(seg: ConstantAccelSegment) -> UavState:
    """The state at the end of `seg`, from its closed form."""
    P, V, A = seg.states_at([seg.tau])
    return UavState(t=seg.start.t + seg.tau, p=P[0], v=V[0], a=A[0])


def test_propagate_zero_control():
    s = UavState(t=0.0, p=[0, 0, 0], v=[1, 0, 0], a=[0, 0, 0])
    out = end_state(ConstantAccelSegment(start=s, u=[0, 0, 0], tau=0.6))
    assert np.allclose(out.p, [0.6, 0, 0])
    assert np.allclose(out.v, [1, 0, 0])
    assert out.t == pytest.approx(0.6)


def test_propagate_matches_rk4():
    s = UavState(t=0.0, p=[0, 0, 0], v=[0, 0, 0], a=[0, 0, 0])
    out = end_state(ConstantAccelSegment(start=s, u=[2, 0, 0], tau=0.6))
    p_ref, v_ref = rk4_propagate(s.p, s.v, [2, 0, 0], 0.6)
    assert np.allclose(out.p, [0.36, 0, 0], atol=1e-12)
    assert np.allclose(out.v, [1.2, 0, 0], atol=1e-12)
    assert np.max(np.abs(out.p - p_ref)) <= 1e-9
    assert np.max(np.abs(out.v - v_ref)) <= 1e-9


def test_propagate_matches_rk4_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = UavState(
            t=0.0, p=rng.uniform(-5, 5, 3), v=rng.uniform(-2, 2, 3), a=[0, 0, 0]
        )
        u = rng.choice([-2.0, 0.0, 2.0], 3)
        tau = rng.uniform(0.05, 1.2)
        out = end_state(ConstantAccelSegment(start=s, u=u, tau=tau))
        p_ref, _ = rk4_propagate(s.p, s.v, u, tau)
        assert np.max(np.abs(out.p - p_ref)) <= 1e-9


def test_propagate_time_additive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = UavState(t=0.0, p=rng.uniform(-1, 1, 3), v=rng.uniform(-2, 2, 3), a=[0, 0, 0])
        u = rng.uniform(-2, 2, 3)
        t1, t2 = rng.uniform(0.01, 0.8, 2)
        mid = end_state(ConstantAccelSegment(start=s, u=u, tau=t1))
        two_step = end_state(ConstantAccelSegment(start=mid, u=u, tau=t2))
        one_step = end_state(ConstantAccelSegment(start=s, u=u, tau=t1 + t2))
        assert np.max(np.abs(two_step.p - one_step.p)) <= 1e-9
        assert np.max(np.abs(two_step.v - one_step.v)) <= 1e-9


def test_propagate_rejects_nonfinite():
    s = UavState(t=0.0, p=[0, 0, 0], v=[0, 0, 0], a=[0, 0, 0])
    with pytest.raises(ValueError):
        ConstantAccelSegment(start=s, u=[np.nan, 0, 0], tau=0.1)
    with pytest.raises(ValueError):
        ConstantAccelSegment(start=s, u=[0, 0, 0], tau=np.inf)
    with pytest.raises(ValueError):
        UavState(t=0.0, p=[np.inf, 0, 0], v=[0, 0, 0], a=[0, 0, 0])


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_segments_refuse_non_finite_and_non_positive_tau(tau):
    s = UavState.hover([0, 0, 0])
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        ConstantAccelSegment(start=s, u=[1, 0, 0], tau=tau)
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        QuinticSegment(coeffs=np.zeros((3, 6)), tau=tau)
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        QuinticSegment.solve(s, [1, 0, 0], np.zeros(3), np.zeros(3), tau)


def _single_segment_traj(tau=0.6):
    start = UavState(t=0.0, p=[0, 0, 0], v=[1, 0, 0], a=[0, 0, 0])
    return Trajectory(segments=(ConstantAccelSegment(start=start, u=np.zeros(3), tau=tau),), t0=0.0)


def test_sample_trajectory_grid():
    traj = _single_segment_traj(0.6)
    ts = sample_times(traj.t0, traj.duration, 0.2)
    assert ts.tolist() == [pytest.approx(x) for x in (0.0, 0.2, 0.4, 0.6)]
    assert ts[-1] == traj.t_end


def test_sample_trajectory_includes_exact_end():
    traj = _single_segment_traj(0.5)
    ts = sample_times(traj.t0, traj.duration, 0.2)
    assert ts.tolist() == [pytest.approx(x) for x in (0.0, 0.2, 0.4, 0.5)]
    assert ts[-1] == traj.t_end


def test_sample_trajectory_rejects_bad_dt():
    traj = _single_segment_traj()
    with pytest.raises(ValueError):
        sample_times(traj.t0, traj.duration, 0.0)
    with pytest.raises(ValueError):
        sample_times(traj.t0, traj.duration, -0.1)


def test_sampled_chain_matches_per_segment_closed_form():
    s0 = UavState(t=0.0, p=[0, 0, 0], v=[0.5, -0.2, 0], a=[0, 0, 0])
    seg1 = ConstantAccelSegment(start=s0, u=np.array([2.0, 0, -1.0]), tau=0.6)
    seg2 = ConstantAccelSegment(start=end_state(seg1), u=np.array([-2.0, 1.0, 0]), tau=0.6)
    traj = Trajectory(segments=(seg1, seg2), t0=0.0)
    ts = sample_times(traj.t0, traj.duration, 0.1)
    P, _, _ = traj.states_at(ts)
    for t, p in zip(ts, P):
        if t <= 0.6:
            ref = seg1.states_at([t])[0][0]
        else:
            ref = seg2.states_at([t - 0.6])[0][0]
        assert np.max(np.abs(p - ref)) <= 1e-9


def test_trajectory_joins_are_continuous():
    rng = np.random.default_rng(11)
    s = UavState(t=0.0, p=[0, 0, 0], v=[0, 0, 0], a=[0, 0, 0])
    segments = []
    for _ in range(6):
        u = rng.choice([-2.0, 0.0, 2.0], 3)
        seg = ConstantAccelSegment(start=s, u=u, tau=0.6)
        segments.append(seg)
        s = end_state(seg)
    tail = QuinticSegment.solve(s, s.p + np.array([1.5, 0, 0]), np.zeros(3), np.zeros(3), 2.0)
    segments.append(tail)
    traj = Trajectory(segments=tuple(segments), t0=0.0)
    bounds = np.cumsum([seg.duration for seg in segments])[:-1]
    for tb in bounds:
        before = traj.state_at(tb - 1e-12)
        after = traj.state_at(tb + 1e-12)
        assert np.max(np.abs(before.p - after.p)) <= 1e-9
        assert np.max(np.abs(before.v - after.v)) <= 1e-9


def test_trajectory_states_at_matches_per_segment_bytes():
    """The vectorized evaluation gives the bytes of each segment's own states_at,
    on a chain that mixes both segment kinds, including samples clipped at both
    ends and samples exactly on the joins."""
    rng = np.random.default_rng(5)
    s = UavState(t=2.0, p=[0.3, -1.2, 0.7], v=[0.4, 0.1, -0.2], a=[0, 0, 0])
    segments = []
    for k in range(7):
        if k in (2, 6):
            end_p, end_v = s.p + rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            seg = QuinticSegment.solve(s, end_p, end_v, np.zeros(3), 0.9)
        else:
            seg = ConstantAccelSegment(start=s, u=rng.choice([-2.0, 0.0, 2.0], 3), tau=0.6)
        segments.append(seg)
        end_p, end_v, _ = seg.states_at(np.array([seg.duration]))
        s = UavState(t=s.t + seg.duration, p=end_p[0], v=end_v[0], a=np.zeros(3))
    traj = Trajectory(segments=tuple(segments), t0=2.0)
    bounds = np.asarray(traj._bounds)
    times = np.concatenate(
        [
            [1.5, 2.0 - 1e-12, traj.t_end, traj.t_end + 1e-12, traj.t_end + 3.0],
            traj.t0 + bounds,
            np.sort(rng.uniform(traj.t0, traj.t_end, 200)),
        ]
    )
    P, V, A = traj.states_at(times)
    # reference: each segment evaluates its own samples
    rel = np.clip(times - traj.t0, 0.0, traj.duration)
    idx = np.clip(np.searchsorted(bounds, rel, side="right") - 1, 0, len(segments) - 1)
    for i, seg in enumerate(segments):
        m = idx == i
        assert m.any()
        want = seg.states_at(np.clip(rel[m] - bounds[i], 0.0, seg.duration))
        for got, ref in zip((P[m], V[m], A[m]), want):
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_trajectory_rejects_out_of_span():
    traj = _single_segment_traj(0.6)
    with pytest.raises(ValueError):
        traj.state_at(-0.5)
    with pytest.raises(ValueError):
        traj.state_at(1.0)


def test_quintic_solve_meets_boundary_conditions():
    rng = np.random.default_rng(5)
    for _ in range(30):
        start = UavState(
            t=0.0, p=rng.uniform(-3, 3, 3), v=rng.uniform(-2, 2, 3), a=rng.uniform(-2, 2, 3)
        )
        end_p = rng.uniform(-3, 3, 3)
        end_v = rng.uniform(-1, 1, 3)
        end_a = rng.uniform(-1, 1, 3)
        tau = rng.uniform(0.4, 4.0)
        seg = QuinticSegment.solve(start, end_p, end_v, end_a, tau)
        P, V, A = seg.states_at(np.array([0.0, tau]))
        assert np.max(np.abs(P[0] - start.p)) <= 1e-6
        assert np.max(np.abs(V[0] - start.v)) <= 1e-6
        assert np.max(np.abs(A[0] - start.a)) <= 1e-6
        assert np.max(np.abs(P[1] - end_p)) <= 1e-6
        assert np.max(np.abs(V[1] - end_v)) <= 1e-6
        assert np.max(np.abs(A[1] - end_a)) <= 1e-6


def test_voxel_filter_single_voxel_centroid():
    pts = np.array([[0.01, 0.02, 0.03], [0.04, 0.05, 0.06], [0.07, 0.08, 0.09]])
    out = voxel_filter(PointCloud(points=pts), 0.1)
    assert len(out) == 1
    assert np.allclose(out.points[0], pts.mean(axis=0))


def test_voxel_filter_empty():
    out = voxel_filter(PointCloud.empty(stamp=1.0), 0.1)
    assert len(out) == 0
    assert out.stamp == 1.0


def test_voxel_filter_occupied_voxel_count():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.0, 2.0, (10000, 3))
    out = voxel_filter(PointCloud(points=pts), 0.1)
    # independent hashing pass over integer cells
    expected = len({(int(x // 0.1), int(y // 0.1), int(z // 0.1)) for x, y, z in pts})
    assert len(out) == expected


def test_voxel_filter_idempotent():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, (500, 3))
    once = voxel_filter(PointCloud(points=pts), 0.1)
    twice = voxel_filter(once, 0.1)
    assert len(once) == len(twice)
    assert np.max(np.abs(once.points - twice.points)) <= 1e-9


def test_voxel_filter_output_near_every_input():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-2.0, 2.0, (2000, 3))
    res = 0.1
    out = voxel_filter(PointCloud(points=pts), res)
    from scipy.spatial import cKDTree

    d, _ = cKDTree(out.points).query(pts, k=1)
    assert d.max() <= res * np.sqrt(3) / 2 + 1e-12


def test_voxel_filter_rejects_bad_resolution():
    with pytest.raises(ValueError):
        voxel_filter(PointCloud.empty(), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_voxel_keys_rejects_non_finite(bad):
    pts = np.zeros((4, 3))
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        voxel_keys(pts, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite(bad):
    pts = np.zeros((4, 3))
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        PointCloud(points=pts)


def test_cloud_txt_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    cloud = PointCloud(points=rng.uniform(-5, 5, (37, 3)), stamp=1.25)
    path = tmp_path / "cloud.txt"
    save_cloud_txt(cloud, path)
    back = load_cloud_txt(path)
    assert back.stamp == pytest.approx(1.25)
    assert np.max(np.abs(back.points - cloud.points)) <= 1e-8


def test_cloud_txt_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.txt"
    save_cloud_txt(PointCloud.empty(stamp=0.5), path)
    back = load_cloud_txt(path)
    assert len(back) == 0 and back.stamp == pytest.approx(0.5)
