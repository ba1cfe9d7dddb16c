import math

import numpy as np
import pytest

from cloudnav.cli import resolve_scenario_path
from cloudnav.scenario import load_scenario
from cloudnav.sensor import (
    FOV_H_DEG,
    FOV_V_DEG,
    FRAME_DT,
    MAX_RANGE,
    RANGE_NOISE_SIGMA,
    Box,
    Capsule,
    Environment,
    MotionSchedule,
    Obstacle,
    SensorModel,
    Sphere,
    disk_to_directions,
    generate_scan,
    rosette_directions,
    yaw_rotation,
)
from cloudnav.sim import _probe_disk_grid


def march_ray(sdf, origin, direction, max_range, coarse=2e-3, tol=1e-6):
    """Sphere-marching oracle: step along the ray by the distance bound,
    refine the crossing by bisection."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    t = 0.0
    prev = 0.0
    while t <= max_range:
        d = sdf(origin + t * direction)
        if d <= 0.0:
            lo, hi = prev, t
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if sdf(origin + mid * direction) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return hi
        prev = t
        t += max(d * 0.9, coarse)
    return np.inf


def test_cast_ray_sphere_head_on():
    env = Environment([Obstacle(shape=Sphere(center=[5, 0, 0], radius=1.0))])
    t = env.cast_rays([0, 0, 0], np.array([[1.0, 0, 0]]), 0.0, 100.0)
    assert t.shape == (1,)
    assert t[0] == pytest.approx(4.0, abs=1e-12)


def test_cast_ray_miss_returns_none():
    env = Environment([Obstacle(shape=Sphere(center=[5, 5, 5], radius=0.5))])
    assert env.cast_rays([0, 0, 0], np.array([[1.0, 0, 0]]), 0.0, 100.0)[0] == np.inf


def test_cast_ray_respects_max_range():
    env = Environment([Obstacle(shape=Sphere(center=[50, 0, 0], radius=1.0))])
    assert env.cast_rays([0, 0, 0], np.array([[1.0, 0, 0]]), 0.0, 10.0)[0] == np.inf
    assert env.cast_rays([0, 0, 0], np.array([[1.0, 0, 0]]), 0.0, 100.0)[0] == pytest.approx(49.0)


def test_box_ray_hits_front_face():
    box = Box(lo=[2, -1, -1], hi=[3, 1, 1])
    t = box.ray_hits(np.zeros(3), np.array([[1.0, 0, 0]]))[0]
    assert t == pytest.approx(2.0)


def test_box_parallel_ray_outside_misses():
    box = Box(lo=[2, -1, -1], hi=[3, 1, 1])
    t = box.ray_hits(np.array([0.0, 2.0, 0.0]), np.array([[1.0, 0, 0]]))[0]
    assert np.isinf(t)


_HUGE_BOX = "{shape: box, lo: [5, -1.0e+150, -1.0e+150], hi: [1.0e+150, 1.0e+150, 1.0e+150]}"


def test_box_distances_do_not_cancel_for_a_box_far_larger_than_the_distance():
    # |p - center| - half is 5e149 - 5e149 = 0 here; the face excess lo - p is exact
    box = Box(lo=[5.0, -1e150, -1e150], hi=[1e150, 1e150, 1e150])
    assert box.distances(np.zeros((1, 3))).tolist() == [5.0]
    assert box.distances(np.array([[6.0, 0.0, 0.0]])).tolist() == [-1.0]
    # so the loader accepts a start 5 m in front of it, which it took to be inside
    scenario = load_scenario(resolve_scenario_path("indoor_bar"),
                             overrides=["duration=0.5", f"obstacles=[{_HUGE_BOX}]"])
    assert scenario.start_position.tolist() == [0.0, 0.0, 1.0]
    assert scenario.environment().min_distance(scenario.start_position, 0.0) == 5.0


def test_capsule_hits_match_sphere_marching_oracle():
    cap = Capsule(p0=[3.0, -0.4, 0.7], p1=[3.2, 0.5, 2.1], radius=0.15)
    sdf = lambda p: cap.distances(p[None, :])[0]
    rng = np.random.default_rng(4)
    n = 2000
    # aim most rays toward the capsule so a good share hit
    targets = cap.p0 + rng.uniform(-0.3, 1.3, (n, 1)) * (cap.p1 - cap.p0)
    targets += rng.normal(0.0, 0.25, (n, 3))
    dirs = targets - np.zeros(3)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    t_fast = cap.ray_hits(np.zeros(3), dirs)
    n_hits = 0
    for i in range(n):
        t_ref = march_ray(sdf, np.zeros(3), dirs[i], 10.0)
        if np.isinf(t_ref):
            assert np.isinf(t_fast[i]) or t_fast[i] > 10.0
        else:
            n_hits += 1
            assert abs(t_fast[i] - t_ref) <= 1e-4, f"ray {i}: {t_fast[i]} vs {t_ref}"
    assert n_hits > 500


def test_sphere_hits_match_sphere_marching_oracle():
    sph = Sphere(center=[4.0, 0.5, -0.3], radius=0.6)
    sdf = lambda p: sph.distances(p[None, :])[0]
    rng = np.random.default_rng(5)
    dirs = rng.normal(0, 1, (300, 3))
    dirs[:, 0] = np.abs(dirs[:, 0]) + 2.0  # bias forward
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    t_fast = sph.ray_hits(np.zeros(3), dirs)
    for i in range(len(dirs)):
        t_ref = march_ray(sdf, np.zeros(3), dirs[i], 10.0)
        if np.isinf(t_ref):
            assert np.isinf(t_fast[i])
        else:
            assert abs(t_fast[i] - t_ref) <= 1e-4


def test_schedule_interpolates_and_clamps():
    sched = MotionSchedule(times=np.array([1.0, 3.0]), offsets=np.array([[0, 0, 0], [0, 0, 2.0]]))
    assert np.allclose(sched.offset_at(0.0), [0, 0, 0])  # clamped before start
    assert np.allclose(sched.offset_at(2.0), [0, 0, 1.0])  # midpoint
    assert np.allclose(sched.offset_at(9.0), [0, 0, 2.0])  # clamped after end
    arr = sched.offset_at(np.array([1.0, 2.0, 3.0]))
    assert arr.shape == (3, 3)


def test_moving_obstacle_ray_uses_pose_at_time():
    sched = MotionSchedule(
        times=np.array([0.0, 1.0]), offsets=np.array([[0, 0, -10.0], [0, 0, 0.0]])
    )
    ob = Obstacle(shape=Sphere(center=[5, 0, 0], radius=1.0), schedule=sched)
    env = Environment([ob])
    ray = np.array([[1.0, 0, 0]])
    assert env.cast_rays([0, 0, 0], ray, 0.0, 100.0)[0] == np.inf  # still lowered
    assert env.cast_rays([0, 0, 0], ray, 1.0, 100.0)[0] == pytest.approx(4.0)  # raised into place


def test_generate_scan_empty_environment():
    sensor = SensorModel()
    rng = np.random.default_rng(0)
    scan = generate_scan(Environment([]), sensor, [0, 0, 1], yaw_rotation(0.0), 0.5, rng, frame_index=0)
    assert len(scan) == 0
    assert scan.points.shape == (0, 3)
    assert scan.stamp == 0.5
    # noise for every ray, hit or miss: the stream stays where a frame of hits leaves it
    ref = np.random.default_rng(0)
    ref.normal(0.0, RANGE_NOISE_SIGMA, sensor.points_per_frame)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_points_per_frame():
    s = SensorModel(points_per_second=240000)
    assert s.points_per_frame == 4800
    assert FRAME_DT == pytest.approx(0.02)


def test_sensor_refuses_fewer_than_one_ray_per_frame():
    # 25 points/s is half a ray a frame, which rounds to none
    for rate in (10.0, 25.0, 0.0, -5.0):
        with pytest.raises(ValueError, match="at least one ray per frame"):
            SensorModel(points_per_second=rate)
    assert SensorModel(points_per_second=25.01).points_per_frame == 1


def test_capsule_refuses_only_endpoints_its_distances_cannot_tell_apart():
    # 1 cm long, 2 km out: a tolerance relative to position took these for one point
    far = Capsule(p0=[2000.0, 0.0, 1.0], p1=[2000.01, 0.0, 1.0], radius=0.1)
    d = far.distances(np.array([[2000.005, 0.0, 1.5], [1990.0, 0.0, 1.0], [2000.0, 0.0, 1.0]]))
    assert np.isfinite(d).all()
    assert d == pytest.approx([0.4, 9.9, -0.1])
    # the axis's squared length, tested to keep length (a_hat's divisor) > 0, is 0
    # for coincident endpoints and for endpoints 1e-200 apart, whose square underflows
    for p0, p1 in (([2000.0, 0.0, 1.0], [2000.0, 0.0, 1.0]), ([0.0, 0.0, 0.0], [1e-200, 0.0, 0.0])):
        with pytest.raises(ValueError, match="capsule endpoints must differ"):
            Capsule(p0=p0, p1=p1, radius=0.1)


def _bar_env():
    return Environment([Obstacle(shape=Capsule(p0=[3, 0, 0.2], p1=[3, 0, 2.2], radius=0.01), name="bar")])


def test_thin_bar_hit_in_single_frame_over_seeds():
    # 20 mm bar 3 m ahead, one 20 ms frame: >= 1 hit with probability >= 0.99
    sensor = SensorModel()
    env = _bar_env()
    R = yaw_rotation(0.0)
    frames_with_hit = 0
    n_seeds = 120
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        scan = generate_scan(env, sensor, [0, 0, 1], R, 0.0, rng, frame_index=seed)
        if len(scan) > 0:
            frames_with_hit += 1
    assert frames_with_hit / n_seeds >= 0.99


def test_rosette_consecutive_frames_share_few_directions():
    sensor = SensorModel()
    a = rosette_directions(sensor, 0)
    b = rosette_directions(sensor, 1)
    sa = {tuple(np.round(v, 12)) for v in a}
    sb = {tuple(np.round(v, 12)) for v in b}
    assert len(sa & sb) / len(sa) < 0.05


def test_directions_inside_elliptical_fov():
    sensor = SensorModel()
    dirs = rosette_directions(sensor, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    th_h = np.arctan2(dirs[:, 1], dirs[:, 0])
    th_v = np.arcsin(np.clip(dirs[:, 2], -1, 1))
    a = math.radians(FOV_H_DEG) / 2
    b = math.radians(FOV_V_DEG) / 2
    assert np.all((th_h / a) ** 2 + (th_v / b) ** 2 <= 1.0 + 1e-9)


def test_scan_conservation_no_phantom_points():
    # every return lies on some obstacle surface within 3 sigma along the ray
    obstacles = [
        Obstacle(shape=Capsule(p0=[3, 0, 0.2], p1=[3, 0, 2.2], radius=0.01)),
        Obstacle(shape=Box(lo=[5.0, -3, -0.5], hi=[5.3, 3, 3.5])),
        Obstacle(shape=Sphere(center=[4, 1.5, 1.0], radius=0.4)),
    ]
    env = Environment(obstacles)
    sensor = SensorModel()
    rng = np.random.default_rng(11)
    scan = generate_scan(env, sensor, [0, 0, 1], yaw_rotation(0.0), 0.0, rng, frame_index=0)
    assert len(scan) > 0
    d = np.full(len(scan), np.inf)
    for ob in obstacles:
        d = np.minimum(d, np.abs(ob.distances(scan.points, 0.0)))
    assert d.max() <= 3.0 * RANGE_NOISE_SIGMA + 1e-9


def test_scan_deterministic_for_seed_and_frame():
    env = _bar_env()
    sensor = SensorModel()
    a = generate_scan(env, sensor, [0, 0, 1], yaw_rotation(0.0), 0.0, np.random.default_rng(9), frame_index=0)
    b = generate_scan(env, sensor, [0, 0, 1], yaw_rotation(0.0), 0.0, np.random.default_rng(9), frame_index=0)
    assert np.array_equal(a.points, b.points)


def test_scan_points_in_world_frame():
    # sensor yawed 90 degrees: the bar ahead of the sensor sits on +y in world
    env = Environment([Obstacle(shape=Box(lo=[-1, 2.8, -1], hi=[1, 3.1, 3]))])
    rng = np.random.default_rng(3)
    scan = generate_scan(env, SensorModel(), [0, 0, 1], yaw_rotation(math.pi / 2), 0.0, rng, frame_index=0)
    assert len(scan) > 0
    assert scan.points[:, 1].min() > 2.0


# --- bit-exactness of the ray casts ------------------------------------------
# The reference below is the per-obstacle ray formula set the loop was first
# recorded with (golden digests, benchmark digests). The shipped kernels must
# return the same bits on every cast: any change of BLAS call shape (a gemm
# over obstacles, einsum, a matvec over a row subset) moves the last bits of
# some dot products, and with them scan points, maps and flights.


def _ref_sphere(center, radius, origin, dirs):
    oc = origin - center
    b = dirs @ oc
    c = oc @ oc - radius**2
    disc = b * b - c
    t = np.full(len(dirs), np.inf)
    m = disc >= 0
    if m.any():
        sq = np.sqrt(disc[m])
        t0 = -b[m] - sq
        t1 = -b[m] + sq
        t[m] = np.where(t0 > 1e-12, t0, np.where(t1 > 1e-12, t1, np.inf))
    return t


def _ref_capsule(p0, p1, radius, origin, dirs):
    axis = p1 - p0
    L = np.linalg.norm(axis)
    a_hat = axis / L
    oc = origin - p0
    d_perp = dirs - np.outer(dirs @ a_hat, a_hat)
    o_perp = oc - (oc @ a_hat) * a_hat
    A = (d_perp * d_perp).sum(axis=1)
    B = d_perp @ o_perp
    C = o_perp @ o_perp - radius**2
    t = np.full(len(dirs), np.inf)
    m = A > 1e-12
    disc = np.where(m, B * B - A * C, -1.0)
    hm = disc >= 0
    if hm.any():
        sq = np.sqrt(disc[hm])
        Ah = A[hm]
        t0 = (-B[hm] - sq) / Ah
        t1 = (-B[hm] + sq) / Ah
        tc = np.where(t0 > 1e-12, t0, np.where(t1 > 1e-12, t1, np.inf))
        with np.errstate(invalid="ignore"):
            s = (oc @ a_hat) + tc * (dirs[hm] @ a_hat)
            tc = np.where((s >= 0) & (s <= L), tc, np.inf)
        t[hm] = tc
    for center in (p0, p1):
        t = np.minimum(t, _ref_sphere(center, radius, origin, dirs))
    return t


def _ref_box(lo, hi, origin, dirs):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (lo - origin) * inv
        t2 = (hi - origin) * inv
    parallel = np.abs(dirs) < 1e-12
    inside = (origin >= lo) & (origin <= hi)
    lows = np.minimum(t1, t2)
    highs = np.maximum(t1, t2)
    lows = np.where(parallel, np.where(inside, -np.inf, np.inf), lows)
    highs = np.where(parallel, np.where(inside, np.inf, -np.inf), highs)
    t_near = lows.max(axis=1)
    t_far = highs.min(axis=1)
    t = np.where((t_near <= t_far) & (t_near > 1e-12), t_near, np.inf)
    exit_hit = (t_near <= t_far) & (t_near <= 1e-12) & (t_far > 1e-12)
    return np.where(exit_hit, t_far, t)


def _ref_cast_rays(env, origin, dirs, t, max_range):
    origin = np.asarray(origin, dtype=float)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    best = np.full(len(dirs), np.inf)
    for ob in env.obstacles:
        o = origin - ob.offset_at(float(t))
        sh = ob.shape
        if isinstance(sh, Sphere):
            hits = _ref_sphere(sh.center, sh.radius, o, dirs)
        elif isinstance(sh, Capsule):
            hits = _ref_capsule(sh.p0, sh.p1, sh.radius, o, dirs)
        else:
            hits = _ref_box(sh.lo, sh.hi, o, dirs)
        best = np.minimum(best, hits)
    best[best > max_range] = np.inf
    return best


def _bundled_env(name):
    return load_scenario(resolve_scenario_path(name)).environment()


def _telemetry_dirs(yaw):
    u, w = _probe_disk_grid()
    return disk_to_directions(u, w) @ yaw_rotation(yaw).T


def _exactness_casts():
    """(label, env, origin, dirs, t, max_range) for every cast the exactness
    tests compare against the reference."""
    sensor = SensorModel()
    hill = _bundled_env("hillside")
    indoor = _bundled_env("indoor_bar")
    casts = []
    # rosette scans from flight-like poses; ray 0 of frame 0 is level (its z
    # component is exactly zero) and ray 0 of the telemetry grid is (1, 0, 0)
    # at yaw 0: both take the slab-parallel branch of the boxes
    poses = [([0.0, 0.0, 1.2], 0.0, 0), ([2.1, -0.4, 1.5], 0.3, 57),
             ([6.2, 0.8, 2.0], -0.5, 301), ([12.0, -0.2, 3.0], 1.2, 640)]
    for pos, yaw, frame in poses:
        dirs = rosette_directions(sensor, frame) @ yaw_rotation(yaw).T
        casts.append((f"hillside-frame{frame}", hill, pos, dirs, frame / 50.0, MAX_RANGE))
        casts.append((f"hillside-telemetry{frame}", hill, pos, _telemetry_dirs(yaw), frame / 50.0, 25.0))
    assert rosette_directions(sensor, 0)[0, 2] == 0.0
    assert np.array_equal(_telemetry_dirs(0.0)[0], [1.0, 0.0, 0.0])
    # the indoor bar is scheduled: cast before, during and after its rise
    for t in (0.0, 1.9, 2.3, 4.0):
        dirs = rosette_directions(sensor, int(t * 50)) @ yaw_rotation(0.0).T
        casts.append((f"indoor-scheduled-t{t}", indoor, [1.0, 0.0, 1.0], dirs, t, MAX_RANGE))
    # origins inside each shape kind: every hit is an exit hit
    rng = np.random.default_rng(8)
    dirs = rng.normal(size=(3000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dirs[:6] = np.vstack([np.eye(3), -np.eye(3)])
    cap = Capsule(p0=[3.0, -0.4, 0.7], p1=[3.2, 0.5, 2.1], radius=0.15)
    inner = [
        ("box", Box(lo=[2, -1, -1], hi=[3, 1, 1]), [2.5, 0.2, -0.3]),
        ("sphere", Sphere(center=[4.0, 0.5, -0.3], radius=0.6), [4.1, 0.4, -0.2]),
        ("capsule", cap, 0.5 * (cap.p0 + cap.p1) + [0.02, 0.0, 0.0]),
    ]
    for kind, shape, origin in inner:
        casts.append((f"inside-{kind}", Environment([Obstacle(shape=shape)]), origin, dirs, 0.0, 100.0))
    # origins on a box face plane, rays in that plane or nearly so: without the
    # slab-parallel fix-up 0 * inf gives nan there and the face is missed
    skim = np.array([[1.0, 0.0, 0.0], [1.0, 1e-14, 0.0], [1.0, -1e-14, 0.0], [1.0, 0.0, 1e-13]])
    skim /= np.linalg.norm(skim, axis=1)[:, None]
    slab = Environment([Obstacle(shape=Box(lo=[2, -1, -1], hi=[3, 1, 1]))])
    for label, origin in (("hi-face", [0.0, 1.0, 0.0]), ("lo-face", [0.0, -1.0, 1.0]),
                          ("outside", [0.0, 1.5, 0.0])):
        casts.append((f"box-skim-{label}", slab, origin, skim, 0.0, 100.0))
    # rays along the capsule axis, from beyond both ends and from inside it
    a_hat = (cap.p1 - cap.p0) / np.linalg.norm(cap.p1 - cap.p0)
    along = np.vstack([a_hat, -a_hat, a_hat + [0.0, 1e-9, 0.0], a_hat + [1e-3, 0.0, 0.0]])
    along /= np.linalg.norm(along, axis=1)[:, None]
    env = Environment([Obstacle(shape=cap)])
    for label, origin in (("below", cap.p0 - 2.0 * a_hat), ("above", cap.p1 + 2.0 * a_hat),
                          ("on-axis", cap.p0 + 0.3 * a_hat)):
        casts.append((f"capsule-axis-{label}", env, origin, along, 0.0, 100.0))
    return casts


_CASTS = _exactness_casts()


# "error": a numpy RuntimeWarning (say 0 * inf on a zero direction component
# outside np.errstate) fails the cast
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _CASTS, ids=[c[0] for c in _CASTS])
def test_cast_rays_bit_identical_to_reference(case):
    label, env, origin, dirs, t, max_range = case
    got = env.cast_rays(origin, dirs, t, max_range)
    ref = _ref_cast_rays(env, origin, dirs, t, max_range)
    assert np.array_equal(got, ref)
    assert np.isfinite(got).any() or label == "box-skim-outside"


@pytest.mark.filterwarnings("error")
def test_cast_ray_single_bit_identical_to_reference():
    env = _bundled_env("hillside")
    origin = np.array([0.0, 0.0, 1.2])
    sensor = SensorModel()
    dirs = rosette_directions(sensor, 0)[:200]
    n_hits = 0
    for d in dirs:
        got = env.cast_rays(origin, d[None, :], 0.0, MAX_RANGE)
        ref = _ref_cast_rays(env, origin, d[None, :], 0.0, MAX_RANGE)
        assert got.shape == (1,) and np.array_equal(got, ref)
        n_hits += bool(np.isfinite(ref[0]))
    assert n_hits > 0


# --- the bounding-sphere broad phase ------------------------------------------
# Environment.cast_rays skips obstacles whose bounding sphere no ray of the
# block can reach; the reference above runs every obstacle on every cast, so
# equality with it shows that a skipped obstacle never held a hit.


def _grazing_dirs(center, radius, origin):
    """Unit rays at, just inside and just outside the tangent angle of a sphere."""
    to_c = np.asarray(center, dtype=float) - origin
    dist = np.linalg.norm(to_c)
    u = to_c / dist
    side = np.cross(u, [0.0, 0.0, 1.0])
    side /= np.linalg.norm(side)
    tangent = math.asin(radius / dist)
    angles = tangent + np.array([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-2])
    dirs = np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * side
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def _broad_phase_casts():
    """(label, env, origin, dirs, t, max_range) of casts whose obstacles lie
    behind, beside, across the edge of and inside the block's view cone."""
    sensor = SensorModel()
    hill = _bundled_env("hillside")
    indoor = _bundled_env("indoor_bar")
    casts = []
    # poses along the hillside flight, turned so obstacles fall behind the
    # sensor, beside it and across the edge of its cone
    poses = [([0.0, 0.0, 1.2], 120), ([4.0, 0.2, 1.8], 210), ([9.0, -0.5, 2.6], 420),
             ([13.5, 0.8, 3.2], 610), ([17.5, 1.4, 3.4], 800)]
    for pos, frame in poses:
        for yaw in (0.0, 0.9, -1.6, 2.4, math.pi):
            dirs = rosette_directions(sensor, frame) @ yaw_rotation(yaw).T
            casts.append((f"hillside-{frame}-yaw{yaw:.2f}", hill, pos, dirs, frame / 50.0, MAX_RANGE))
            casts.append((f"hillside-telemetry-{frame}-yaw{yaw:.2f}", hill, pos, _telemetry_dirs(yaw),
                          frame / 50.0, 25.0))
    # the indoor bar before, during and after its rise, seen from both sides
    for t in (0.0, 1.2, 2.0, 2.8, 5.0):
        for pos, yaw in (([1.0, 0.0, 1.0], 0.0), ([8.0, 0.5, 1.2], math.pi), ([4.5, 1.2, 2.0], -1.2)):
            dirs = rosette_directions(sensor, int(t * 50)) @ yaw_rotation(yaw).T
            casts.append((f"indoor-t{t}-yaw{yaw:.2f}", indoor, pos, dirs, t, MAX_RANGE))
    rng = np.random.default_rng(21)
    sphere_dirs = rng.normal(size=(2000, 3))
    sphere_dirs /= np.linalg.norm(sphere_dirs, axis=1)[:, None]
    forward = disk_to_directions(rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500))
    cap = Capsule(p0=[3.0, -1.0, 1.0], p1=[3.0, 1.0, 1.0], radius=0.1)
    box = Box(lo=[2.0, -1.0, -1.0], hi=[3.0, 1.0, 1.0])
    # origins inside a bounding sphere but outside the shape, and inside a box
    cap_env, box_env = Environment([Obstacle(shape=cap)]), Environment([Obstacle(shape=box)])
    casts.append(("in-capsule-sphere", cap_env, [3.0, 0.0, 1.5], sphere_dirs, 0.0, 100.0))
    casts.append(("in-box-sphere", box_env, [3.6, 1.2, 0.0], forward @ yaw_rotation(math.pi).T, 0.0, 100.0))
    casts.append(("in-box", box_env, [2.5, 0.0, 0.0], forward, 0.0, 100.0))
    # ... and facing away from the sphere's centre, which then lies behind the cone
    casts.append(("in-box-facing-out", box_env, [2.95, 0.0, 0.0], forward, 0.0, 100.0))
    casts.append(("in-capsule-sphere-facing-out", cap_env, [3.0, 0.95, 1.15],
                  forward @ yaw_rotation(math.pi / 2).T, 0.0, 100.0))
    # single rays grazing a sphere, whose bounding sphere is the shape itself
    ball = Sphere(center=[6.0, 1.0, 0.5], radius=0.4)
    for i, d in enumerate(_grazing_dirs(ball.center, ball.radius, np.zeros(3))):
        casts.append((f"graze-{i}", Environment([Obstacle(shape=ball)]), [0.0, 0.0, 0.0], d[None, :], 0.0, 100.0))
    # two opposed rays sum to a zero axis; a block over more than a hemisphere
    opposed = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    casts.append(("opposed", hill, [6.0, 0.3, 2.0], opposed, 2.0, MAX_RANGE))
    wide = sphere_dirs[sphere_dirs[:, 0] > -0.3]
    casts.append(("over-hemisphere", hill, [8.0, -1.0, 2.0], wide, 3.0, MAX_RANGE))
    # a range shorter than the distance to the only obstacle, then just past it
    far = Environment([Obstacle(shape=Sphere(center=[30.0, 0.0, 1.0], radius=0.5))])
    ahead = np.vstack([[1.0, 0.0, 0.0], forward])
    for max_range in (10.0, 29.5, 29.5 + 1e-9, 29.9, 40.0):
        casts.append((f"range-{max_range}", far, [0.0, 0.0, 1.0], ahead, 0.0, max_range))
    # a scheduled sphere that starts behind the sensor and moves in front of it
    sched = MotionSchedule(times=np.array([0.0, 1.0]), offsets=np.array([[0.0, 0.0, 0.0], [10.0, 0.5, 0.0]]))
    moving = Environment([Obstacle(shape=Sphere(center=[-5.0, 0.0, 1.0], radius=0.6), schedule=sched)])
    for t in (0.0, 0.7, 1.0, 2.0):
        casts.append((f"scheduled-into-view-t{t}", moving, [0.0, 0.0, 1.0], forward, t, MAX_RANGE))
    casts.append(("empty", Environment([]), [0.0, 0.0, 1.0], forward, 0.0, MAX_RANGE))
    return casts


_BROAD_CASTS = _broad_phase_casts()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _BROAD_CASTS, ids=[c[0] for c in _BROAD_CASTS])
def test_broad_phase_cast_bit_identical_to_every_obstacle(case):
    label, env, origin, dirs, t, max_range = case
    got = env.cast_rays(origin, dirs, t, max_range)
    assert np.array_equal(got, _ref_cast_rays(env, origin, dirs, t, max_range))


def test_broad_phase_casts_hit_something():
    # the cases are not all misses: most hit, so equality is not vacuous
    hits = [bool(np.isfinite(_ref_cast_rays(*c[1:])).any()) for c in _BROAD_CASTS]
    assert sum(hits) >= 0.75 * len(hits)
    assert not np.isfinite(_ref_cast_rays(*_BROAD_CASTS[-1][1:])).any()


def test_broad_phase_skips_obstacles_out_of_view(monkeypatch):
    calls = []
    for shape in (Sphere, Capsule, Box):
        def counted(self, o, d, kernel=shape.ray_hits):
            calls.append(self)
            return kernel(self, o, d)
        monkeypatch.setattr(shape, "ray_hits", counted)
    env = _bundled_env("hillside")
    origin = [12.0, -0.2, 3.0]  # obstacles at x < 8 m lie behind a sensor facing +x
    dirs = rosette_directions(SensorModel(), 640)
    got = env.cast_rays(origin, dirs, 12.8, MAX_RANGE)
    assert 0 < len(calls) < len(env.obstacles) // 2
    in_view = len(calls)
    visited = {ob.name for ob in env.obstacles if any(ob.shape is shape for shape in calls)}
    assert not visited & {"trunk01", "crown02", "stone01"}
    assert np.array_equal(got, _ref_cast_rays(env, origin, dirs, 12.8, MAX_RANGE))
    calls.clear()
    env.cast_rays(origin, dirs, 12.8, 0.5)  # short range: only spheres around the origin stay
    assert 0 < len(calls) < in_view


def test_cast_rays_refuses_rays_off_unit_length():
    env = Environment([Obstacle(shape=Sphere(center=[5, 0, 0], radius=1.0))])
    for dirs in ([[2.0, 0.0, 0.0]], [[0.5, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[np.nan, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="unit length"):
            env.cast_rays([0, 0, 0], np.array(dirs), 0.0, 100.0)
    assert env.cast_rays([0, 0, 0], np.empty((0, 3)), 0.0, 100.0).shape == (0,)


# --- the pruned ground-truth distance ------------------------------------------


def _brute_min_distance(env, p, t):
    p = np.asarray(p, dtype=float)
    return min((float(ob.distances(p[None], np.array([t]))[0]) for ob in env.obstacles), default=math.inf)


def _distance_probes(env, rng, lo, hi, times):
    """(p, t): random points and times, points inside every obstacle, and
    points on every sphere's surface."""
    probes = [(rng.uniform(lo, hi), float(rng.choice(times))) for _ in range(300)]
    for ob in env.obstacles:
        t = float(rng.choice(times))
        sh = ob.shape
        offset = ob.offset_at(t)
        if isinstance(sh, Sphere):
            u = rng.normal(size=(4, 3))
            u /= np.linalg.norm(u, axis=1)[:, None]
            inner = [sh.center, sh.center + 0.5 * sh.radius * u[0]] + list(sh.center + sh.radius * u)
        elif isinstance(sh, Capsule):
            inner = [sh.p0, sh.p1] + [sh.p0 + s * (sh.p1 - sh.p0) for s in (0.3, 0.5)]
        else:
            inner = [0.5 * (sh.lo + sh.hi), sh.lo + 0.1 * (sh.hi - sh.lo)]
        probes += [(p + offset, t) for p in inner]
    return probes


def test_min_distance_equals_minimum_over_every_obstacle():
    rng = np.random.default_rng(17)
    hill = _bundled_env("hillside")
    indoor = _bundled_env("indoor_bar")
    # the bar is scheduled: at and between its keyframes (0, 1.2, 2.8 s)
    indoor_times = [0.0, 0.6, 1.2, 1.21, 2.0, 2.79, 2.8, 4.0]
    probes = [(hill, p, t) for p, t in _distance_probes(hill, rng, [-2, -6, -0.3], [21, 6, 6], [0.0, 5.0])]
    probes += [(indoor, p, t) for p, t in _distance_probes(indoor, rng, [-1, -1.8, -0.3], [10.5, 1.8, 2.5],
                                                            indoor_times)]
    inside = 0
    for env, p, t in probes:
        got = env.min_distance(p, t)
        want = _brute_min_distance(env, p, t)
        assert got == want, (p, t, got, want)
        inside += want <= 0.0
    assert inside >= 20
    assert Environment([]).min_distance([0.0, 0.0, 1.0], 0.0) == math.inf
