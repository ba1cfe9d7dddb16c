import math

import numpy as np
import pytest

from cloudnav.cli import resolve_scenario_path
from cloudnav.scenario import MAX_GEOMETRY, load_scenario
from cloudnav.sensor import (
    _UNIT_TOL,
    _CapsuleTable,
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
# return the same bits on every cast: a change of BLAS call shape (a gemm over
# obstacles, einsum, a one-row matvec) moves the last bits of some dot
# products, and with them scan points, maps and flights. A matvec over two or
# more rows of a C-contiguous block rounds each row as the whole block's does
# (test_row_subset_matvec_rounds_as_the_block), which the capsule band uses.


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


# The capsule band: Capsule.ray_hits casts only the rows whose ray lines can
# pass within its radius of its axis line, or the whole block where it cannot
# tell. Equality with the reference, which casts every row, shows that no
# dropped row held a hit.


def _band_rows(cap, origin, dirs):
    """The rows the capsule pass casts for this capsule; None for the whole block."""
    oc = (np.asarray(origin, dtype=float) - cap.p0)[None]
    return _CapsuleTable([cap])._band([0], oc, oc - (oc[0] @ cap.a_hat) * cap.a_hat, dirs)[0]


_BAR = Capsule(p0=[3.0, 0.0, 0.2], p1=[3.0, 0.0, 2.2], radius=0.01)
_BAR_ORIGIN = np.array([0.0, 0.0, 1.0])  # 3 m in front of the bar, level with its middle


def _level_rays(angles):
    """Level rays from _BAR_ORIGIN at these angles (rad) off the bar: each
    angle's sine is its ray's offset from the plane through the origin and the bar."""
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles), np.zeros(len(angles))])


def _band_edge():
    """The angle where level rays leave the bar's band, found by bisection on
    the band itself: the two rays at angle 0 keep the band from padding."""
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        rows = _band_rows(_BAR, _BAR_ORIGIN, _level_rays([0.0, 0.0, mid]))
        lo, hi = (mid, hi) if 2 in rows else (lo, mid)
    return lo


def _capsule_band_casts():
    """(label, env, origin, dirs, t, max_range) of casts at the edges of the capsule band."""
    sensor = SensorModel()
    forest = load_scenario(resolve_scenario_path("forest_branch"))
    trees = forest.environment()
    start, yaw = forest.start_position, forest.start_yaw
    casts = []
    # forest rosette blocks from the start pose, with the branch above, moving
    # and lowered across the path, and from along the flight
    for frame, t in ((0, 0.0), (60, 1.2), (110, 2.2), (150, 3.0), (210, 4.2), (400, 8.0)):
        dirs = rosette_directions(sensor, frame) @ yaw_rotation(yaw).T
        casts.append((f"forest-start-t{t}", trees, start, dirs, t, MAX_RANGE))
    for pos, yaw_, t in (([4.0, 0.2, 1.4], 0.3, 3.0), ([7.0, 0.5, 1.5], -0.4, 5.0), ([9.0, -0.3, 1.3], 0.0, 6.0)):
        dirs = rosette_directions(sensor, int(t * 50)) @ yaw_rotation(yaw_).T
        casts.append((f"forest-{pos[0]}-t{t}", trees, pos, dirs, t, MAX_RANGE))
    # beside trunk tree01 (2.5, 1.2), radius 0.12: 1 mm and 5 cm outside it,
    # facing the trunk and along it
    for gap in (1e-3, 0.05):
        pos = [2.5 - 0.12 - gap, 1.2, 1.5]
        for yaw_ in (0.0, math.pi / 2):
            dirs = rosette_directions(sensor, 7) @ yaw_rotation(yaw_).T
            casts.append((f"beside-trunk-{gap}-yaw{yaw_:.2f}", trees, pos, dirs, 0.0, MAX_RANGE))
    # the same forest block laid out column-major: its matvecs round as the
    # block's do only when cast whole
    fortran = np.asfortranarray(rosette_directions(sensor, 0) @ yaw_rotation(yaw).T)
    casts.append(("forest-start-column-major", trees, start, fortran, 0.0, MAX_RANGE))
    # level rays across the bar: the band of exactly one ray (padded to two
    # rows) and of none, and rays 1e-9 rad either side of the bar's tangent
    # and of the band's edge
    bar = Environment([Obstacle(shape=_BAR)])
    tangent, edge = math.asin(_BAR.radius / 3.0), _band_edge()
    wide = np.linspace(0.05, 0.3, 40)
    for label, angles in (("one-ray", np.r_[0.0, wide]), ("one-ray-last", np.r_[wide, 1e-3]),
                          ("no-ray", wide), ("tangent", tangent + np.array([-1e-9, 0.0, 1e-9, -1e-3])),
                          ("edge", edge + np.array([-1e-9, 1e-9, 1e-3, -1e-9]))):
        casts.append((f"bar-{label}", bar, _BAR_ORIGIN, _level_rays(angles), 0.0, 100.0))
    # rays off unit length by nearly _UNIT_TOL toward the caps of a capsule 1 km
    # away: the caps' kernel, which takes rays for unit length, sees them hit
    # up to 49 um off a 10 mm cap sphere; the rays pass 20 um inside it and
    # 10 and 30 um outside it, beside it and beyond its end
    far = Capsule(p0=[1000.0, 0.0, -1.0], p1=[1000.0, 0.0, 1.0], radius=0.01)
    aims = [[1000.0, 0.0, 0.0]]
    for c in (far.p0, far.p1):
        for w in ([0.0, 1.0, 0.0], [-c[2], 0.0, c[0]] / np.linalg.norm(c)):
            aims += [c + (far.radius + gap) * np.asarray(w) for gap in (-2e-5, 1e-5, 3e-5)]
    aims = np.array(aims) / np.linalg.norm(aims, axis=1)[:, None]
    for sign in (1.0, -1.0):
        dirs = aims * math.sqrt(1.0 + sign * 0.99 * _UNIT_TOL)
        casts.append((f"far-caps-off-unit{sign:+.0f}", Environment([Obstacle(shape=far)]), [0.0, 0.0, 0.0],
                      dirs, 0.0, 2000.0))
    # origins inside the capsule, on its axis line beyond either end, and in
    # its infinite cylinder past the segment: the band casts the whole block
    rng = np.random.default_rng(25)
    targets = _BAR.p0 + rng.uniform(-0.1, 1.1, (250, 1)) * (_BAR.p1 - _BAR.p0) + rng.normal(0.0, 0.01, (250, 3))
    for label, origin in (("inside", [3.0, 0.005, 1.0]), ("axis-below", [3.0, 0.0, -1.0]),
                          ("axis-above", [3.0, 0.0, 3.5]), ("cylinder-past-end", [3.0, 0.006, 2.5])):
        dirs = np.vstack([rng.normal(size=(250, 3)), targets - origin])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        casts.append((f"bar-origin-{label}", bar, origin, dirs, 0.0, 100.0))
    # the scheduled indoor bar before, during and after its rise
    indoor = _bundled_env("indoor_bar")
    for t in (0.0, 1.5, 2.0, 2.6, 3.5):
        dirs = rosette_directions(sensor, int(t * 50) + 3) @ yaw_rotation(0.05).T
        casts.append((f"indoor-bar-t{t}", indoor, [1.5, 0.1, 1.1], dirs, t, MAX_RANGE))
    # capsule coordinates near MAX_GEOMETRY, seen from afar and from beside it
    huge = Capsule(p0=[MAX_GEOMETRY, 0.0, -0.1 * MAX_GEOMETRY], p1=[MAX_GEOMETRY, 0.0, 0.1 * MAX_GEOMETRY],
                   radius=1e-3 * MAX_GEOMETRY)
    huge_env = Environment([Obstacle(shape=huge)])
    block = rosette_directions(sensor, 2)
    casts.append(("max-geometry-afar", huge_env, [0.0, 0.0, 0.0], block, 0.0, math.inf))
    casts.append(("max-geometry-beside", huge_env, [0.97 * MAX_GEOMETRY, 0.0, 0.0], block, 0.0, math.inf))
    return casts


_CASTS = _exactness_casts()
_BAND_CASTS = _capsule_band_casts()


# "error": a numpy RuntimeWarning (say 0 * inf on a zero direction component
# outside np.errstate) fails the cast
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _CASTS + _BAND_CASTS, ids=[c[0] for c in _CASTS + _BAND_CASTS])
def test_cast_rays_bit_identical_to_reference(case):
    label, env, origin, dirs, t, max_range = case
    got = env.cast_rays(origin, dirs, t, max_range)
    ref = _ref_cast_rays(env, origin, dirs, t, max_range)
    assert np.array_equal(got, ref)
    assert np.isfinite(got).any() or label in ("box-skim-outside", "bar-no-ray", "bar-edge")


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


# --- the capsule band: which rows reach the kernel -----------------------------


def test_capsule_band_cases_take_the_paths_they_name():
    cases = {c[0]: c for c in _BAND_CASTS}
    rows = {label: _band_rows(_BAR, c[2], c[3]) for label, c in cases.items() if label.startswith("bar-")}
    assert rows["bar-one-ray"].tolist() == [0, 1]  # ray 0 alone, padded with ray 1
    assert rows["bar-one-ray-last"].tolist() == [0, 40]
    assert rows["bar-no-ray"].tolist() == []
    assert rows["bar-tangent"].tolist() == [0, 1, 2, 3]
    assert rows["bar-edge"].tolist() == [0, 3]  # just inside the edge, not just outside it
    for label in ("inside", "axis-below", "axis-above", "cylinder-past-end"):
        assert rows[f"bar-origin-{label}"] is None, label
    # rays hit short of the bar's tangent, not past it
    ref = _ref_cast_rays(*cases["bar-tangent"][1:])
    assert np.isfinite(ref)[[0, 2, 3]].tolist() == [True, False, True]
    # a column-major block is cast whole
    _, trees, start, fortran, _, _ = cases["forest-start-column-major"]
    assert _band_rows(trees.obstacles[1].shape, start, fortran) is None
    # off unit length, the caps' kernel hits rays farther off the axis than
    # radius / distance, which the band keeps
    for label in ("far-caps-off-unit+1", "far-caps-off-unit-1"):
        _, env, origin, dirs, _, max_range = cases[label]
        cap = env.obstacles[0].shape
        hit = np.isfinite(_ref_cast_rays(env, origin, dirs, 0.0, max_range))
        n = np.cross(cap.a_hat, np.asarray(origin) - cap.p0)
        off_axis = np.abs(dirs @ n) / np.linalg.norm(n)
        assert (hit & (off_axis > cap.radius / 1000.0 * (1.0 + 5e-4))).any() == label.endswith("+1")
        assert len(_band_rows(cap, origin, dirs)) == len(dirs)


def test_capsule_band_culls_most_forest_rays(monkeypatch):
    sent = []  # each capsule's rows in the pass, for the capsules with any
    band = _CapsuleTable._band

    def counted(self, which, oc, o_perp, dirs):
        bands = band(self, which, oc, o_perp, dirs)
        counts = [len(dirs) if rows is None else len(rows) for rows in bands]
        sent.extend(k for k in counts if k)
        return bands

    monkeypatch.setattr(_CapsuleTable, "_band", counted)
    forest = load_scenario(resolve_scenario_path("forest_branch"))
    env, sensor = forest.environment(), forest.sensor
    for frame in range(5):
        dirs = rosette_directions(sensor, frame) @ yaw_rotation(forest.start_yaw).T
        env.cast_rays(forest.start_position, dirs, 0.0, MAX_RANGE)
    assert len(sent) >= 5 * 8  # most trees are in view
    assert sum(sent) < 0.1 * sensor.points_per_frame * len(sent)


@pytest.mark.filterwarnings("error")
def test_capsule_band_bit_identical_on_random_geometry():
    # capsules from 1 mm to 1e149 m out, origins beside them and near their
    # axis lines beyond the ends, rays aimed at them and off unit length by up to _UNIT_TOL
    rng = np.random.default_rng(47)
    culled = hit = 0
    for _ in range(400):
        scale = 10.0 ** rng.uniform(-3, 149)
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        p0 = rng.normal(size=3) * scale
        length, radius = scale * 10.0 ** rng.uniform(-3, 0), scale * 10.0 ** rng.uniform(-5, -1)
        cap = Capsule(p0=p0, p1=p0 + length * a, radius=radius)
        side = np.cross(a, rng.normal(size=3))
        side /= np.linalg.norm(side)
        if rng.random() < 0.5:
            origin = p0 + rng.uniform(0, 1) * length * a + side * radius * 10.0 ** rng.uniform(0, 4)
        else:
            origin = p0 - rng.uniform(0.1, 100) * length * a + side * radius * rng.uniform(0.5, 3)
        targets = cap.p0 + rng.uniform(-0.2, 1.2, (60, 1)) * (cap.p1 - cap.p0) + rng.normal(size=(60, 3)) * radius
        dirs = np.vstack([targets - origin, rng.normal(size=(20, 3))])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        dirs *= np.sqrt(1.0 + rng.choice([0.0, 0.99, -0.99], (len(dirs), 1)) * _UNIT_TOL)
        ref = _ref_capsule(cap.p0, cap.p1, cap.radius, origin, dirs)
        assert np.array_equal(cap.ray_hits(origin, dirs), ref)
        culled += _band_rows(cap, origin, dirs) is not None
        hit += bool(np.isfinite(ref).any())
    assert culled >= 150 and hit >= 300


# --- the capsule pass: every capsule of a cast in one elementwise pass ----------
# Environment.cast_rays hands all capsules in view to one _CapsuleTable.ray_hits
# call. Each capsule keeps its own matvecs over its band; the elementwise steps
# run once over all capsules' rows. Equality with the reference, which casts
# each capsule alone over every row, shows that the shared pass rounds as the
# per-capsule kernel did.


def _pass_sizes(monkeypatch):
    """Record how many capsules each call of the capsule pass receives."""
    sizes, kernel = [], _CapsuleTable.ray_hits

    def counted(self, which, origins, dirs, best):
        sizes.append(len(which))
        return kernel(self, which, origins, dirs, best)

    monkeypatch.setattr(_CapsuleTable, "ray_hits", counted)
    return sizes


@pytest.mark.filterwarnings("error")
def test_capsule_pass_bit_identical_on_forest_frames_with_the_branch_moving(monkeypatch):
    sizes = _pass_sizes(monkeypatch)
    forest = load_scenario(resolve_scenario_path("forest_branch"))
    env, sensor = forest.environment(), forest.sensor
    branch = env.obstacles[-1]
    assert branch.name == "branch" and branch.schedule is not None
    branch_hits = 0
    # the branch sweeps down from t = 2.0 to 4.4 s: frames along its motion,
    # from the start pose and from poses nearer to it
    for pos, yaw, times in ((forest.start_position, forest.start_yaw, (2.1, 2.5, 3.0, 3.5, 4.0, 4.38)),
                            ([4.5, 0.3, 1.4], 0.1, (2.7, 3.3, 4.1)), ([6.0, -0.4, 1.2], -0.2, (3.8, 4.3))):
        for t in times:
            dirs = rosette_directions(sensor, int(round(t * 50))) @ yaw_rotation(yaw).T
            assert np.array_equal(env.cast_rays(pos, dirs, t, MAX_RANGE), _ref_cast_rays(env, pos, dirs, t, MAX_RANGE))
            sh = branch.shape
            o = np.asarray(pos, dtype=float) - branch.offset_at(t)
            branch_hits += int(np.isfinite(_ref_capsule(sh.p0, sh.p1, sh.radius, o, dirs)).sum())
    assert branch_hits > 0  # the moving branch is hit, not only the trunks
    assert len(sizes) == 11 and min(sizes) >= 8  # most capsules share each pass


@pytest.mark.filterwarnings("error")
def test_capsule_pass_mixes_empty_one_row_and_whole_block_bands(monkeypatch):
    sizes = _pass_sizes(monkeypatch)
    origin = _BAR_ORIGIN

    def bar(angle):  # a 20 mm vertical bar 3 m from the origin, at this azimuth
        foot = [3.0 * math.cos(angle), 3.0 * math.sin(angle)]
        return Capsule(p0=[*foot, 0.2], p1=[*foot, 2.2], radius=0.01)

    none, one, banded = bar(-0.6), bar(0.6), bar(0.2)
    # a level capsule whose axis line runs through the origin: cast whole
    whole = Capsule(p0=[2.0, -2.0, 1.0], p1=[4.0, -4.0, 1.0], radius=0.05)
    capsules = [none, one, whole, banded]
    env = Environment([Obstacle(shape=c) for c in capsules])
    angles = [-math.pi / 4, -math.pi / 4 + 1e-3, -0.5, -0.7, 0.05, 0.2 - 1e-3, 0.2, 0.2 + 1e-3, 0.3, 0.6, 0.8]
    dirs = _level_rays(angles)
    assert _band_rows(none, origin, dirs).tolist() == []
    assert _band_rows(one, origin, dirs).tolist() == [0, 9]  # ray 9 alone, padded with ray 0
    assert _band_rows(whole, origin, dirs) is None
    assert _band_rows(banded, origin, dirs).tolist() == [5, 6, 7]
    got = env.cast_rays(origin, dirs, 0.0, 100.0)
    assert sizes == [4]
    assert np.array_equal(got, _ref_cast_rays(env, origin, dirs, 0.0, 100.0))
    assert np.isfinite(got).tolist() == [True, True, False, False, False, True, True, True, False, True, False]


def _tilted_capsules(rng, count):
    """Capsules with tilted axes 3-8 m ahead of the origin, whose matvecs round
    (an axis-aligned one's dot products with its axis are exact)."""
    caps = []
    for _ in range(count):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        p0 = [rng.uniform(3.0, 8.0), rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)]
        caps.append(Capsule(p0=p0, p1=p0 + rng.uniform(0.3, 2.0) * a, radius=rng.uniform(0.05, 0.4)))
    return caps


@pytest.mark.filterwarnings("error")
def test_capsule_pass_bit_identical_on_whole_block_layouts(monkeypatch):
    # blocks every capsule casts whole: column-major, a strided view, and
    # single rays; over the forest with the branch moving, and over tilted
    # capsules whose caps the rays hit
    sizes = _pass_sizes(monkeypatch)
    forest = load_scenario(resolve_scenario_path("forest_branch"))
    rng = np.random.default_rng(26)
    caps = _tilted_capsules(rng, 6)
    targets = np.vstack([c.p0 + rng.uniform(-0.3, 1.3, (80, 1)) * (c.p1 - c.p0) + rng.normal(0.0, c.radius, (80, 3))
                         for c in caps])
    aimed = targets / np.linalg.norm(targets, axis=1)[:, None]
    scenes = [(forest.environment(), np.array([4.5, 0.3, 1.4]), 3.3,
               rosette_directions(forest.sensor, 165) @ yaw_rotation(0.1).T),
              (Environment([Obstacle(shape=c) for c in caps]), np.zeros(3), 0.0, aimed)]
    for env, pos, t, block in scenes:
        for dirs in (np.asfortranarray(block), block[::2]):
            assert not dirs.flags.c_contiguous
            got = env.cast_rays(pos, dirs, t, MAX_RANGE)
            assert np.array_equal(got, _ref_cast_rays(env, pos, dirs, t, MAX_RANGE))
            assert np.isfinite(got).any()
        assert all(_band_rows(c, pos, np.asfortranarray(block)) is None for c in env._capsules.shapes)
        # single rays, one cast each (a one-row matvec rounds unlike the
        # block's): rays that hit something in the block and rays that miss
        hits = np.isfinite(_ref_cast_rays(env, pos, block, t, MAX_RANGE))
        n_hits = 0
        for i in np.r_[np.flatnonzero(hits)[::max(1, hits.sum() // 60)], np.flatnonzero(~hits)[:20]]:
            ray = block[i][None, :]
            got = env.cast_rays(pos, ray, t, MAX_RANGE)
            assert got.shape == (1,) and np.array_equal(got, _ref_cast_rays(env, pos, ray, t, MAX_RANGE))
            n_hits += bool(np.isfinite(got[0]))
        assert n_hits >= 40
    assert min(sizes[:2]) >= 8 and sizes.count(6) >= 2  # the blocks cast most capsules in one pass


@pytest.mark.filterwarnings("error")
def test_capsule_pass_bit_identical_at_the_segment_rims():
    # rays aimed at the rim where the cylinder meets a cap: the axial
    # coordinate of the cylinder hit is 0 or the length to within rounding,
    # so its own one-row matvec decides whether the cylinder or the cap sphere
    # reports the hit
    rng = np.random.default_rng(27)
    rims = 0
    for trial in range(1000):
        (cap,) = _tilted_capsules(rng, 1)
        side = np.cross(cap.a_hat, rng.normal(size=3))
        side /= np.linalg.norm(side)
        end = cap.p1 if trial % 2 else cap.p0
        origin = end + rng.uniform(-2.0, 2.0) * cap.a_hat + side * rng.uniform(1.5, 6.0)
        aim = end + cap.radius * side - origin
        away = np.cross(aim, cap.a_hat)
        dirs = np.array([aim, aim + 0.5 * np.linalg.norm(aim) * away / np.linalg.norm(away)])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        got = cap.ray_hits(origin, dirs)
        assert np.array_equal(got, _ref_capsule(cap.p0, cap.p1, cap.radius, origin, dirs)), trial
        rims += bool(np.isfinite(got[0])) and not np.isfinite(got[1])
    assert rims == 1000


def test_row_subset_matvec_rounds_as_the_block():
    # what the capsule band rests on: a matvec over any two or more rows of a
    # C-contiguous block returns those rows of the block's matvec bit for bit;
    # the capsule pass also takes them as row slices of a gathered block, at
    # any row offset, and writes them into slices of a shared output
    rng = np.random.default_rng(31)
    sensor = SensorModel()
    for frame in range(8):
        dirs = rosette_directions(sensor, 97 * frame) @ yaw_rotation(rng.uniform(-math.pi, math.pi)).T
        for v in (rng.normal(size=3), rng.normal(size=3) * 1e3, rng.normal(size=3) * 1e-3):
            full = dirs @ v
            for k in (2, 3, 4, 5, 17, 100, 1000, 4799, 4800, *rng.integers(2, 4801, 4)):
                idx = np.sort(rng.choice(len(dirs), int(k), replace=False))
                assert np.array_equal(dirs[idx] @ v, full[idx]), (frame, k)
            # slices at odd and even row offsets of a gathered block, into slices of one output
            rows = np.sort(rng.choice(len(dirs), 600, replace=False))
            gathered, out = dirs[rows], np.full(700, np.nan)
            for s, e in ((1, 3), (3, 40), (7, 8), (40, 41), (41, 300), (301, 302), (302, 599), (0, 600)):
                at = int(rng.integers(0, 100))
                np.matmul(gathered[s:e], v, out=out[at:at + e - s])
                # one row rounds unlike the block, but as the same row alone
                want = dirs[rows[s:e]] @ v if e - s == 1 else full[rows[s:e]]
                assert np.array_equal(out[at:at + e - s], want), (frame, s, e)


def test_vecdot_rounds_as_each_row_dot():
    # the capsule pass takes each capsule's 3-vector dot products from one
    # np.vecdot call: it must round each row as `x @ y` does
    rng = np.random.default_rng(32)
    x = rng.normal(size=(5000, 3)) * 10.0 ** rng.uniform(-6, 6, (5000, 1))
    y = rng.normal(size=(5000, 3)) * 10.0 ** rng.uniform(-6, 6, (5000, 1))
    want = np.array([a @ b for a, b in zip(x, y)])
    assert np.array_equal(np.vecdot(x, y), want)
    g = np.stack([x, y, x + y], axis=1)  # rows of a (K, 3, 3) block, as the pass lays them out
    assert np.array_equal(np.vecdot(g, g)[:, 1], [b @ b for b in y])


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
    calls = []  # the shapes cast: spheres and boxes one by one, capsules in one pass
    for shape in (Sphere, Box):
        def counted(self, o, d, kernel=shape.ray_hits):
            calls.append(self)
            return kernel(self, o, d)
        monkeypatch.setattr(shape, "ray_hits", counted)

    def counted_capsules(self, which, origins, d, best, kernel=_CapsuleTable.ray_hits):
        calls.extend(self.shapes[i] for i in which)
        return kernel(self, which, origins, d, best)
    monkeypatch.setattr(_CapsuleTable, "ray_hits", counted_capsules)
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
