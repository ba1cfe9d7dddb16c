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
    hit = env.cast_ray([0, 0, 0], [1, 0, 0], 0.0, 100.0)
    assert hit is not None
    assert np.allclose(hit, [4, 0, 0], atol=1e-12)


def test_cast_ray_miss_returns_none():
    env = Environment([Obstacle(shape=Sphere(center=[5, 5, 5], radius=0.5))])
    assert env.cast_ray([0, 0, 0], [1, 0, 0], 0.0, 100.0) is None


def test_cast_ray_requires_unit_direction():
    env = Environment([])
    with pytest.raises(ValueError):
        env.cast_ray([0, 0, 0], [2, 0, 0], 0.0, 10.0)


def test_cast_ray_respects_max_range():
    env = Environment([Obstacle(shape=Sphere(center=[50, 0, 0], radius=1.0))])
    assert env.cast_ray([0, 0, 0], [1, 0, 0], 0.0, 10.0) is None


def test_box_ray_hits_front_face():
    box = Box(lo=[2, -1, -1], hi=[3, 1, 1])
    t = box.ray_hits(np.zeros(3), np.array([[1.0, 0, 0]]))[0]
    assert t == pytest.approx(2.0)


def test_box_parallel_ray_outside_misses():
    box = Box(lo=[2, -1, -1], hi=[3, 1, 1])
    t = box.ray_hits(np.array([0.0, 2.0, 0.0]), np.array([[1.0, 0, 0]]))[0]
    assert np.isinf(t)


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
    assert env.cast_ray([0, 0, 0], [1, 0, 0], 0.0, 100.0) is None  # still lowered
    hit = env.cast_ray([0, 0, 0], [1, 0, 0], 1.0, 100.0)  # raised into place
    assert hit is not None and hit[0] == pytest.approx(4.0)


def test_generate_scan_empty_environment():
    scan = generate_scan(
        Environment([]), SensorModel(), [0, 0, 1], yaw_rotation(0.0), 0.0,
        np.random.default_rng(0), frame_index=0,
    )
    assert len(scan) == 0
    assert scan.stamp == 0.0


def test_points_per_frame():
    s = SensorModel(points_per_second=240000)
    assert s.points_per_frame == 4800
    assert FRAME_DT == pytest.approx(0.02)


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
        hit = env.cast_ray(origin, d, 0.0, MAX_RANGE)
        th = _ref_cast_rays(env, origin, d[None, :], 0.0, MAX_RANGE)[0]
        if np.isfinite(th):
            n_hits += 1
            assert np.array_equal(hit, origin + th * d)
        else:
            assert hit is None
    assert n_hits > 0

