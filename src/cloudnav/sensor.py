"""Synthetic forward-looking lidar over an analytic obstacle environment.

Obstacles are spheres, capsules (thin bars and branches) and axis-aligned
boxes, optionally translated over time by a piecewise-linear schedule. Scans
are produced by closed-form ray casting along a Risley-style rosette sweep
inside the elliptical field of view.

Each obstacle casts with its own matvecs (`dirs @ v`) and 3-vector dot
products: a gemm over all obstacles, `einsum` or a written-out dot product
rounds some hits differently, which moves scan points and with them every map
and flight. A cast puts its ray block in C order first, so its bits depend on
the rays' values, not their memory layout. A matvec over two or more rows of a
C-contiguous block rounds each row as the whole block's does (a one-row matvec
does not), also as a row slice of a larger block and into a slice of a larger
output. So a capsule casts only the rows in its band, the rays whose lines pass
within its radius of its axis line, and all capsules of a cast share one pass
(_CapsuleTable): each keeps its matvecs, on its slice of the gathered rows,
while every elementwise step runs once over all their rows. Only elementwise
work is otherwise restructured.

A cast skips an obstacle whose bounding sphere, seen from outside, lies out of
range or off the ray block's view cone. A skipped obstacle, like a ray outside
a capsule's band, could only have returned inf to the minimum, so no byte moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import PointCloud

_EPS = 1e-12
# Broad-phase slack, far above float error: bounding radii grow by it (relative
# and in metres), the view cone by it in radians.
_SLACK = 1e-6
# How far a ray's squared length may be off 1 (a scan's rays are off by about
# 1e-15). The sphere and cap kernels take rays for unit length, so a capsule's
# band widens by it (_CapsuleTable._band).
_UNIT_TOL = 1e-12


def _nearest_roots(b: np.ndarray, c) -> np.ndarray:
    """Smallest root above _EPS of t^2 + 2 b t + c, elementwise (b and c
    broadcast to b's shape); inf where there is none."""
    disc = b * b - c
    t = np.full(b.shape, np.inf)
    m = disc >= 0
    if m.any():
        sq = np.sqrt(disc[m])
        t0, t1 = -b[m] - sq, -b[m] + sq
        t[m] = np.where(t0 > _EPS, t0, np.where(t1 > _EPS, t1, np.inf))
    return t


def slab_interval(lo, hi, origin, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slab test (Kay & Kajiya) of the lines origin + t dirs[i], from one point,
    against the box [lo, hi]: each line's entry and exit parameters (t_near,
    t_far), empty where t_near > t_far. A direction component below _EPS is
    parallel: its slab holds the line (faces included) for every t or none."""
    # One axis at a time: np.maximum/np.minimum chains give the t_near/t_far
    # of a max/min over (N, 3) arrays at a fraction of the cost.
    parallel = np.abs(dirs) < _EPS
    any_parallel = parallel.any()
    t_near, t_far = -np.inf, np.inf
    with np.errstate(divide="ignore", invalid="ignore"):  # 1/0 and 0 * inf
        for k, d in enumerate(dirs.T):
            inv = 1.0 / d
            t1 = (lo[k] - origin[k]) * inv
            t2 = (hi[k] - origin[k]) * inv
            low, high = np.minimum(t1, t2), np.maximum(t1, t2)
            if any_parallel:  # a ray parallel to the slab stays inside it or out
                inf = np.inf if lo[k] <= origin[k] <= hi[k] else -np.inf
                low, high = np.where(parallel[:, k], -inf, low), np.where(parallel[:, k], inf, high)
            t_near, t_far = np.maximum(t_near, low), np.minimum(t_far, high)
    return t_near, t_far


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:
            raise ValueError("radius must be > 0")

    def bounding_sphere(self) -> tuple[np.ndarray, float]:
        return self.center, self.radius

    def ray_hits(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        oc = origin - self.center
        return _nearest_roots(dirs @ oc, oc @ oc - self.radius**2)

    def distances(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts - self.center, axis=-1) - self.radius


@dataclass(frozen=True)
class Capsule:
    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=float))
        if not self.radius > 0:
            raise ValueError("radius must be > 0")
        axis = self.p1 - self.p0  # the unit axis and length, fixed per capsule
        if not axis @ axis > 0:  # keeps length, the divisor of a_hat, > 0; far-away short capsules pass
            raise ValueError("capsule endpoints must differ")
        object.__setattr__(self, "length", np.linalg.norm(axis))
        object.__setattr__(self, "a_hat", axis / self.length)

    def bounding_sphere(self) -> tuple[np.ndarray, float]:
        return 0.5 * (self.p0 + self.p1), 0.5 * self.length + self.radius

    def distances(self, pts: np.ndarray) -> np.ndarray:
        s = np.clip((pts - self.p0) @ self.a_hat, 0.0, self.length)
        closest = self.p0 + s[..., None] * self.a_hat
        return np.linalg.norm(pts - closest, axis=-1) - self.radius


class _CapsuleTable:
    """Capsules stacked for one pass over all of them: p0, p1 and the unit
    axis a_hat of each as (K, 3, 3) rows, radius**2 and length as (K, 2)."""

    def __init__(self, capsules: list[Capsule]):
        self.frames = np.array([(c.p0, c.p1, c.a_hat) for c in capsules]).reshape(-1, 3, 3)
        self.r2_length = np.array([(c.radius**2, c.length) for c in capsules], dtype=float).reshape(-1, 2)

    def ray_hits(self, which, origins: np.ndarray, dirs: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Lower best, in place, to each ray's range to its first hit on the
        capsules `which` (table rows), the k-th of them cast from origins[k];
        return best. dirs must be C-contiguous.

        Each capsule casts the rows of its band with matvecs of its own; every
        elementwise step runs once over all capsules' rows, each row with its
        capsule's scalars, and np.minimum.at folds the hits into best.
        """
        frames, (r2, length) = self.frames[which], self.r2_length[which].T
        a = frames[:, 2]
        g = np.empty((len(a), 3, 3))  # each capsule's o_perp, then its origin from p0 and from p1
        o_perp, oc, oc1 = g.transpose(1, 0, 2)
        np.subtract(origins[:, None], frames[:, :2], out=g[:, 1:])
        oc_a = np.vecdot(oc, a)  # one ddot a capsule, as `oc @ a` rounds
        np.subtract(oc, oc_a[:, None] * a, out=o_perp)
        bands = self._band(a, oc, o_perp, r2, length, dirs)
        counts = [len(rows) for rows in bands]
        ends = list(accumulate(counts))
        n = ends[-1]
        if not n:
            return best
        rows = np.concatenate(bands)
        cap = np.arange(len(bands)).repeat(counts)
        spans = list(zip([0, *ends], ends))
        d = dirs[rows]
        # three quadratics a row, t^2 A + 2 b t + c = 0: the infinite cylinder
        # around the axis, whose hits are then clipped to the segment span, and
        # the two cap spheres, for which A is 1
        u, b = np.empty(n), np.empty((3, n))
        for (s, e), av, v0, v1 in zip(spans, a, oc, oc1):
            if e > s:
                np.matmul(d[s:e], av, out=u[s:e])
                np.matmul(d[s:e], v0, out=b[1, s:e])
                np.matmul(d[s:e], v1, out=b[2, s:e])
        d_perp = d - u[:, None] * a[cap]  # C-contiguous: its row slices' matvecs round as the block's
        for (s, e), vp in zip(spans, o_perp):
            if e > s:
                np.matmul(d_perp[s:e], vp, out=b[0, s:e])
        x, y, z = d_perp.T
        A = np.empty((3, n))
        np.add(x * x + y * y, z * z, out=A[0])
        A[1:] = 1.0
        c = (np.vecdot(g, g) - r2[:, None])[cap].T
        disc = np.where(A > _EPS, b * b - A * c, -1.0).ravel()
        hm = (disc >= 0).nonzero()[0]
        sq, nb, ah = np.sqrt(disc[hm]), -b.ravel()[hm], A.ravel()[hm]
        t0, t1 = (nb - sq) / ah, (nb + sq) / ah
        tc = np.where(t0 > _EPS, t0, np.where(t1 > _EPS, t1, np.inf))
        # the cylinder's hits lead hm; each capsule's take a matvec of their
        # own, as one row rounds unlike a block
        cyl = hm[:hm.searchsorted(n)]
        d_hit, along = d[cyl], np.empty(len(cyl))
        cuts = cyl.searchsorted([0, *ends]).tolist()
        for s, e, av in zip(cuts, cuts[1:], a):
            if e > s:
                np.matmul(d_hit[s:e], av, out=along[s:e])
        # axial coordinate of the cylinder hit must fall inside the segment
        # (misses carry tc=inf; the nan they produce here fails the check)
        k, tcyl = cap[cyl], tc[:len(cyl)]
        with np.errstate(invalid="ignore"):
            ax = oc_a[k] + tcyl * along
            tc[:len(cyl)] = np.where((ax >= 0) & (ax <= length[k]), tcyl, np.inf)
        np.minimum.at(best, rows[hm % n], tc)
        return best

    @staticmethod
    def _band(a, oc, o_perp, r2, length, dirs: np.ndarray) -> list:
        """Each capsule's rows of the rays that can hit it; never exactly one
        in a block of two or more.

        Every hit lies on a ray line that passes within the radius r of the
        axis line. For a the unit axis and o_perp the origin's offset from the
        axis line, that line's distance to the axis is
        |dir . (a x o_perp)| / |dir x a|, and |dir x a| <= |dir|. The caps'
        kernel takes rays for unit length: to a ray off it by _UNIT_TOL, a cap
        sphere D away looks as wide as sqrt(r^2 + _UNIT_TOL D^2). So r grows to
        that, which also covers |dir| and the cylinder's rounding, plus 1e-9 D
        for the caps' rounding. An origin within that r of the axis line keeps
        every row. The kept rows must round as the block's do: row subsets of a
        C-contiguous block do, a one-row matvec does not, so a one-row band is
        padded to two rows.
        """
        bands = []
        for (ax, ay, az), (px, py, pz), o, radius2, axis_len in zip(a.tolist(), o_perp.tolist(), oc.tolist(),
                                                                    r2.tolist(), length.tolist()):
            reach = math.hypot(*o) + axis_len  # bounds D for both caps
            r = math.sqrt(radius2 + _UNIT_TOL * reach * reach) + 1e-9 * reach
            if not math.hypot(px, py, pz) > r:  # the origin within r of the axis line, or a nan or inf scalar
                bands.append(np.arange(len(dirs)))
                continue
            n = np.array([ay * pz - az * py, az * px - ax * pz, ax * py - ay * px])  # a x o_perp
            rows = (np.abs(dirs @ n) <= r).nonzero()[0]
            bands.append(np.array([0, max(rows[0], 1)]) if len(rows) == 1 and len(dirs) > 1 else rows)
        return bands


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if not np.all(self.hi > self.lo):
            raise ValueError("box must have hi > lo on every axis")

    def bounding_sphere(self) -> tuple[np.ndarray, float]:
        return 0.5 * (self.lo + self.hi), 0.5 * float(np.linalg.norm(self.hi - self.lo))

    def ray_hits(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        t_near, t_far = slab_interval(self.lo, self.hi, origin, dirs)
        # entry hit ahead of the origin, else exit hit from inside, else miss
        hit = (t_near <= t_far) & (t_far > _EPS)
        return np.where(hit, np.where(t_near > _EPS, t_near, t_far), np.inf)

    def distances(self, pts: np.ndarray) -> np.ndarray:
        # per-axis excess over the faces: exact for a box far larger than the distance
        q = np.maximum(self.lo - pts, pts - self.hi)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside


@dataclass(frozen=True)
class MotionSchedule:
    """Piecewise-linear translation offsets over time, clamped at both ends."""

    times: np.ndarray
    offsets: np.ndarray  # (K, 3)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        o = np.asarray(self.offsets, dtype=float)
        if t.ndim != 1 or o.shape != (len(t), 3) or len(t) == 0:
            raise ValueError("schedule needs matching times (K,) and offsets (K, 3)")
        if not np.all(np.diff(t) > 0):
            raise ValueError("schedule times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "offsets", o)

    def offset_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.array([np.interp(t, self.times, column) for column in self.offsets.T]).T


@dataclass(frozen=True)
class Obstacle:
    shape: object  # Sphere | Capsule | Box
    schedule: MotionSchedule | None = None
    name: str = ""

    def offset_at(self, t):
        """Translation at time(s) t; 0.0 for a static obstacle, which leaves
        any position it is added to or subtracted from bit for bit unchanged."""
        return 0.0 if self.schedule is None else self.schedule.offset_at(t)

    def distances(self, pts: np.ndarray, t) -> np.ndarray:
        """Signed distance to the solid at time(s) t; pts (M,3), t scalar or (M,)."""
        return self.shape.distances(pts - self.offset_at(t))


class Environment:
    """Collection of (possibly moving) analytic obstacles."""

    def __init__(self, obstacles: list[Obstacle]):
        self.obstacles = tuple(obstacles)
        # bounding spheres at zero offset, inflated past any kernel's float error
        spheres = [ob.shape.bounding_sphere() for ob in self.obstacles]
        self._centers = np.array([c for c, _ in spheres]).reshape(-1, 3)
        self._radii = np.array([r for _, r in spheres]) * (1.0 + _SLACK) + _SLACK
        self._moving = [i for i, ob in enumerate(self.obstacles) if ob.schedule is not None]
        # the capsules cast together, from one table; the other shapes one by one
        is_capsule = [isinstance(ob.shape, Capsule) for ob in self.obstacles]
        self._capsule_ids = np.flatnonzero(np.array(is_capsule, dtype=bool))
        self._capsules = _CapsuleTable([self.obstacles[i].shape for i in self._capsule_ids])
        self._solid_ids = [i for i, c in enumerate(is_capsule) if not c]

    def _spheres_from(self, p: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p less each obstacle's offset at t, as (M, 3) rows (p itself for a
        static one); vectors and distances from p to the sphere centres."""
        origins = np.empty((len(self.obstacles), 3))
        origins[:] = p
        rel = self._centers - p
        for i in self._moving:
            offset = self.obstacles[i].offset_at(t)
            origins[i] -= offset
            rel[i] += offset
        return origins, rel, np.sqrt((rel * rel) @ np.ones(3))

    def cast_rays(self, origin, dirs: np.ndarray, t: float, max_range: float) -> np.ndarray:
        """Range to the first hit of each unit-length ray; inf for a miss or a
        hit beyond max_range. The bits depend on the rays' values, not on the
        block's memory layout: the block is cast in C order."""
        origin = np.asarray(origin, dtype=float)
        dirs = np.ascontiguousarray(np.atleast_2d(dirs), dtype=float)
        sq = (dirs * dirs) @ np.ones(3)
        if len(dirs) and not (sq.min() >= 1.0 - _UNIT_TOL and sq.max() <= 1.0 + _UNIT_TOL):
            raise ValueError("ray directions must have unit length")
        origins, rel, dist = self._spheres_from(origin, float(t))
        # view cone: the rays' summed axis (a gemv: dirs.sum(axis=0) costs 20 times more)
        # and the widest ray's angle from it, widened for rays off unit length; pi when rays cancel
        axis = np.ones(len(dirs)) @ dirs
        norm = max(math.sqrt(axis @ axis), _SLACK)
        cone = math.acos(max((dirs @ axis).min() / norm - 4.0 * _SLACK, -1.0)) if norm > _SLACK else math.pi
        far = np.maximum(dist, self._radii)  # keeps R / far <= 1 and finite when the origin is inside
        off_axis = np.arccos(np.clip(rel @ axis / (norm * far), -1.0, 1.0))
        beyond = off_axis > cone + np.arcsin(self._radii / far) + _SLACK
        reach = dist - self._radii  # nan compares False: a nan origin skips nothing
        skip = (reach > 0.0) & ((reach > max_range * (1.0 + _SLACK)) | beyond)
        best = np.full(len(dirs), np.inf)
        skipped = skip.tolist()
        for i in self._solid_ids:
            if not skipped[i]:
                np.minimum(best, self.obstacles[i].shape.ray_hits(origins[i], dirs), out=best)
        cast = (~skip[self._capsule_ids]).nonzero()[0]
        if len(cast):
            self._capsules.ray_hits(cast, origins[self._capsule_ids[cast]], dirs, best)
        best[best > max_range] = np.inf
        return best

    def min_distance(self, p, t: float) -> float:
        """Smallest signed distance from p to any obstacle at time t: obstacles
        are visited by their lower bound |p - c| - R until it exceeds the best."""
        p = np.asarray(p, dtype=float)
        bounds = (self._spheres_from(p, float(t))[2] - self._radii).tolist()
        pts, ts = p[None, :], np.array([float(t)])
        best = math.inf
        for i in np.argsort(bounds).tolist():
            if bounds[i] > best:
                break
            best = min(best, float(self.obstacles[i].distances(pts, ts)[0]))
        return best


# The Livox Avia the paper flies: elliptical field of view, frame rate,
# maximum range and one-sigma range noise. Only the point rate is a setting.
FOV_H_DEG = 70.4
FOV_V_DEG = 77.2
FRAME_RATE = 50.0
FRAME_DT = 1.0 / FRAME_RATE
MAX_RANGE = 450.0
RANGE_NOISE_SIGMA = 0.02
RANGE_NOISE_BOUND = 3.0 * RANGE_NOISE_SIGMA  # the noise clip: no return lies farther off its surface
# Ceiling on one frame's ray block, so its (N, 3) arrays stay allocatable.
MAX_RAYS_PER_FRAME = 10**6


@dataclass(frozen=True)
class SensorModel:
    points_per_second: float = 240000.0

    def __post_init__(self):
        # at or below half a ray a frame, points_per_frame rounds to 0: the UAV would fly blind
        if not self.points_per_second > FRAME_RATE / 2:
            raise ValueError(f"points_per_second must be > {FRAME_RATE / 2:g} (at least one ray per frame)")
        if self.points_per_second > MAX_RAYS_PER_FRAME * FRAME_RATE:
            raise ValueError(f"points_per_second must be <= {MAX_RAYS_PER_FRAME * FRAME_RATE:g} "
                             f"({MAX_RAYS_PER_FRAME} rays per frame)")

    @property
    def points_per_frame(self) -> int:
        return int(round(self.points_per_second / FRAME_RATE))


# Risley-style counter-rotating sweep rates (Hz). The irrational-looking ratio
# keeps consecutive frames from revisiting the same directions.
_ROSETTE_RATE_1 = 128.3
_ROSETTE_RATE_2 = 128.3 * 1.6180339887498949


def disk_to_directions(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Map unit-disk coordinates to unit direction vectors in the sensor frame
    (x forward, y left, z up) filling the elliptical FoV."""
    th_h = u * math.radians(FOV_H_DEG) / 2.0
    th_v = w * math.radians(FOV_V_DEG) / 2.0
    cv = np.cos(th_v)
    return np.column_stack([cv * np.cos(th_h), cv * np.sin(th_h), np.sin(th_v)])


def rosette_directions(sensor: SensorModel, frame_index: int) -> np.ndarray:
    """Deterministic non-repetitive sweep: superposition of two counter-rotating
    angular components sampled at the point rate."""
    n = sensor.points_per_frame
    i = frame_index * n + np.arange(n)
    t = i / sensor.points_per_second
    a1 = 2.0 * math.pi * _ROSETTE_RATE_1 * t
    a2 = -2.0 * math.pi * _ROSETTE_RATE_2 * t
    u = 0.5 * (np.cos(a1) + np.cos(a2))
    w = 0.5 * (np.sin(a1) + np.sin(a2))
    return disk_to_directions(u, w)


def yaw_rotation(yaw: float) -> np.ndarray:
    """World-from-sensor rotation for a level sensor with the given heading."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def generate_scan(
    env: Environment,
    sensor: SensorModel,
    position,
    rotation: np.ndarray,
    t: float,
    rng: np.random.Generator,
    frame_index: int,
) -> PointCloud:
    """One lidar frame: cast the frame's rays, apply range noise to the hits,
    drop the misses, and return world-frame points stamped with `t`.

    Range noise is clipped at RANGE_NOISE_BOUND so every returned point stays on
    an obstacle surface up to that bound (the sensor's false-alarm rate is
    modeled as zero). Deterministic for a fixed rng state and frame index.
    """
    position = np.asarray(position, dtype=float)
    dirs_w = rosette_directions(sensor, frame_index) @ rotation.T
    # draw noise for every ray regardless of hits to keep the stream aligned
    noise = np.clip(rng.normal(0.0, RANGE_NOISE_SIGMA, len(dirs_w)), -RANGE_NOISE_BOUND, RANGE_NOISE_BOUND)
    t_hit = env.cast_rays(position, dirs_w, t, MAX_RANGE)
    mask = np.isfinite(t_hit)
    ranges = np.maximum(t_hit[mask] + noise[mask], 1e-9)
    pts = position + dirs_w[mask] * ranges[:, None]
    return PointCloud(points=pts, stamp=t)
