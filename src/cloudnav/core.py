"""Flat UAV states, double-integrator trajectories, and point-cloud basics.

Positions, velocities and accelerations are plain float64 numpy arrays of
shape (3,) in the world frame, meters / seconds. Everything here is a value
type: functions return fresh objects and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64


def _as_vec3(v, name: str) -> Vec3:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {a}")
    return a


@dataclass(frozen=True)
class UavState:
    """Differentially-flat state sample: time, position, velocity, acceleration."""

    t: float
    p: Vec3
    v: Vec3
    a: Vec3

    def __post_init__(self):
        object.__setattr__(self, "p", _as_vec3(self.p, "p"))
        object.__setattr__(self, "v", _as_vec3(self.v, "v"))
        object.__setattr__(self, "a", _as_vec3(self.a, "a"))
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")

    @classmethod
    def hover(cls, p, t: float = 0.0) -> "UavState":
        z = np.zeros(3)
        return cls(t=t, p=np.asarray(p, dtype=float), v=z.copy(), a=z.copy())

    @classmethod
    def _unchecked(cls, t: float, p: np.ndarray, v: np.ndarray, a: np.ndarray) -> "UavState":
        # hot-path constructor for values already known finite (3,) float64
        s = object.__new__(cls)
        object.__setattr__(s, "t", t)
        object.__setattr__(s, "p", p)
        object.__setattr__(s, "v", v)
        object.__setattr__(s, "a", a)
        return s


@dataclass(frozen=True)
class KinodynamicLimits:
    v_max: float = 2.0
    a_max: float = 2.0
    primitive_duration: float = 0.6

    def __post_init__(self):
        if self.v_max <= 0 or self.a_max <= 0 or self.primitive_duration <= 0:
            raise ValueError("kinodynamic limits must be strictly positive")


def propagate(s: UavState, u, tau: float) -> UavState:
    """Closed-form double-integrator propagation of `s` under constant accel `u`."""
    u = _as_vec3(u, "u")
    if not math.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    p = s.p + s.v * tau + 0.5 * u * tau * tau
    v = s.v + u * tau
    return UavState(t=s.t + tau, p=p, v=v, a=u.copy())


@dataclass(frozen=True)
class ConstantAccelSegment:
    """One constant-acceleration motion primitive used as a search edge."""

    start: UavState
    u: Vec3
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "u", _as_vec3(self.u, "u"))
        if self.tau <= 0:
            raise ValueError("tau must be > 0")

    @property
    def duration(self) -> float:
        return self.tau

    def state_at(self, dt: float) -> UavState:
        return propagate(self.start, self.u, dt)

    def states_at(self, dts: np.ndarray):
        """Vectorized evaluation at segment-relative offsets. Returns (P, V, A)."""
        dts = np.asarray(dts, dtype=float)[:, None]
        p = self.start.p + self.start.v * dts + 0.5 * self.u * dts * dts
        v = self.start.v + self.u * dts
        a = np.broadcast_to(self.u, p.shape).copy()
        return p, v, a

    @property
    def end_state(self) -> UavState:
        return propagate(self.start, self.u, self.tau)


@dataclass(frozen=True)
class QuinticSegment:
    """Per-axis quintic polynomial segment, degree fixed by full state boundary
    conditions (position/velocity/acceleration at both ends)."""

    coeffs: np.ndarray  # (3, 6), coeffs[axis, k] multiplies t**k
    tau: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (3, 6):
            raise ValueError(f"coeffs must have shape (3, 6), got {c.shape}")
        object.__setattr__(self, "coeffs", c)
        if self.tau <= 0:
            raise ValueError("tau must be > 0")

    @property
    def duration(self) -> float:
        return self.tau

    @classmethod
    def solve(cls, start: UavState, end_p, end_v, end_a, tau: float) -> "QuinticSegment":
        """Two-point boundary-value problem from `start` to the given end state."""
        end_p = _as_vec3(end_p, "end_p")
        end_v = _as_vec3(end_v, "end_v")
        end_a = _as_vec3(end_a, "end_a")
        if tau <= 0:
            raise ValueError("tau must be > 0")
        c0 = start.p
        c1 = start.v
        c2 = 0.5 * start.a
        T = tau
        A = np.array(
            [
                [T**3, T**4, T**5],
                [3 * T**2, 4 * T**3, 5 * T**4],
                [6 * T, 12 * T**2, 20 * T**3],
            ]
        )
        b = np.stack(
            [
                end_p - (c0 + c1 * T + c2 * T * T),
                end_v - (c1 + 2 * c2 * T),
                end_a - 2 * c2,
            ]
        )  # (3 conditions, 3 axes)
        high = np.linalg.solve(A, b)  # (3 coeffs, 3 axes)
        coeffs = np.column_stack([c0, c1, c2, high[0], high[1], high[2]])
        return cls(coeffs=coeffs, tau=tau)

    def states_at(self, dts: np.ndarray):
        dts = np.asarray(dts, dtype=float)
        powers = dts[:, None] ** np.arange(6)[None, :]  # (T, 6)
        k = np.arange(6)
        dpow = np.zeros_like(powers)
        dpow[:, 1:] = powers[:, :-1] * k[1:]
        ddpow = np.zeros_like(powers)
        ddpow[:, 2:] = powers[:, :-2] * (k[2:] * (k[2:] - 1))
        p = powers @ self.coeffs.T
        v = dpow @ self.coeffs.T
        a = ddpow @ self.coeffs.T
        return p, v, a

    def state_at(self, dt: float) -> UavState:
        p, v, a = self.states_at(np.array([dt]))
        return UavState(t=dt, p=p[0], v=v[0], a=a[0])


@dataclass(frozen=True)
class Trajectory:
    """Time-contiguous chain of segments, evaluable anywhere in its time span.

    Position and velocity are continuous across joins; acceleration may jump.
    """

    segments: tuple
    t0: float
    _bounds: tuple = field(init=False, repr=False, compare=False)
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("trajectory needs at least one segment")
        object.__setattr__(self, "segments", segs)
        bounds = [0.0]
        for s in segs:
            bounds.append(bounds[-1] + s.duration)
        object.__setattr__(self, "_bounds", tuple(bounds))
        # states_at's per-segment rows: start p, start v and u of the constant-
        # acceleration segments (zero rows for the others, which it evaluates apart)
        ca = [isinstance(s, ConstantAccelSegment) for s in segs]
        rows = np.array([(s.start.p, s.start.v, s.u) if c else np.zeros((3, 3)) for s, c in zip(segs, ca)])
        other = tuple(i for i, c in enumerate(ca) if not c)
        durations = np.array([s.duration for s in segs])
        sp, sv, u = rows[:, 0], rows[:, 1], rows[:, 2]
        object.__setattr__(self, "_table", (np.asarray(bounds), durations, sp, sv, u, 0.5 * u, other))

    @property
    def duration(self) -> float:
        return self._bounds[-1]

    @property
    def t_end(self) -> float:
        return self.t0 + self.duration

    def state_at(self, t: float) -> UavState:
        rel = t - self.t0
        if rel < -1e-9 or rel > self.duration + 1e-9:
            raise ValueError(f"t={t} outside trajectory span [{self.t0}, {self.t_end}]")
        P, V, A = self.states_at(np.array([t]))
        return UavState(t=t, p=P[0], v=V[0], a=A[0])

    def states_at(self, times: np.ndarray):
        """Vectorized evaluation at absolute times. Returns (P, V, A) arrays."""
        times = np.asarray(times, dtype=float)
        bounds, durations, sp, sv, u, hu, other = self._table
        rel = np.clip(times - self.t0, 0.0, self.duration)
        idx = np.clip(np.searchsorted(bounds, rel, side="right") - 1, 0, len(self.segments) - 1)
        local = np.clip(rel - bounds[idx], 0.0, durations[idx])
        # every sample as a constant-acceleration one, in ConstantAccelSegment's
        # order of operations, so the bytes match evaluating segment by segment
        d = local[:, None]
        P = sp[idx] + sv[idx] * d + hu[idx] * d * d
        V = sv[idx] + u[idx] * d
        A = u[idx]
        for i in other:
            m = idx == i
            if m.any():
                P[m], V[m], A[m] = self.segments[i].states_at(local[m])
        return P, V, A

    @property
    def start_state(self) -> UavState:
        return self.state_at(self.t0)

    @property
    def end_state(self) -> UavState:
        return self.state_at(self.t_end)


def sample_times(t0: float, duration: float, dt: float) -> np.ndarray:
    """Arithmetic grid t0, t0+dt, ... that always includes the exact end time."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n = int(math.floor(duration / dt + 1e-9))
    ts = t0 + dt * np.arange(n + 1)
    if duration - n * dt > 1e-9:
        ts = np.append(ts, t0 + duration)
    else:
        ts[-1] = t0 + duration
    return ts


def sample_trajectory(traj: Trajectory, dt: float) -> list[UavState]:
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if dt > traj.duration + 1e-12:
        raise ValueError(f"dt={dt} exceeds trajectory duration {traj.duration}")
    ts = sample_times(traj.t0, traj.duration, dt)
    P, V, A = traj.states_at(ts)
    return [UavState(t=float(ts[i]), p=P[i], v=V[i], a=A[i]) for i in range(len(ts))]


@dataclass(frozen=True)
class PointCloud:
    """World-frame points with the acquisition time, the map substrate."""

    points: np.ndarray  # (N, 3) float64
    stamp: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = np.empty((0, 3))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite point coordinates")
        object.__setattr__(self, "points", pts)
        if self.stamp < 0:
            raise ValueError("stamp must be >= 0")

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls, stamp: float = 0.0) -> "PointCloud":
        return cls(points=np.empty((0, 3)), stamp=stamp)


# Voxel keys pack the three cell indices into one int64 (21 bits per axis,
# good for ~±100 km at 10 cm resolution).
_KEY_OFFSET = 1 << 20
_KEY_MASK = (1 << 21) - 1


def voxel_keys(points: np.ndarray, resolution: float) -> np.ndarray:
    """Packed integer key of the half-open cell [k*r, (k+1)*r) containing each point.

    Raises ValueError on non-finite points and on points outside the packable
    index range, so no point is ever cast to an arbitrary cell.
    """
    if not np.isfinite(points).all():
        raise ValueError("non-finite point coordinates")
    ijk = np.floor(points / resolution).astype(np.int64) + _KEY_OFFSET
    if ijk.size and (ijk.min() < 0 or ijk.max() > _KEY_MASK):
        raise ValueError("points outside the supported voxel index range")
    return (ijk[:, 0] << 42) | (ijk[:, 1] << 21) | ijk[:, 2]


def voxel_filter(cloud: PointCloud, resolution: float) -> PointCloud:
    """Downsample to one centroid per occupied voxel of a world-anchored grid.

    Output points are ordered by packed voxel key, so the result is a pure
    function of the input point set.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    pts = cloud.points
    if len(pts) == 0:
        return PointCloud.empty(stamp=cloud.stamp)
    keys = voxel_keys(pts, resolution)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    n = counts.astype(float)
    cx = np.bincount(inverse, weights=pts[:, 0]) / n
    cy = np.bincount(inverse, weights=pts[:, 1]) / n
    cz = np.bincount(inverse, weights=pts[:, 2]) / n
    return PointCloud(points=np.column_stack([cx, cy, cz]), stamp=cloud.stamp)


def save_cloud_txt(cloud: PointCloud, path) -> None:
    """Columnar text export: header `stamp <t> count <n>`, then one `x y z` per line."""
    with open(path, "w") as f:
        f.write(f"stamp {cloud.stamp:.9f} count {len(cloud)}\n")
        for x, y, z in cloud.points:
            f.write(f"{x:.9f} {y:.9f} {z:.9f}\n")


def load_cloud_txt(path) -> PointCloud:
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 4 or header[0] != "stamp" or header[2] != "count":
            raise ValueError(f"bad point-cloud header in {path}: {header}")
        stamp = float(header[1])
        count = int(header[3])
        pts = np.loadtxt(f, ndmin=2) if count else np.empty((0, 3))
    if pts.shape[0] != count:
        raise ValueError(f"{path}: header count {count} != {pts.shape[0]} rows")
    return PointCloud(points=pts, stamp=stamp)
