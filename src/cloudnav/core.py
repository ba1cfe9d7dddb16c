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
        if not (self.v_max > 0 and self.a_max > 0 and self.primitive_duration > 0):
            raise ValueError("kinodynamic limits must be strictly positive")


def _check_duration(duration: float) -> None:
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and > 0, got {duration}")


def _constant_accel(p0: np.ndarray, v0: np.ndarray, u: np.ndarray, d: np.ndarray):
    """Closed-form double-integrator states (P, V, A) at offsets d (T, 1) from
    p0 and v0 under u; both segment and trajectory evaluation run through it,
    so their bytes agree."""
    P = p0 + v0 * d + 0.5 * u * d * d
    return P, v0 + u * d, np.broadcast_to(u, P.shape).copy()


@dataclass(frozen=True)
class ConstantAccelSegment:
    """One constant-acceleration motion primitive used as a search edge."""

    start: UavState
    u: Vec3
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "u", _as_vec3(self.u, "u"))
        _check_duration(self.duration)

    def states_at(self, dts: np.ndarray):
        """Closed-form double-integrator evaluation at segment-relative offsets.
        Returns (P, V, A)."""
        return _constant_accel(self.start.p, self.start.v, self.u, np.asarray(dts, dtype=float)[:, None])


@dataclass(frozen=True)
class QuinticSegment:
    """Per-axis quintic polynomial segment, degree fixed by full state boundary
    conditions (position/velocity/acceleration at both ends)."""

    coeffs: np.ndarray  # (3, 6), coeffs[axis, k] multiplies t**k
    duration: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (3, 6):
            raise ValueError(f"coeffs must have shape (3, 6), got {c.shape}")
        object.__setattr__(self, "coeffs", c)
        _check_duration(self.duration)

    @classmethod
    def solve(cls, start: UavState, end_p, end_v, end_a, duration: float) -> "QuinticSegment":
        """Two-point boundary-value problem from `start` to the given end state."""
        end_p = _as_vec3(end_p, "end_p")
        end_v = _as_vec3(end_v, "end_v")
        end_a = _as_vec3(end_a, "end_a")
        _check_duration(duration)
        c0, c1, c2, T = start.p, start.v, 0.5 * start.a, duration
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
        return cls(coeffs=coeffs, duration=duration)

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


@dataclass(frozen=True)
class Trajectory:
    """Time-contiguous chain of segments, evaluable anywhere in its time span.

    Position and velocity are continuous across joins; acceleration may jump.
    """

    segments: tuple
    t0: float
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("trajectory needs at least one segment")
        object.__setattr__(self, "segments", segs)
        # states_at's per-segment rows: start p, start v and u of the constant-
        # acceleration segments (zero rows for the others, which it evaluates apart)
        ca = [isinstance(s, ConstantAccelSegment) for s in segs]
        rows = np.array([(s.start.p, s.start.v, s.u) if c else np.zeros((3, 3)) for s, c in zip(segs, ca)])
        other = tuple(i for i, c in enumerate(ca) if not c)
        durations = np.array([s.duration for s in segs])
        bounds = np.concatenate([[0.0], np.cumsum(durations)])  # cumsum adds left to right
        object.__setattr__(self, "_table", (bounds, durations, rows[:, 0], rows[:, 1], rows[:, 2], other))

    @property
    def duration(self) -> float:
        return float(self._table[0][-1])

    @property
    def t_end(self) -> float:
        return self.t0 + self.duration

    def state_at(self, t: float) -> UavState:
        rel = t - self.t0
        if rel < -1e-9 or rel > self.duration + 1e-9:
            raise ValueError(f"t={t} outside trajectory span [{self.t0}, {self.t_end}]")
        P, V, A = self.states_at(np.array([t]))
        # copied rows own their data: a view would keep its whole (1, 3) base alive
        return UavState(t=t, p=P[0].copy(), v=V[0].copy(), a=A[0].copy())

    def states_at(self, times: np.ndarray):
        """Vectorized evaluation at absolute times. Returns (P, V, A) arrays."""
        times = np.asarray(times, dtype=float)
        bounds, durations, sp, sv, u, other = self._table
        rel = np.clip(times - self.t0, 0.0, self.duration)
        idx = np.clip(np.searchsorted(bounds, rel, side="right") - 1, 0, len(self.segments) - 1)
        local = np.clip(rel - bounds[idx], 0.0, durations[idx])
        # every sample as a constant-acceleration one, then the others apart
        P, V, A = _constant_accel(sp[idx], sv[idx], u[idx], local[:, None])
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


def save_cloud_txt(cloud: PointCloud, path) -> None:
    """Columnar text export: header `stamp <t> count <n>`, then one `x y z` per line."""
    with open(path, "w") as f:
        f.write(f"stamp {cloud.stamp:.9f} count {len(cloud)}\n")
        for x, y, z in cloud.points:
            f.write(f"{x:.9f} {y:.9f} {z:.9f}\n")

