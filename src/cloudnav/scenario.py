"""Scenario files: human-editable YAML describing one closed-loop run.

A scenario bundles the environment geometry and obstacle schedules, the
start/goal pair, and every tunable of the sensor, the local map, and the
planner. `load_scenario` validates the file and reports offending keys by
dotted path; CLI overrides use the same dotted paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .core import KinodynamicLimits
from .planner import PlannerConfig
from .sensor import Box, Capsule, Environment, MotionSchedule, Obstacle, SensorModel, Sphere
from .spatial import MapConfig


class ScenarioError(ValueError):
    """Raised when a scenario file fails to parse or validate."""


@dataclass(frozen=True)
class CompareConfig:
    """Settings for the occupancy-grid vs point-cloud thin-object comparison."""

    frames: int = 50
    grid_resolution: float = 0.3
    sweep: tuple = (0.3, 0.2, 0.1, 0.05)
    origin: np.ndarray = field(default_factory=lambda: np.array([-0.5, -4.0, -0.5]))
    size: np.ndarray = field(default_factory=lambda: np.array([7.0, 8.0, 4.5]))
    bar: str = "bar"
    wall: str = "wall"


@dataclass(frozen=True)
class Scenario:
    name: str
    duration: float
    seed: int
    start_position: np.ndarray
    start_yaw: float
    goal: np.ndarray
    sensor: SensorModel
    map_config: MapConfig
    planner_config: PlannerConfig
    obstacles: tuple
    compare: CompareConfig | None = None

    def environment(self) -> Environment:
        return Environment(list(self.obstacles))

    def obstacle_by_name(self, name: str) -> Obstacle:
        for ob in self.obstacles:
            if ob.name == name:
                return ob
        raise ScenarioError(f"no obstacle named {name!r}")


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ScenarioError(f"{path}.{key}: missing required key")
    return d[key]


def _num(d: dict, key: str, path: str, default=None):
    v = d.get(key, default)
    if v is None:
        raise ScenarioError(f"{path}.{key}: missing required number")
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ScenarioError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)

def _vec(d: dict, key: str, path: str, default=None):
    v = d.get(key, default)
    if v is None:
        raise ScenarioError(f"{path}.{key}: missing required 3-vector")
    if not isinstance(v, (list, tuple)) or len(v) != 3 or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        raise ScenarioError(f"{path}.{key}: expected [x, y, z], got {v!r}")
    return np.array(v, dtype=float)


def _parse_obstacle(entry: dict, index: int) -> Obstacle:
    path = f"obstacles[{index}]"
    if not isinstance(entry, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    kind = _need(entry, "shape", path)
    name = str(entry.get("name", f"obstacle{index}"))
    try:
        if kind == "sphere":
            shape = Sphere(center=_vec(entry, "center", path), radius=_num(entry, "radius", path))
        elif kind == "capsule":
            shape = Capsule(
                p0=_vec(entry, "p0", path),
                p1=_vec(entry, "p1", path),
                radius=_num(entry, "radius", path),
            )
        elif kind == "box":
            shape = Box(lo=_vec(entry, "lo", path), hi=_vec(entry, "hi", path))
        else:
            raise ScenarioError(f"{path}.shape: unknown shape {kind!r}")
    except ValueError as e:
        if isinstance(e, ScenarioError):
            raise
        raise ScenarioError(f"{path}: {e}") from e

    schedule = None
    if "schedule" in entry:
        sched = entry["schedule"]
        if not isinstance(sched, list) or not sched:
            raise ScenarioError(f"{path}.schedule: expected a non-empty list")
        times, offsets = [], []
        for j, kf in enumerate(sched):
            kpath = f"{path}.schedule[{j}]"
            if not isinstance(kf, dict):
                raise ScenarioError(f"{kpath}: expected a mapping with t and offset")
            times.append(_num(kf, "t", kpath))
            offsets.append(_vec(kf, "offset", kpath))
        try:
            schedule = MotionSchedule(times=np.array(times), offsets=np.array(offsets))
        except ValueError as e:
            raise ScenarioError(f"{path}.schedule: {e}") from e
    return Obstacle(shape=shape, schedule=schedule, name=name)


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a mapping")
    name = str(raw.get("name", "unnamed"))
    duration = _num(raw, "duration", "scenario")
    if duration <= 0:
        raise ScenarioError("scenario.duration: must be > 0")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"scenario.seed: expected an integer, got {seed!r}")
    goal = _vec(raw, "goal", "scenario")

    start = raw.get("start", {})
    if not isinstance(start, dict):
        raise ScenarioError("scenario.start: expected a mapping")
    start_p = _vec(start, "position", "start")
    if "yaw" in start:
        yaw = _num(start, "yaw", "start")
    else:
        yaw = math.atan2(goal[1] - start_p[1], goal[0] - start_p[0])

    try:
        sensor = SensorModel(**raw.get("sensor", {}))
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"sensor: {e}") from e
    try:
        map_config = MapConfig(**raw.get("map", {}))
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"map: {e}") from e

    pl = dict(raw.get("planner", {}))
    try:
        limits = KinodynamicLimits(
            v_max=pl.pop("v_max", 2.0),
            a_max=pl.pop("a_max", 2.0),
            primitive_duration=pl.pop("primitive_duration", 0.6),
        )
        planner_config = PlannerConfig(limits=limits, clearance=map_config.clearance, **pl)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"planner: {e}") from e
    # planner envelope: primitives from rest keep to v_max and leave the dedup cell
    lim, cell = planner_config.limits, planner_config.effective_prune_cell
    if lim.a_max * lim.primitive_duration > lim.v_max:
        raise ScenarioError(f"planner.a_max, planner.primitive_duration: a_max*primitive_duration = "
                            f"{lim.a_max * lim.primitive_duration:g} exceeds planner.v_max = {lim.v_max:g}")
    if 0.5 * lim.a_max * lim.primitive_duration**2 <= cell:
        raise ScenarioError(f"planner.a_max, planner.primitive_duration: 0.5*a_max*primitive_duration^2 = "
                            f"{0.5 * lim.a_max * lim.primitive_duration**2:g} must exceed the dedup cell "
                            f"planner.prune_cell = {cell:g} (default: half of map.clearance)")

    obstacles_raw = raw.get("obstacles", [])
    if not isinstance(obstacles_raw, list):
        raise ScenarioError("scenario.obstacles: expected a list")
    obstacles = tuple(_parse_obstacle(o, i) for i, o in enumerate(obstacles_raw))

    compare = None
    if "compare" in raw:
        c = raw["compare"]
        if not isinstance(c, dict):
            raise ScenarioError("scenario.compare: expected a mapping")
        sweep = c.get("sweep", [0.3, 0.2, 0.1, 0.05])
        if not isinstance(sweep, list) or not all(
            isinstance(x, (int, float)) and x > 0 for x in sweep
        ):
            raise ScenarioError("compare.sweep: expected a list of positive numbers")
        compare = CompareConfig(
            frames=int(_num(c, "frames", "compare", default=50)),
            grid_resolution=_num(c, "grid_resolution", "compare", default=0.3),
            sweep=tuple(float(x) for x in sweep),
            origin=_vec(c, "origin", "compare", default=[-0.5, -4.0, -0.5]),
            size=_vec(c, "size", "compare", default=[7.0, 8.0, 4.5]),
            bar=str(c.get("bar", "bar")),
            wall=str(c.get("wall", "wall")),
        )
        names = {ob.name for ob in obstacles}
        if compare.bar not in names:
            raise ScenarioError(f"compare.bar: no obstacle named {compare.bar!r}")
        if compare.wall not in names:
            raise ScenarioError(f"compare.wall: no obstacle named {compare.wall!r}")

    scenario = Scenario(
        name=name,
        duration=duration,
        seed=seed,
        start_position=start_p,
        start_yaw=yaw,
        goal=goal,
        sensor=sensor,
        map_config=map_config,
        planner_config=planner_config,
        obstacles=obstacles,
        compare=compare,
    )
    _validate_consistency(scenario)
    return scenario


def _validate_consistency(s: Scenario):
    if np.linalg.norm(s.goal - s.start_position) < s.planner_config.goal_tolerance:
        raise ScenarioError("scenario: goal already within the goal tolerance of start")
    env = s.environment()
    d0 = env.min_distance(s.start_position, 0.0)
    if d0 <= 0:
        raise ScenarioError(f"scenario.start: start position is inside an obstacle (sdf={d0:.3f})")


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `dotted.path=value` overrides onto the raw scenario mapping.

    Values are parsed as YAML, so numbers, lists and booleans work as expected.
    """
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r}: expected dotted.path=value")
        dotted, value = item.split("=", 1)
        keys = dotted.strip().split(".")
        if not all(keys):
            raise ScenarioError(f"override {item!r}: empty path component")
        node = raw
        for k in keys[:-1]:
            nxt = node.get(k)
            if not isinstance(nxt, dict):
                nxt = {}
                node[k] = nxt
            node = nxt
        try:
            node[keys[-1]] = yaml.safe_load(value)
        except yaml.YAMLError as e:
            raise ScenarioError(f"override {item!r}: bad value ({e})") from e
    return raw


def load_scenario(path, overrides: list[str] | None = None) -> Scenario:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ScenarioError(f"cannot parse {path}: {e}") from e
    if overrides:
        raw = apply_overrides(raw, overrides)
    return scenario_from_dict(raw)
