"""Scenario files: human-editable YAML describing one closed-loop run.

A scenario bundles the environment geometry and obstacle schedules, the
start/goal pair, and the sensor, map and planner settings that runs vary
(what none varies is a module constant). `load_scenario` checks every value
against one table of key kinds (`_KEYS`) and reports malformed, missing and
unknown keys by dotted path; CLI overrides use the same dotted paths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .core import _KEY_OFFSET, KinodynamicLimits
from .gridmap import GridConfig
from .planner import MAX_PRIMITIVE_SAMPLES, PLAN_BUDGET, PlannerConfig
from .sensor import MAX_RANGE, Box, Capsule, Environment, MotionSchedule, Obstacle, SensorModel, Sphere
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
    _environment: Environment = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_environment", Environment(self.obstacles))

    def environment(self) -> Environment:
        """The scenario's one `Environment`, built with it."""
        return self._environment

    def obstacle_by_name(self, name: str) -> Obstacle:
        for ob in self.obstacles:
            if ob.name == name:
                return ob
        raise ScenarioError(f"no obstacle named {name!r}")


# The kinds of value a key takes; each names itself in the refusal message.
NUM, INT, VEC, NUMS = "a finite number", "an integer", "a finite [x, y, z]", "a list of finite numbers"
TEXT, MAP, LIST = "a string", "a mapping", "a list"

_OBSTACLE = {"shape": TEXT, "name": TEXT, "schedule": LIST}
# Every section's keys and their kinds. Ranges stay with the dataclass that
# takes the values, except the integer floors the loader owns (`_FLOORS`).
_KEYS = {
    "scenario": {"name": TEXT, "duration": NUM, "seed": INT, "goal": VEC, "start": MAP, "sensor": MAP,
                 "map": MAP, "planner": MAP, "obstacles": LIST, "compare": MAP},
    "start": {"position": VEC, "yaw": NUM},
    "sensor": {"points_per_second": NUM},
    "map": {"scans_per_tree": INT, "resolution": NUM},
    "planner": {"v_max": NUM, "a_max": NUM, "primitive_duration": NUM, "clearance": NUM,
                "goal_tolerance": NUM, "prune_cell": NUM, "max_expansions": INT},
    "compare": {"frames": INT, "grid_resolution": NUM, "sweep": NUMS, "origin": VEC, "size": VEC,
                "bar": TEXT, "wall": TEXT},
    "sphere": {**_OBSTACLE, "center": VEC, "radius": NUM},
    "capsule": {**_OBSTACLE, "p0": VEC, "p1": VEC, "radius": NUM},
    "box": {**_OBSTACLE, "lo": VEC, "hi": VEC},
    "keyframe": {"t": NUM, "offset": VEC},
}
_REQUIRED = {"scenario": ("duration", "goal"), "start": ("position",), "sphere": ("center", "radius"),
             "capsule": ("p0", "p1", "radius"), "box": ("lo", "hi"), "keyframe": ("t", "offset")}
_FLOORS = {"scenario.seed": 0, "compare.frames": 1}
_SHAPES = {"sphere": Sphere, "capsule": Capsule, "box": Box}


def _finite(x) -> bool:
    # the comparison is False for nan and inf, and exact for ints too large for a float
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _check(value, kind: str, key: str):
    """Return `value` as a value of `kind`, or refuse it naming the dotted `key`."""
    if kind is NUM or kind is INT:
        ok = _finite(value) and (kind is NUM or isinstance(value, int))
        if ok and key in _FLOORS and value < _FLOORS[key]:
            raise ScenarioError(f"{key}: must be >= {_FLOORS[key]}, got {value!r}")
    elif kind is VEC or kind is NUMS:
        ok = isinstance(value, (list, tuple)) and (kind is NUMS or len(value) == 3) and all(map(_finite, value))
    else:
        ok = isinstance(value, {TEXT: str, MAP: dict, LIST: list}[kind])
    if not ok:
        raise ScenarioError(f"{key}: expected {kind}, got {value!r}")
    if kind is NUM:
        return float(value)
    if kind is VEC:
        return np.array(value, dtype=float)
    return tuple(map(float, value)) if kind is NUMS else value


def _section(d, table: str, path: str) -> dict:
    """Check the mapping `d` at dotted `path` against `_KEYS[table]`: refuse
    unknown and missing keys, and return the checked values by key."""
    keys = _KEYS[table]
    for key in _check(d, MAP, path):
        if key not in keys:
            raise ScenarioError(f"{path}.{key}: unknown key")
    for key in _REQUIRED.get(table, ()):
        if key not in d:
            raise ScenarioError(f"{path}.{key}: missing required key")
    return {key: _check(value, keys[key], f"{path}.{key}") for key, value in d.items()}


def _build(cls, key: str, **kw):
    """`cls(**kw)`, its range refusal re-raised naming the dotted `key`."""
    try:
        return cls(**kw)
    except ValueError as e:
        raise ScenarioError(f"{key}: {e}") from e


def _parse_obstacle(entry, index: int) -> Obstacle:
    path = f"obstacles[{index}]"
    shape_kind = _check(entry, MAP, path).get("shape")
    if not (isinstance(shape_kind, str) and shape_kind in _SHAPES):
        raise ScenarioError(f"{path}.shape: expected sphere, capsule or box, got {shape_kind!r}")
    kw = _section(entry, shape_kind, path)
    del kw["shape"]
    name, schedule = kw.pop("name", f"obstacle{index}"), kw.pop("schedule", None)
    shape = _build(_SHAPES[shape_kind], path, **kw)
    if schedule is not None:
        frames = [_section(kf, "keyframe", f"{path}.schedule[{j}]") for j, kf in enumerate(schedule)]
        schedule = _build(MotionSchedule, f"{path}.schedule", times=np.array([f["t"] for f in frames]),
                          offsets=np.array([f["offset"] for f in frames]))
    return Obstacle(shape=shape, schedule=schedule, name=name)


def scenario_from_dict(raw: dict) -> Scenario:
    top = _section(raw, "scenario", "scenario")
    if top["duration"] <= 0:
        raise ScenarioError("scenario.duration: must be > 0")
    goal = top["goal"]
    start = _section(top.get("start", {}), "start", "start")
    start_p = start["position"]
    yaw = start.get("yaw", math.atan2(goal[1] - start_p[1], goal[0] - start_p[0]))
    sensor = _build(SensorModel, "sensor.points_per_second",
                    **_section(top.get("sensor", {}), "sensor", "sensor"))
    map_config = _build(MapConfig, "map", **_section(top.get("map", {}), "map", "map"))
    # voxel_keys indexes _KEY_OFFSET cells each way from 0 on every axis: enough
    # for every point within sensor range of the start and the goal
    farthest = float(np.abs([*start_p, *goal]).max())
    reach = MAX_RANGE + farthest
    if reach / map_config.resolution >= _KEY_OFFSET:
        raise ScenarioError(f"map.resolution: {map_config.resolution:g} m cannot index points {reach:g} m "
                            f"from the origin; it must exceed {reach / _KEY_OFFSET:g}")
    pl = _section(top.get("planner", {}), "planner", "planner")
    limits = {f.name: pl.pop(f.name) for f in fields(KinodynamicLimits) if f.name in pl}
    planner_config = _build(PlannerConfig, "planner", limits=_build(KinodynamicLimits, "planner", **limits), **pl)
    # planner envelope: primitives from rest keep to v_max and leave the dedup cell
    lim, cell, n_max = planner_config.limits, planner_config.prune_cell, planner_config.max_expansions
    if lim.a_max * lim.primitive_duration > lim.v_max:
        raise ScenarioError(f"planner.a_max, planner.primitive_duration: a_max*primitive_duration = "
                            f"{lim.a_max * lim.primitive_duration:g} exceeds planner.v_max = {lim.v_max:g}")
    if 0.5 * lim.a_max * lim.primitive_duration**2 <= cell:
        raise ScenarioError(f"planner.a_max, planner.primitive_duration: 0.5*a_max*primitive_duration^2 = "
                            f"{0.5 * lim.a_max * lim.primitive_duration**2:g} must exceed the dedup cell "
                            f"planner.prune_cell = {cell:g} (default: half of planner.clearance)")
    if lim.primitive_duration >= MAX_PRIMITIVE_SAMPLES * planner_config.check_dt:  # no division: check_dt may be 0
        raise ScenarioError(f"planner.clearance, planner.v_max, planner.primitive_duration: "
                            f"{2 * lim.v_max * lim.primitive_duration / planner_config.clearance:.3g} samples per "
                            f"primitive exceed MAX_PRIMITIVE_SAMPLES = {MAX_PRIMITIVE_SAMPLES}")
    # the search's int64 cell index holds a flight's travel and one search's primitives beyond it
    reach = farthest + lim.v_max * (top["duration"] + PLAN_BUDGET + n_max * lim.primitive_duration)
    if reach / cell >= 2**63:
        raise ScenarioError(f"start.position, scenario.goal, scenario.duration, planner.v_max, planner.primitive_duration, "
                            f"planner.max_expansions, planner.prune_cell: a {cell:g} m dedup cell cannot index "
                            f"positions {reach:g} m from the origin; it must exceed {reach / 2**63:g}")

    obstacles = tuple(_parse_obstacle(o, i) for i, o in enumerate(top.get("obstacles", [])))
    first = {}  # index of the obstacle each name was first given to; "" is unnamed
    for i, ob in enumerate(obstacles):
        if ob.name and first.setdefault(ob.name, i) != i:
            raise ScenarioError(f"obstacles[{i}].name: {ob.name!r} already names obstacles[{first[ob.name]}]")

    compare = None
    if "compare" in top:
        compare = CompareConfig(**_section(top["compare"], "compare", "compare"))
        # the grids --compare-maps builds, checked now by the grid's own ranges
        _build(GridConfig, "compare.size", resolution=1.0, origin=compare.origin, size=compare.size)
        for key, res in (("grid_resolution", compare.grid_resolution), *(("sweep", r) for r in compare.sweep)):
            _build(GridConfig, f"compare.{key}", resolution=res, origin=compare.origin, size=compare.size)
        names = {ob.name for ob in obstacles}
        for key in ("bar", "wall"):
            if getattr(compare, key) not in names:
                raise ScenarioError(f"compare.{key}: no obstacle named {getattr(compare, key)!r}")

    scenario = Scenario(
        name=top.get("name", "unnamed"),
        duration=top["duration"],
        seed=top.get("seed", 0),
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
    d0 = s.environment().min_distance(s.start_position, 0.0)
    if d0 <= 0:
        raise ScenarioError(f"scenario.start: start position is inside an obstacle (sdf={d0:.3f})")


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a mapping key written twice (PyYAML keeps the last copy)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if key.value in seen:
                    raise yaml.constructor.ConstructorError("while constructing a mapping", node.start_mark,
                                                            f"found duplicate key {key.value!r}", key.start_mark)
                seen.add(key.value)
        return super().construct_mapping(node, deep)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `dotted.path=value` overrides onto the raw scenario mapping.

    Values are parsed as YAML, so numbers, lists and booleans work as expected.
    """
    _check(raw, MAP, "scenario")
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
            node[keys[-1]] = yaml.load(value, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as e:
            raise ScenarioError(f"override {item!r}: bad value ({e})") from e
    return raw


def load_scenario(path, overrides: list[str] | None = None) -> Scenario:
    try:
        with open(path) as f:
            raw = yaml.load(f, Loader=_UniqueKeyLoader)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ScenarioError(f"cannot parse {path}: {e}") from e
    if overrides:
        raw = apply_overrides(raw, overrides)
    return scenario_from_dict(raw)
