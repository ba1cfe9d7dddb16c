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
from .gridmap import BAR, WALL, GridConfig, bar_cells
from .planner import MAX_PRIMITIVE_SAMPLES, PLAN_BUDGET, PlannerConfig
from .sensor import (FRAME_DT, MAX_RANGE, RANGE_NOISE_BOUND, Box, Capsule, Environment, MotionSchedule, Obstacle,
                     SensorModel, Sphere)
from .spatial import MapConfig

# sim._SensedSpace's cells and probe range, here for the loader's bound on its keys (sim imports this module).
_COVERAGE_CELL = 0.5
_COVERAGE_RANGE = 25.0
# Largest |value| of an obstacle coordinate, radius or schedule offset (m): the
# squared differences the ray and distance kernels take of such values stay finite.
MAX_GEOMETRY = 1e150


class ScenarioError(ValueError):
    """Raised when a scenario file fails to parse or validate."""


@dataclass(frozen=True)
class CompareConfig:
    """Settings for the occupancy-grid vs point-cloud comparison of the obstacles
    named `gridmap.BAR` and `gridmap.WALL`; the main grid is the sweep's first."""

    frames: int = 50
    sweep: tuple = (0.3, 0.2, 0.1, 0.05)
    origin: np.ndarray = field(default_factory=lambda: np.array([-0.5, -4.0, -0.5]))
    size: np.ndarray = field(default_factory=lambda: np.array([7.0, 8.0, 4.5]))

    @property
    def last_scan_time(self) -> float:
        """Time of the comparison's last scan, at which the bar's cells are taken."""
        return (self.frames - 1) * FRAME_DT


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
NUM, INT, VEC, NUMS = "a finite number", "an integer", "a finite [x, y, z]", "a non-empty list of finite numbers"
TEXT, MAP, LIST = "a string", "a mapping", "a list"
LENGTH, POINT = f"a number within ±{MAX_GEOMETRY:g}", f"an [x, y, z] within ±{MAX_GEOMETRY:g}"

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
    "compare": {"frames": INT, "sweep": NUMS, "origin": VEC, "size": VEC},
    "sphere": {**_OBSTACLE, "center": POINT, "radius": LENGTH},
    "capsule": {**_OBSTACLE, "p0": POINT, "p1": POINT, "radius": LENGTH},
    "box": {**_OBSTACLE, "lo": POINT, "hi": POINT},
    "keyframe": {"t": NUM, "offset": POINT},
}
_REQUIRED = {"scenario": ("duration", "goal"), "start": ("position",), "sphere": ("center", "radius"),
             "capsule": ("p0", "p1", "radius"), "box": ("lo", "hi"), "keyframe": ("t", "offset")}
_FLOORS = {"scenario.seed": 0, "compare.frames": 1}
_SHAPES = {"sphere": Sphere, "capsule": Capsule, "box": Box}


def _finite(x, limit: float) -> bool:
    # the comparison is False for nan and inf, and exact for ints too large for a float
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= limit


def _check(value, kind: str, key: str):
    """Return `value` as a value of `kind`, or refuse it naming the dotted `key`."""
    limit = MAX_GEOMETRY if kind in (LENGTH, POINT) else sys.float_info.max
    if kind in (NUM, INT, LENGTH):
        ok = _finite(value, limit) and (kind is not INT or isinstance(value, int))
        if ok and key in _FLOORS and value < _FLOORS[key]:
            raise ScenarioError(f"{key}: must be >= {_FLOORS[key]}, got {value!r}")
    elif kind in (VEC, NUMS, POINT):
        ok = (isinstance(value, (list, tuple)) and (len(value) > 0 if kind is NUMS else len(value) == 3)
              and all(_finite(x, limit) for x in value))
    else:
        ok = isinstance(value, {TEXT: str, MAP: dict, LIST: list}[kind])
    if not ok:
        raise ScenarioError(f"{key}: expected {kind}, got {value!r}")
    if kind in (NUM, LENGTH):
        return float(value)
    if kind in (VEC, POINT):
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
    # Each index holds the flight's reach on every axis (from the start or the goal at
    # v_max per axis until the last plan starts, PLAN_BUDGET past the end) and what its
    # points add beyond it: the sensor's noisy range for scan points, one search's
    # primitives for the dedup cells, and for the telemetry both its probe range and a
    # plan's primitives; a plan's closing shot ends at rest at the goal, inside reach.
    reach = float(np.abs([*start_p, *goal]).max()) + lim.v_max * (top["duration"] + PLAN_BUDGET)
    search = n_max * lim.primitive_duration * lim.v_max
    for keys, name, far, size, count in (
            ("map.resolution", "map voxel keys", reach + MAX_RANGE + RANGE_NOISE_BOUND, map_config.resolution,
             _KEY_OFFSET),
            ("planner.primitive_duration, planner.max_expansions, planner.prune_cell", "the search's int64 dedup "
             "cells", reach + search, cell, 2**63),
            ("planner.primitive_duration, planner.max_expansions", "the sensed-space telemetry's cells",
             reach + _COVERAGE_RANGE + search, _COVERAGE_CELL, _KEY_OFFSET)):
        if far / size >= count:
            raise ScenarioError(f"start.position, scenario.goal, scenario.duration, planner.v_max, {keys}: {name} of "
                                f"{size:g} m cannot index positions {far:g} m from the origin, past {size * count:g} m")

    obstacles = tuple(_parse_obstacle(o, i) for i, o in enumerate(top.get("obstacles", [])))
    first = {}  # index of the obstacle each name was first given to; "" is unnamed
    for i, ob in enumerate(obstacles):
        if ob.name and first.setdefault(ob.name, i) != i:
            raise ScenarioError(f"obstacles[{i}].name: {ob.name!r} already names obstacles[{first[ob.name]}]")

    compare = None
    if "compare" in top:
        compare = CompareConfig(**_section(top["compare"], "compare", "compare"))
        # the grids the comparison builds, checked first by the grid's own ranges
        _build(GridConfig, "compare.size", resolution=1.0, origin=compare.origin, size=compare.size)
        grids = [_build(GridConfig, "compare.sweep", resolution=res, origin=compare.origin, size=compare.size)
                 for res in compare.sweep]
        for name in (BAR, WALL):
            if name not in first:
                raise ScenarioError(f"compare: no obstacle named {name!r}")
        bar = obstacles[first[BAR]]
        if not isinstance(bar.shape, Capsule):
            raise ScenarioError(f"obstacles[{first[BAR]}].shape: the compared bar {BAR!r} must be a capsule, "
                                f"got {type(bar.shape).__name__.lower()}")
        # a grid without a bar cell would report an occupied fraction of 0, as if it saw through the bar
        for grid in grids:
            if not bar_cells(grid, bar, compare.last_scan_time):
                raise ScenarioError(f"compare.origin, compare.size: the {grid.resolution:g} m grid holds no cell "
                                    f"of the bar {BAR!r} at t = {compare.last_scan_time:g} s")

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


class _UniqueKeyLoader(yaml.CSafeLoader):
    """libyaml's safe loader, refusing a mapping key written twice (PyYAML keeps the last copy)."""

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
