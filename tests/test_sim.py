import dataclasses
import math
import re

import numpy as np
import pytest

import cloudnav.sim
from cloudnav.cli import resolve_scenario_path
from cloudnav.core import (
    ConstantAccelSegment, KinodynamicLimits, Trajectory, UavState, sample_times, voxel_keys,
)
from cloudnav.scenario import CompareConfig, ScenarioError, apply_overrides, load_scenario, scenario_from_dict
from cloudnav.sensor import FRAME_DT, Environment, yaw_rotation
from cloudnav.planner import PLAN_BUDGET
from cloudnav.sim import _COVERAGE_CELL, _HANDOVER_DELAY, _SWEEP_CHUNK, _SensedSpace, audit_ground_truth, simulate


def mini_scenario(obstacles=None, goal=(9.0, 0.0, 1.0), duration=30.0, seed=5, **extra):
    """Small, fast closed-loop scenario: reduced point rate, no walls by default."""
    raw = {
        "name": "mini",
        "duration": duration,
        "seed": seed,
        "goal": list(goal),
        "start": {"position": [0.0, 0.0, 1.0]},
        "sensor": {"points_per_second": 50000},
        "map": {"scans_per_tree": 25, "resolution": 0.1},
        "planner": {"v_max": 2.0, "a_max": 2.0, "primitive_duration": 0.6, "clearance": 0.45},
        "obstacles": obstacles or [],
    }
    raw.update(extra)
    return scenario_from_dict(raw)


def test_empty_world_reaches_goal_with_zero_replans():
    log = simulate(mini_scenario())
    assert log.outcome == "goal_reached"
    assert log.replan_count == 0
    assert sum(1 for ev in log.events if ev.kind == "plan") == 1
    final = log.frames[-1]
    assert np.linalg.norm(final.state.p - np.array([9, 0, 1])) <= 0.3 + 1e-9


def test_clock_advances_in_fixed_steps():
    log = simulate(mini_scenario())
    ts = [fr.state.t for fr in log.frames]
    steps = np.diff(ts)
    assert np.allclose(steps, 0.02, atol=1e-12)


def test_no_tracking_teleports():
    log = simulate(mini_scenario())
    P = np.array([fr.state.p for fr in log.frames])
    jumps = np.linalg.norm(np.diff(P, axis=0), axis=1)
    assert jumps.max() <= 2.0 * 0.02 * np.sqrt(3) + 1e-6  # per-axis v_max over one frame


def test_dynamic_bar_triggers_replan_and_avoidance():
    bar = {
        "name": "bar",
        "shape": "capsule",
        "p0": [4.5, -2.0, 1.0],
        "p1": [4.5, 2.0, 1.0],
        "radius": 0.01,
        "schedule": [
            {"t": 0.0, "offset": [0, 0, -3.0]},
            {"t": 1.0, "offset": [0, 0, -3.0]},
            {"t": 2.5, "offset": [0, 0, 0.0]},
        ],
    }
    scenario = mini_scenario(obstacles=[bar])
    log = simulate(scenario)
    assert log.outcome == "goal_reached"
    assert log.replan_count >= 1
    audit = audit_ground_truth(log, scenario)
    assert audit.min_distance > 0.0
    assert audit.per_obstacle["bar"] > 0.0


def test_sealed_corridor_surfaces_planner_failure():
    # a box seals the corridor completely around the path mid-flight
    lid = {
        "name": "lid",
        "shape": "box",
        "lo": [4.0, -30.0, -30.0],
        "hi": [4.6, 30.0, 30.0],
        "schedule": [
            {"t": 0.0, "offset": [0, 0, -100.0]},
            {"t": 0.8, "offset": [0, 0, -100.0]},
            {"t": 1.0, "offset": [0, 0, 0.0]},
        ],
    }
    scenario = mini_scenario(obstacles=[lid], planner={
        "v_max": 2.0, "a_max": 2.0, "primitive_duration": 0.6, "max_expansions": 400,
    })
    log = simulate(scenario)
    assert log.outcome == "planner_failure"
    assert any(ev.kind == "planner_failure" for ev in log.events)


def test_simulation_deterministic_for_same_seed():
    scenario = mini_scenario()
    a = simulate(scenario, seed=3)
    b = simulate(scenario, seed=3)
    assert a.outcome == b.outcome
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.state.t == fb.state.t
        assert np.array_equal(fa.state.p, fb.state.p)
        assert np.array_equal(fa.state.v, fb.state.v)
        assert fa.scan_size == fb.scan_size
        assert fa.tree_sizes == fb.tree_sizes
    assert [(e.t, e.kind, e.data) for e in a.events] == [(e.t, e.kind, e.data) for e in b.events]


def test_plan_events_report_unseen_cells():
    # straight plan through the scanned wedge: nothing unseen
    log = simulate(mini_scenario())
    plans = [ev for ev in log.events if ev.kind == "plan"]
    assert plans and plans[0].data["unseen_cells"] == 0
    # goal behind an occluding wall: the detour leaves the sensed region
    wall = {"name": "wall", "shape": "box", "lo": [3.0, -4.0, -1.0], "hi": [3.3, 4.0, 4.0]}
    log = simulate(mini_scenario(obstacles=[wall], goal=(9.0, 0.0, 1.0), duration=40.0))
    plans = [ev for ev in log.events if ev.kind == "plan"]
    assert plans and plans[0].data["unseen_cells"] > 0


def _level(yaw):
    return np.array([math.cos(yaw), math.sin(yaw), 0.0])


def test_deferred_sweep_counts_as_an_eager_per_frame_sweep():
    scenario = load_scenario(resolve_scenario_path("hillside"))
    env = scenario.environment()
    p0 = scenario.start_position
    yaw = math.atan2(*(scenario.goal - p0)[1::-1])
    # a hillside segment flown at 1 m/s while the yaw turns through 180
    # degrees, so each chunk of frames sweeps cells the others miss
    n = 2 * _SWEEP_CHUNK + 7
    turn = yaw + math.pi * (np.arange(n) / (n - 1) - 0.5)
    frames = [(p0 + _level(turn[k]) * k * FRAME_DT, yaw_rotation(turn[k]), k * FRAME_DT) for k in range(n)]
    sensed = _SensedSpace(env)
    eager = set()
    for pose in frames:
        sensed.queue(*pose)
        eager.update(sensed.mark(*pose).tolist())
    # level 30 m plans fanned across the turn run past the sensor's range
    got, want = [], []
    for a in yaw + np.linspace(-0.5 * math.pi, 0.5 * math.pi, 9):
        start = UavState(t=0.0, p=p0, v=_level(a), a=np.zeros(3))
        traj = Trajectory(segments=(ConstantAccelSegment(start=start, u=np.zeros(3), duration=30.0),), t0=0.0)
        cells = np.unique(voxel_keys(traj.states_at(sample_times(0.0, 30.0, 0.05))[0], _COVERAGE_CELL))
        want.append(sum(1 for k in cells.tolist() if k not in eager))
        got.append(sensed.unseen_count(traj, 0.05))  # the first count sweeps the queue
        assert 0 < want[-1] < len(cells)
    assert got == want
    assert len(set(want)) > 1


def test_map_wraparound_logged():
    # 25 scans/tree, 2 trees: wraparound on scan 50 -> t = 1.0 s
    log = simulate(mini_scenario())
    wraps = [ev for ev in log.events if ev.kind == "map_wraparound"]
    assert wraps and wraps[0].t == pytest.approx(1.0)


def test_audit_flags_interpenetration():
    # hand-built log: one frame inside an obstacle
    scenario = mini_scenario(
        obstacles=[{"name": "rock", "shape": "sphere", "center": [5, 0, 1], "radius": 1.0}]
    )
    from cloudnav.sim import FrameRecord, RunLog

    log = RunLog(scenario_name="x", seed=0)
    for i, x in enumerate((0.0, 5.0)):
        log.frames.append(
            FrameRecord(state=UavState.hover([x, 0, 1.0], t=0.02 * i), scan_size=0, tree_sizes=[0, 0])
        )
    audit = audit_ground_truth(log, scenario)
    assert audit.min_distance < 0.0
    assert audit.per_obstacle["rock"] == pytest.approx(-1.0)


def test_audit_counts_an_unnamed_obstacle_in_the_minimum_only():
    # the unnamed box is the nearest obstacle: it sets min_distance, yet has no per-obstacle entry
    scenario = mini_scenario(obstacles=[
        {"name": "rock", "shape": "sphere", "center": [5, 3, 1], "radius": 1.0},
        {"name": "", "shape": "box", "lo": [4, -2.5, 0], "hi": [6, -1.5, 2]},
        {"name": "pole", "shape": "capsule", "p0": [5, 0, 3.5], "p1": [5, 0, 5], "radius": 0.5},
    ])
    from cloudnav.sim import FrameRecord, RunLog

    log = RunLog(scenario_name="x", seed=0)
    for i, x in enumerate((0.0, 5.0)):
        log.frames.append(
            FrameRecord(state=UavState.hover([x, 0, 1.0], t=0.02 * i), scan_size=0, tree_sizes=[0, 0])
        )
    audit = audit_ground_truth(log, scenario)
    assert audit.min_distance == pytest.approx(1.5)
    assert audit.per_obstacle == {"rock": pytest.approx(2.0), "pole": pytest.approx(2.0)}


def test_a_loaded_and_flown_scenario_builds_one_environment(monkeypatch):
    built = []
    init = Environment.__init__

    def counting_init(self, obstacles):
        built.append(self)
        init(self, obstacles)

    monkeypatch.setattr(Environment, "__init__", counting_init)
    scenario = load_scenario(resolve_scenario_path("hillside"), overrides=["duration=0.1"])
    assert scenario.environment() is scenario.environment() is built[0]
    simulate(scenario)
    assert len(built) == 1


def test_unnamed_obstacles_may_share_the_empty_name():
    rocks = [{"name": "", "shape": "sphere", "center": [4.0, y, 1.0], "radius": 0.2} for y in (2.0, -2.0)]
    assert [ob.name for ob in mini_scenario(obstacles=rocks).obstacles] == ["", ""]


def test_scenario_missing_key_reports_path():
    with pytest.raises(ScenarioError, match="duration"):
        scenario_from_dict({"goal": [1, 2, 3], "start": {"position": [0, 0, 0]}})
    with pytest.raises(ScenarioError, match="goal"):
        scenario_from_dict({"duration": 1.0, "start": {"position": [0, 0, 0]}})
    with pytest.raises(ScenarioError, match=r"obstacles\[0\]"):
        scenario_from_dict(
            {
                "duration": 1.0,
                "goal": [5, 0, 0],
                "start": {"position": [0, 0, 0]},
                "obstacles": [{"shape": "pyramid"}],
            }
        )


def test_scenario_rejects_start_inside_obstacle():
    with pytest.raises(ScenarioError, match="inside an obstacle"):
        mini_scenario(
            obstacles=[{"name": "rock", "shape": "sphere", "center": [0, 0, 1], "radius": 0.5}]
        )


def test_scenario_rejects_bad_schedule():
    with pytest.raises(ScenarioError, match="schedule"):
        mini_scenario(
            obstacles=[
                {
                    "name": "bad",
                    "shape": "sphere",
                    "center": [5, 0, 1],
                    "radius": 0.5,
                    "schedule": [{"t": 1.0, "offset": [0, 0, 0]}, {"t": 0.5, "offset": [0, 0, 1]}],
                }
            ]
        )


def test_scenario_rejects_configs_outside_planner_envelope():
    def with_planner(**planner):
        return mini_scenario(planner={"v_max": 2.0, "a_max": 2.0, "primitive_duration": 0.6, **planner})

    # every primitive from rest would exceed v_max
    with pytest.raises(ScenarioError, match=r"planner\.a_max.*planner\.v_max"):
        with_planner(a_max=5.0)
    # the first hop from rest (0.09 m) stays inside the 0.225 m dedup cell
    with pytest.raises(ScenarioError, match=r"planner\.primitive_duration.*planner\.prune_cell"):
        with_planner(primitive_duration=0.3)
    with pytest.raises(ScenarioError, match=r"planner\.prune_cell"):
        with_planner(prune_cell=0.36)
    # both edges of the envelope are inside it
    with_planner(a_max=2.5, primitive_duration=0.8)  # a_max*tau == v_max
    with_planner(prune_cell=0.3599)


def test_overrides_apply_by_dotted_path():
    raw = {
        "duration": 1.0,
        "goal": [5, 0, 1],
        "start": {"position": [0, 0, 1]},
        "planner": {"v_max": 2.0},
    }
    apply_overrides(raw, ["planner.v_max=1.5", "sensor.points_per_second=10000", "seed=9"])
    s = scenario_from_dict(raw)
    assert s.planner_config.limits.v_max == 1.5
    assert s.sensor.points_per_second == 10000
    assert s.seed == 9


def test_planner_clearance_lives_under_planner():
    raw = {"duration": 1.0, "goal": [5, 0, 1], "start": {"position": [0, 0, 1]}}
    apply_overrides(raw, ["planner.clearance=0.4"])
    cfg = scenario_from_dict(raw).planner_config
    assert cfg.clearance == 0.4
    assert cfg.prune_cell == 0.2


# the obstacles a compare section compares, its bar inside CompareConfig's default extent
BAR_AND_WALL = [
    {"name": "bar", "shape": "capsule", "p0": [3.0, 0.0, 0.2], "p1": [3.0, 0.0, 2.2], "radius": 0.01},
    {"name": "wall", "shape": "box", "lo": [5.0, -1.0, 0.0], "hi": [5.3, 1.0, 2.0]},
]
# every key that sets the reach / cell ratio of each index: the search's int64
# dedup cells, the map's voxel keys and the sensed-space telemetry's cells
_REACH = "start.position, scenario.goal, scenario.duration, planner.v_max, "
_DEDUP_REACH = _REACH + "planner.primitive_duration, planner.max_expansions, planner.prune_cell"
_MAP_REACH = _REACH + "map.resolution"
_TELEMETRY_REACH = _REACH + "planner.primitive_duration, planner.max_expansions"


def test_omitted_limits_and_compare_keys_take_dataclass_defaults():
    s = mini_scenario(obstacles=BAR_AND_WALL, planner={}, compare={})
    assert s.planner_config.limits == KinodynamicLimits()
    want = CompareConfig()
    for f in dataclasses.fields(CompareConfig):
        assert np.array_equal(getattr(s.compare, f.name), getattr(want, f.name)), f.name


@pytest.mark.parametrize("section, key, value", [
    ("planner", "v_max", "fast"),
    ("planner", "a_max", True),
    ("planner", "primitive_duration", None),
    ("compare", "frames", "many"),
    ("compare", "sweep", 0.3),
    ("compare", "origin", [1.0, 2.0]),
    ("compare", "size", "big"),
    ("compare", "sweep", [0.3, -0.1]),
])
def test_malformed_limits_and_compare_values_name_their_key(section, key, value):
    with pytest.raises(ScenarioError, match=rf"^{section}\.{key}: "):
        mini_scenario(obstacles=BAR_AND_WALL, **{section: {key: value}})


def test_non_mapping_planner_section_is_refused():
    with pytest.raises(ScenarioError, match=r"^scenario\.planner: expected a mapping"):
        mini_scenario(planner=5)


@pytest.mark.parametrize("override, key", [
    ("durations=0.1", "scenario.durations"),
    ("start.yawn=1", "start.yawn"),
    ("compare.frame=2", "compare.frame"),
    ("planner.velocity_bound=norm", "planner.velocity_bound"),  # the bound is per axis, not a setting
    # the main grid is the sweep's first, and the obstacles compared are the ones named bar and wall
    ("compare.grid_resolution=0.3", "compare.grid_resolution"),
    ("compare.bar=bar", "compare.bar"),
    ("compare.wall=wall", "compare.wall"),
    ("compare.wall=bar", "compare.wall"),  # the ablation deleted the bar itself and reported it unseen
    # each obstacle takes its own shape's keys only
    pytest.param("obstacles=[{shape: sphere, center: [3, 0, 1], radius: 0.1}, "
                 "{shape: box, lo: [5, -1, 0], hi: [5.3, 1, 2], schedul: [{t: 0, offset: [0, 0, 1]}]}]",
                 r"obstacles\[1\]\.schedul", id="obstacle-schedul"),
    pytest.param("obstacles=[{shape: sphere, center: [3, 0, 1], radius: 0.1, p0: [3, 0, 0]}]",
                 r"obstacles\[0\]\.p0", id="sphere-p0"),
    pytest.param("obstacles=[{shape: capsule, p0: [3, 0, 0], p1: [3, 0, 2], radius: 0.1, "
                 "schedule: [{t: 0, offset: [0, 0, 0]}, {t: 1, ofset: [0, 1, 0]}]}]",
                 r"obstacles\[0\]\.schedule\[1\]\.ofset", id="keyframe-ofset"),
])
def test_unknown_keys_are_refused_by_dotted_path(override, key):
    raw = {"duration": 1.0, "goal": [5, 0, 1], "start": {"position": [0, 0, 1]}, "obstacles": BAR_AND_WALL}
    apply_overrides(raw, [override])
    with pytest.raises(ScenarioError, match=rf"^{key}: unknown key$"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("override, key", [
    # each of these ended in a traceback
    ("map.scans_per_tree=2.5", "map.scans_per_tree"),
    ("map.resolution=.nan", "map.resolution"),
    ("planner.v_max=.inf", "planner.v_max"),
    ("planner.clearance=.nan", "planner.clearance"),
    ("planner.primitive_duration=.nan", "planner.primitive_duration"),
    ("sensor.points_per_second=.nan", "sensor.points_per_second"),
    ("goal=[.nan, 0, 1]", "scenario.goal"),
    ("start.yaw=.nan", "start.yaw"),
    ("duration=.inf", "scenario.duration"),
    ("seed=-1", "scenario.seed"),
    ("compare.sweep=[-1]", "compare.sweep"),
    ("compare.size=[0, 1, 1]", "compare.size"),
    ("map.resolution=1.0e-300", _MAP_REACH),  # too fine for voxel_keys to index the sensor range
    # too fine a cell, or too far a reach, for the search's int64 dedup-cell index
    ("planner.prune_cell=1.0e-310", _DEDUP_REACH),
    ("planner.max_expansions=1000000000000000000000000", _DEDUP_REACH),
    ("sensor.points_per_second=1.0e+300", "sensor.points_per_second"),  # one frame's rays not allocatable
    ("compare.size=[1.0e+6, 1.0e+6, 1.0e+6]", "compare.size"),  # the grid's cells not allocatable
    ("compare.sweep=[1.0e-3]", "compare.sweep"),
    ("compare.sweep=[0.3, 1.0e-3]", "compare.sweep"),
    # expand's sample blocks not allocatable: about 1.7 TB, 15.6 GB, and a check_dt that underflows to 0
    ("planner.v_max=1.0e+9", "planner.clearance, planner.v_max, planner.primitive_duration"),
    ("planner={clearance: 1.0e-7, prune_cell: 0.2}", "planner.clearance, planner.v_max, planner.primitive_duration"),
    ("planner={v_max: 1.0e+300, clearance: 1.0e-300}", "planner.clearance, planner.v_max, planner.primitive_duration"),
    # each of these was accepted and flew, or compared, on a wrong value
    ("map.scans_per_tree=true", "map.scans_per_tree"),
    ("sensor.points_per_second=true", "sensor.points_per_second"),
    ("sensor.points_per_second=10", "sensor.points_per_second"),  # no ray a frame: flew blind
    ("sensor.points_per_second=25", "sensor.points_per_second"),  # half a ray a frame rounds to none
    ("planner.max_expansions=2.5", "planner.max_expansions"),
    ("obstacles=[{shape: sphere, center: [3, 0, 1], radius: .nan}]", "obstacles[0].radius"),
    ("obstacles=[{shape: sphere, center: [3, 0, 1], radius: 0.1, schedule: [{t: .nan, offset: [0, 0, 1]}]}]",
     "obstacles[0].schedule[0].t"),
    ("compare.frames=0", "compare.frames"),
    ("compare.frames=2.7", "compare.frames"),
    ("compare.sweep=[true]", "compare.sweep"),
    ("compare.sweep=[]", "compare.sweep"),  # no main grid
    ("name=[1]", "scenario.name"),
    # each of these ended in a traceback: a scan point past the voxel keys' range, 0.06 m of
    # range noise beyond the wall 449.985 m ahead, and the telemetry's 0.5 m cells past 524 288 m
    pytest.param(("goal=[0.0, 0.0, 0.0]", "start={position: [1.0, 0.0, 0.0], yaw: 0.0}", "map.resolution=0.000430135",
                  "obstacles=[{name: wall, shape: box, lo: [450.985, -100.0, -100.0], hi: [460.0, 100.0, 100.0]}]"),
                 _MAP_REACH, id="scan-noise-past-voxel-keys"),
    pytest.param(("duration=0.5", "start.position=[530000.0, 0.0, 1.0]", "goal=[530005.0, 0.0, 1.0]",
                  "map.resolution=1.0"), _TELEMETRY_REACH, id="far-start-past-telemetry-cells"),
    # each of these overflowed a squared difference and flew on inf or nan
    ("obstacles=[{shape: box, lo: [5, -1, 0], hi: [1.0e+300, 2, 2]}]", "obstacles[0].hi"),
    ("obstacles=[{shape: capsule, p0: [3, 0, 0], p1: [3, 0, 1.0e+300], radius: 0.1}]", "obstacles[0].p1"),
    ("obstacles=[{shape: sphere, center: [3, 0, 1], radius: 0.2, schedule: [{t: 0, offset: [1.0e+300, 0, 0]}]}]",
     "obstacles[0].schedule[0].offset"),
    ("obstacles=[{shape: sphere, center: [1.0e+200, 0, 1], radius: 0.2}]", "obstacles[0].center"),
])
def test_malformed_values_are_refused_by_dotted_key(override, key):
    raw = {"duration": 1.0, "goal": [5, 0, 1], "start": {"position": [0, 0, 1]}, "obstacles": BAR_AND_WALL}
    apply_overrides(raw, [override] if isinstance(override, str) else list(override))
    with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: "):
        scenario_from_dict(raw)


SPHERE_BAR = {"name": "bar", "shape": "sphere", "center": [3.0, 0.0, 1.0], "radius": 0.1}
# in place for the first 26 scans, then sunk 60 m
SUNK_BAR = {**BAR_AND_WALL[0], "schedule": [{"t": 0.0, "offset": [0, 0, 0]}, {"t": 0.5, "offset": [0, 0, 0]},
                                            {"t": 0.52, "offset": [0, 0, -60.0]}]}


@pytest.mark.parametrize("obstacles, compare, message", [
    ([SPHERE_BAR, BAR_AND_WALL[1]], {}, "obstacles[0].shape: the compared bar 'bar' must be a capsule, got sphere"),
    ([BAR_AND_WALL[1], {"name": "bar", "shape": "box", "lo": [3.0, -0.05, 0.2], "hi": [3.1, 0.05, 2.2]}], {},
     "obstacles[1].shape: the compared bar 'bar' must be a capsule, got box"),
    # a grid-range error is refused before the bar is looked at
    ([SPHERE_BAR, BAR_AND_WALL[1]], {"sweep": [1.0e-3]}, "compare.sweep: "),
    ([BAR_AND_WALL[1]], {}, "compare: no obstacle named 'bar'"),
    ([BAR_AND_WALL[0]], {}, "compare: no obstacle named 'wall'"),
    # the bar starts at z = 0.19, which the 0.4 m grid (two cells up from z = -0.5) holds and the 0.1 m one does not
    (BAR_AND_WALL, {"origin": [2.0, -1.5, -0.5], "size": [2.1, 3.0, 0.6], "sweep": [0.4, 0.1]},
     "compare.origin, compare.size: the 0.1 m grid holds no cell of the bar 'bar' at t = 0.98 s"),
    # the bar has sunk out of every grid by the last of 50 scans
    ([SUNK_BAR, BAR_AND_WALL[1]], {}, "compare.origin, compare.size: the 0.3 m grid holds no cell of the bar 'bar' "
                                      "at t = 0.98 s"),
], ids=["sphere-bar", "box-bar", "range-first", "no-bar", "no-wall", "sweep-grid-misses-bar", "bar-gone-at-last-scan"])
def test_compare_sections_the_comparison_cannot_run_are_refused(obstacles, compare, message):
    with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}"):
        mini_scenario(obstacles=obstacles, compare=compare)


def test_compare_takes_the_bar_at_its_last_scan():
    # the bar that has sunk by the 50th scan is still in every grid at the 25th
    s = mini_scenario(obstacles=[SUNK_BAR, BAR_AND_WALL[1]], compare={"frames": 25})
    assert s.compare.last_scan_time == pytest.approx(24 * FRAME_DT)


def test_override_bad_format_rejected():
    with pytest.raises(ScenarioError, match="dotted.path=value"):
        apply_overrides({}, ["planner.v_max"])


def _record_searches(monkeypatch):
    """Two lists the loop fills as it flies: its first plans' trajectories and
    the start states its emergency replans are given."""
    planned, relaxed_starts = [], []
    plan, relaxed_replan = cloudnav.sim.plan, cloudnav.sim.relaxed_replan

    def recording_plan(*args):
        traj, report = plan(*args)
        planned.append(traj)
        return traj, report

    def recording_relaxed_replan(start, *args):
        relaxed_starts.append(start)
        return relaxed_replan(start, *args)

    monkeypatch.setattr(cloudnav.sim, "plan", recording_plan)
    monkeypatch.setattr(cloudnav.sim, "relaxed_replan", recording_relaxed_replan)
    return planned, relaxed_starts


def test_obstacle_inside_clearance_at_start_takes_emergency_path(monkeypatch):
    # the sphere sits 0.3 m from the start, inside the 0.45 m clearance: the
    # first plan relaxes the clearance (0.45 * 0.8^3) instead of failing,
    # from the hover at the first frame one planning budget ahead
    rock = {"name": "rock", "shape": "sphere", "center": [0.6, 0.0, 1.0], "radius": 0.3}
    scenario = mini_scenario(obstacles=[rock])
    _, relaxed_starts = _record_searches(monkeypatch)
    log = simulate(scenario)
    start = relaxed_starts[0]
    assert (start.t, start.p.tolist()) == (_HANDOVER_DELAY, [0.0, 0.0, 1.0])
    assert not start.v.any() and not start.a.any()
    first = log.events[0]
    assert (first.t, first.kind) == (0.0, "emergency_relax")
    assert first.data == {"clearance": 0.2304, "expansions": 16}
    assert log.frames[0].flag == "emergency_relax"
    assert log.outcome == "goal_reached"
    assert audit_ground_truth(log, scenario).min_distance == pytest.approx(0.3)


DROPPED_ROCK = {
    "name": "rock", "shape": "sphere", "center": [0.72, 0.0, 1.0], "radius": 0.3,
    "schedule": [
        {"t": 0.0, "offset": [0, 0, -60.0]},
        {"t": 0.48, "offset": [0, 0, -60.0]},
        {"t": 0.5, "offset": [0, 0, 0.0]},
    ],
}


def test_obstacle_dropped_ahead_mid_flight_relaxes_from_the_tracked_trajectory(monkeypatch):
    # the sphere drops in 0.4 m ahead of the accelerating UAV, inside the
    # clearance band: the relaxed plan starts on the tracked trajectory where
    # the failed replan's search did, one planning budget past the tracking
    # time, not from a hover
    scenario = mini_scenario(obstacles=[DROPPED_ROCK], duration=12.0)
    planned, relaxed_starts = _record_searches(monkeypatch)
    log = simulate(scenario)
    [start] = relaxed_starts
    assert start.t == 0.5 + PLAN_BUDGET
    want = planned[0].state_at(start.t)
    assert all(np.array_equal(a, b) for a, b in zip((start.p, start.v, start.a), (want.p, want.v, want.a)))
    searches = [(ev.t, ev.kind) for ev in log.events if ev.kind != "map_wraparound"]
    assert searches == [(0.0, "plan"), (0.5, "emergency_relax")]
    assert log.events[1].data == {"clearance": 0.36, "expansions": 19}
    assert log.outcome == "goal_reached"
    assert log.replan_count == 1
    assert audit_ground_truth(log, scenario).min_distance == pytest.approx(0.3924, abs=1e-4)


def test_short_duration_ends_in_timeout():
    log = simulate(mini_scenario(duration=1.0))
    assert log.outcome == "timeout"
    assert log.final_time == pytest.approx(1.0)
    last = log.frames[-1]
    assert (len(log.frames) - 1, last.flag) == (50, "timeout")
    assert last.state.t == pytest.approx(1.0)
    assert all(fr.flag != "timeout" for fr in log.frames[:-1])


def test_emergency_relax_does_not_repeat_on_consecutive_frames():
    # the relaxed plan out of the clearance band is re-checked at the clearance
    # it was planned with while the UAV is inside the band, so the next frames
    # keep it instead of relaxing again
    rock = {"name": "rock", "shape": "sphere", "center": [0.6, 0.0, 1.0], "radius": 0.3}
    log = simulate(mini_scenario(obstacles=[rock]))
    relaxed = [i for i, fr in enumerate(log.frames) if fr.flag == "emergency_relax"]
    assert relaxed and relaxed[0] == 0
    assert not any(b == a + 1 for a, b in zip(relaxed, relaxed[1:]))
    assert log.outcome == "goal_reached"


def test_sensor_dropout_empties_scans_and_map_and_still_ends_in_an_outcome():
    # the only obstacle is seen in the first frames, then drops 60 m out of
    # the field of view: later scans return nothing and both trees empty out
    rock = {"name": "rock", "shape": "sphere", "center": [3.0, 0.8, 1.0], "radius": 0.3,
            "schedule": [{"t": 0.0, "offset": [0, 0, 0]}, {"t": 0.5, "offset": [0, 0, -60.0]}]}
    log = simulate(mini_scenario(obstacles=[rock]))
    sizes = [fr.scan_size for fr in log.frames]
    assert sizes[0] > 0
    empty_from = next(i for i, n in enumerate(sizes) if n == 0)
    assert 0 < empty_from < len(sizes) // 2 and not any(sizes[empty_from:])
    assert any(fr.tree_sizes == [0, 0] for fr in log.frames)
    assert log.outcome == "goal_reached"
