import json
import os

import pytest
import yaml

from cloudnav.cli import (
    BUNDLED_SCENARIOS,
    EXIT_OK,
    EXIT_SCENARIO_ERROR,
    EXIT_TIMEOUT,
    build_report,
    main,
    resolve_scenario_path,
    run,
)
from cloudnav.core import UavState
from cloudnav.scenario import ScenarioError, load_scenario
from cloudnav.sim import FrameRecord, RunLog

MINI = {
    "name": "mini_cli",
    "duration": 30.0,
    "seed": 2,
    "goal": [8.0, 0.0, 1.0],
    "start": {"position": [0.0, 0.0, 1.0]},
    "sensor": {"points_per_second": 50000},
    "map": {"scans_per_tree": 25, "resolution": 0.1},
    "planner": {"clearance": 0.45},
    "obstacles": [
        {"name": "pillar", "shape": "capsule", "p0": [4.0, 0.3, -1.0], "p1": [4.0, 0.3, 3.0], "radius": 0.15},
    ],
}


MINI_CMP = {
    "name": "mini_cmp",
    "duration": 1.0,
    "seed": 3,
    "goal": [4.0, 0.0, 1.0],
    "start": {"position": [0.0, 0.0, 1.0], "yaw": 0.0},
    "sensor": {"points_per_second": 60000},
    "obstacles": [
        {"name": "bar", "shape": "capsule", "p0": [3.0, 0.0, 0.2], "p1": [3.0, 0.0, 2.2], "radius": 0.01},
        {"name": "wall", "shape": "box", "lo": [5.0, -3.8, -0.6], "hi": [5.3, 3.8, 4.6]},
    ],
    "compare": {"frames": 6, "grid_resolution": 0.3, "sweep": [0.3],
                "origin": [2.0, -1.5, -0.5], "size": [2.1, 3.0, 3.6]},
}


@pytest.fixture()
def mini_path(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(MINI))
    return str(path)


def test_resolve_bundled_names_exist():
    for name in BUNDLED_SCENARIOS:
        path = resolve_scenario_path(name)
        assert os.path.exists(path)
    with pytest.raises(ScenarioError):
        resolve_scenario_path("no_such_scenario")


def test_a_directory_does_not_shadow_a_bundled_scenario(tmp_path, monkeypatch):
    # `--out indoor_bar` leaves a directory named like the bundled scenario
    (tmp_path / "indoor_bar").mkdir()
    monkeypatch.chdir(tmp_path)
    path = resolve_scenario_path("indoor_bar")
    assert os.path.isfile(path) and path.endswith("indoor_bar.yaml")


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_report_of_an_obstacle_free_run_is_strict_json(tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text(yaml.safe_dump({**MINI, "duration": 0.1, "obstacles": []}))
    out = tmp_path / "out"
    assert main([str(path), "--out", str(out)]) == EXIT_TIMEOUT
    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    assert report["min_ground_truth_clearance"] is None
    assert "min clearance inf m" in capsys.readouterr().out


def test_run_writes_expected_outputs(mini_path, tmp_path):
    out = tmp_path / "out"
    report = run(mini_path, out_dir=out)
    assert report.outcome == "goal_reached"
    for name in ("trajectory.csv", "events.csv", "report.json", "map_final/tree0.txt",
                 "map_final/tree1.txt", "map_final/counters.txt"):
        assert (out / name).exists(), name
    data = json.loads((out / "report.json").read_text())
    assert data["outcome"] == "goal_reached"
    assert data["timings"]["map_update"]["count"] > 0
    assert data["min_ground_truth_clearance"] > 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("frame,t,px,py,pz")


@pytest.mark.parametrize(
    "plan_seconds, over, overrun_ms",
    [([], 0, 0.0), ([0.010, 0.030], 0, 0.0), ([0.010, 0.045, 0.031], 2, 15.0)],
    ids=["no-plans", "within-budget", "two-over"],
)
def test_report_counts_plans_over_the_handover_budget(mini_path, plan_seconds, over, overrun_ms):
    log = RunLog(scenario_name="mini_cli", seed=2, plan_seconds=plan_seconds)
    log.frames = [FrameRecord(i, UavState.hover([x, 0.0, 1.0], t=0.02 * i), 0, [0, 0])
                  for i, x in enumerate((0.0, 1.0))]
    plan = build_report(log, load_scenario(mini_path)).timings["plan"]
    assert plan["count"] == len(plan_seconds)
    assert plan["over_budget"] == over  # PLAN_BUDGET is 30 ms; exactly 30 ms is within it
    assert plan["max_overrun_ms"] == pytest.approx(overrun_ms)


def test_run_is_byte_identical_for_same_seed(mini_path, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(mini_path, out_dir=a, overrides=["seed=11"])
    run(mini_path, out_dir=b, overrides=["seed=11"])
    for name in ("trajectory.csv", "events.csv", "map_final/tree0.txt",
                 "map_final/tree1.txt", "map_final/counters.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_differs_across_seeds(mini_path, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(mini_path, out_dir=a, overrides=["seed=1"])
    run(mini_path, out_dir=b, overrides=["seed=2"])
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


def test_malformed_scenario_no_partial_outputs(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration: -5\ngoal: [1, 2]\n")
    out = tmp_path / "out"
    with pytest.raises(ScenarioError):
        run(str(bad), out_dir=out)
    assert not out.exists()


def test_cli_main_exit_codes(mini_path, tmp_path):
    assert main([mini_path, "--out", str(tmp_path / "ok")]) == EXIT_OK
    bad = tmp_path / "bad.yaml"
    bad.write_text("nonsense: [\n")
    assert main([str(bad), "--out", str(tmp_path / "x")]) == EXIT_SCENARIO_ERROR
    assert main(["missing_scenario", "--out", str(tmp_path / "y")]) == EXIT_SCENARIO_ERROR
    # unknown keys are refused, not ignored
    unknown = ["--set", "map.scan_rate_hz=50"]
    assert main([mini_path, "--out", str(tmp_path / "z"), *unknown]) == EXIT_SCENARIO_ERROR
    # a config outside the planner envelope is refused before it flies
    too_hard = ["--set", "planner.a_max=5"]
    assert main([mini_path, "--out", str(tmp_path / "w"), *too_hard]) == EXIT_SCENARIO_ERROR
    assert not (tmp_path / "w").exists()
    # removed settings are unknown keys now, as are typos at the top level,
    # under start and under compare
    for override in ("sensor.pattern=uniform", "planner.heuristic_weight=2", "map.clearance=0.3",
                     "sensor.frame_rate=50", "planner.velocity_bound=per_axis", "durations=0.1", "start.yawn=1",
                     "compare.frame=2"):
        out = tmp_path / override.split("=")[0]
        assert main([mini_path, "--out", str(out), "--set", override]) == EXIT_SCENARIO_ERROR
        assert not out.exists()
    # usage errors are bad inputs too, not exit 2 (ground-truth collision)
    assert main([mini_path, "--out", str(tmp_path / "v"), "--bench", "3"]) == EXIT_SCENARIO_ERROR
    assert main([]) == EXIT_SCENARIO_ERROR
    assert not (tmp_path / "v").exists()


def test_cli_out_naming_a_file_exits_5_before_anything_runs(mini_path, tmp_path, capsys):
    cmp_path = tmp_path / "cmp.yaml"
    cmp_path.write_text(yaml.safe_dump(MINI_CMP))
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for argv in ([mini_path, "--out", str(taken)],
                 [str(cmp_path), "--compare-maps", "--out", str(taken)],
                 [mini_path, "--out", str(taken / "sub")]):
        assert main(argv) == EXIT_SCENARIO_ERROR
        assert "scenario error: --out: " in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_cli_override_flag(mini_path, tmp_path, capsys):
    base = run(mini_path, out_dir=tmp_path / "base", overrides=["seed=4"])
    # a_max must stay above 2*prune_cell/primitive_duration^2 so the first hop
    # from rest clears the dedup cell (see README planner notes)
    code = main([mini_path, "--out", str(tmp_path / "o"),
                 "--set", "planner.a_max=1.6", "--seed", "4"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["seed"] == 4
    # weaker acceleration: the flight takes longer than the default-config run
    assert report["flight_duration"] > base.flight_duration


def test_cli_compare_maps(tmp_path, capsys):
    path = tmp_path / "cmp.yaml"
    path.write_text(yaml.safe_dump(MINI_CMP))
    code = main([str(path), "--compare-maps", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "compare_maps.json").read_text())
    assert "bar_cell_occupied_fraction" in report
    assert report["pointcloud_bar_points"] > 0
    rows = (tmp_path / "out" / "grid_occupancy.txt").read_text().splitlines()
    assert rows[0] == "i j k probability" and len(rows) > 1
    assert (tmp_path / "out" / "pointcloud_map" / "tree0.txt").exists()


@pytest.mark.parametrize("bar", [
    {"name": "bar", "shape": "sphere", "center": [3.0, 0.0, 1.0], "radius": 0.1},
    {"name": "bar", "shape": "box", "lo": [3.0, -0.05, 0.2], "hi": [3.1, 0.05, 2.2]},
], ids=["sphere", "box"])
def test_cli_compare_maps_refuses_a_bar_that_is_not_a_capsule(tmp_path, capsys, bar):
    scene = {
        "duration": 1.0, "goal": [4.0, 0.0, 1.0], "start": {"position": [0.0, 0.0, 1.0]},
        "obstacles": [bar, {"name": "wall", "shape": "box", "lo": [5.0, -1.0, 0.0], "hi": [5.3, 1.0, 2.0]}],
        "compare": {"frames": 2},
    }
    path = tmp_path / "cmp.yaml"
    path.write_text(yaml.safe_dump(scene))
    assert main([str(path), "--compare-maps", "--out", str(tmp_path / "out")]) == EXIT_SCENARIO_ERROR
    assert f"compare.bar: 'bar' is a {bar['shape']}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_compare_maps_refuses_a_grid_that_misses_the_bar(tmp_path, capsys):
    # the grid sat 17 m past the bar and reported it unseen, an occupied fraction of 0.0
    path = tmp_path / "cmp.yaml"
    path.write_text(yaml.safe_dump(MINI_CMP))
    out = tmp_path / "out"
    argv = [str(path), "--compare-maps", "--out", str(out)]
    assert main([*argv, "--set", "compare.origin=[20.0, -1.5, -0.5]"]) == EXIT_SCENARIO_ERROR
    assert "scenario error: compare.origin, compare.size: " in capsys.readouterr().err
    assert not out.exists()
    # so is a sweep grid that misses it: the bar starts at z = 0.19, which the 0.4 m grid
    # (two cells up from z = -0.5) holds and the 0.1 m one (six cells) does not
    sizes = ["--set", "compare.size=[2.1, 3.0, 0.6]", "--set", "compare.grid_resolution=0.4"]
    assert main([*argv, *sizes, "--set", "compare.sweep=[0.4, 0.1]"]) == EXIT_SCENARIO_ERROR
    assert "scenario error: compare.origin, compare.size: the 0.1 m grid " in capsys.readouterr().err
    assert not out.exists()


def test_cli_compare_maps_needs_a_compare_section(mini_path, tmp_path, capsys):
    assert main([mini_path, "--compare-maps", "--out", str(tmp_path / "out")]) == EXIT_SCENARIO_ERROR
    assert "scenario.compare: --compare-maps needs a compare section" in capsys.readouterr().err


def test_cli_seed_is_checked_as_the_scenario_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["indoor_bar", "--seed", "-3", "--out", str(out)]) == EXIT_SCENARIO_ERROR
    assert "scenario error: scenario.seed: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_compare_maps_applies_the_seed(tmp_path, capsys):
    path = tmp_path / "cmp.yaml"
    path.write_text(yaml.safe_dump(MINI_CMP))
    out = tmp_path / "bad"
    assert main([str(path), "--seed", "-3", "--compare-maps", "--out", str(out)]) == EXIT_SCENARIO_ERROR
    assert "scenario error: scenario.seed: " in capsys.readouterr().err
    assert not out.exists()
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main([str(path), "--seed", seed, "--compare-maps", "--out", str(out)]) == EXIT_OK
        reports.append((out / "compare_maps.json").read_bytes())
    assert reports[0] != reports[1]


def test_cli_malformed_values_exit_5_naming_their_key(tmp_path, capsys):
    for argv, key in ((["indoor_bar", "--set", "planner.v_max=.nan"], "planner.v_max"),
                      (["thin_bar_compare", "--compare-maps", "--set", "compare.size=[0, 1, 1]"], "compare.size"),
                      (["thin_bar_compare", "--compare-maps", "--set", "compare.size=[1.0e+6, 1.0e+6, 1.0e+6]"],
                       "compare.size"),
                      (["indoor_bar", "--set", "sensor.points_per_second=10"], "sensor.points_per_second")):
        out = tmp_path / key
        assert main([*argv, "--out", str(out)]) == EXIT_SCENARIO_ERROR
        assert f"scenario error: {key}: " in capsys.readouterr().err
        assert not out.exists()


def test_cli_compare_maps_without_returns(tmp_path, capsys):
    # the sensor faces away from the bar and the wall: no scan returns a point
    overrides = ["start.yaw=3.14159", "sensor.points_per_second=6000", "compare.frames=2"]
    argv = ["thin_bar_compare", "--compare-maps", "--out", str(tmp_path / "out")]
    assert main(argv + [a for o in overrides for a in ("--set", o)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "compare_maps.json").read_text())
    assert report["pointcloud_bar_points"] == 0
    assert report["map_tree_sizes"] == [0, 0]


def test_cli_refuses_a_key_written_twice_naming_the_repeat(mini_path, tmp_path, capsys):
    # PyYAML alone keeps the last copy: this file would fly at the default v_max of 2.0
    twice = tmp_path / "twice.yaml"
    twice.write_text("duration: 30.0\ngoal: [8.0, 0.0, 1.0]\nstart:\n  position: [0.0, 0.0, 1.0]\n"
                     "planner:\n  v_max: 1.0\nplanner:\n  clearance: 0.45\n")
    assert main([str(twice), "--out", str(tmp_path / "a")]) == EXIT_SCENARIO_ERROR
    err = capsys.readouterr().err
    assert "found duplicate key 'planner'" in err and "line 7, column 1" in err
    assert not (tmp_path / "a").exists()
    argv = [mini_path, "--out", str(tmp_path / "b"), "--set", "planner={v_max: 1.0, v_max: 2.0}"]
    assert main(argv) == EXIT_SCENARIO_ERROR
    assert "found duplicate key 'v_max'" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("names", [("rock", "rock"), ("obstacle1", None)])
def test_cli_refuses_an_obstacle_name_used_twice(mini_path, tmp_path, capsys, names):
    # the second obstacle is unnamed in the second case: its default name is obstacle1
    rocks = [{"shape": "sphere", "center": [4.0, y, 1.0], "radius": 0.2} for y in (2.0, -2.0)]
    for rock, name in zip(rocks, names):
        if name is not None:
            rock["name"] = name
    path = tmp_path / "rocks.yaml"
    path.write_text(yaml.safe_dump({**MINI, "obstacles": rocks}))
    assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_SCENARIO_ERROR
    assert f"scenario error: obstacles[1].name: {names[0]!r} already names obstacles[0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
