"""Scenario runner and map-comparison driver.

Usage:
    cloudnav SCENARIO [--seed N] [--out DIR] [--set key=value ...]
    cloudnav SCENARIO --compare-maps [--seed N] [--out DIR] [--set key=value ...]

SCENARIO is a YAML file path or the name of a bundled scenario
(indoor_bar, forest_branch, hillside, thin_bar_compare).

Exit codes: 0 goal reached / command succeeded, 2 ground-truth collision,
3 planner failure, 4 timeout, 5 scenario or usage error.

Timing lives in `perfbench/`, the benchmark; a run's report.json carries the
per-stage wall-time statistics of that run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .gridmap import thin_object_experiment
from .planner import PLAN_BUDGET
from .scenario import Scenario, ScenarioError, load_scenario
from .sim import RunLog, audit_ground_truth, simulate
from .spatial import dump_map

EXIT_OK = 0
EXIT_COLLISION = 2
EXIT_PLANNER_FAILURE = 3
EXIT_TIMEOUT = 4
EXIT_SCENARIO_ERROR = 5

_OUTCOME_EXIT = {
    "goal_reached": EXIT_OK,
    "collision": EXIT_COLLISION,
    "planner_failure": EXIT_PLANNER_FAILURE,
    "timeout": EXIT_TIMEOUT,
}

BUNDLED_SCENARIOS = ("indoor_bar", "forest_branch", "hillside", "thin_bar_compare")


def resolve_scenario_path(spec: str) -> str:
    if os.path.isfile(spec):
        return spec
    if spec in BUNDLED_SCENARIOS:
        ref = resources.files("cloudnav").joinpath(f"scenarios/{spec}.yaml")
        return str(ref)
    raise ScenarioError(
        f"scenario {spec!r} is neither a file nor a bundled scenario {BUNDLED_SCENARIOS}"
    )


@dataclass
class RunReport:
    outcome: str
    replan_count: int
    min_ground_truth_clearance: float
    path_length: float
    flight_duration: float
    frames: int
    seed: int
    scenario: str
    timings: dict = field(default_factory=dict)


def _stats(samples) -> dict:
    if not samples:
        return {"count": 0}
    a = np.asarray(samples)
    return {
        "count": int(a.size),
        "min_ms": float(a.min() * 1e3),
        "mean_ms": float(a.mean() * 1e3),
        "p95_ms": float(np.percentile(a, 95) * 1e3),
        "max_ms": float(a.max() * 1e3),
    }


def _plan_stats(plan_seconds) -> dict:
    """`_stats` plus the number of plans over the loop's `PLAN_BUDGET` and the largest overrun."""
    overruns = [s - PLAN_BUDGET for s in plan_seconds if s > PLAN_BUDGET]
    return {**_stats(plan_seconds), "over_budget": len(overruns),
            "max_overrun_ms": max(overruns, default=0.0) * 1e3}


def build_report(log: RunLog, scenario: Scenario) -> RunReport:
    audit = audit_ground_truth(log, scenario)
    return RunReport(
        outcome=log.outcome,
        replan_count=log.replan_count,
        min_ground_truth_clearance=audit.min_distance,
        path_length=log.path_length(),
        flight_duration=log.final_time,
        frames=len(log.frames),
        seed=log.seed,
        scenario=log.scenario_name,
        timings={
            "map_update": _stats([u.total_seconds for u in log.map_updates]),
            # over the updates whose tree or map state a second read built; `count` counts those updates
            "tree_build": _stats([u.build_seconds for u in log.map_updates if u.build_seconds > 0]),
            "plan": _plan_stats(log.plan_seconds),
        },
    )


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def write_trajectory_csv(log: RunLog, path) -> None:
    with open(path, "w") as f:
        f.write("frame,t,px,py,pz,vx,vy,vz,ax,ay,az,scan_points,tree_sizes,flag\n")
        for index, fr in enumerate(log.frames):
            st = fr.state
            row = [str(index), _fmt(st.t), *(_fmt(v) for v in (*st.p, *st.v, *st.a))]
            row += [str(fr.scan_size), "|".join(str(s) for s in fr.tree_sizes), fr.flag]
            f.write(",".join(row) + "\n")


def write_events_csv(log: RunLog, path) -> None:
    with open(path, "w") as f:
        f.write("t,kind,data\n")
        for ev in log.events:
            data = json.dumps(ev.data, sort_keys=True)
            f.write(f"{_fmt(ev.t)},{ev.kind},{data}\n")


def _make_out_dir(out_dir) -> None:
    """Create --out before anything runs; a path that cannot be a directory is a usage error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ScenarioError(f"--out: cannot create directory {str(out_dir)!r}: {e}") from e


def run(scenario_path, out_dir, overrides: list[str] | None = None) -> RunReport:
    """Execute one closed-loop run and write its artifacts to out_dir.

    trajectory.csv, events.csv and the final map dump are reproducible from
    (scenario, seed); report.json additionally holds wall-clock timings.
    """
    scenario = load_scenario(scenario_path, overrides=overrides)
    _make_out_dir(out_dir)
    log = simulate(scenario)
    report = build_report(log, scenario)
    write_trajectory_csv(log, os.path.join(out_dir, "trajectory.csv"))
    write_events_csv(log, os.path.join(out_dir, "events.csv"))
    dump_map(log.local_map, os.path.join(out_dir, "map_final"))
    fields = asdict(report)
    if not math.isfinite(report.min_ground_truth_clearance):  # no obstacles: JSON has no Infinity
        fields["min_ground_truth_clearance"] = None
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(fields, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    return report


def compare_maps(scenario_path, out_dir, overrides: list[str] | None = None) -> dict:
    """Drive the thin-object occupancy-grid comparison and write its report
    plus grid/point-cloud exports for plotting."""
    scenario = load_scenario(scenario_path, overrides=overrides)
    if scenario.compare is None:
        raise ScenarioError("scenario.compare: --compare-maps needs a compare section")
    _make_out_dir(out_dir)
    report = thin_object_experiment(scenario, export_dir=out_dir)
    with open(os.path.join(out_dir, "compare_maps.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cloudnav",
        description="Point-cloud navigation simulator: run scenarios, compare maps.",
    )
    parser.add_argument("scenario", help="scenario YAML path or bundled scenario name")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario key by dotted path, e.g. planner.v_max=1.5",
    )
    parser.add_argument(
        "--compare-maps", action="store_true", help="run the occupancy-grid comparison"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse has printed the usage; exit 2 means a collision here
        return EXIT_SCENARIO_ERROR if e.code else EXIT_OK

    # --seed is the `seed` override on both paths, so the loader checks it
    overrides = args.overrides if args.seed is None else [*args.overrides, f"seed={args.seed}"]
    try:
        path = resolve_scenario_path(args.scenario)
        if args.compare_maps:
            report = compare_maps(path, out_dir=args.out, overrides=overrides)
            print(json.dumps(report, indent=2, sort_keys=True))
            return EXIT_OK
        report = run(path, out_dir=args.out, overrides=overrides)
        print(
            f"{report.scenario}: {report.outcome} in {report.flight_duration:.2f}s, "
            f"{report.replan_count} replans, path {report.path_length:.2f} m, "
            f"min clearance {report.min_ground_truth_clearance:.3f} m"
        )
        return _OUTCOME_EXIT.get(report.outcome, 1)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR


if __name__ == "__main__":
    sys.exit(main())
