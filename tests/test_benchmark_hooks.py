"""The benchmark in perfbench/ times the package by rebinding names inside it.

These tests fail when a refactor renames or removes a name the benchmark
hooks, so the break shows in the unit suite rather than in a benchmark run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib

import pytest

import cloudnav.sim
from cloudnav.planner import PlannerConfig
from cloudnav.spatial import MapUpdateInfo
from test_sim import DROPPED_ROCK, mini_scenario

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    tracing = _load_tracing()
    for owner, attr, _ in tracing._MODULE_TARGETS + tracing._CLASS_TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    assert callable(cloudnav.sim.generate_scan)
    assert {"raw_accumulated", "filter_seconds", "build_seconds"} <= {
        f.name for f in dataclasses.fields(MapUpdateInfo)
    }
    assert "velocity_bound" in {f.name for f in dataclasses.fields(PlannerConfig)}


def test_perfbench_imports_resolve():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "cloudnav":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: from {node.module} import {alias.name}"
                    imported.append(alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "cloudnav":
                        importlib.import_module(alias.name)
    assert "simulate" in imported


BAR = {
    "name": "bar", "shape": "capsule", "p0": [4.5, -2.0, 1.0], "p1": [4.5, 2.0, 1.0], "radius": 0.01,
    "schedule": [
        {"t": 0.0, "offset": [0, 0, -3.0]},
        {"t": 1.0, "offset": [0, 0, -3.0]},
        {"t": 2.5, "offset": [0, 0, 0.0]},
    ],
}
ROCK = {"name": "rock", "shape": "sphere", "center": [0.6, 0.0, 1.0], "radius": 0.3}


@pytest.mark.parametrize(
    "obstacle", [BAR, ROCK, DROPPED_ROCK], ids=["replan", "emergency", "emergency-tracked"]
)
def test_traced_flight_attributes_every_frame(obstacle):
    tracing = _load_tracing()
    scenario = mini_scenario(obstacles=[obstacle])
    tracer = tracing.Tracer()
    with tracer.recording():
        log = cloudnav.sim.simulate(scenario)
    assert log.outcome == "goal_reached" and log.replan_count >= 1
    # one request per scanned frame; the exit frame records a state but scans nothing
    frames = [s for s in tracer.spans if s[1] == "sim.frame"]
    assert len(frames) == len(log.frames) - 1
    assert all(s[5] >= 0 for s in tracer.spans), "work ran before the first scan"
    assert tracer.counts["planner.replans"] == log.replan_count
