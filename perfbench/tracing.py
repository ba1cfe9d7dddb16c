"""In-process span recorder for the cloudnav benchmark.

The tracer times calls into each layer from outside the package: it rebinds,
inside the benchmark's own process, the names the closed loop and the planner
call, and records one span per call (name, start, end, parent span, request).
Spans stay in memory and are written out once, when the run ends. No file of
the package changes.

A request is one closed-loop frame (flights) or one plan query (plan_forest).
Frames are root spans that run from one `generate_scan` call of the loop to the
next, so everything the loop does in a frame falls inside exactly one of them.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import cloudnav.planner
import cloudnav.sim
from cloudnav import Environment, TemporalLocalMap

# Layer spans, by the name of the package attribute they time.
_MODULE_TARGETS = (
    # (module, attribute, span name)
    (cloudnav.sim, "plan", "planner.plan"),
    (cloudnav.planner, "plan", "planner.plan"),
    (cloudnav.sim, "replan_step", "planner.replan_step"),
    (cloudnav.sim, "relaxed_replan", "planner.relaxed_replan"),
    (cloudnav.planner, "check_trajectory", "spatial.check_trajectory"),
    (cloudnav.planner, "expand", "planner.expand"),
    (cloudnav.planner, "analytic_expansion", "planner.analytic"),
)
_CLASS_TARGETS = (
    (TemporalLocalMap, "update", "spatial.update"),
    (TemporalLocalMap, "any_within", "spatial.any_within"),
    (Environment, "cast_rays", "sensor.cast_rays"),
    (Environment, "min_distance", "sensor.min_distance"),
    # the one non-public target: sensed-space telemetry is its own layer
    (cloudnav.sim._SensedSpace, "mark", "sim.telemetry"),
)
_CONTROLS_PER_EXPANSION = 27
# Telemetry casts rays of its own; those casts get their own span name, so the
# sensor.cast_rays metrics cover the scan's casts only.
_RENAME_UNDER = {("sensor.cast_rays", "sim.telemetry"): "sim.telemetry.cast_rays"}

# Counters that depend only on the inputs, never on timing.
DETERMINISTIC_COUNTERS = (
    "planner.expansions",
    "planner.replans",
    "spatial.update.raw_points",
    "sensor.returns",
    "planner.analytic.attempts",
    "planner.analytic.successes",
)


def _count_cast(c, args, out):
    c["sensor.cast_rays.rays"] += len(out)
    c["sensor.cast_rays.hits"] += int(np.isfinite(out).sum())


def _count_scan(c, args, out):
    c["sensor.returns"] += len(out)


def _count_update(c, args, out):
    local_map = args[0]
    c["spatial.update.calls"] += 1
    c["spatial.update.scan_points"] += len(args[1])
    c["spatial.update.raw_points"] += out.raw_accumulated
    c["spatial.update.filter_s"] += out.filter_seconds
    c["spatial.update.build_s"] += out.build_seconds
    c["spatial.map_points.sum"] += sum(local_map.tree_sizes)


def _count_any_within(c, args, out):
    c["spatial.any_within.points"] += len(out)


def _count_check(c, args, out):
    c["spatial.check_trajectory.calls"] += 1


def _count_plan(c, args, out):
    c["planner.plan.calls"] += 1
    c["planner.plan.reported_expansions"] += out[1].expansions


def _count_plan_raised(c, args, error):
    c["planner.plan.calls"] += 1
    # a search that gave up (PlanningFailed) reports the expansions it made
    report = getattr(error, "report", None)
    if report is not None:
        c["planner.plan.reported_expansions"] += report.expansions


def _count_replan(c, args, out):
    if out.action == "replaced":
        c["planner.replans"] += 1


def _count_relaxed_replan(c, args, out):
    # the loop's emergency replan; it counts in the log's replan_count too
    c["planner.replans"] += 1


def _count_expand(c, args, out):
    c["planner.expansions"] += 1
    c["planner.expand.children"] += len(out)


def _count_analytic(c, args, out):
    c["planner.analytic.attempts"] += 1
    c["planner.analytic.successes"] += out is not None


_COUNTERS = {
    "sensor.cast_rays": _count_cast,
    "sensor.scan": _count_scan,
    "spatial.update": _count_update,
    "spatial.any_within": _count_any_within,
    "spatial.check_trajectory": _count_check,
    "planner.plan": _count_plan,
    "planner.replan_step": _count_replan,
    "planner.relaxed_replan": _count_relaxed_replan,
    "planner.expand": _count_expand,
    "planner.analytic": _count_analytic,
}
# Counters of calls that raise.
_RAISE_COUNTERS = {"planner.plan": _count_plan_raised}


class Tracer:
    """Span recorder; records while its `recording()` context is open."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request)
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self._next_id = 0
        self._stack: list[tuple[int, str]] = []  # open layer spans: (id, name)
        self._root: tuple | None = None  # (id, name, start) of the open request span
        self.generate_scan = None  # traced scan, for callers outside the loop

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        """`fn` recording one span per call; a call is counted after its span
        ends, or, if it raises, just before."""

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            if self._stack:
                parent, parent_name = self._stack[-1]
                span_name = _RENAME_UNDER.get((name, parent_name), name)
            else:
                parent = self._root[0] if self._root else -1
                span_name = name
            self._stack.append((sid, span_name))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                count = _RAISE_COUNTERS.get(span_name)
                if count is not None:
                    count(self.counts, args, e)
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append((sid, span_name, t0, t1, parent, self.request))
            count = _COUNTERS.get(span_name)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    @contextmanager
    def recording(self):
        """Rebind every traced name for the duration of the block."""
        restore = []
        for owner, attr, name in _MODULE_TARGETS + _CLASS_TARGETS:
            orig = getattr(owner, attr)
            restore.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))
        orig_scan = cloudnav.sim.generate_scan
        restore.append((cloudnav.sim, "generate_scan", orig_scan))
        scan = self.wrap("sensor.scan", orig_scan)

        def frame_then_scan(*args, **kwargs):
            # the loop calls generate_scan first in every frame
            self.begin_request("sim.frame")
            return scan(*args, **kwargs)

        cloudnav.sim.generate_scan = frame_then_scan
        self.generate_scan = scan
        try:
            yield self
        finally:
            self.end_request()
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)
            self.generate_scan = None

    # -- request (root) spans -------------------------------------------------

    def begin_request(self, name: str):
        now = perf_counter()
        self.end_request(now)
        self.request += 1
        self._root = (self._next_id, name, now)
        self._next_id += 1

    def end_request(self, now: float | None = None):
        if self._root is None:
            return
        now = perf_counter() if now is None else now
        sid, name, start = self._root
        self.spans.append((sid, name, start, now, -1, self.request))
        self._root = None

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        return {k: int(self.counts.get(k, 0)) for k in DETERMINISTIC_COUNTERS}

    def write_spans(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "request"])
            for sid, name, t0, t1, parent, req in sorted(self.spans):
                w.writerow([sid, name, repr(t0), repr(t1), parent, req])

    def layer_metrics(self, root_name: str) -> dict:
        """Per-layer busy and self times, counts and ratios from the spans.

        A span's self time is its duration minus its direct children's. The
        request spans named `root_name` give the attribution check: the share
        of request time that no child span covers.
        """
        busy = defaultdict(float)
        child = defaultdict(float)
        for sid, name, t0, t1, parent, req in self.spans:
            busy[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_by_name = defaultdict(float)
        for sid, name, t0, t1, parent, req in self.spans:
            self_by_name[name] += (t1 - t0) - child.get(sid, 0.0)

        def layer_self(layer):
            return sum(v for k, v in self_by_name.items() if k.startswith(layer + "."))

        c = self.counts
        root_busy = busy.get(root_name, 0.0)
        root_self = self_by_name.get(root_name, 0.0)
        updates = c.get("spatial.update.calls", 0)
        rays = c.get("sensor.cast_rays.rays", 0)
        scan_points = c.get("spatial.update.scan_points", 0)
        expansions = c.get("planner.expansions", 0)
        return {
            "sensor.scan.busy_s": (busy["sensor.scan"], "s"),
            "sensor.cast_rays.busy_s": (busy["sensor.cast_rays"], "s"),
            "sensor.cast_rays.rays": (int(rays), "count"),
            "sensor.returns": (int(c.get("sensor.returns", 0)), "count"),
            "sensor.hit_ratio": (c.get("sensor.cast_rays.hits", 0) / rays if rays else 0.0, "ratio"),
            "sensor.min_distance.busy_s": (busy["sensor.min_distance"], "s"),
            "sensor.self_s": (layer_self("sensor"), "s"),
            "sim.frames": (int(sum(1 for s in self.spans if s[1] == "sim.frame")), "count"),
            "sim.telemetry.busy_s": (busy["sim.telemetry"], "s"),
            "sim.telemetry.cast_rays.busy_s": (busy["sim.telemetry.cast_rays"], "s"),
            "sim.telemetry.self_s": (self_by_name["sim.telemetry"], "s"),
            "sim.self_s": (self_by_name["sim.frame"], "s"),
            "spatial.update.busy_s": (busy["spatial.update"], "s"),
            "spatial.update.filter_s": (c.get("spatial.update.filter_s", 0.0), "s"),
            "spatial.update.build_s": (c.get("spatial.update.build_s", 0.0), "s"),
            "spatial.update.raw_points": (int(c.get("spatial.update.raw_points", 0)), "count"),
            "spatial.update.scan_points": (int(scan_points), "count"),
            "spatial.filter_amplification": (
                c.get("spatial.update.raw_points", 0) / scan_points if scan_points else 0.0,
                "ratio",
            ),
            "spatial.map_points.mean": (
                c.get("spatial.map_points.sum", 0) / updates if updates else 0.0,
                "points",
            ),
            "spatial.check_trajectory.busy_s": (busy["spatial.check_trajectory"], "s"),
            "spatial.check_trajectory.calls": (int(c.get("spatial.check_trajectory.calls", 0)), "count"),
            "spatial.any_within.busy_s": (busy["spatial.any_within"], "s"),
            "spatial.any_within.points": (int(c.get("spatial.any_within.points", 0)), "count"),
            "spatial.self_s": (layer_self("spatial"), "s"),
            "planner.replan_step.busy_s": (busy["planner.replan_step"], "s"),
            "planner.replans": (int(c.get("planner.replans", 0)), "count"),
            "planner.plan.busy_s": (busy["planner.plan"], "s"),
            "planner.plan.calls": (int(c.get("planner.plan.calls", 0)), "count"),
            "planner.expansions": (int(expansions), "count"),
            "planner.expand.busy_s": (busy["planner.expand"], "s"),
            "planner.expand.survivor_ratio": (
                c.get("planner.expand.children", 0) / (_CONTROLS_PER_EXPANSION * expansions)
                if expansions
                else 0.0,
                "ratio",
            ),
            "planner.analytic.attempts": (int(c.get("planner.analytic.attempts", 0)), "count"),
            "planner.analytic.successes": (int(c.get("planner.analytic.successes", 0)), "count"),
            "planner.self_s": (layer_self("planner"), "s"),
            "trace.unattributed_ratio": (root_self / root_busy if root_busy else 0.0, "ratio"),
            "trace.spans": (len(self.spans), "count"),
        }
