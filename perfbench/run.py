#!/usr/bin/env python3
"""cloudnav benchmark: closed-loop frame cost, planner latency, per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload flight_indoor --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

    flight_indoor    closed-loop indoor_bar flights; the map update leads
    flight_hillside  closed-loop hillside flights; the ray cast leads
    plan_forest      plan() queries on forest_branch maps built in set-up

With --trace 0 the run reports the end-to-end metrics, timed with nothing but
a per-frame clock and scaled by a host-speed gauge. With --trace 1 it reports the per-layer metrics from spans
recorded around every call into a layer, and writes the spans to
.perfbench_out/. Every run checks the program's outputs; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS threads before numpy loads: the package's matrix products are tiny,
# and a fixed cap keeps thread start-up out of the timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import hashlib
import heapq
import json
import platform
import resource
import statistics
import subprocess
import tempfile
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("flight_indoor", "flight_hillside", "plan_forest")
FLIGHT_SCENARIOS = {"flight_indoor": "indoor_bar", "flight_hillside": "hillside"}

# Set-up repetitions per run; setup_s is their median.
SETUP_REPS = {"flight_indoor": 31, "flight_hillside": 31, "plan_forest": 3}
# Untraced runs time at least this many operations, so that at least ten lie
# beyond the 95th percentile.
MIN_SAMPLES = 200
# Typical wall time of one flight / one round of plan_forest queries on a
# 2-core x86-64 host. Only used to size the traced run, whose work is fixed so
# that its counters repeat exactly.
NOMINAL_FLIGHT_S = {"flight_indoor": 6.5, "flight_hillside": 12.5}
NOMINAL_QUERY_ROUND_S = 4.5

# plan_forest queries: from the start pose to every goal site of this regular
# grid that is clear of the map and the obstacles by the clearance plus one map
# resolution, on both criterion-7 maps (branch raised at t=0, lowered across
# the corridor at t=5). The planner currently exhausts its budget on goals
# within one resolution of the clearance band (perfbench/README.md, "Known
# failures"); --all-goals poses those too.
SCAN_TIMES = (0.0, 5.0)
SCANS_PER_MAP = 100
SITES_X = tuple(float(x) for x in range(4, 13))
SITES_Y = (-1.5, 0.0, 1.5)
SITES_Z = (1.2, 2.0)
LIMIT_EPS = 1e-9

# Host-speed gauge: a fixed reference job timed between operations. Reported
# times are scaled by GAUGE_NOMINAL_S / (the run's median gauge time), i.e. to
# a host that runs the reference job in GAUGE_NOMINAL_S (a quiet 2-core x86-64
# host, Python 3.11, numpy 2.4, scipy 1.17).
GAUGE_NOMINAL_S = 0.0100
GAUGE_INTERVAL_S = 0.5
GAUGE_EDGE_READINGS = 5


def _load_package():
    if not os.path.isfile(os.path.join(SRC, "cloudnav", "__init__.py")):
        sys.exit(f"perfbench: no cloudnav package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import cloudnav

    if not os.path.abspath(cloudnav.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported cloudnav from {cloudnav.__file__}, not from {SRC}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all-goals", action="store_true",
                   help="plan_forest: also pose the goals within one map resolution "
                        "of the clearance band, on which the planner has been seen to fail")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


# --------------------------------------------------------------------------
# run environment


def _git_rev():
    """HEAD of the checkout's own repository, or None outside one."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cloudnav")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".yaml")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_environment() -> dict:
    import scipy

    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_setup(fn, reps, gauge):
    """Median wall time of `reps` set-ups, and the same scaled by the gauge.

    Set-up is short and happens once, so it gets its own gauge readings,
    timed between the repetitions, rather than the run's.
    """
    times, gauge_times = [], [gauge.time_job()]
    for _ in range(reps):
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
        gauge_times.append(gauge.time_job())
    wall = statistics.median(times)
    return wall, wall * GAUGE_NOMINAL_S / statistics.median(gauge_times), out


def _percentile_ms(samples, q):
    return float(np.percentile(np.asarray(samples), q) * 1e3)


class HostGauge:
    """Times a fixed reference job every GAUGE_INTERVAL_S between operations.

    Shared hosts change speed by tens of percent within a minute, for the
    program and for this job alike, so wall times divided by the job's time
    vary far less from run to run than wall times alone. The job runs in the
    benchmark's process, with the garbage collector off, so that it neither
    triggers collections of the program's objects nor pays for them.
    """

    def __init__(self):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(0)
        self._cloud = rng.uniform(-10.0, 10.0, (60000, 3))
        self._pts = self._cloud[:8000]
        self._queries = rng.uniform(-10.0, 10.0, (2000, 3))
        self._kdtree = cKDTree
        self.samples = []
        self._due = 0.0
        self._job()  # the first run pays for imports and cold caches

    def _job(self):
        # interpreter work like the planner's search loop ...
        heap, cells = [], {}
        for i in range(3000):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            cells[(i % 97, i % 89)] = i * 0.5
        while heap:
            heapq.heappop(heap)
        # ... array work like the voxel filter ...
        k = np.floor(self._cloud / 0.1).astype(np.int64)
        _, inv = np.unique((k[:, 0] << 42) | (k[:, 1] << 21) | k[:, 2], return_inverse=True)
        np.bincount(inv, weights=self._cloud[:, 0])
        # ... and a KD-tree build and query like the map
        self._kdtree(self._pts).query(self._queries, k=1, distance_upper_bound=0.5)

    def time_job(self) -> float:
        gc.disable()
        try:
            t0 = perf_counter()
            self._job()
            return perf_counter() - t0
        finally:
            gc.enable()

    def tick(self, now=None):
        """Time the job if GAUGE_INTERVAL_S has passed since the last time."""
        now = perf_counter() if now is None else now
        if now >= self._due:
            self.samples.append(self.time_job())
            self._due = perf_counter() + GAUGE_INTERVAL_S

    def scale(self) -> float:
        """Factor that maps this run's wall times to the nominal host."""
        return GAUGE_NOMINAL_S / statistics.median(self.samples)


# --------------------------------------------------------------------------
# flights


@contextmanager
def frame_clock(starts, ends, gauge=None):
    """Untraced per-frame timing: a frame runs from one `generate_scan` call of
    the loop to the next; the gauge, if any, runs in between, untimed."""
    import cloudnav.sim

    scan = cloudnav.sim.generate_scan

    def clocked_scan(*args, **kwargs):
        now = perf_counter()
        if starts:
            ends.append(now)
        if gauge is not None:
            gauge.tick(now)
        starts.append(perf_counter())
        return scan(*args, **kwargs)

    cloudnav.sim.generate_scan = clocked_scan
    try:
        yield
    finally:
        cloudnav.sim.generate_scan = scan


def _load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def flight_digests(log, workdir) -> dict:
    """sha256 of the run's trajectory.csv and events.csv, as the CLI writes them."""
    from cloudnav.cli import write_events_csv, write_trajectory_csv

    out = {}
    for name, write in (("trajectory.csv", write_trajectory_csv), ("events.csv", write_events_csv)):
        path = os.path.join(workdir, name)
        write(log, path)
        with open(path, "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def check_flight(log, scenario, expected, workdir) -> list[str]:
    from cloudnav import audit_ground_truth

    problems = []
    if log.outcome != "goal_reached":
        problems.append(f"outcome {log.outcome}")
    audit = audit_ground_truth(log, scenario)
    if not audit.min_distance > 0.0:
        problems.append(f"ground-truth interpenetration (min distance {audit.min_distance:.4f} m)")
    digests = flight_digests(log, workdir)
    for name, digest in digests.items():
        if digest != expected["digests"][name]:
            problems.append(f"{name} digest {digest[:12]} != recorded {expected['digests'][name][:12]}")
    return problems


def fly(scenario, sim_seed, tracer=None, gauge=None):
    """One closed-loop flight. Returns (log, per-frame seconds, wall seconds).

    Wall seconds exclude the gauge's time."""
    from cloudnav import simulate

    if tracer is None:
        starts, ends = [], []
        with frame_clock(starts, ends, gauge):
            t0 = perf_counter()
            log = simulate(scenario, seed=sim_seed)
            t1 = perf_counter()
        ends.append(t1)
        frames = [b - a for a, b in zip(starts, ends)]
        return log, frames, (starts[0] - t0) + sum(frames)
    n0 = len(tracer.spans)
    with tracer.recording():
        t0 = perf_counter()
        log = simulate(scenario, seed=sim_seed)
        t1 = perf_counter()
        tracer.end_request(t1)
    frames = [s[3] - s[2] for s in tracer.spans[n0:] if s[1] == "sim.frame"]
    return log, frames, t1 - t0


def flight_order(seed, expected):
    """The pool's simulation seeds, starting from the one the benchmark seed picks."""
    pool = sorted(int(s) for s in expected)
    k = seed % len(pool)
    return pool[k:] + pool[:k]


def _warm_up(path, sim_seed):
    from cloudnav import load_scenario, simulate

    simulate(load_scenario(path, overrides=["duration=0.1"]), seed=sim_seed)


def run_flights(args, report):
    from cloudnav import load_scenario
    from cloudnav.cli import resolve_scenario_path

    path = resolve_scenario_path(FLIGHT_SCENARIOS[args.workload])
    expected = _load_expected()[args.workload]
    order = flight_order(args.seed, expected)

    def setup():
        sc = load_scenario(path)
        sc.environment()
        return sc

    gauge = HostGauge()
    setup_wall, setup_s, scenario = _median_setup(setup, SETUP_REPS[args.workload], gauge)
    _warm_up(path, order[0])

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            return _traced_flights(args, report, scenario, order, expected, workdir)
        # the run flies one flight again and again, so every round is the same work
        sim_seed = order[0]
        frames, walls = [], []
        while len(frames) < MIN_SAMPLES or sum(walls) < args.seconds:
            log, f, wall = fly(scenario, sim_seed, gauge=gauge)
            report.operation(f"flight seed {sim_seed}",
                             check_flight(log, scenario, expected[str(sim_seed)], workdir))
            frames += f
            walls.append(wall)
    report.info("flight_seed", sim_seed, "")
    report.info("rounds", len(walls), "count")
    report.info("frames", len(frames), "count")
    report.info("rtf", len(walls) * log.final_time / sum(walls), "sim s/s")
    report.info("frame_ms.p50", _percentile_ms(frames, 50), "ms")
    report.info("frame_ms.p95", _percentile_ms(frames, 95), "ms")
    _report_end_to_end(report, gauge, setup_wall, setup_s, frames)


def _report_end_to_end(report, gauge, setup_wall, setup_s, op_seconds):
    """The end-to-end metrics, scaled to the nominal host; raw values go in the table."""
    scale = gauge.scale()
    report.info("setup_s.wall", setup_wall, "s")
    report.info("gauge_ms", statistics.median(gauge.samples) * 1e3, "ms")
    report.info("gauge_samples", len(gauge.samples), "count")
    report.info("host_scale", scale, "x")
    report.metric("setup_s", setup_s, "s")
    report.metric("op_ms.p50", _percentile_ms(op_seconds, 50) * scale, "ms")
    report.metric("op_ms.p95", _percentile_ms(op_seconds, 95) * scale, "ms")
    report.metric("op_per_s", len(op_seconds) / sum(op_seconds) / scale, "1/s")
    report.metric("peak_rss_mb", peak_rss_mb(), "MB")


def _traced_flights(args, report, scenario, order, expected, workdir):
    from tracing import Tracer

    pairs = max(1, round(args.seconds / (2.0 * NOMINAL_FLIGHT_S[args.workload])))
    tracer = Tracer()
    gauge = HostGauge()
    ratios = []
    for i in range(pairs):
        sim_seed = order[i % len(order)]
        want = expected[str(sim_seed)]
        # alternate which pass goes first, so neither always runs warm; a pass
        # takes seconds, so each is scaled by gauge readings taken around it
        frames, speed = {}, {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            before = tracer.snapshot()
            readings = [gauge.time_job() for _ in range(GAUGE_EDGE_READINGS)]
            log, frames[traced], _ = fly(scenario, sim_seed, tracer=tracer if traced else None)
            readings += [gauge.time_job() for _ in range(GAUGE_EDGE_READINGS)]
            speed[traced] = statistics.median(readings)
            problems = check_flight(log, scenario, want, workdir)
            if traced:
                got = {k: v - before[k] for k, v in tracer.snapshot().items()}
                for k, v in want["counters"].items():
                    if got[k] != v:
                        problems.append(f"counter {k} = {got[k]}, recorded {v}")
                if got["planner.replans"] != log.replan_count:
                    problems.append(f"tracer counted {got['planner.replans']} replans, "
                                    f"the log {log.replan_count}")
            report.operation(f"{'traced' if traced else 'untraced'} flight seed {sim_seed}", problems)
        host = speed[False] / speed[True]
        ratios += [b / a * host for a, b in zip(frames[False], frames[True])]
    _report_trace(args, report, tracer, "sim.frame", ratios)


def _report_trace(args, report, tracer, root_name, ratios):
    """Per-layer metrics; `ratios` are traced / untraced times of the same operations."""
    c = tracer.counts
    if c.get("planner.expansions", 0) != c.get("planner.plan.reported_expansions", 0):
        report.problem(
            f"tracer counted {c.get('planner.expansions', 0):.0f} expansions, "
            f"plans reported {c.get('planner.plan.reported_expansions', 0):.0f}"
        )
    for name, (value, unit) in tracer.layer_metrics(root_name).items():
        report.metric(name, value, unit)
    # the median of matched pairs discounts host stalls in either pass
    report.metric("trace.overhead_ratio", float(np.median(ratios)), "ratio")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.csv")
    tracer.write_spans(path)
    report.info("spans_file", os.path.relpath(path, ROOT), "")


# --------------------------------------------------------------------------
# plan_forest


def build_scene_maps(scenario, env, generate_scan):
    """Criterion-7 maps: 100 scans from the start pose, branch raised / lowered."""
    from cloudnav import TemporalLocalMap
    from cloudnav.sensor import yaw_rotation

    rotation = yaw_rotation(scenario.start_yaw)
    maps = []
    for t_scan in SCAN_TIMES:
        m = TemporalLocalMap(scenario.map_config)
        rng = np.random.default_rng(0)
        for k in range(SCANS_PER_MAP):
            m.update(generate_scan(env, scenario.sensor, scenario.start_position, rotation,
                                   t_scan, rng, frame_index=k))
        maps.append(m)
    return maps


def query_set(maps, env, radius):
    """Every (map index, goal) pair whose goal is farther than `radius` from the
    map and the obstacles."""
    queries = []
    for m, t_scan in enumerate(SCAN_TIMES):
        for x in SITES_X:
            for y in SITES_Y:
                for z in SITES_Z:
                    goal = np.array([x, y, z])
                    if maps[m].any_within(goal[None, :], radius)[0]:
                        continue
                    if env.min_distance(goal, t_scan) <= radius:
                        continue
                    queries.append((m, goal))
    return queries


def check_plan(traj, start, goal, cfg, local_map) -> list[str]:
    """The planner's postconditions, on its own validation grid.

    Each segment is sampled as the planner samples it (check_dt on primitives,
    at most check_dt and 1/8 of the segment on the analytic tail): speed and
    clearance at every sample, acceleration exactly on primitives and at every
    sample of the tail; the end within the goal tolerance of the goal.
    """
    from cloudnav import ConstantAccelSegment
    from cloudnav.core import sample_times

    problems = []
    lim = cfg.limits
    if np.linalg.norm(traj.start_state.p - start.p) > LIMIT_EPS or traj.t0 != start.t:
        problems.append("trajectory does not begin at the start state")
    for n, seg in enumerate(traj.segments):
        if isinstance(seg, ConstantAccelSegment):
            ts = sample_times(0.0, seg.duration, cfg.check_dt)
            acc = np.abs(seg.u).max()
        else:
            ts = sample_times(0.0, seg.duration, min(cfg.check_dt, seg.duration / 8.0))
            acc = np.abs(seg.states_at(ts)[2]).max()
        P, V, _ = seg.states_at(ts)
        speed = np.abs(V).max() if cfg.velocity_bound == "per_axis" else np.linalg.norm(V, axis=1).max()
        if speed > lim.v_max + LIMIT_EPS:
            problems.append(f"segment {n}: speed {speed:.6f} > v_max {lim.v_max}")
        if acc > lim.a_max + LIMIT_EPS:
            problems.append(f"segment {n}: acceleration {acc:.6f} > a_max {lim.a_max}")
        if local_map.any_within(P, cfg.clearance).any():
            problems.append(f"segment {n}: within clearance of a map point")
    miss = np.linalg.norm(traj.end_state.p - goal)
    if miss > cfg.goal_tolerance + LIMIT_EPS:
        problems.append(f"ends {miss:.3f} m from the goal (tolerance {cfg.goal_tolerance})")
    return problems


def run_plans(args, report):
    import cloudnav.planner
    from cloudnav import PlannerError, UavState, check_trajectory, generate_scan, load_scenario
    from cloudnav.cli import resolve_scenario_path

    path = resolve_scenario_path("forest_branch")

    def setup(scan=generate_scan):
        sc = load_scenario(path)
        env = sc.environment()
        return sc, env, build_scene_maps(sc, env, scan)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        # the traced set-up gives the sensor and map-write layers their spans
        with tracer.recording():
            scenario, env, maps = setup(tracer.generate_scan)
    else:
        gauge = HostGauge()
        setup_wall, setup_s, (scenario, env, maps) = _median_setup(
            setup, SETUP_REPS[args.workload], gauge)
    cfg = scenario.planner_config
    start = UavState.hover(scenario.start_position)
    margin = 0.0 if args.all_goals else scenario.map_config.resolution
    queries = query_set(maps, env, cfg.clearance + margin)
    rng = np.random.default_rng(args.seed)
    expansions = {}
    # queries whose plan() raised. Each counts as failed once and is not posed
    # again in the run: a search that exhausts its budget takes 5-10 s.
    raised = set()

    def query(n, traced):
        """Time one plan() call, then check its output (untimed)."""
        m, goal = queries[n]
        traj = None
        with tracer.recording() if traced else nullcontext():
            if traced:
                tracer.begin_request("bench.query")
            t0 = perf_counter()
            try:
                # looked up at call time, so a traced pass calls the traced name
                traj, rep = cloudnav.planner.plan(start, goal, cfg, maps[m])
            except PlannerError as e:
                problems = [f"{type(e).__name__}: {e}"]
                raised.add(n)
            wall = perf_counter() - t0
        if traj is not None:
            problems = check_plan(traj, start, goal, cfg, maps[m])
            if expansions.setdefault(n, rep.expansions) != rep.expansions:
                problems.append(f"expansions {rep.expansions}, earlier {expansions[n]}")
            hit = check_trajectory(maps[m], traj, cfg.clearance, cfg.check_dt)
            if hit is not None:
                problems.append(f"check_trajectory: within clearance of the map at t={hit:.4f} s")
        report.operation(f"{'traced ' if traced else ''}query map {m} goal {goal.tolist()}", problems)
        return wall

    def round_order():
        return [int(n) for n in rng.permutation(len(queries)) if n not in raised]

    if tracer is None:
        # whole rounds over the query set, so every run has the same mix; the
        # samples are the plans that returned
        walls, raised_s, rounds = [], 0.0, 0
        while (len(walls) < MIN_SAMPLES or sum(walls) < args.seconds) and len(raised) < len(queries):
            for n in round_order():
                wall = query(n, False)
                if n in raised:
                    raised_s += wall
                else:
                    walls.append(wall)
                gauge.tick()
            rounds += 1
        report.info("query_set", len(queries), "count")
        report.info("queries_raised", len(raised), "count")
        report.info("raised_s", raised_s, "s")
        report.info("rounds", rounds, "count")
        report.info("queries", len(walls), "count")
        if not walls:
            return
        report.info("plan_ms.p50", _percentile_ms(walls, 50), "ms")
        report.info("plan_ms.p95", _percentile_ms(walls, 95), "ms")
        report.info("plans_per_s", len(walls) / sum(walls), "1/s")
        _report_end_to_end(report, gauge, setup_wall, setup_s, walls)
        return

    # an untraced round finds the queries that raise, so that no traced pass
    # spends its time on a search that gives up
    for n in round_order():
        query(n, False)
    rounds = max(1, round(args.seconds / (2.0 * NOMINAL_QUERY_ROUND_S)))
    ratios = []
    for i in range(rounds):
        for n in round_order():
            # alternate which pass goes first, so neither always runs warm
            wall = {}
            for traced in ((False, True) if (i + n) % 2 == 0 else (True, False)):
                wall[traced] = query(n, traced)
            ratios.append(wall[True] / wall[False])
    report.info("query_set", len(queries), "count")
    report.info("queries_raised", len(raised), "count")
    report.info("queries", len(ratios), "count")
    _report_trace(args, report, tracer, "bench.query", ratios)


# --------------------------------------------------------------------------
# result


class Report:
    """Collects operations, checks and metrics; prints the result lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.infos = []

    def operation(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def problem(self, text):
        self.problems.append(text)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def info(self, name, value, unit):
        self.infos.append((name, value, unit))

    def finish(self, args, env):
        for p in self.problems:
            print(f"FAILED {p}", file=sys.stderr)
        failed_ratio = self.failed / self.attempted if self.attempted else 1.0
        rows = self.infos + [("failed_ratio", failed_ratio, "ratio")]
        rows += [(k, m["value"], m["unit"]) for k, m in self.metrics.items()]
        print(f"# cloudnav benchmark: workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")
        for name, value, unit in rows:
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{name:34s} {shown:>14s} {unit}")
        print("env " + json.dumps(env, sort_keys=True))
        result = {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }
        os.makedirs(OUT, exist_ok=True)
        name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as f:
            json.dump({"args": vars(args), "env": env, "result": result,
                       "problems": self.problems}, f, indent=1)
        print(json.dumps(result))


def main(argv=None) -> int:
    args = _parse_args(argv)
    _load_package()
    env = run_environment()
    report = Report()
    if args.workload in FLIGHT_SCENARIOS:
        run_flights(args, report)
    else:
        run_plans(args, report)
    if report.attempted == 0:
        report.problem("no operation completed")
    report.finish(args, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
