#!/usr/bin/env python3
"""Record the flight pool's expected outputs into perfbench/expected.json.

For every flight workload and every simulation seed of its pool, flies one
traced closed-loop run and stores the sha256 of trajectory.csv and events.csv
and the deterministic counters. The benchmark checks every flight against this
record, so re-record only when a change is meant to move those bytes, and say
which moved and why.

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run  # sets the BLAS cap before numpy loads

POOL = range(1, 13)


def main() -> int:
    run._load_package()
    from cloudnav import load_scenario
    from cloudnav.cli import resolve_scenario_path
    from tracing import Tracer

    expected = {}
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for workload, name in run.FLIGHT_SCENARIOS.items():
            scenario = load_scenario(resolve_scenario_path(name))
            expected[workload] = {}
            for sim_seed in POOL:
                tracer = Tracer()
                log, _, _ = run.fly(scenario, sim_seed, tracer=tracer)
                entry = {"digests": run.flight_digests(log, workdir), "counters": tracer.snapshot()}
                problems = run.check_flight(log, scenario, entry, workdir)
                if problems:
                    print(f"{workload} seed {sim_seed}: {problems}", file=sys.stderr)
                    return 1
                expected[workload][str(sim_seed)] = entry
                print(workload, sim_seed, entry["counters"], flush=True)
    with open(os.path.join(run.HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
