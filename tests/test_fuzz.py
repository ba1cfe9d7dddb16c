"""Seeded fuzz test: the bundled scenarios, perturbed within the loader's ranges.

Every perturbed scenario either is refused by the loader (ScenarioError, exit 5)
or flies to one of the four run outcomes; no traceback and no other outcome.
Flights are kept short (at most 3 s, a sparse scan and a small expansion
budget) so that the whole test runs in a few seconds.
"""

import copy

import numpy as np
import pytest
import yaml

from cloudnav.cli import BUNDLED_SCENARIOS, resolve_scenario_path
from cloudnav.scenario import ScenarioError, scenario_from_dict
from cloudnav.sim import simulate

OUTCOMES = {"goal_reached", "collision", "planner_failure", "timeout"}
_POSITION_KEYS = ("center", "p0", "p1", "lo", "hi")


def perturb(raw: dict, rng: np.random.Generator) -> dict:
    """A copy of the scenario mapping `raw` with every setting runs vary redrawn."""
    raw = copy.deepcopy(raw)
    raw["seed"] = int(rng.integers(0, 2**31))
    raw["duration"] = float(rng.uniform(0.2, 3.0))
    start = raw.setdefault("start", {})
    start["position"] = (np.array(start["position"]) + rng.uniform(-0.3, 0.3, 3)).tolist()
    start["yaw"] = float(rng.uniform(-np.pi, np.pi))
    raw["goal"] = (np.array(raw["goal"]) + rng.uniform(-1.0, 1.0, 3)).tolist()
    # from 10 points/s, below the one-ray-a-frame floor the loader refuses, up to a quarter of the Avia's rate
    raw["sensor"] = {"points_per_second": float(10 ** rng.uniform(1.0, 4.8))}
    raw["map"] = {"scans_per_tree": int(rng.integers(1, 60)), "resolution": float(rng.uniform(0.02, 0.4))}
    # inside the planner envelope: a_max * tau <= v_max, and 0.5 * a_max * tau^2
    # above the default dedup cell, half the clearance
    v_max, a_max = rng.uniform(1.0, 3.0, 2)
    tau = rng.uniform(0.3, min(1.0, v_max / a_max))
    raw["planner"] = {
        "v_max": float(v_max),
        "a_max": float(a_max),
        "primitive_duration": float(tau),
        "clearance": float(rng.uniform(0.5, 1.0) * min(0.6, a_max * tau * tau)),
        "goal_tolerance": float(rng.uniform(0.1, 0.6)),
        "max_expansions": int(rng.integers(1, 500)),
    }
    for ob in raw["obstacles"]:
        shift = rng.uniform(-0.3, 0.3, 3)
        for key in _POSITION_KEYS:
            if key in ob:
                ob[key] = (np.array(ob[key]) + shift).tolist()
    return raw


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_perturbed_bundled_scenarios_end_in_a_run_outcome(name):
    with open(resolve_scenario_path(name)) as f:
        base = yaml.safe_load(f)
    rng = np.random.default_rng(sum(map(ord, name)))
    flown = 0
    for _ in range(8):
        try:
            scenario = scenario_from_dict(perturb(base, rng))
        except ScenarioError:
            continue
        assert simulate(scenario).outcome in OUTCOMES
        flown += 1
    assert flown >= 4
