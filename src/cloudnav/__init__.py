"""Obstacle avoidance planned directly on lidar point clouds.

A temporal local map of cycling KD-trees over recent voxel-filtered scans
feeds a kinodynamic A* replanner; a synthetic rosette-scan lidar and analytic
obstacle environment close the loop in simulation.

The top level re-exports the names the benchmark in `perfbench/` imports;
everything else is imported from its module (`cloudnav.planner`, ...).
"""

from .core import ConstantAccelSegment, UavState
from .planner import PlannerError
from .scenario import load_scenario
from .sensor import Environment, generate_scan
from .sim import audit_ground_truth, simulate
from .spatial import TemporalLocalMap, check_trajectory

__all__ = [
    "ConstantAccelSegment",
    "Environment",
    "PlannerError",
    "TemporalLocalMap",
    "UavState",
    "audit_ground_truth",
    "check_trajectory",
    "generate_scan",
    "load_scenario",
    "simulate",
]
