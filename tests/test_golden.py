"""Golden bytes for the determinism contract.

For a given (scenario, seed), `trajectory.csv`, `events.csv` and every file of
`map_final/` are byte-stable. The digests below pin the bytes of three bundled
scenarios at seed 1; a change that moves any of them must say which bytes
moved and why, and record the new digests here.
"""

import hashlib
import json
import pathlib

import pytest

from cloudnav.cli import resolve_scenario_path, run

GOLDEN = {
    "indoor_bar": {
        "events.csv": "7a0dd4d2961810c39cdb74be6a4bf042bebe37e8b31cd10aeaf4bc027310c47a",
        "map_final/counters.txt": "d8eaa864a4fa8fd952168a1e1e0fdf39f216cf4195d0b14197ded3d41fd87e01",
        "map_final/tree0.txt": "856382937d49e68ffe90b28788e069d4ee5889983cf3b47a802e7f47e32dd0d4",
        "map_final/tree1.txt": "97b77e9fb61237b698d4c70a6142f888ae79c7ab86ed19077545e4e87e6fcdb3",
        "trajectory.csv": "9925c2e1852b0e9980d804cd685e1096d2c93988cc6917a025d0174841c67396",
    },
    "hillside": {
        "events.csv": "f9963359317b171918b36e6697e885d4970153d505bdd45bf52987e731071312",
        "map_final/counters.txt": "5508ff8f2756c1dd53cad7acc59c380ec915ee337decbe209ab823253cf307bf",
        "map_final/tree0.txt": "1745b16e7b03f4f5c350e4208083c95c02f836ee3bf4db226e4a18ac4296db84",
        "map_final/tree1.txt": "fd9a57aa50da7945b149ebb13d25e5c3292256e5a28b293f55ad648105db4dcc",
        "trajectory.csv": "ec3c0d355bf7ecbdc7ca00f13ca4a7cf41f1fd5a038610cd8748ada9b97f3771",
    },
    "forest_branch": {
        "events.csv": "2e0a5444305f4eb0293a206a9a6bf679871024ab43c5ee59d5326f812f782c5d",
        "map_final/counters.txt": "edf9174181f5dcde2e381e4bed7884aeae8bceb48b11818b331a07998b90640a",
        "map_final/tree0.txt": "097746d274bdaae785fa66a7649894abf61deb509288000d87f9ee29da642755",
        "map_final/tree1.txt": "e70ad388d1ff3c649ea1b15d4765dbb22ac53eae158567c501c0d43de2c2325f",
        "trajectory.csv": "6727028bfe6f0a842fc06ec24c3ba78ca03b52a1b927ed76a00a2566c639cc18",
    },
}
# The benchmark checks the flight digests of the same runs (its seed 1).
BENCHMARK_WORKLOADS = {"indoor_bar": "flight_indoor", "hillside": "flight_hillside"}
EXPECTED_JSON = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def _digests(out_dir: pathlib.Path) -> dict:
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "report.json"
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_run_bytes_match_golden(name, tmp_path):
    report = run(resolve_scenario_path(name), out_dir=tmp_path, overrides=["seed=1"])
    assert report.outcome == "goal_reached"
    assert _digests(tmp_path) == GOLDEN[name]


def test_golden_flights_match_benchmark_record():
    expected = json.loads(EXPECTED_JSON.read_text())
    for name, workload in BENCHMARK_WORKLOADS.items():
        flight = {f: GOLDEN[name][f] for f in ("events.csv", "trajectory.csv")}
        assert flight == expected[workload]["1"]["digests"], name
