"""Cross-interpreter and in-process determinism.

The paper's "allowing reproduction of experiments" means a run is
bit-identical across *interpreter restarts*, where str-hash
randomization would expose any accidental dependence on set/dict hash
order (each subprocess gets a different PYTHONHASHSEED), and across
runs *in one process*, where any state one simulation leaves behind
(a module-level counter, a cache) would show in the next.
"""

import json
import pathlib
import subprocess
import sys

import repro
from repro.bittorrent import Swarm, SwarmConfig

#: Directory containing the ``repro`` package — derived from the
#: imported package itself so the stripped child environment can import
#: it whether the package is installed or running in-tree. (The env is
#: deliberately minimal: only PYTHONHASHSEED may vary between children.)
SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
from repro.bittorrent import Swarm, SwarmConfig
from repro.units import MB

swarm = Swarm(SwarmConfig(leechers=6, seeders=1, file_size=1 * MB,
                          stagger=1.0, num_pnodes=2, seed=99))
last = swarm.run(max_time=20000)
times = ",".join(f"{t:.9f}" for t in swarm.completion_times())
print(f"{last:.9f}|{times}|{swarm.sim.events_processed}")
"""


def run_once(hash_seed: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env={
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC_DIR,
        },
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_identical_across_interpreters_and_hash_seeds():
    a = run_once("1")
    b = run_once("31337")
    assert a == b
    assert "|" in a and a.count(",") == 5  # 6 completion times


def _flight_recorded_trace():
    """A flight-recorded swarm's Chrome trace and its first packet id."""
    swarm = Swarm(SwarmConfig(
        leechers=2, seeders=1, file_size=262144, stagger=1.0,
        num_pnodes=2, seed=3, flight=True,
    ))
    swarm.run(max_time=20000)
    first_id = swarm.sim.flight.flights()[0].packet_id
    return json.dumps(swarm.chrome_trace(), sort_keys=True), first_id


def test_two_simulations_in_one_process_share_nothing():
    first, first_id = _flight_recorded_trace()
    second, second_id = _flight_recorded_trace()
    assert first_id == second_id == 1
    assert first == second
