"""Process footprint: a plain run loads only the modules it executes.

Every emulation process (and every sweep or partition worker) pays for
what it imports. A packet or swarm run must not map OpenSSL's libcrypto
(``_hashlib``) or load the partition driver and its ``multiprocessing``,
``socket`` and ``pickle`` stack (see DESIGN.md, "Process footprint").
The same holds for ``python -m repro run <id>``: the experiment
registry imports only the module the id names. The checks run in a
fresh interpreter: the test session itself has imported everything.
"""

import json
import pathlib
import subprocess
import sys

import repro

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: Modules a plain run must never load.
UNUSED = (
    "_hashlib", "multiprocessing", "socket", "repro.sim.partition", "repro.runtime",
)

SCRIPT = f"""
import sys

from repro.bittorrent import Swarm, SwarmConfig
from repro.net.ping import ping
from repro.units import KB

swarm = Swarm(SwarmConfig(leechers=1, seeders=1, file_size=256 * KB,
                          stagger=1.0, num_pnodes=1))
swarm.run(max_time=2000.0)
src, dst = swarm.leechers[0].vnode, swarm.seeders[0].vnode
probe = ping(swarm.sim, src.pnode.stack, src.address, dst.address, count=1)
swarm.sim.run(until=swarm.sim.now + 10.0)
assert probe.result.received == 1, probe.result
print([name for name in {UNUSED!r} if name in sys.modules])
"""


def test_plain_run_loads_no_partition_driver_or_openssl():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


CLI_SCRIPT = f"""
import contextlib, io, json, sys

from repro.__main__ import main

command = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(command) == 0
print(json.dumps([name for name in sys.modules if name.startswith("repro.experiments.")]))
print(json.dumps([name for name in {UNUSED!r} if name in sys.modules]))
"""


def _loaded_by(command):
    result = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, *command],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR},
    )
    assert result.returncode == 0, result.stderr
    experiments, unused = result.stdout.strip().splitlines()
    return set(json.loads(experiments)), json.loads(unused)


def test_cli_run_loads_only_its_experiment():
    experiments, unused = _loaded_by([
        "run", "fig8", "leechers=4", "seeders=1", "file_size=524288",
        "num_pnodes=2", "stagger=1.0",
    ])
    assert unused == []
    assert experiments == {
        "repro.experiments.api",
        "repro.experiments.registry",
        "repro.experiments.fig8_download_evolution",
    }


def test_cli_list_loads_no_experiment_module():
    experiments, _ = _loaded_by(["list"])
    assert experiments == {"repro.experiments.api", "repro.experiments.registry"}
