"""Process footprint: a plain run loads only the modules it executes.

Every emulation process (and every sweep or partition worker) pays for
what it imports. A packet or swarm run must not map OpenSSL's libcrypto
(``_hashlib``) or load the partition driver and its ``multiprocessing``,
``socket`` and ``pickle`` stack (see DESIGN.md, "Process footprint").
The check runs in a fresh interpreter: the test session itself has
imported everything.
"""

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
