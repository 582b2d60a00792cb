"""Hot-path configuration: the ``REPRO_SLOW_PATH`` escape hatch.

The simulator and network layers carry three coupled wall-clock
optimisations (see DESIGN.md, "Hot-path architecture"):

* a per-flow verdict cache in :class:`repro.net.ipfw.Firewall`,
* an adaptive-window calendar/near-future tier + ``Event`` free list
  in :class:`repro.sim.event.EventQueue`, and
* packet pooling / reuse on the transport paths.

All three are **semantics-preserving**: verdicts, emulated latencies,
metrics snapshots and trace exports are byte-identical with the
optimisations on or off. Setting ``REPRO_SLOW_PATH=1`` in the
environment disables every fast path at once, restoring the
unoptimised reference implementation — that is what the subprocess A/B
determinism tests (and ``benchmarks/bench_kernel.py`` /
``bench_ipfw.py``) diff against.

Individual components also accept explicit constructor flags
(``EventQueue(calendar=...)``, ``Firewall(flow_cache=...)``) so tests
and benchmarks can pit both paths against each other inside a single
process; the environment variable only selects the *default*.
"""

from __future__ import annotations

import os


def _env_slow_path() -> bool:
    return os.environ.get("REPRO_SLOW_PATH", "") not in ("", "0")


#: True when ``REPRO_SLOW_PATH`` requests the unoptimised reference
#: path. Read once at import; spawn a subprocess to flip it for A/B.
SLOW_PATH: bool = _env_slow_path()
