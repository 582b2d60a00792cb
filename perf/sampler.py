"""Stack-category sampler: which layer of ``src/repro`` owns the CPU time.

A profiling timer (``ITIMER_PROF``, process CPU time) interrupts the
main thread ``hz`` times per CPU-second; the handler walks the
interrupted stack outwards and charges the tick to the layer of the
innermost frame whose file lives under ``src/repro``. Frames of the
standard library, numpy or a C builtin therefore bill their nearest
``repro`` caller, and a stack with no ``repro`` frame at all (harness
code, interpreter start-up) is ``unattributed``.

A sampler rather than per-call wrapper spans because wrappers (and
``repro.obs.profile.EventLoopProfiler``) push ``Simulator.run()`` off
its inlined branch and block train/fluid inline dispatch: they time a
path production does not run. The sampler touches nothing the
simulation can observe, which the harness checks by comparing every
deterministic count of a traced run against the untraced repeats.

Single-threaded, main-thread only: Python delivers signals to the main
thread, which is where every single-process workload runs.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, List, Optional

#: Layer names, in table order. Every file under ``src/repro`` maps to
#: exactly one of them (``perf/tests/test_sampler.py`` walks the tree).
LAYERS = (
    "sim",
    "sim.partition",
    "net.ipfw",
    "net.pipe",
    "net.fluid",
    "net.tcp",
    "net.stack",
    "bittorrent",
    "topology",
    "obs",
    "runtime",
    "other",
)

#: Ticks that landed on a stack with no mapped ``repro`` frame.
UNATTRIBUTED = "unattributed"

#: ``(path relative to src/repro, layer)``. A trailing ``/`` claims a
#: whole package; anything else is one file. ``sim/`` and ``net/`` are
#: listed file by file because they split across layers, and so are the
#: top-level modules: a new file there matches nothing and fails the
#: tree-walk test instead of falling silently into ``other``.
LAYER_MAP = (
    ("sim/partition.py", "sim.partition"),
    ("sim/__init__.py", "sim"),
    ("sim/config.py", "sim"),
    ("sim/event.py", "sim"),
    ("sim/kernel.py", "sim"),
    ("sim/process.py", "sim"),
    ("sim/resources.py", "sim"),
    ("sim/rng.py", "sim"),
    ("sim/trace.py", "sim"),
    ("net/ipfw.py", "net.ipfw"),
    ("net/pipe.py", "net.pipe"),
    ("net/fluid.py", "net.fluid"),
    ("net/tcp.py", "net.tcp"),
    ("net/__init__.py", "net.stack"),
    ("net/addr.py", "net.stack"),
    ("net/nic.py", "net.stack"),
    ("net/packet.py", "net.stack"),
    ("net/ping.py", "net.stack"),
    ("net/sniffer.py", "net.stack"),
    ("net/socket_api.py", "net.stack"),
    ("net/stack.py", "net.stack"),
    ("net/switch.py", "net.stack"),
    ("net/udp.py", "net.stack"),
    ("bittorrent/", "bittorrent"),
    ("topology/", "topology"),
    ("virt/", "topology"),
    ("obs/", "obs"),
    ("runtime/", "runtime"),
    ("core/", "other"),
    ("analysis/", "other"),
    ("experiments/", "other"),
    ("hostos/", "other"),
    ("__init__.py", "other"),
    ("__main__.py", "other"),
    ("errors.py", "other"),
    ("hotpath.py", "other"),
    ("units.py", "other"),
)


def layers_for(relpath: str) -> List[str]:
    """Every layer whose map entry claims ``relpath`` (POSIX, relative
    to ``src/repro``). Exactly one for a mapped file."""
    return [
        layer
        for pattern, layer in LAYER_MAP
        if (relpath.startswith(pattern) if pattern.endswith("/") else relpath == pattern)
    ]


def layer_of(relpath: str) -> Optional[str]:
    """The layer of one ``src/repro`` file, or ``None`` if unmapped."""
    found = layers_for(relpath)
    return found[0] if len(found) == 1 else None


class StackSampler:
    """Counts profiling-timer ticks per layer between start() and stop()."""

    def __init__(self, repro_root: str, hz: int = 100) -> None:
        self.root = os.path.join(os.path.realpath(repro_root), "")
        self.period = 1.0 / hz
        self.hits: Dict[str, int] = {}
        # filename -> layer, "" for a file outside src/repro.
        self._by_file: Dict[str, str] = {}

    def classify(self, frame) -> str:
        """Layer charged for a tick that interrupted ``frame``."""
        by_file = self._by_file
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = by_file.get(filename)
            if layer is None:
                layer = by_file[filename] = self._layer_of_file(filename)
            if layer:
                return layer
            frame = frame.f_back
        return UNATTRIBUTED

    def _layer_of_file(self, filename: str) -> str:
        if not filename.startswith(self.root):
            return ""
        rel = filename[len(self.root):].replace(os.sep, "/")
        # An unmapped repro file shows up in trace.unattributed_share
        # (gated below 5%) rather than inflating a real layer.
        return layer_of(rel) or UNATTRIBUTED

    def _on_tick(self, _signum, frame) -> None:
        layer = self.classify(frame)
        self.hits[layer] = self.hits.get(layer, 0) + 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        # Ignore, not default: a tick already in flight when the timer
        # is disarmed must not terminate the process.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def report(self) -> Dict[str, object]:
        """``{"samples", "period_s", "hits": {layer: ticks}}``."""
        return {
            "samples": sum(self.hits.values()),
            "period_s": self.period,
            "hits": dict(self.hits),
        }
