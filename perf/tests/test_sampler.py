"""The stack sampler: frame-chain attribution and the file -> layer map."""

import os
import time
from pathlib import Path
from types import SimpleNamespace

import sampler

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def chain(*filenames):
    """A fake frame chain, innermost first."""
    frame = None
    for filename in reversed(filenames):
        frame = SimpleNamespace(f_code=SimpleNamespace(co_filename=filename), f_back=frame)
    return frame


def under(rel):
    return str(REPRO / rel)


def test_stdlib_frame_bills_its_nearest_repro_caller():
    s = sampler.StackSampler(str(REPRO))
    frame = chain("/usr/lib/python3.11/heapq.py", under("sim/event.py"), under("net/tcp.py"))
    assert s.classify(frame) == "sim"


def test_innermost_repro_frame_decides():
    s = sampler.StackSampler(str(REPRO))
    frame = chain(under("net/tcp.py"), under("bittorrent/peer.py"), under("sim/kernel.py"))
    assert s.classify(frame) == "net.tcp"


def test_harness_only_stack_is_unattributed():
    s = sampler.StackSampler(str(REPRO))
    frame = chain("/checkout/perf/child.py", "/usr/lib/python3.11/runpy.py")
    assert s.classify(frame) == sampler.UNATTRIBUTED


def test_unmapped_repro_file_is_unattributed_not_other():
    s = sampler.StackSampler(str(REPRO))
    assert s.classify(chain(under("net/brand_new.py"))) == sampler.UNATTRIBUTED
    assert s.classify(chain(under("brand_new.py"))) == sampler.UNATTRIBUTED


def test_every_repro_file_maps_to_exactly_one_layer():
    files = sorted(p.relative_to(REPRO).as_posix() for p in REPRO.rglob("*.py"))
    assert len(files) > 90, "src/repro not found where the benchmark expects it"
    wrong = {rel: sampler.layers_for(rel) for rel in files if len(sampler.layers_for(rel)) != 1}
    assert not wrong, f"files with no layer or more than one: {wrong}"
    assert {sampler.layer_of(rel) for rel in files} <= set(sampler.LAYERS)


def test_every_map_entry_still_names_something():
    files = [p.relative_to(REPRO).as_posix() for p in REPRO.rglob("*.py")]
    stale = [
        pattern
        for pattern, _layer in sampler.LAYER_MAP
        if not any(f.startswith(pattern) if pattern.endswith("/") else f == pattern for f in files)
    ]
    assert not stale, f"LAYER_MAP entries that match no file: {stale}"


def test_live_sampling_charges_the_kernel():
    from repro.sim import Simulator

    sim = Simulator(seed=1, observe=False)
    for i in range(150_000):
        sim.schedule(i * 1e-6, int)
    s = sampler.StackSampler(str(REPRO), hz=1000)
    s.start()
    try:
        sim.run()
        deadline = time.process_time() + 0.05  # harness-only CPU
        while time.process_time() < deadline:
            os.getpid()
    finally:
        s.stop()
    report = s.report()
    assert report["samples"] == sum(report["hits"].values()) > 10
    assert report["hits"].get("sim", 0) > 0
    assert report["hits"].get(sampler.UNATTRIBUTED, 0) > 0
    assert set(report["hits"]) <= {"sim", sampler.UNATTRIBUTED}
