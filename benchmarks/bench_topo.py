"""Topology compilation benchmark: streaming/lazy build vs eager reference.

The workload is the million-vnode direction of the paper's Section 5
("how many virtual nodes can be multiplexed"): one ``TopologySpec``
group of ``N`` peers with a shaped access link plus one inter-group
latency entry, compiled onto a 128-pnode testbed. The lazy path
streams the spec into placement runs (no address list, and no
``VirtualNode`` until one is read), registers contiguous address runs
as O(1) blocks, keeps shaping state as flyweight profiles with
deferred ``DummynetPipe`` construction, and pauses the cyclic GC for
the duration of the acyclic bulk build. The
eager side is ``tests/reference/eager_deploy.py``, the seed behaviour:
every pipe, name string and libc object built up front.

Two gated metrics (``compare.py --gate``, asserted here at full scale):

* ``speedup`` — eager build wall over lazy build wall, best of
  ``TIMING_ROUNDS`` each (>= 3x);
* ``mem_ratio`` — eager retained bytes per vnode over lazy retained
  bytes per vnode, measured by ``tracemalloc`` on dedicated untimed
  builds (>= 2x: an eager vnode pays for its two 176-byte pipes, its
  two rules, its ``VirtualNode``, name and libc; a lazy vnode is a
  position of a placement run plus one access-table entry, and its
  absolute bytes are pinned by ``tests/test_topo_scale.py`` and
  ``tests/test_heap_diet.py``).

Scale: ``REPRO_BENCH_SCALE`` multiplies the vnode count — CI smoke
runs (0.1) still build 10 000 vnodes, where both floors hold with
margin; full scale builds 100 000.
"""

import os
import time
import tracemalloc

from repro.topology.compiler import TopologyCompiler
from repro.topology.spec import TopologySpec
from repro.units import kbps, ms
from repro.virt.deployment import Testbed
from tests.reference.eager_deploy import eager_deploy

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0") or "1.0")

#: Vnode count, floored so even CI smoke runs build enough state for
#: the per-vnode costs (and the gated ratios) to dominate constants.
N_VNODES = max(10_000, int(100_000 * SCALE))
#: Fixed pnode count — the admin subnet (192.168.38.0/24) caps the
#: testbed at ~250 physical nodes, so the folding ratio grows with N
#: (the paper's interesting regime) instead of the pnode count.
N_PNODES = 128

#: Gates (full scale; the same floors as ``compare.py --gate``): the
#: lazy build must beat the eager reference by 3x wall-clock and 2x
#: retained bytes per vnode.
MIN_SPEEDUP = 3.0
MIN_MEM_RATIO = 2.0

#: Each wall-clock number is the best of this many builds (see
#: bench_kernel.py on single-shot drift).
TIMING_ROUNDS = 3


def make_spec(n: int = N_VNODES) -> TopologySpec:
    """One shaped peer group plus one inter-group latency entry."""
    spec = TopologySpec("bench-topo")
    spec.add_group(
        "peers", "10.0.0.0/8", n,
        down_bw=kbps(1024), up_bw=kbps(512), latency=ms(20),
    )
    spec.add_latency("peers", "172.16.0.0/12", ms(100))
    return spec


def _deploy(lazy: bool, spec: TopologySpec, testbed: Testbed):
    """The lazy compiler (returned) or the eager reference deployer."""
    if not lazy:
        return eager_deploy(spec, testbed)
    compiler = TopologyCompiler(spec, testbed)
    compiler.deploy()
    return compiler


def build(lazy: bool, n: int = N_VNODES):
    """Deploy an n-vnode spec; returns (compile_wall, deployment)."""
    spec = make_spec(n)
    testbed = Testbed(num_pnodes=N_PNODES, observe=False)
    t0 = time.perf_counter()
    deployed = _deploy(lazy, spec, testbed)
    return time.perf_counter() - t0, deployed


def retained_bytes_per_vnode(lazy: bool, n: int = N_VNODES) -> float:
    """Live heap bytes retained per vnode by one build (tracemalloc)."""
    spec = make_spec(n)
    testbed = Testbed(num_pnodes=N_PNODES, observe=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        deployed = _deploy(lazy, spec, testbed)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del deployed
    return (after - before) / n


def test_topo_build_speedup(benchmark, bench_json):
    # Warm-up both paths (interpreter/alloc caches, interned strings).
    build(True, n=256)
    build(False, n=256)

    benchmark.pedantic(
        build, kwargs={"lazy": True}, rounds=TIMING_ROUNDS, iterations=1
    )
    lazy_wall = min(build(True)[0] for _ in range(TIMING_ROUNDS))
    eager_wall = min(build(False)[0] for _ in range(TIMING_ROUNDS))
    speedup = eager_wall / lazy_wall

    lazy_bytes = retained_bytes_per_vnode(True)
    eager_bytes = retained_bytes_per_vnode(False)
    mem_ratio = eager_bytes / lazy_bytes

    # Footprint sanity on a fresh lazy build: every access pipe is
    # still pending (nothing ran), and the bookkeeping matches 2 rules
    # + 2 (deferred) pipes per vnode plus the group delay rules.
    _, compiler = build(True)
    stats = compiler.stats()
    assert stats["vnodes"] == N_VNODES, stats
    assert stats["rules"] == stats["pipes"] >= 2 * N_VNODES, stats
    assert stats["pipes_materialized"] == 0, stats
    assert stats["lazy_pipes_pending"] == stats["pipes"], stats

    bench_json(
        "topo",
        vnodes=N_VNODES,
        pnodes=N_PNODES,
        eager_wall_seconds=round(eager_wall, 6),
        lazy_wall_seconds=round(lazy_wall, 6),
        speedup=round(speedup, 3),
        eager_bytes_per_vnode=round(eager_bytes, 1),
        lazy_bytes_per_vnode=round(lazy_bytes, 1),
        mem_ratio=round(mem_ratio, 3),
        lazy_pipes_pending=stats["lazy_pipes_pending"],
    )
    print(
        f"\ntopo build ({N_VNODES} vnodes / {N_PNODES} pnodes): "
        f"eager={eager_wall:.3f}s lazy={lazy_wall:.3f}s -> {speedup:.2f}x wall; "
        f"{eager_bytes:.0f} vs {lazy_bytes:.0f} B/vnode -> {mem_ratio:.2f}x memory\n"
    )

    if SCALE >= 1.0:
        assert speedup >= MIN_SPEEDUP, (
            f"lazy topology build only {speedup:.2f}x over the eager reference "
            f"(need >= {MIN_SPEEDUP}x)"
        )
        assert mem_ratio >= MIN_MEM_RATIO, (
            f"lazy topology build only saves {mem_ratio:.2f}x bytes/vnode "
            f"(need >= {MIN_MEM_RATIO}x)"
        )
