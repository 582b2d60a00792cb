"""Differential check of the client-log reducers (``core/collector.py``).

The figure series used to be computed by walking a trace retained for
the whole run; they are now reducers that see each record as it is
emitted. The walking code is kept below as the reference. One record
stream feeds both (the reducers live, attached before the first record,
and through the trace-reading functions, which replay), and every
output must be equal to the last bit.
"""

from typing import Dict, List, Optional, Tuple

import pytest

from repro.bittorrent import Swarm, SwarmConfig
from repro.bittorrent.swarm import CLIENT_LOG
from repro.core.collector import (
    Completions,
    PayloadCurve,
    ProgressSeries,
    completion_curve,
    completion_times,
    progress_series,
    total_payload_curve,
)
from repro.core.report import (
    SwarmSummary,
    download_phases,
    phases_of,
    sample_progress,
    summarize_swarm,
    swarm_summary,
)
from repro.sim.trace import TraceRecorder
from repro.units import MB

Series = List[Tuple[float, float]]


# ----------------------------------------------------------------------
# Reference: the trace-walking implementations the reducers replaced
# ----------------------------------------------------------------------
def ref_progress_series(trace, node: Optional[str] = None) -> Dict[str, Series]:
    out: Dict[str, Series] = {}
    for rec in trace.select("bt.progress"):
        rec_node = rec.get("node")
        if node is not None and rec_node != node:
            continue
        out.setdefault(rec_node, []).append((rec.time, rec.get("pct")))
    return out


def ref_completion_times(trace) -> List[float]:
    return sorted(rec.time for rec in trace.select("bt.complete"))


def ref_completion_curve(trace) -> Series:
    return [(t, float(i + 1)) for i, t in enumerate(ref_completion_times(trace))]


def ref_total_payload_curve(trace, bucket: float = 10.0) -> Series:
    events: List[Tuple[float, int]] = []
    last_payload: Dict[str, int] = {}
    for rec in trace.select("bt.progress"):
        node = rec.get("node")
        payload = rec.get("payload")
        delta = payload - last_payload.get(node, 0)
        last_payload[node] = payload
        events.append((rec.time, delta))
    events.sort()
    out: Series = []
    cumulative = 0.0
    edge = bucket
    for t, delta in events:
        while t > edge:
            out.append((edge, cumulative))
            edge += bucket
        cumulative += delta
    out.append((edge, cumulative))
    return out


def ref_summarize_swarm(trace) -> SwarmSummary:
    times = ref_completion_times(trace)
    if not times:
        raise ValueError("no completions recorded")
    durations = [rec.get("duration") for rec in trace.select("bt.complete")]
    return SwarmSummary(
        clients=len(times),
        first_completion=times[0],
        median_completion=times[len(times) // 2],
        last_completion=times[-1],
        mean_download_time=sum(durations) / len(durations),
    )


def ref_download_phases(trace, node: str) -> Dict[str, float]:
    series = ref_progress_series(trace, node).get(node, [])
    if not series:
        return {}
    t_first = series[0][0]
    t_half = next((t for t, pct in series if pct >= 50.0), series[-1][0])
    t_done = series[-1][0]
    return {
        "first_piece": t_first,
        "to_half": t_half - t_first,
        "to_done": t_done - t_half,
    }


def ref_sample_progress(trace, every: int) -> Dict[str, Series]:
    ordered = sorted(ref_progress_series(trace).items(), key=lambda item: item[1][0][0])
    return {
        name: series
        for i, (name, series) in enumerate(ordered, start=1)
        if i % every == 0
    }


# ----------------------------------------------------------------------
# The two streams
# ----------------------------------------------------------------------
EVERY = (1, 2, 3)
BUCKETS = (1.0, 10.0, 20.0)


def _attach(trace):
    """Live reducers for every output compared below."""
    return {
        "progress": ProgressSeries().attach(trace),
        "sampled": {k: ProgressSeries(every=k).attach(trace) for k in EVERY},
        "completions": Completions().attach(trace),
        "payload": {b: PayloadCurve(b).attach(trace) for b in BUCKETS},
    }


def _swarm_stream():
    swarm = Swarm(SwarmConfig(
        leechers=6, seeders=1, file_size=1 * MB, stagger=1.0,
        num_pnodes=2, seed=9,
    ))
    trace = swarm.sim.trace
    trace.enable(*CLIENT_LOG)
    live = _attach(trace)
    swarm.run(max_time=20000)
    return trace, live


def _hand_built_stream():
    """Three clients whose first records share one instant (arrival
    order c, a, b), several payload deltas at one instant, records on
    bucket edges, and two completions at one instant."""
    trace = TraceRecorder()
    trace.enable(*CLIENT_LOG)
    live = _attach(trace)
    rows = [
        (10.0, "c", 25.0, 300),
        (10.0, "a", 25.0, 100),
        (10.0, "b", 50.0, 700),
        (12.5, "a", 50.0, 200),
        (20.0, "c", 50.0, 600),
        (20.0, "b", 100.0, 1400),
        (20.0, "a", 75.0, 300),
        (31.0, "d", 100.0, 2 ** 52 + 1),
        (31.0, "c", 100.0, 1200),
        (40.0, "a", 100.0, 400),
    ]
    for t, node, pct, payload in rows:
        trace.record(t, "bt.progress", node=node, pct=pct, payload=payload, piece=0)
        if pct == 100.0:
            trace.record(t, "bt.complete", node=node, duration=t - 0.1 * len(node))
    return trace, live


@pytest.fixture(scope="module", params=["swarm", "hand_built"])
def stream(request):
    return {"swarm": _swarm_stream, "hand_built": _hand_built_stream}[request.param]()


def test_the_stream_exercises_what_it_should(stream):
    trace, _live = stream
    firsts = [series[0][0] for series in ref_progress_series(trace).values()]
    assert len(firsts) >= 4
    assert len(ref_completion_times(trace)) >= 4


def test_progress_series_match(stream):
    trace, live = stream
    reference = ref_progress_series(trace)
    assert progress_series(trace) == reference
    assert live["progress"].series == reference
    assert list(live["progress"].series) == list(reference)
    for node in list(reference) + ["nobody"]:
        assert progress_series(trace, node) == ref_progress_series(trace, node)


@pytest.mark.parametrize("every", EVERY)
def test_sampled_progress_matches(stream, every):
    trace, live = stream
    reference = ref_sample_progress(trace, every)
    for got in (sample_progress(trace, every), live["sampled"][every].series):
        assert got == reference
        assert list(got) == list(reference)


def test_completions_match(stream):
    trace, live = stream
    assert completion_times(trace) == ref_completion_times(trace)
    assert completion_curve(trace) == ref_completion_curve(trace)
    assert live["completions"].curve() == ref_completion_curve(trace)
    assert live["completions"].sorted_times() == ref_completion_times(trace)


@pytest.mark.parametrize("bucket", BUCKETS)
def test_payload_curves_match(stream, bucket):
    trace, live = stream
    reference = ref_total_payload_curve(trace, bucket)
    assert total_payload_curve(trace, bucket) == reference
    assert live["payload"][bucket].curve() == reference


def test_summary_and_phases_match(stream):
    trace, live = stream
    reference = ref_summarize_swarm(trace)
    assert summarize_swarm(trace) == reference
    assert swarm_summary(live["completions"]) == reference
    for node in list(ref_progress_series(trace)) + ["nobody"]:
        phases = ref_download_phases(trace, node)
        assert download_phases(trace, node) == phases
        assert phases_of(live["progress"].series.get(node, [])) == phases


def test_empty_stream_matches():
    trace = TraceRecorder()
    assert progress_series(trace) == ref_progress_series(trace) == {}
    assert total_payload_curve(trace, 5.0) == ref_total_payload_curve(trace, 5.0)
    assert completion_curve(trace) == ref_completion_curve(trace) == []
    with pytest.raises(ValueError):
        summarize_swarm(trace)
