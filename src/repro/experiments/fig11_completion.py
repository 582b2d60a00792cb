"""Figure 11: clients having completed their download over time.

Derived from the same run as Figure 10 (the 5754-client scalability
experiment); this module renders the completion ramp.
"""

from __future__ import annotations

from repro.analysis.tables import render_ascii_series
from repro.experiments.fig10_scalability import Fig10Result, run_fig10

#: Figure 11 is the completion curve of the Figure 10 run.
run_fig11 = run_fig10


def print_report(result: Fig10Result) -> str:
    lines = [
        render_ascii_series(
            result.completion,
            title=(
                f"Figure 11: clients having completed the download "
                f"({result.clients} clients)"
            ),
        )
    ]
    window = result.last_completion - result.first_completion
    lines.append(
        f"completion window: {result.first_completion:.0f}s .. "
        f"{result.last_completion:.0f}s ({window:.0f}s wide); the bulk "
        f"(p10-p90) of the swarm drains in {result.bulk_window:.0f}s "
        f"(steepness {result.ramp_steepness:.2f})"
    )
    return "\n".join(lines)
