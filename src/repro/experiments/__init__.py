"""One module per table/figure of the paper's evaluation.

Each module exposes a ``run_*`` function returning structured results
and a ``print_report`` helper producing the rows/series the figure
shows. The benchmarks in ``benchmarks/`` call these with scaled-down
default parameters; ``examples/`` and EXPERIMENTS.md record runs closer
to paper scale. :mod:`repro.experiments.registry` names each id's
functions and imports a module only when its entry runs, so importing
this package loads no experiment module.

Index (see DESIGN.md for the full mapping):

============  ==========================================================
fig1          CPU-bound process scalability (avg exec time vs N)
fig2          memory-bound processes (swap knee; FreeBSD vs Linux)
fig3          fairness CDFs (4BSD, ULE, Linux 2.6)
tblA          libc interception connect-cycle overhead (10.22 vs 10.79 us)
fig6          RTT vs number of firewall rules (linear scan)
fig7          hierarchical topology latency decomposition (853 ms)
fig8          160-client BitTorrent download evolution
fig9          folding ratio (1..80 clients per physical node)
fig10         5754-client scalability (selected clients' progress)
fig10_cells   the same clients as independent sub-swarm cells
fig11         completion count over time for the fig10 run
============  ==========================================================
"""

from repro.experiments.api import RunRequest, RunResult
from repro.experiments.registry import EXPERIMENTS, ExperimentEntry, get_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentEntry",
    "RunRequest",
    "RunResult",
    "get_experiment",
]
