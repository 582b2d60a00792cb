"""Index of the hot-path optimisations and the oracle each is checked against.

Every layer has one implementation; the naive behaviour each
optimisation must reproduce lives in ``tests/reference/``, importing
nothing from the module it checks (DESIGN.md, "Hot-path architecture"):

* ``Event`` free list and the run loop that reads the event heap in
  place (:mod:`repro.sim.event`, :mod:`repro.sim.kernel`) —
  ``tests/reference/heap_kernel.py``, a plain ``heapq`` queue with the
  peek/pop run loop;
* verdict flow cache, address-indexed candidates and compiled match
  closures (:mod:`repro.net.ipfw`) — ``tests/reference/rule_walk.py``,
  a linear, uncached first-match walk;
* lazy topology deployment: deferred pipes, block address registration
  (:mod:`repro.topology.compiler`) — ``tests/reference/eager_deploy.py``,
  which builds every pipe up front.

This module holds no code.
"""
