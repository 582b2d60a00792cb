"""Deliberately naive oracles, one per optimised layer.

Each module states the behaviour its layer's optimisations must
reproduce in the plainest code that does it, and imports nothing from
the module it checks (``src/repro/hotpath.py`` is the index). Tests and
benchmarks compare the product against these; nothing in ``src/``
imports them.
"""
