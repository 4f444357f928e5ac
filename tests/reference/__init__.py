"""Textbook formulations of the routing kernel, kept as test oracles.

:mod:`tests.reference.lvn` builds the LVN table from the scalar equations
of :mod:`repro.core.lvn` node by node, :mod:`tests.reference.dijkstra` is a
dict-state Dijkstra with the paper's step trace, :mod:`tests.reference.vra`
runs Figure 5 on both, and :mod:`tests.reference.bellman_ford` is the
negative-weight oracle.  The package itself runs one kernel,
:class:`repro.network.compiled.TopologySnapshot`; these exist so its tests
compare it against something independent.
"""
