"""Desk-scale Dirichlet L-function engine.

Covers the rational-field instance end to end: character enumeration with
conductors (`characters`), Hurwitz-zeta backed L-evaluation (`hurwitz`,
`lfunctions`), the completed functions' phase and root numbers, zero location
certified by the argument principle (`zeros`) and its CSV cache
(`zerocache`), and the arithmetic prime sums that feed the verification
harness (`arith`).  The package re-exports nothing: each name is imported
from the module that defines it.
"""
