"""Rigorous-numerics toolkit for explicit zero-density and zero-repulsion
constants of L-functions.

The package has three layers:

* constant certification (`zerokit.constants`, `zerokit.errorbounded`,
  `zerokit.powersum`, `zerokit.kernels`): re-derives every explicit constant
  of the detection / repulsion pipeline with certified error radii and
  compares against the published targets;
* a desk-scale Dirichlet L-function engine (`zerokit.dirichlet`): character
  enumeration, Hurwitz-zeta based evaluation, completed L-functions, zero
  location certified by the argument principle, and the arithmetic prime
  sums that feed the inequalities;
* an empirical verification harness (`zerokit.verify`) and a command line
  front end (`zerokit.cli`).

The package re-exports nothing: each name is imported from the module that
defines it.
"""

__version__ = "0.1.0"
