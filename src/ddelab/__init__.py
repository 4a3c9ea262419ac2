"""Exact symbolic and numeric analysis for delay differential equations.

The package provides four layers:

* an exact algebra core (Gaussian rationals, sparse multivariate polynomials,
  a fraction field, rational functions under shifts, certified Laurent
  series),
* a singularity-cascade engine that propagates local expansions through a
  delay equation and classifies the resulting pole patterns,
* necessary-condition classifiers and closed-form verifiers (elliptic and
  exponential solution families, a continuum scaling limit, a lattice mKdV
  reduction),
* value-distribution measurements (characteristic and counting functions,
  growth-order estimates) over exactly known pole and zero inventories.
"""

__version__ = "0.1.0"
