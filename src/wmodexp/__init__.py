"""Windowed modular-exponentiation circuits, verification, and cost estimation.

The package is organized as a pipeline:

- numerics: problem parameters and lookup-table precomputation
- circuit: gate-level IR with Toffoli tallies
- sim: sparse phase-tracking simulator for functional verification
- builders: circuit synthesis (unary, lookup, unlookup, adders, modexp)
- costs: closed-form Toffoli/depth/qubit formulas and window grid search
- estimator: surface-code physical resource estimation and parameter search
- cli: batch front end (`wmodexp tables|simulate|cost|estimate`)
"""

__version__ = "0.1.0"
