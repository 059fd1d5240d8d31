"""Ternary-correlation toolkit for divisor-bounded multiplicative functions.

Subsystems
----------
multfunc   coefficient windows of multiplicative functions (segmented sieve)
dirichlet  character groups, Gauss sums, mean densities, singular series
correlate  averaged ternary correlations and triple counting
arcs       Farey arc decompositions, short exponential sums, sup scans
harness    experiment configs, CLI entry point, acceptance driver
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BudgetError,
    ConfigurationError,
    DomainError,
    SpecificationError,
    TerncorrError,
)
