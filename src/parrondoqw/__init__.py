"""Discrete-time quantum walks with Parrondo coin sequences.

Simulates 1D coin-then-shift walks (with the coin-flipping shift), measures
coin-position entanglement via the Schmidt norm, and runs seeded averaging,
grid, fitting, and comparison experiments over deterministic coin sequences.
The test references live in ``parrondoqw.oracles``, which is not imported here.
"""

from .coins import ALPHABET, named_coin
from .entanglement import MAX_SCHMIDT_NORM, eigenvalues_from, schmidt_norm_from
from .experiments import (
    AverageTrajectory,
    FitResult,
    ParrondoReport,
    average_schmidt,
    coin_densities,
    compare_table,
    log_fit,
    parrondo_check,
    phase_independence_certificate,
    sample_initial_states,
)
from .sequences import CoinSequence, enumerate_patterns, parse
from .walk import basis_walk

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "MAX_SCHMIDT_NORM",
    "AverageTrajectory",
    "CoinSequence",
    "FitResult",
    "ParrondoReport",
    "average_schmidt",
    "basis_walk",
    "coin_densities",
    "compare_table",
    "eigenvalues_from",
    "enumerate_patterns",
    "log_fit",
    "named_coin",
    "parrondo_check",
    "parse",
    "phase_independence_certificate",
    "sample_initial_states",
    "schmidt_norm_from",
    "__version__",
]
