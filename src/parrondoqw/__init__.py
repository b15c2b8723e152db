"""Discrete-time quantum walks with Parrondo coin sequences.

Simulates 1D coin-then-shift walks (with the coin-flipping shift), measures
coin-position entanglement via the Schmidt norm, and runs seeded averaging,
grid, fitting, and comparison experiments over deterministic coin sequences.
The test oracles live in ``parrondoqw.oracles``, which is not imported here.
"""

from .coins import ALPHABET, CoinParams, build_coin, named_coin, verify_unitarity
from .entanglement import MAX_SCHMIDT_NORM, eigenvalues_from, schmidt_norm_from
from .experiments import (
    AverageTrajectory,
    ComparisonTable,
    FitResult,
    GridResult,
    ParrondoReport,
    average_schmidt,
    coin_densities,
    compare_table,
    grid_schmidt,
    log_fit,
    parrondo_check,
    phase_independence_certificate,
    sample_initial_states,
    schmidt_trajectories,
)
from .sequences import CoinSequence, enumerate_patterns, parse
from .walk import InitialState, basis_walk

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "MAX_SCHMIDT_NORM",
    "AverageTrajectory",
    "CoinParams",
    "CoinSequence",
    "ComparisonTable",
    "FitResult",
    "GridResult",
    "InitialState",
    "ParrondoReport",
    "average_schmidt",
    "basis_walk",
    "build_coin",
    "coin_densities",
    "compare_table",
    "eigenvalues_from",
    "enumerate_patterns",
    "grid_schmidt",
    "log_fit",
    "named_coin",
    "parrondo_check",
    "parse",
    "phase_independence_certificate",
    "sample_initial_states",
    "schmidt_norm_from",
    "schmidt_trajectories",
    "verify_unitarity",
    "__version__",
]
