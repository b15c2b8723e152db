"""Coin-then-shift evolution of the 1D discrete-time quantum walk.

The walker lives on a bounded lattice of positions ``-R..+R`` with a two-level
coin.  Its state is a pair of complex amplitude arrays ``amp0`` / ``amp1``
(coin components ``|0_c>`` / ``|1_c>``), indexed by position offset
(array index ``i`` holds position ``j = i - R``).

One step is coin-then-shift, and the shift FLIPS the coin::

    amp0'(j+1) = amp1(j)      # coin-1 amplitude moves right and becomes coin-0
    amp1'(j-1) = amp0(j)      # coin-0 amplitude moves left  and becomes coin-1

This coin-flipping shift is deliberate and load-bearing: it differs from the
textbook conditional shift (which preserves the coin label), and the
entanglement behaviour of the coin sequences simulated here -- e.g. maximal
Schmidt norm at steps 3 and 5 of ``XXH`` -- only arises with it.  A useful
consequence: a step with the flip coin ``X`` streams coin-0 amplitude right
and coin-1 amplitude left with no mixing at all.

The evolution is linear in the initial coin vector ``c``, so ``basis_walk``
walks only the two basis coins ``|0_c>`` and ``|1_c>``; the walk from any
initial state is ``c[0]`` times the first plus ``c[1]`` times the second.
It is the package's one evolution: every sweep and ``trace`` read it, and
the dense oracle in ``parrondoqw.oracles`` is checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .sequences import CoinSequence

__all__ = ["InitialState", "mix_coin", "shift_flip", "basis_walk"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class InitialState:
    """Localized initial state ``cos(theta/2)|0_p,0_c> + e^{i phi} sin(theta/2)|0_p,1_c>``.

    ``theta`` must lie in ``[0, pi]``; ``phi`` is canonicalized into ``[0, 2pi)``.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"initial state angles must be finite, got theta={self.theta!r} phi={self.phi!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    def coin_amplitudes(self) -> tuple[complex, complex]:
        """Amplitude pair (coin-0, coin-1) at the origin."""
        return (
            complex(math.cos(self.theta / 2.0)),
            complex(np.exp(1j * self.phi) * math.sin(self.theta / 2.0)),
        )


# ---------------------------------------------------------------------------
# Array-level kernels.  These operate on the LAST axis, so leading axes are a
# batch (``basis_walk`` stacks its two basis coins there).
# ---------------------------------------------------------------------------


def mix_coin(
    amp0: NDArray[np.complex128],
    amp1: NDArray[np.complex128],
    coin: NDArray[np.complex128],
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Apply a 2x2 coin at every position: ``(a0', a1')^T = coin (a0, a1)^T``."""
    return (
        coin[0, 0] * amp0 + coin[0, 1] * amp1,
        coin[1, 0] * amp0 + coin[1, 1] * amp1,
    )


def shift_flip(
    amp0: NDArray[np.complex128],
    amp1: NDArray[np.complex128],
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Coin-flipping shift: coin-1 moves right as coin-0, coin-0 moves left as coin-1.

    Amplitude at the outermost cells would fall off the window; callers must
    guarantee the boundary cells are unoccupied (``basis_walk`` sizes its
    window so that they are).
    """
    new0 = np.zeros_like(amp0)
    new1 = np.zeros_like(amp1)
    new0[..., 1:] = amp1[..., :-1]
    new1[..., :-1] = amp0[..., 1:]
    return new0, new1


def basis_walk(sequence: CoinSequence, steps: int):
    """Yield ``(amp0, amp1)`` after each of steps ``1..steps``, for both basis coins.

    ``amp0`` / ``amp1`` are ``(2, 2*steps + 1)`` stacks over positions
    ``-steps..steps``: row k holds the coin-0 / coin-1 plane of the walk
    started from ``|0_p, k_c>``.  The coin at step ``i`` is
    ``sequence.coin_at(i)`` (1-based, repeating pattern).  After ``t`` steps
    the support is ``|j| <= t``, so no amplitude ever reaches the shift's
    drop cells.  Each yielded pair is a fresh value, never updated later.

    Raises
    ------
    ValueError
        If ``steps < 1``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    amp0, amp1 = np.zeros((2, 2, 2 * steps + 1), dtype=np.complex128)
    amp0[0, steps] = 1.0
    amp1[1, steps] = 1.0
    for t in range(1, steps + 1):
        amp0, amp1 = shift_flip(*mix_coin(amp0, amp1, sequence.coin_at(t)))
        yield amp0, amp1
