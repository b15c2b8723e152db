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
the dense oracle in ``parrondoqw.oracles`` is checked against it.  Initial
states enter only as coin amplitudes in ``experiments._channel_reduction``.

``basis_walk`` walks several coin sequences at once, on a leading candidate
axis; candidates never mix, so each one's planes are those it gets alone.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .coins import ALPHABET, named_coin
from .sequences import CoinSequence

__all__ = ["mix_coin", "shift_flip", "basis_walk"]

# The named coins stacked entry-first: ``_COIN_TABLE[:, :, k]`` is the coin
# of letter ``ALPHABET[k]``, so indexing its last axis with letter codes gives
# the ``(2, 2, ...)`` coins that ``mix_coin`` broadcasts over a batch.
_COIN_TABLE = np.stack([named_coin(name) for name in ALPHABET], axis=-1)
_COIN_TABLE.flags.writeable = False


# ---------------------------------------------------------------------------
# Array-level kernels.  These operate on the LAST axis, so leading axes are a
# batch (``basis_walk`` stacks its two basis coins there).
# ---------------------------------------------------------------------------


def mix_coin(
    amp0: NDArray[np.complex128],
    amp1: NDArray[np.complex128],
    coin: NDArray[np.complex128],
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Apply a 2x2 coin at every position: ``(a0', a1')^T = coin (a0, a1)^T``.

    ``coin[i, j]`` are arrays that broadcast against the amplitudes, so one
    call applies a different coin to each batch row.
    """
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
    new0 = np.zeros(amp0.shape, amp0.dtype)
    new1 = np.zeros(amp1.shape, amp1.dtype)
    new0[..., 1:] = amp1[..., :-1]
    new1[..., :-1] = amp0[..., 1:]
    return new0, new1


def basis_walk(sequences: Sequence[CoinSequence], steps: int):
    """Yield ``(amp0, amp1)`` after each of steps ``1..steps``, for every candidate and basis coin.

    ``amp0`` / ``amp1`` are ``(n, 2, 2*steps + 1)`` stacks over the ``n``
    candidate ``sequences`` and positions ``-steps..steps``: ``[m, k]`` holds
    the coin-0 / coin-1 plane of candidate m's walk started from
    ``|0_p, k_c>``.  The coin of candidate m at step ``i`` is
    ``sequences[m].coin_at(i)`` (1-based, repeating pattern).  After ``t``
    steps the support is ``|j| <= t``, so no amplitude ever reaches the
    shift's drop cells.  Each yielded pair is a fresh value, never updated
    later.

    Raises
    ------
    ValueError
        If ``steps < 1`` or ``sequences`` is empty.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not sequences:
        raise ValueError("need at least one coin sequence")
    # Every candidate's pattern repeats within the lcm of the periods, so the
    # coins of steps 1..width, cycled, are those of every step.  The coin
    # entries are (n, 1, 1) columns that broadcast over basis coins and positions.
    n = len(sequences)
    width = min(math.lcm(*(len(seq.pattern) for seq in sequences)), steps)
    codes = [np.resize([ALPHABET.index(name) for name in seq.pattern[:width]], width) for seq in sequences]
    schedule = np.moveaxis(_COIN_TABLE[:, :, np.array(codes), None, None], 3, 0)  # (width, 2, 2, n, 1, 1)
    amp0, amp1 = np.zeros((2, n, 2, 2 * steps + 1), dtype=np.complex128)
    amp0[:, 0, steps] = 1.0
    amp1[:, 1, steps] = 1.0
    for t in range(1, steps + 1):
        amp0, amp1 = shift_flip(*mix_coin(amp0, amp1, schedule[(t - 1) % width]))
        yield amp0, amp1
