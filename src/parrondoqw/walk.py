"""Coin-then-shift evolution of the 1D discrete-time quantum walk.

The walker lives on a bounded lattice of positions ``-R..+R`` with a two-level
coin.  ``basis_walk`` holds the walks of several coin sequences, each from
both basis coins, in one complex array ``psi[m, c, k, i]``: candidate ``m``,
coin component ``c`` (``|0_c>`` / ``|1_c>``), basis coin ``k`` of the walk's
start ``|0_p, k_c>``, and position offset ``i`` (position ``j = i - R``).

One step is coin-then-shift, and the shift FLIPS the coin::

    psi'[0](j+1) = (coin psi)[1](j)   # coin-1 amplitude moves right and becomes coin-0
    psi'[1](j-1) = (coin psi)[0](j)   # coin-0 amplitude moves left  and becomes coin-1

This coin-flipping shift is deliberate and load-bearing: it differs from the
textbook conditional shift (which preserves the coin label), and the
entanglement behaviour of the coin sequences simulated here -- e.g. maximal
Schmidt norm at steps 3 and 5 of ``XXH`` -- only arises with it.  A useful
consequence: a step with the flip coin ``X`` streams coin-0 amplitude right
and coin-1 amplitude left with no mixing at all.

The evolution is linear in the initial coin vector ``c``, so walking the two
basis coins suffices: the walk from any initial state is ``c[0]`` times the
first plus ``c[1]`` times the second.  ``basis_walk`` is the package's one
evolution: every sweep and ``trace`` read it, and the dense oracle in
``parrondoqw.oracles`` is checked against it.  Initial states enter only as
coin amplitudes in ``experiments._channel_reduction``.  Candidates never mix,
so each one's planes are those it gets alone.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .coins import ALPHABET, named_coin
from .sequences import CoinSequence

__all__ = ["basis_walk"]

# The named coins stacked entry-first: ``_COIN_TABLE[:, :, k]`` is the coin
# of letter ``ALPHABET[k]``, so indexing its last axis with letter codes gives
# the ``(2, 2, ...)`` coins that ``basis_walk`` broadcasts over its candidates.
_COIN_TABLE = np.stack([named_coin(name) for name in ALPHABET], axis=-1)
_COIN_TABLE.flags.writeable = False


def basis_walk(sequences: Sequence[CoinSequence], steps: int):
    """Yield ``psi`` after each of steps ``1..steps``, for every candidate and basis coin.

    ``psi`` has shape ``(n, 2, 2, 2*steps + 1)`` over the ``n`` candidate
    ``sequences``, coin components, basis coins and positions
    ``-steps..steps``: ``psi[m, c, k]`` is the coin-``c`` plane of candidate
    m's walk started from ``|0_p, k_c>``.  The coin of candidate m at step
    ``i`` is ``sequences[m].coin_at(i)`` (1-based, repeating pattern).  After
    ``t`` steps the support is ``|j| <= t``, so no amplitude ever reaches the
    cells the shift drops.  Each yielded array is a fresh value, never
    updated later.

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
    psi = np.zeros((n, 2, 2, 2 * steps + 1), dtype=np.complex128)
    psi[:, 0, 0, steps] = psi[:, 1, 1, steps] = 1.0
    # Scratch for one coin row of the mix, reused at every step: a long
    # walk's fresh temporaries fault in new pages at every step.
    mixed, product = np.empty((2, n, 2, 2 * steps + 1), dtype=np.complex128)
    for t in range(1, steps + 1):
        coin = schedule[(t - 1) % width]
        amp0, amp1 = psi[:, 0], psi[:, 1]
        psi = np.zeros(psi.shape, psi.dtype)
        # Mix, then flip-shift: coin row 1 lands one cell right as coin 0,
        # row 0 one cell left as coin 1.
        np.multiply(coin[1, 0], amp0, out=mixed)
        np.multiply(coin[1, 1], amp1, out=product)
        psi[:, 0, :, 1:] = np.add(mixed, product, out=mixed)[..., :-1]
        np.multiply(coin[0, 0], amp0, out=mixed)
        np.multiply(coin[0, 1], amp1, out=product)
        psi[:, 1, :, :-1] = np.add(mixed, product, out=mixed)[..., 1:]
        yield psi
