"""The 1D discrete-time quantum walk, the QR factor of its light cone and the coin densities it gives.

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
evolution, checked against the dense oracle in ``parrondoqw.oracles``.  The
coin channel that every sweep and ``trace`` read is here too:
``_channel_factors`` keeps the QR factor R of each recorded step's light
cone, and ``_channel_reduction`` the densities R gives initial coins, the
only place initial states enter.  Candidates never mix, so each one's planes
are those it gets alone.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .coins import ALPHABET, named_coin
from .output import _blocks
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


def _channel_factors(sequences: Sequence[CoinSequence], recorded: Sequence[int]) -> NDArray:
    """The QR factor R of every candidate at every recorded step, ``(n, len(recorded), rows, 4)``.

    One ``basis_walk`` (``psi[m, coin, basis, position]``) gives, for
    candidate m, coin planes ``A0 c`` and ``A1 c``, column k of A0 / A1 being
    ``psi[m, 0, k]`` / ``psi[m, 1, k]``.  With the QR factorization
    ``[A0 A1] = Q [R0 R1]`` the populations and coherence of ``c`` are those
    of the at most six amplitudes ``R0 c``, ``R1 c``: the Gram matrices
    ``c^dag A0^dag A0 c`` etc. in square-root form, so a population that is
    tiny through cancellation keeps its relative accuracy.  The walk stops at
    the last recorded step T; candidates walk in blocks of about
    ``BLOCK_ROWS`` values of walk state, 4 * (2*T + 1) a candidate.  Step t's
    QR is one stacked QR of the block's ``[A0 A1]`` views on the 2t + 1
    positions ``|j| <= t`` its light cone reaches, so R at step t is bitwise
    a t-step walk's, however far the walk goes.  R has 3 rows if T is 1, else
    4 (256 B); at t = 1 the fourth is zero.
    """
    steps = recorded[-1]
    factors = np.zeros((len(sequences), len(recorded), min(2 * steps + 1, 4), 4), dtype=np.complex128)
    for group in _blocks(len(sequences), 4 * (2 * steps + 1)):
        walk = enumerate(basis_walk(sequences[group], steps), start=1)
        for column, step in enumerate(recorded):
            psi = next(psi for t, psi in walk if t == step)
            cone = psi[..., steps - step : steps + step + 1].reshape(len(psi), 4, -1).transpose(0, 2, 1)
            factors[group, column, : 2 * step + 1] = np.linalg.qr(cone, mode="r")
    return factors


def _channel_reduction(r, coin0, coin1):
    """pop0, pop1 and coherence of the amplitudes ``R0 c``, ``R1 c``, elementwise over samples.

    Row k of one candidate's ``r`` gives component k of ``R1 c`` from its
    columns 2-3, and for k < 2 that of ``R0 c`` from 0-1 (zero in the rows below).
    The product is ``np.multiply``, not ``*``: numpy computes ``a * temporary``
    in place for temporaries of 256 KiB and more, and rounds that complex
    product differently, so a value would depend on the size of its batch.
    """
    pop0 = pop1 = coherence = 0.0
    for k, row in enumerate(r):
        amp1 = row[2] * coin0 + row[3] * coin1
        pop1 = pop1 + (amp1.real**2 + amp1.imag**2)
        if k < 2:
            amp0 = row[0] * coin0 + row[1] * coin1
            pop0 = pop0 + (amp0.real**2 + amp0.imag**2)
            coherence = coherence + np.multiply(amp0, np.conj(amp1))
    return pop0, pop1, coherence
