"""Walker state and single-step evolution for the 1D discrete-time quantum walk.

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

``dense_reference_evolve`` builds the same evolution from explicit dense
``(2P) x (2P)`` step matrices (position roll matrices tensored with the
coin-flip projectors).  It is kept purely as an independent test oracle for
the fast array path; the two must agree to 1e-12 on every instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .sequences import CoinSequence

__all__ = [
    "InitialState",
    "WalkerState",
    "mix_coin",
    "shift_flip",
    "prepare",
    "apply_coin",
    "apply_shift",
    "step",
    "evolve",
    "final_state",
    "dense_reference_evolve",
]

#: Largest step count accepted by the dense reference path (matrix is (2(2t+1))^2).
DENSE_MAX_STEPS = 200

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


@dataclass
class WalkerState:
    """Amplitudes of the walker over the window ``-window_radius..+window_radius``."""

    amp0: NDArray[np.complex128]
    amp1: NDArray[np.complex128]
    window_radius: int
    step_count: int = 0

    def __post_init__(self) -> None:
        size = 2 * self.window_radius + 1
        if self.amp0.shape != (size,) or self.amp1.shape != (size,):
            raise ValueError(
                f"amplitude arrays must have shape ({size},) for window radius {self.window_radius}"
            )

    def index(self, position: int) -> int:
        return position + self.window_radius

    def amplitude(self, position: int, coin: int) -> complex:
        """Amplitude of |position, coin> with coin in {0, 1}."""
        arr = self.amp0 if coin == 0 else self.amp1
        return complex(arr[self.index(position)])

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amp0) ** 2) + np.sum(np.abs(self.amp1) ** 2))

    def positions(self) -> NDArray[np.int_]:
        return np.arange(-self.window_radius, self.window_radius + 1)

    def to_vector(self) -> NDArray[np.complex128]:
        """Flatten to the position-major dense ordering ``vec[2*(j+R) + c]``."""
        vec = np.empty(2 * (2 * self.window_radius + 1), dtype=np.complex128)
        vec[0::2] = self.amp0
        vec[1::2] = self.amp1
        return vec

    def copy(self) -> "WalkerState":
        return WalkerState(self.amp0.copy(), self.amp1.copy(), self.window_radius, self.step_count)


# ---------------------------------------------------------------------------
# Array-level kernels.  These operate on the LAST axis so the same code drives
# both the single-walker path below and the basis-coin walk of the
# coin-channel engine in `experiments`.
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
    guarantee the boundary cells are unoccupied (see ``apply_shift``).
    """
    new0 = np.zeros_like(amp0)
    new1 = np.zeros_like(amp1)
    new0[..., 1:] = amp1[..., :-1]
    new1[..., :-1] = amp0[..., 1:]
    return new0, new1


# ---------------------------------------------------------------------------
# Single-walker operations.
# ---------------------------------------------------------------------------


def prepare(initial: InitialState, max_steps: int) -> WalkerState:
    """Fresh walker at the origin, with a window wide enough for ``max_steps`` steps.

    Raises
    ------
    ValueError
        If ``max_steps < 1``.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    size = 2 * max_steps + 1
    amp0 = np.zeros(size, dtype=np.complex128)
    amp1 = np.zeros(size, dtype=np.complex128)
    a0, a1 = initial.coin_amplitudes()
    amp0[max_steps] = a0
    amp1[max_steps] = a1
    return WalkerState(amp0, amp1, window_radius=max_steps, step_count=0)


def apply_coin(state: WalkerState, coin: NDArray[np.complex128]) -> WalkerState:
    """Mix the coin components at every position; position and step count unchanged."""
    amp0, amp1 = mix_coin(state.amp0, state.amp1, np.asarray(coin, dtype=np.complex128))
    return WalkerState(amp0, amp1, state.window_radius, state.step_count)


def apply_shift(state: WalkerState) -> WalkerState:
    """Apply the coin-flipping shift; step count unchanged.

    Raises
    ------
    ValueError
        If support could already touch the window boundary
        (``step_count >= window_radius``), i.e. the shift would lose amplitude.
    """
    if state.step_count >= state.window_radius:
        raise ValueError(
            f"boundary overflow: cannot shift beyond window radius {state.window_radius} "
            f"(walker has taken {state.step_count} steps)"
        )
    amp0, amp1 = shift_flip(state.amp0, state.amp1)
    return WalkerState(amp0, amp1, state.window_radius, state.step_count)


def step(state: WalkerState, coin: NDArray[np.complex128]) -> WalkerState:
    """One full evolution step: coin, then coin-flipping shift; step count + 1."""
    new = apply_shift(apply_coin(state, coin))
    new.step_count = state.step_count + 1
    return new


def evolve(initial: InitialState, sequence: CoinSequence, steps: int):
    """Yield the walker state after each of steps ``1..steps``.

    The coin at step ``i`` is ``sequence.coin_at(i)`` (1-based, repeating
    pattern).  Each yielded ``WalkerState`` is an independent value; callers
    may keep or mutate them freely.

    Raises
    ------
    ValueError
        If ``steps < 1``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    state = prepare(initial, max_steps=steps)
    for t in range(1, steps + 1):
        state = step(state, sequence.coin_at(t))
        yield state


def final_state(initial: InitialState, sequence: CoinSequence, steps: int) -> WalkerState:
    """State after exactly ``steps`` steps."""
    state = None
    for state in evolve(initial, sequence, steps):
        pass
    assert state is not None
    return state


def dense_reference_evolve(
    initial: InitialState, sequence: CoinSequence, steps: int
) -> NDArray[np.complex128]:
    """Evolve with explicit dense step matrices; returns the final state vector.

    The construction mirrors the array path's definition exactly but through
    independent machinery: the shift is built from periodic position-roll
    matrices tensored with the coin-flip projectors,

        ``S = roll(+1) (x) |0><1|  +  roll(-1) (x) |1><0|``,

    each step matrix is ``S @ (I_P (x) coin)``, and the state vector (length
    ``2P`` with ``P = 2*steps + 1``, ordering ``vec[2*(j+steps) + c]``) is
    evolved by matrix-vector products.  Periodic and open boundaries are
    indistinguishable here because support never reaches the window edge.

    Intended as a test oracle for ``evolve`` (compare against
    ``WalkerState.to_vector()``); the two must agree componentwise to 1e-12.

    Raises
    ------
    ValueError
        If ``steps`` is outside ``1..DENSE_MAX_STEPS``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps > DENSE_MAX_STEPS:
        raise ValueError(
            f"dense reference limited to {DENSE_MAX_STEPS} steps, got {steps}"
        )
    positions = 2 * steps + 1
    ket0 = np.array([1.0, 0.0])
    ket1 = np.array([0.0, 1.0])
    flip_up = np.outer(ket0, ket1)  # |0><1|
    flip_down = np.outer(ket1, ket0)  # |1><0|
    roll_plus = np.roll(np.eye(positions), 1, axis=0)
    roll_minus = np.roll(np.eye(positions), -1, axis=0)
    shift = np.kron(roll_plus, flip_up) + np.kron(roll_minus, flip_down)

    a0, a1 = initial.coin_amplitudes()
    origin = np.zeros(positions)
    origin[steps] = 1.0
    psi = np.kron(origin, a0 * ket0 + a1 * ket1).astype(np.complex128)

    eye_p = np.eye(positions)
    for t in range(1, steps + 1):
        step_matrix = shift @ np.kron(eye_p, sequence.coin_at(t))
        psi = step_matrix @ psi
    return psi
