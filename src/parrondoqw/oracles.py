"""Reference implementations the tests compare the engine against.

None of it is on the runtime path: the CLI never imports this module.  Each
reference is derived independently of the code it checks:

- ``build_coin`` builds the four-angle coin family, and
  ``NAMED_COIN_PARAMS`` holds each named coin's angles, so the tests can
  cross-check the matrices hard-coded in ``coins``:

  ========  ==============================
  name      angles (alpha, beta, gamma, eta)
  ========  ==============================
  ``H``     ``(-pi/2, pi/4, -pi/2, pi)``
  ``F``     ``(0, pi/4, pi/2, 0)``
  ``M``     ``(pi/2, pi/4, 0, 0)``
  ``X``     ``(0, pi/2, -pi/2, pi)``
  ========  ==============================

  ``X`` is independent of ``alpha`` (``cos(beta) = 0``); the table fixes
  ``alpha = 0``.
- ``InitialState`` is one initial state as an object; the engine takes
  ``(N, 2)`` arrays of ``(theta, phi)`` rows.
- ``closed_form_oracle`` gives analytic values of S for the XXH-family
  sequences at steps 1..6 and for single H/F/M steps;
- ``dense_reference_evolve`` builds the walk from explicit dense
  ``(2P) x (2P)`` step matrices (position roll matrices tensored with the
  coin-flip projectors).  It must agree with the basis walk to 1e-12 on
  every instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .sequences import CoinSequence

__all__ = ["NAMED_COIN_PARAMS", "CoinParams", "InitialState", "build_coin", "verify_unitarity",
           "closed_form_oracle", "dense_reference_evolve", "DENSE_MAX_STEPS"]

#: Largest step count accepted by the dense reference path (matrix is (2(2t+1))^2).
DENSE_MAX_STEPS = 200

UNITARITY_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)

_XXH_FAMILY = frozenset({"XXH", "XXF", "XXM"})
_SINGLE_STEP = frozenset({"H", "F", "M"})


@dataclass(frozen=True)
class CoinParams:
    """Angles (radians) of the four-parameter coin family."""

    alpha: float
    beta: float
    gamma: float
    eta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"coin angle {name!r} must be finite, got {value!r}")


#: Angle parameterization of each named coin.
NAMED_COIN_PARAMS: dict[str, CoinParams] = {
    "H": CoinParams(-math.pi / 2, math.pi / 4, -math.pi / 2, math.pi),
    "F": CoinParams(0.0, math.pi / 4, math.pi / 2, 0.0),
    "M": CoinParams(math.pi / 2, math.pi / 4, 0.0, 0.0),
    "X": CoinParams(0.0, math.pi / 2, -math.pi / 2, math.pi),
}


def build_coin(params: CoinParams) -> NDArray[np.complex128]:
    """Construct the general coin matrix from its four angles.

    Parameters
    ----------
    params:
        Angles in radians; any finite real values are accepted.

    Returns
    -------
    NDArray[np.complex128]
        ``e^{i eta/2} * [[e^{i alpha} cos(beta),  e^{i gamma} sin(beta)],
        [-e^{-i gamma} sin(beta), e^{-i alpha} cos(beta)]]``.
        The global phase ``e^{i eta/2}`` is kept as written; it has no effect
        on entanglement but keeps matrices comparable entrywise.

    Raises
    ------
    ValueError
        If any angle is not finite (raised by ``CoinParams``).
    """
    c = math.cos(params.beta)
    s = math.sin(params.beta)
    phase = np.exp(0.5j * params.eta)
    return phase * np.array(
        [
            [np.exp(1j * params.alpha) * c, np.exp(1j * params.gamma) * s],
            [-np.exp(-1j * params.gamma) * s, np.exp(-1j * params.alpha) * c],
        ],
        dtype=np.complex128,
    )


def verify_unitarity(coin: NDArray[np.complex128], tol: float = UNITARITY_TOL) -> bool:
    """True iff ``coin.conj().T @ coin`` equals the identity entrywise within tol."""
    coin = np.asarray(coin, dtype=np.complex128)
    if coin.shape != (2, 2):
        return False
    residual = coin.conj().T @ coin - np.eye(2)
    return bool(np.max(np.abs(residual)) <= tol)


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
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))

    def coin_amplitudes(self) -> tuple[complex, complex]:
        """Amplitude pair (coin-0, coin-1) at the origin."""
        return (
            complex(math.cos(self.theta / 2.0)),
            complex(np.exp(1j * self.phi) * math.sin(self.theta / 2.0)),
        )


def closed_form_oracle(sequence_tag: str, t: int, initial: InitialState) -> float:
    """Analytic Schmidt norm for the tabulated (sequence, step) pairs.

    Covered: the XXH family (tags ``XXH``, ``XXF``, ``XXM``) at steps 1..6,
    and single-coin tags ``H``, ``F``, ``M`` at step 1.  The XXH-family values
    depend only on ``theta`` (the family is phase-independent); the one-step
    values depend on ``sin(theta)`` times ``cos(phi)``, ``sin(phi)`` and
    ``-sin(phi)`` for H, F, M respectively.

    Raises
    ------
    ValueError
        For any (sequence_tag, t) pair outside the table.
    """
    tag = sequence_tag.upper()
    theta = initial.theta
    phi = initial.phi
    if tag in _XXH_FAMILY:
        if t in (1, 2):
            return (math.sqrt(1.0 - math.cos(theta)) + math.sqrt(1.0 + math.cos(theta))) / _SQRT2
        if t in (3, 5):
            return _SQRT2
        if t == 4:
            return 0.5 * (math.sqrt(2.0 + math.sin(theta)) + math.sqrt(2.0 - math.sin(theta)))
        if t == 6:
            return (math.sqrt(4.0 + math.sin(theta)) + math.sqrt(4.0 - math.sin(theta))) / (2.0 * _SQRT2)
        raise ValueError(f"no closed form for {tag} at step {t}: table covers steps 1..6")
    if tag in _SINGLE_STEP:
        if t != 1:
            raise ValueError(f"no closed form for {tag} at step {t}: table covers step 1 only")
        if tag == "H":
            u = math.sin(theta) * math.cos(phi)
        elif tag == "F":
            u = math.sin(theta) * math.sin(phi)
        else:  # M
            u = -math.sin(theta) * math.sin(phi)
        return (math.sqrt(1.0 + u) + math.sqrt(1.0 - u)) / _SQRT2
    raise ValueError(
        f"no closed form for sequence {sequence_tag!r}: "
        f"supported tags are {sorted(_XXH_FAMILY | _SINGLE_STEP)}"
    )


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

    Intended as a test oracle for ``walk.basis_walk``: with ``c`` the initial
    coin amplitudes and ``psi[0]`` the basis walk's last array for this one
    sequence, ``vec[0::2]`` / ``vec[1::2]`` must agree componentwise with
    ``c[0] * psi[0, 0, 0] + c[1] * psi[0, 0, 1]`` / the same for coin 1
    (``psi[0, 1]``), to 1e-12.

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
