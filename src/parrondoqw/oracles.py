"""Reference implementations the tests compare the engine against.

Neither is on the runtime path; both are derived independently of
``walk.basis_walk`` and ``experiments.coin_densities``:

- ``closed_form_oracle`` gives analytic values of S for the XXH-family
  sequences at steps 1..6 and for single H/F/M steps;
- ``dense_reference_evolve`` builds the walk from explicit dense
  ``(2P) x (2P)`` step matrices (position roll matrices tensored with the
  coin-flip projectors).  It must agree with the basis walk to 1e-12 on
  every instance.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .sequences import CoinSequence
from .walk import InitialState

__all__ = ["closed_form_oracle", "dense_reference_evolve", "DENSE_MAX_STEPS"]

#: Largest step count accepted by the dense reference path (matrix is (2(2t+1))^2).
DENSE_MAX_STEPS = 200

_SQRT2 = math.sqrt(2.0)

_XXH_FAMILY = frozenset({"XXH", "XXF", "XXM"})
_SINGLE_STEP = frozenset({"H", "F", "M"})


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
    coin amplitudes, ``vec[0::2]`` / ``vec[1::2]`` must agree componentwise
    with ``c[0] * amp0[0] + c[1] * amp0[1]`` / the same for ``amp1``, to 1e-12.

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
