"""Coin-position entanglement of a walker state via the Schmidt norm.

Tracing the pure walker state over position leaves a 2x2 coin density matrix

    rho_C = [[pop0, coherence], [conj(coherence), pop1]]

with ``pop0 = sum_j |amp0(j)|^2``, ``pop1 = sum_j |amp1(j)|^2`` and
``coherence = sum_j amp0(j) * conj(amp1(j))``.  Writing ``rho_C = I/2 + n.sigma``
with Bloch vector ``n = (Re coherence, Im coherence, (pop0 - pop1)/2)`` gives
eigenvalues ``E = 1/2 +- |n|`` in closed form, and the Schmidt norm (the sum
of the two Schmidt coefficients, i.e. of the square roots of those
eigenvalues)

    S = sqrt(E_minus) + sqrt(E_plus).

S is 1 for a product state and sqrt(2) for a maximally entangled one.  The
eigenvalues always come from this closed form, never a generic eigensolver:
it is exact, branch-free, and vectorizes.

The populations and coherence of every walk come from the coin channel's
``walk._channel_reduction``, through ``coin_densities``, the sampled sweep
and the grid groups; this module turns them into eigenvalues and S.

Numerical form: with ``det = pop0*pop1 - |coherence|^2`` (the determinant of
rho_C, clamped into [0, 1/4]) the eigenvalues are evaluated as

    E_plus = 1/2 + |n|,      E_minus = det / E_plus.

Algebraically E_minus equals ``1/2 - |n|``, but that subtraction cancels
catastrophically near product states, where S has a square-root singularity;
because pop1 is summed from its own amplitudes (full relative precision even
at 1e-33 scale)
while ``1 - pop0`` carries absolute rounding of order 1e-16, the quotient
form keeps S accurate to ~1e-15 where the naive radicand
``1/4 - pop0*(1 - pop0) + |coherence|^2`` is only good to ~1e-8.  |n| itself
is evaluated from the Bloch components (small quantities are squared before
anything large is subtracted), which also makes the reported eigenvalues and
Bloch vector mutually consistent to ~1e-15 for normalized states.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["eigenvalues_from", "schmidt_norm_from", "MAX_SCHMIDT_NORM"]

#: Schmidt norm of a maximally entangled coin-position state.
MAX_SCHMIDT_NORM = math.sqrt(2.0)


def eigenvalues_from(pop0, pop1, coherence):
    """Reduced-density eigenvalues (E_minus, E_plus), elementwise.

    ``|n|`` is clamped to at most 1/2 and ``det`` into [0, 1/4], so rounding
    in the inputs never yields a negative eigenvalue or a NaN.
    """
    coherence = np.asarray(coherence)
    coherence_sq = coherence.real**2 + coherence.imag**2
    bloch_len_sq = coherence_sq + (0.5 * (pop0 - pop1)) ** 2
    bloch_len = np.minimum(np.sqrt(bloch_len_sq), 0.5)
    e_plus = 0.5 + bloch_len
    det = np.clip(pop0 * pop1 - coherence_sq, 0.0, 0.25)
    return det / e_plus, e_plus


def schmidt_norm_from(pop0, pop1, coherence):
    """Schmidt norm from populations and coherence (elementwise)."""
    e_minus, e_plus = eigenvalues_from(pop0, pop1, coherence)
    return np.sqrt(e_minus) + np.sqrt(e_plus)
