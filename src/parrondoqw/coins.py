"""The four named coins: unitary 2x2 complex128 matrices on the coin space.

========  =========================================
name      matrix (names are case-insensitive)
========  =========================================
``H``     ``[[1, 1], [1, -1]] / sqrt(2)``
``F``     ``[[1, i], [i, 1]] / sqrt(2)``
``M``     ``[[i, 1], [-1, -i]] / sqrt(2)``
``X``     ``[[0, 1], [1, 0]]``
========  =========================================

The package hard-codes them in one read-only table, and ``named_coin`` hands
out the table's own arrays: no caller can change a coin for anyone else.
``parrondoqw.oracles`` holds the four-angle family they belong to, and the
tests cross-check each matrix against it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

__all__ = ["ALPHABET", "named_coin"]

#: Canonical one-letter names of the supported coins.
ALPHABET = "HFMX"

# sqrt(0.5) is the correctly rounded double for 1/sqrt(2); dividing by
# sqrt(2) lands one ulp off and needlessly degrades near-cancellation points.
_INV_SQRT2 = math.sqrt(0.5)

_NAMED_MATRICES: dict[str, NDArray[np.complex128]] = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) * _INV_SQRT2,
    "F": np.array([[1, 1j], [1j, 1]], dtype=np.complex128) * _INV_SQRT2,
    "M": np.array([[1j, 1], [-1, -1j]], dtype=np.complex128) * _INV_SQRT2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
}
for _matrix in _NAMED_MATRICES.values():
    _matrix.flags.writeable = False


def named_coin(name: str) -> NDArray[np.complex128]:
    """Return the named coin matrix, a read-only array shared by every caller.

    This is the one place that checks a coin letter.

    Parameters
    ----------
    name:
        One of ``H``, ``F``, ``M``, ``X`` (case-insensitive).

    Raises
    ------
    ValueError
        If the name is not in the coin alphabet.
    """
    key = name.upper() if isinstance(name, str) else name
    try:
        matrix = _NAMED_MATRICES[key]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown coin {name!r}: expected one of {', '.join(ALPHABET)}"
        ) from None
    return matrix
