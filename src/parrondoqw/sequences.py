"""Deterministic periodic coin sequences over the alphabet H, F, M, X.

A sequence is a finite repeating pattern; the coin applied at (1-based) step
``i`` is ``pattern[(i - 1) % len(pattern)]``.  So ``XXH`` applies X at steps
1 and 2, H at step 3, X again at steps 4 and 5, and so on.  The first pattern
symbol acting at step 1 is the convention everything downstream relies on.

A sequence holds only its letters: ``coin_at`` hands out the shared read-only
matrices of ``coins.named_coin``, which is also the one check of a letter.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import ALPHABET, named_coin

__all__ = ["CoinSequence", "parse", "enumerate_patterns"]

MAX_ENUMERATION_PERIOD = 6

_LABEL_RE = re.compile(rf"^([{ALPHABET}{ALPHABET.lower()}]+)(\.\.\.)?$")


@dataclass(frozen=True)
class CoinSequence:
    """A repeating unit of coin names, e.g. ``('X', 'X', 'H')``."""

    pattern: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("coin sequence pattern must be nonempty")
        for name in self.pattern:
            named_coin(name)  # rejects a letter outside the alphabet
        object.__setattr__(self, "pattern", tuple(name.upper() for name in self.pattern))

    @property
    def label(self) -> str:
        return "".join(self.pattern)

    def coin_at(self, step_index: int) -> NDArray[np.complex128]:
        """Coin matrix used at 1-based step ``step_index`` (read-only, see ``named_coin``)."""
        if step_index < 1:
            raise ValueError(f"step_index must be >= 1, got {step_index}")
        return named_coin(self.pattern[(step_index - 1) % len(self.pattern)])

    def is_single_coin(self) -> bool:
        return len(set(self.pattern)) == 1


def parse(label: str) -> CoinSequence:
    """Parse a sequence label such as ``"XXH"``, ``"xxh..."`` or ``"h"``.

    Case-insensitive; a trailing ``...`` is stripped.

    Raises
    ------
    ValueError
        If the label is empty or contains symbols outside the coin alphabet.
    """
    match = _LABEL_RE.match(label.strip()) if isinstance(label, str) else None
    if match is None:
        raise ValueError(
            f"cannot parse coin sequence {label!r}: expected one or more of "
            f"{ALPHABET} (case-insensitive), optionally followed by '...'"
        )
    return CoinSequence(tuple(match.group(1).upper()))


def enumerate_patterns(alphabet: str, max_period: int) -> list[CoinSequence]:
    """All primitive patterns of length 1..max_period over ``alphabet``.

    Patterns that repeat a shorter pattern (``HH``, ``XHXH``, ...) generate the
    same infinite coin stream as their primitive root and are dropped.
    Rotations are distinct sequences here (the walk starts at step 1) and are
    all kept.  Order: by length, then alphabetically.

    Raises
    ------
    ValueError
        If ``max_period`` exceeds ``MAX_ENUMERATION_PERIOD`` or is < 1, or the
        alphabet contains unknown/duplicate coins.
    """
    letters = [str(c).upper() for c in alphabet]
    if not letters or len(set(letters)) != len(letters):
        raise ValueError(f"alphabet must be nonempty without duplicates, got {alphabet!r}")
    if not 1 <= max_period <= MAX_ENUMERATION_PERIOD:
        raise ValueError(
            f"max_period must be in 1..{MAX_ENUMERATION_PERIOD}, got {max_period}"
        )
    letters = sorted(letters)
    result = []
    for length in range(1, max_period + 1):
        for pattern in itertools.product(letters, repeat=length):
            if _is_primitive(pattern):
                result.append(CoinSequence(pattern))
    return result


def _is_primitive(pattern: tuple[str, ...]) -> bool:
    """True iff the pattern is not a repetition of a shorter one."""
    word = "".join(pattern)
    # Classic rotation trick: word is a repetition iff it occurs inside
    # (word + word) with both endpoints trimmed.
    return (word + word).find(word, 1) == len(word)
