"""Experiment protocols: averaging sweeps, grids, fits, and sequence comparisons.

This module holds the initial states, their coin blocks, the three loops
that reduce the coin channel against them, and the protocols on those loops.
The channel is ``walk``'s: ``walk._channel_factors`` gives the QR factor R of
every candidate at every recorded step, and ``walk._channel_reduction`` the
reduced coin density that R gives each initial coin.  ``coin_densities``
reads R for given ``(N, 2)`` arrays of ``(theta, phi)`` and ``_sampled_sweep``
for seeded samples, both from one ``_coin_blocks`` list, and ``_grid_groups``
for the grid of ``grid`` and the phase certificate.  ``_record_steps`` is the
one rule for the steps they record; ``output._blocks`` cuts every block.
Each state's values are elementwise arithmetic on its own angles, bitwise
independent of the rest of the batch.  Randomness enters only through one
seeded stream: the PCG64 stream that numpy's ``SeedSequence(seed)`` seeds,
which this module computes in numpy integer arithmetic, bitwise
``default_rng(seed).uniform`` without loading ``numpy.random``.
``sample_initial_states`` returns its angles whole; ``_sampled_sweep``
draws each sample block's angles from where the block starts in the stream,
as it builds that block's coins.

Fairness rule for comparisons: every sampled mean comes from
``_sampled_sweep``, which evolves one shared (seed-determined) initial-state
set under every candidate sequence, never re-sampled per candidate.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from . import output
from .entanglement import MAX_SCHMIDT_NORM, schmidt_norm_from
from .output import _blocks
from .sequences import CoinSequence
from .walk import _channel_factors, _channel_reduction

__all__ = [
    "AverageTrajectory",
    "FitResult",
    "ComparisonRow",
    "ParrondoReport",
    "sample_initial_states",
    "coin_densities",
    "average_schmidt",
    "log_fit",
    "parrondo_check",
    "phase_independence_certificate",
    "compare_table",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Result containers.
# ---------------------------------------------------------------------------


@dataclass
class AverageTrajectory:
    """Mean (and std) Schmidt norm per step over a fixed initial-state sample."""

    steps: NDArray[np.int_]
    mean_s: NDArray[np.float64]
    std_s: NDArray[np.float64]


@dataclass
class FitResult:
    """Least-squares fit ``S ~ a*ln(t) + b`` with extrapolated predictions."""

    a: float
    b: float
    fit_range: tuple[int, int]
    extrapolation: list[tuple[int, float]]
    residual_rms: float

    def extrapolation_ratios(self) -> list[tuple[int, float]]:
        """Predictions as S/sqrt(2) ratios, clipped into the physical range."""
        return [
            (t, float(np.clip(s, 1.0, MAX_SCHMIDT_NORM)) / MAX_SCHMIDT_NORM)
            for t, s in self.extrapolation
        ]


@dataclass(frozen=True)
class ComparisonRow:
    sequence_label: str
    t: int
    mean_s: float


@dataclass
class ParrondoReport:
    """Outcome of one two-coins-beat-both-parents check: the three shared-sample means."""

    mean_combined: float
    mean_a: float
    mean_b: float

    @property
    def margin_a(self) -> float:
        return self.mean_combined - self.mean_a

    @property
    def margin_b(self) -> float:
        return self.mean_combined - self.mean_b

    @property
    def is_parrondo(self) -> bool:
        return self.margin_a > 0.0 and self.margin_b > 0.0


# ---------------------------------------------------------------------------
# Sampling.
# ---------------------------------------------------------------------------


_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hasher(constant: int, multiplier: int):
    """numpy ``SeedSequence``'s 32-bit hash; its constant is multiplied by ``multiplier`` at every call."""

    def hashed(value: int) -> int:
        nonlocal constant
        value ^= constant
        constant = constant * multiplier & _MASK32
        value = value * constant & _MASK32
        return value ^ value >> 16

    return hashed


def _mix(x: int, y: int) -> int:
    """numpy ``SeedSequence``'s mix of a hashed word ``y`` into a pool word ``x``."""
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


def _seeded_stream(seed: int) -> tuple[int, int]:
    """``(state, increment)`` of numpy's ``PCG64(SeedSequence(seed))`` before its first output.

    ``SeedSequence`` hashes the seed's 32-bit words, least significant
    first, into a pool of four, mixes every pool word into every other, then
    mixes any word past the fourth into each; it hashes the pool out as four
    64-bit words, two 32-bit words each (low first): the initial state and
    the sequence, high word first.  ``PCG64`` sets ``increment = 2 *
    sequence + 1``, steps from 0, adds the initial state and steps again; a
    step is ``s -> M s + increment mod 2**128``.  The seed is read by
    ``operator.index``: ``None`` (which would draw from OS entropy), a float
    or a negative seed is refused.
    """
    try:
        value = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be a non-negative integer, got {seed!r}") from None
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    entropy = [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = _mix(pool[target], hashmix(pool[source]))
    for word in entropy[4:]:
        for target in range(4):
            pool[target] = _mix(pool[target], hashmix(word))
    generate = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [generate(pool[i % 4]) for i in range(8)]
    initstate, initseq = ((words[k] | words[k + 1] << 32) << 64 | words[k + 2] | words[k + 3] << 32 for k in (0, 4))
    increment = 2 * initseq + 1 & _MASK128
    return (increment + initstate) * _PCG_MULTIPLIER + increment & _MASK128, increment


def _advance(state: int, increment: int, steps: int) -> int:
    """``state`` after ``steps`` steps, in O(log steps): ``s -> a s + c`` twice is ``(a, c) -> (a*a, a*c + c)``."""
    multiplier, addend = _PCG_MULTIPLIER, increment
    while steps:
        if steps & 1:
            state = multiplier * state + addend & _MASK128
        multiplier, addend = multiplier * multiplier & _MASK128, multiplier * addend + addend & _MASK128
        steps >>= 1
    return state


@functools.lru_cache(maxsize=1)
def _step_tables(rows: int) -> tuple[NDArray[np.uint64], NDArray[np.uint64]]:
    """32-bit limbs, ``(4, rows)`` each, of ``M**j`` and of ``sum(M**i for i < j)`` mod 2**128, j = 1 ... rows.

    The state j steps on from ``s`` is ``M**j s + increment * sum(M**i for
    i < j)``.  The tables do not depend on the seed; they are built at the
    first draw, not at import, and kept read-only for the next.  Each value
    goes into a byte buffer as it is made, so no list of Python integers is
    held.
    """
    powers, sums = bytearray(), bytearray()
    power, total = 1, 0
    for _ in range(rows):
        power, total = power * _PCG_MULTIPLIER & _MASK128, total + power & _MASK128
        powers += power.to_bytes(16, "little")
        sums += total.to_bytes(16, "little")
    tables = np.frombuffer(powers + sums, "<u4").reshape(2, rows, 4).transpose(0, 2, 1).astype(np.uint64, order="C")
    tables.flags.writeable = False
    return tables[0], tables[1]


def _add_product(columns: NDArray[np.uint64], table: NDArray[np.uint64], factor: int) -> None:
    """Add the 32-bit columns of ``table * factor mod 2**128`` into ``columns``, carries left for later.

    A limb product is below 2**64; its low half goes to its column and its
    high half to the next, so a column gains less than 7 * 2**32 a call.
    """
    product = np.empty(table.shape[1], np.uint64)
    for i in range(4):
        for j in range(4 - i):
            np.multiply(table[i], factor >> 32 * j & _MASK32, out=product)
            if i + j < 3:
                columns[i + j + 1] += product >> 32
            product &= _MASK32
            columns[i + j] += product


def _uniforms(stream: tuple[int, int], first: int, count: int, high: float) -> NDArray[np.float64]:
    """``high`` times the doubles of outputs ``first + 1 ... first + count`` of ``stream``.

    The stream steps, then outputs XSL-RR of the new state, ``rotr64(hi ^ lo,
    hi >> 58)`` of its 64-bit halves; the double of an output x is ``(x >> 11)
    * 2**-53``.  ``high`` times it is, bitwise, what ``Generator.uniform(0,
    high)`` gives.  Each state comes from the state at ``first`` through the
    two ``_step_tables``; ``count`` is at most ``BLOCK_ROWS``.
    """
    state, increment = stream
    powers, sums = _step_tables(output.BLOCK_ROWS)
    columns = np.zeros((4, count), np.uint64)
    _add_product(columns, powers[:, :count], _advance(state, increment, first))
    _add_product(columns, sums[:, :count], increment)
    for k in range(3):
        columns[k + 1] += columns[k] >> 32
    # A shift by 32 drops the bits that a carry took to the next column.
    hi = columns[3] << 32 | columns[2] & _MASK32
    x = hi ^ (columns[1] << 32 | columns[0] & _MASK32)
    rotation = hi >> 58
    x = x >> rotation | x << (64 - rotation & 63)
    return (x >> 11) * (high * 2.0**-53)


def _angle_blocks(count: int, seed: int) -> Iterator[tuple[slice, NDArray, NDArray]]:
    """``(rows, thetas, phis)`` of each ``_blocks`` block of ``count`` seeded states, drawn as it is taken.

    theta of state i is output i + 1 of ``_seeded_stream(seed)`` and phi is
    output count + i + 1.  The count and the seed are checked at the call,
    before any block is drawn.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    stream = _seeded_stream(seed)
    sizes = ((rows, min(rows.stop, count) - rows.start) for rows in _blocks(count))
    return (
        (rows, _uniforms(stream, rows.start, size, math.pi), _uniforms(stream, count + rows.start, size, TWO_PI))
        for rows, size in sizes
    )


def sample_initial_states(count: int, seed: int) -> NDArray[np.float64]:
    """Draw ``count`` initial states as a (count, 2) array of (theta, phi).

    theta ~ U[0, pi] and phi ~ U[0, 2pi): the thetas, then the phis, of the
    PCG64 stream that numpy's ``SeedSequence(seed)`` seeds.  The array is
    bitwise ``default_rng(seed).uniform(0, pi, count)`` and then
    ``.uniform(0, 2pi, count)``, but the package computes the stream itself
    and does not load ``numpy.random``, whose ``Generator`` streams NEP 19
    leaves free to change.  ``seed`` is a non-negative integer, so the array
    is reproducible.
    """
    blocks = _angle_blocks(count, seed)
    states = np.empty((count, 2))
    for rows, thetas, phis in blocks:
        states[rows, 0], states[rows, 1] = thetas, phis
    return states


def _angle_arrays(states) -> tuple[NDArray, NDArray]:
    """(thetas, phis) of an (N, 2) array (or nested list) of (theta, phi) rows.

    The error names the first bad row, with its values as given.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != 2:
        raise ValueError(f"angle arrays need shape (N, 2) of (theta, phi) rows, got {states.shape}")
    thetas, phis = states[:, 0], states[:, 1]
    bad = np.flatnonzero(~(np.isfinite(phis) & (thetas >= 0.0) & (thetas <= math.pi)))
    if bad.size:
        theta, phi = states[bad[0]].tolist()
        raise ValueError(
            "initial states need finite angles with theta in [0, pi], "
            f"got theta={theta!r} phi={phi!r}"
        )
    return thetas, phis


# ---------------------------------------------------------------------------
# Recorded steps, coin blocks and the loops that reduce the coin channel.
# ---------------------------------------------------------------------------


def _record_steps(steps: int | Iterable[int]) -> Sequence[int]:
    """Steps to record, each read by ``operator.index``: a lazy ``range(1, steps + 1)``, or the increasing steps given."""
    try:
        recorded = range(1, operator.index(steps) + 1)
    except TypeError:
        recorded = [operator.index(step) for step in steps]
        if not recorded or any(b <= a for a, b in zip(recorded, recorded[1:])):
            raise ValueError("recorded steps must be nonempty and strictly increasing") from None
    if not recorded or recorded[0] < 1:
        raise ValueError(f"steps must be >= 1, got {recorded[0] if recorded else steps}")
    return recorded


def _initial_coins(thetas, phases) -> tuple[NDArray, NDArray]:
    """Coin amplitudes ``(cos(theta/2), e^{i phi} sin(theta/2))`` from ``phases = e^{i phi}``, broadcast."""
    return np.cos(thetas / 2.0), phases * np.sin(thetas / 2.0)


def _coin_blocks(angle_blocks: Iterable[tuple[slice, NDArray, NDArray]]) -> list[tuple[slice, NDArray, NDArray]]:
    """``(rows, coin0, coin1)`` of each ``(rows, thetas, phis)`` block, so no whole-array temporary is built."""
    return [(rows, *_initial_coins(thetas, np.exp(1j * phis))) for rows, thetas, phis in angle_blocks]


def coin_densities(states, sequence: CoinSequence, steps: int | Sequence[int]):
    """Yield ``(pop0, pop1, coherence)`` of every state, one recorded step at a time.

    ``states`` is an (N, 2) array, or nested list, of (theta, phi) rows with
    theta in [0, pi]; each yielded array has shape (N,).  ``steps`` is an
    integer, to record every step 1..steps, or a strictly increasing list of
    the steps to record; the walk stops at the last.  A step's
    arrays fill one coin block at a time, and only one step's values are
    alive at a time, so a consumer that reduces each step keeps O(N) memory.
    """
    recorded = _record_steps(steps)
    thetas, phis = _angle_arrays(states)
    coins = _coin_blocks((rows, thetas[rows], phis[rows]) for rows in _blocks(len(thetas)))
    for r in _channel_factors([sequence], recorded)[0]:
        (pop0, pop1), coherence = np.empty((2, len(states))), np.empty(len(states), dtype=complex)
        for rows, coin0, coin1 in coins:
            pop0[rows], pop1[rows], coherence[rows] = _channel_reduction(r, coin0, coin1)
        yield pop0, pop1, coherence


def _sampled_sweep(sequences: Sequence[CoinSequence], recorded: Sequence[int], samples: int, seed: int):
    """Mean and std (ddof=0) of S over one seeded sample set, each ``(len(sequences), len(recorded))``.

    The samples are those of ``sample_initial_states(samples, seed)``: the
    PCG64 stream that numpy's ``SeedSequence(seed)`` seeds, bitwise
    ``default_rng(seed).uniform`` without ``numpy.random`` (NEP 19 leaves
    ``Generator`` streams free to change).  The ``(samples,)`` buffer of S
    is allocated first, so a count no buffer can hold fails before any
    draw.  Each block's angles are then drawn from where the block starts in
    the stream and made into that block's coins, one ``_coin_blocks`` list;
    no ``(samples, 2)`` angle array is built.  Each candidate and recorded
    step of ``_channel_factors`` is reduced on its own, a coin block at a
    time, into the buffer of S, whose mean and std are then taken whole.  So
    the temporaries stay in cache, memory is 32 B a sample, 256 B a
    candidate and step and O(BLOCK_ROWS), and a candidate's values at t are
    bitwise those it gets walking alone to t, at any block size.
    """
    blocks = _angle_blocks(samples, seed)
    values = np.empty(samples)
    coins = _coin_blocks(blocks)
    factors = _channel_factors(sequences, recorded)
    mean_s, std_s = np.empty((2, *factors.shape[:2]))
    for index in np.ndindex(factors.shape[:2]):
        for rows, coin0, coin1 in coins:
            values[rows] = schmidt_norm_from(*_channel_reduction(factors[index], coin0, coin1))
        mean_s[index], std_s[index] = values.mean(), values.std()
    return mean_s, std_s


# ---------------------------------------------------------------------------
# Protocols.
# ---------------------------------------------------------------------------


def average_schmidt(
    sequence: CoinSequence,
    steps: int,
    samples: int,
    seed: int,
) -> AverageTrajectory:
    """Mean Schmidt norm per step over ``samples`` random initial states.

    One evolution per sample records S at every step of 1..steps; nothing is
    re-sampled per step.  Standard deviation (population, ddof=0) is kept
    alongside the mean so tolerances stay auditable.  Each step's S values
    are reduced as they come, so memory is O(samples), not O(steps*samples).
    """
    mean_s, std_s = _sampled_sweep([sequence], _record_steps(steps), samples, seed)
    return AverageTrajectory(steps=np.arange(1, steps + 1), mean_s=mean_s[0], std_s=std_s[0])


def log_fit(
    trajectory: AverageTrajectory,
    t_min: int = 10,
    extrapolate_to: int | Iterable[int] = 400,
) -> FitResult:
    """Least-squares fit of ``mean S ~ a*ln(t) + b`` over points with t >= t_min.

    Points are unweighted.  ``extrapolate_to`` is one step value (any 0-d
    integer, numpy's included) or an iterable of them; the fitted curve is
    evaluated there.

    Raises
    ------
    ValueError
        If fewer than 5 trajectory points satisfy ``t >= t_min``, an
        extrapolation target is below 1, or a fitted value is not finite
        (``mean_S`` near the float range overflows the fit).
    """
    try:
        targets = [operator.index(extrapolate_to)]
    except TypeError:
        targets = list(extrapolate_to)
    if any(tt < 1 for tt in targets):
        raise ValueError(f"extrapolation targets must be >= 1, got {targets}")
    t = np.asarray(trajectory.steps, dtype=np.float64)
    s = np.asarray(trajectory.mean_s, dtype=np.float64)
    keep = t >= t_min
    if int(keep.sum()) < 5:
        raise ValueError(
            f"insufficient points for log fit: need >= 5 with t >= {t_min}, "
            f"have {int(keep.sum())}"
        )
    t_fit = t[keep]
    s_fit = s[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.polyfit(np.log(t_fit), s_fit, 1)
        residuals = s_fit - (a * np.log(t_fit) + b)
        result = FitResult(
            a=float(a),
            b=float(b),
            fit_range=(int(t_fit[0]), int(t_fit[-1])),
            extrapolation=[(int(tt), float(a * math.log(tt) + b)) for tt in targets],
            residual_rms=float(np.sqrt(np.mean(residuals**2))),
        )
    fitted = [("a", result.a), ("b", result.b), ("residual_rms", result.residual_rms)]
    fitted += [(f"S at t={tt}", value) for tt, value in result.extrapolation]
    for name, value in fitted:
        if not math.isfinite(value):
            raise ValueError(f"log fit gives a non-finite {name} ({value!r})")
    return result


def _grid_axes(theta_steps: int, phi_steps: int) -> tuple[NDArray, NDArray]:
    """Regular grid axes: theta in [0, pi] inclusive, phi in [0, 2pi) half-open."""
    counts = f"theta_steps={theta_steps} phi_steps={phi_steps}"
    if theta_steps < 2 or phi_steps < 2:
        raise ValueError(f"grid axes need >= 2 samples, got {counts}")
    # Beyond the largest float64 array numpy sizes, np.linspace fails or returns no axis.
    if max(theta_steps, phi_steps) > (most := np.iinfo(np.intp).max // 8):
        raise ValueError(f"grid axes need <= {most} samples, got {counts}")
    return np.linspace(0.0, math.pi, theta_steps), np.linspace(0.0, TWO_PI, phi_steps, endpoint=False)


def _grid_groups(sequence: CoinSequence, recorded: Sequence[int], theta_axis: NDArray, phi_axis: NDArray):
    """Yield ``(column, rows, values)``: at ``recorded[column]``, a slice of theta rows and their S.

    The walk runs once (``_channel_factors``), the phase row ``e^{i phi}``
    once.  The theta rows come in groups of about ``BLOCK_ROWS`` cells,
    group-major: a group's coins are built once and reduced at every recorded
    step in turn, so no ``(theta, phi)`` cell array is built and memory does
    not grow with the grid; ``values`` has shape ``(rows, len(phi_axis))``.
    """
    factors = _channel_factors([sequence], recorded)[0]
    phases = np.exp(1j * phi_axis)
    for rows in _blocks(len(theta_axis), len(phi_axis)):
        coins = _initial_coins(theta_axis[rows, None], phases)
        for column, r in enumerate(factors):
            yield column, rows, schmidt_norm_from(*_channel_reduction(r, *coins))


def phase_independence_certificate(
    sequence: CoinSequence,
    t_max: int,
    theta_samples: int = 37,
    phi_samples: int = 72,
) -> NDArray[np.float64]:
    """Per-step max deviation of S across phi, ``dev[t-1] = max |S(t,theta,phi) - S(t,theta,phi0)|``.

    A sequence counts as phase-independent up to ``t_max`` when every entry is
    below the working tolerance (1e-10 throughout this package).  The grid
    streams from ``_grid_groups``, so memory does not grow with it.
    """
    theta_axis, phi_axis = _grid_axes(theta_samples, phi_samples)
    recorded = _record_steps(t_max)
    deviations = np.zeros(t_max)
    for column, _, grid in _grid_groups(sequence, recorded, theta_axis, phi_axis):
        deviations[column] = np.maximum(deviations[column], np.max(np.abs(grid - grid[:, :1])))
    return deviations


def parrondo_check(
    seq_ab: CoinSequence,
    seq_a: CoinSequence,
    seq_b: CoinSequence,
    t: int,
    samples: int,
    seed: int,
) -> ParrondoReport:
    """Does the two-coin sequence beat both of its single-coin parents at step t?

    ``seq_a`` and ``seq_b`` must be single-coin sequences.  All three means
    are those ``compare_table`` gives, over the same seeded sample set.
    """
    for seq, role in ((seq_a, "a"), (seq_b, "b")):
        if not seq.is_single_coin():
            raise ValueError(f"baseline sequence {role!r} must be single-coin, got {seq.label!r}")
    means, _ = _sampled_sweep([seq_ab, seq_a, seq_b], _record_steps([t]), samples, seed)
    return ParrondoReport(*means[:, 0].tolist())


def compare_table(
    candidates: Sequence[CoinSequence],
    step_list: Sequence[int],
    samples: int,
    seed: int,
) -> list[ComparisonRow]:
    """Mean S for every candidate at every requested step, on one shared sample set.

    Rows are ordered by step, then descending mean, ties broken by label.
    Rows are keyed by label and step: a repeated label is walked once and
    gives one set of rows, a repeated step repeats its rows.  Memory is
    O(samples + BLOCK_ROWS).  A candidate's mean at t is bitwise the one it
    gets walking alone to t, whatever other candidates and steps are asked
    for (``_sampled_sweep``, ``_channel_factors``).
    """
    if not candidates:
        raise ValueError("need at least one candidate sequence")
    if not step_list:
        raise ValueError("need at least one step value")
    recorded = _record_steps(sorted(set(step_list)))
    distinct = list({seq.label: seq for seq in candidates}.values())
    means, _ = _sampled_sweep(distinct, recorded, samples, seed)
    rows = [
        ComparisonRow(seq.label, int(t), float(means[m, recorded.index(t)]))
        for t in step_list
        for m, seq in enumerate(distinct)
    ]
    rows.sort(key=lambda r: (r.t, -r.mean_s, r.sequence_label))
    return rows
