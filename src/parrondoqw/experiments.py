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
independent of the rest of the batch.  Randomness enters only through
``sample_initial_states``, which draws every angle up front from a single
seeded generator.

Fairness rule for comparisons: every sampled mean comes from
``_sampled_sweep``, which evolves one shared (seed-determined) initial-state
set under every candidate sequence, never re-sampled per candidate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

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


def sample_initial_states(count: int, seed: int) -> NDArray[np.float64]:
    """Draw ``count`` initial states as a (count, 2) array of (theta, phi).

    theta ~ U[0, pi] and phi ~ U[0, 2pi).  All angles come from one generator
    seeded with ``seed`` (theta block first, then phi block), so the array is
    reproducible.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, math.pi, count)
    phis = rng.uniform(0.0, TWO_PI, count)
    return np.stack((thetas, phis), axis=1)


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


def _coin_blocks(thetas, phis) -> list[tuple[slice, NDArray, NDArray]]:
    """``(rows, coin0, coin1)`` of each block of states, so no whole-array temporary is built."""
    return [(rows, *_initial_coins(thetas[rows], np.exp(1j * phis[rows]))) for rows in _blocks(len(thetas))]


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
    coins = _coin_blocks(*_angle_arrays(states))
    for r in _channel_factors([sequence], recorded)[0]:
        (pop0, pop1), coherence = np.empty((2, len(states))), np.empty(len(states), dtype=complex)
        for rows, coin0, coin1 in coins:
            pop0[rows], pop1[rows], coherence[rows] = _channel_reduction(r, coin0, coin1)
        yield pop0, pop1, coherence


def _sampled_sweep(sequences: Sequence[CoinSequence], recorded: Sequence[int], samples: int, seed: int):
    """Mean and std (ddof=0) of S over one seeded sample set, each ``(len(sequences), len(recorded))``.

    The coins are one ``_coin_blocks`` list from the one seeded draw, which
    is dropped before the S buffer exists.  Each candidate and recorded step
    of ``_channel_factors`` is reduced on its own, a coin block at a time,
    into one ``(samples,)`` buffer of S, whose mean and std are then taken
    whole.  So the temporaries stay in cache, memory is 40 B a sample, 256 B
    a candidate and step and O(BLOCK_ROWS), and a candidate's values at t
    are bitwise those it gets walking alone to t, at any block size.
    """
    coins = _coin_blocks(*sample_initial_states(samples, seed).T)
    factors = _channel_factors(sequences, recorded)
    mean_s, std_s = np.empty((2, *factors.shape[:2]))
    values = np.empty(samples)
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
