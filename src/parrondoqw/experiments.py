"""Experiment protocols: averaging sweeps, grids, fits, and sequence comparisons.

Every quantity runs on the coin-channel engine: the walker state is linear
in the initial coin vector, so one ``walk.basis_walk`` gives, at each
recorded step, the reduced coin density of every initial state
(``_channel_reduction``).  Three paths read it: ``coin_densities`` for given
``(N, 2)`` arrays of ``(theta, phi)``, ``_sampled_sweep`` for seeded samples,
and ``_grid_groups`` for the regular grid of ``grid`` and
``phase_independence_certificate``.  Each state's populations, coherence and
Schmidt norm are elementwise arithmetic on its own angles, bitwise
independent of the rest of the batch.  Randomness enters only through
``sample_initial_states``, which draws every angle up front from a single
seeded generator.

Fairness rule for comparisons: a shared (seed-determined) initial-state set
is evolved under every candidate sequence, never re-sampled per candidate.
Every sampled mean comes from ``_sampled_sweep``, which walks the candidates
together on the candidate axis of ``basis_walk``, with one stacked QR per
block and recorded step, then reduces each candidate on its own, in blocks of
``BLOCK_ROWS`` samples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .entanglement import MAX_SCHMIDT_NORM, schmidt_norm_from
from .output import BLOCK_ROWS
from .sequences import CoinSequence
from .walk import basis_walk

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

#: Bytes of basis-walk state (a ``(2, 2, 2*steps+1)`` complex array per
#: candidate) that ``_sampled_sweep`` walks at once.  The step and the
#: stacked QR hold a few times as much; larger blocks raise peak RSS for
#: little gain in speed.
WALK_BLOCK_BYTES = 2**16


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
# Coin-channel engine.
# ---------------------------------------------------------------------------


def _coin_channel(sequences: Sequence[CoinSequence], steps: int, record_steps: Iterable[int]):
    """Yield ``(R0, R1)`` stacks at each recorded step, the walks of every candidate and coin ``c``.

    One ``basis_walk`` (``psi[m, coin, basis, position]``) gives, for
    candidate m, coin planes ``A0 c`` and ``A1 c``, column k of A0 / A1 being
    ``psi[m, 0, k]`` / ``psi[m, 1, k]``.  With the QR factorization
    ``[A0 A1] = Q [R0 R1]`` the populations and coherence of ``c`` are those
    of the at most six amplitudes ``R0 c``, ``R1 c``: the Gram matrices
    ``c^dag A0^dag A0 c`` etc. in square-root form, so a population that is
    tiny through cancellation keeps its relative accuracy.  Each recorded
    step runs one stacked QR of the ``(n, positions, 4)`` matrices, a view
    of ``psi`` whose columns are ``[A0 A1]``, and ``R0[m]`` / ``R1[m]`` are
    candidate m's factors.  ``record_steps`` is strictly increasing and read
    one step at a time, so a ``range`` of every step is never held in memory.
    """
    pending = iter(record_steps)
    next_step = next(pending, None)
    for t, psi in enumerate(basis_walk(sequences, steps), start=1):
        if t == next_step:
            r = np.linalg.qr(psi.reshape(len(psi), 4, -1).transpose(0, 2, 1), mode="r")
            yield r[:, :2, :2], r[:, :, 2:]
            next_step = next(pending, None)


def _channel_reduction(r0, r1, coin0, coin1):
    """pop0, pop1 and coherence of the amplitudes ``R0 c``, ``R1 c``, elementwise over samples.

    Rows of ``R1`` below those of ``R0`` (where ``R0 c`` is zero) add to pop1 only.
    The product is ``np.multiply``, not ``*``: numpy computes ``a * temporary``
    in place for temporaries of 256 KiB and more, and rounds that complex
    product differently, so a value would depend on the size of its batch.
    """
    pop0 = pop1 = coherence = 0.0
    for k, r in enumerate(r1):
        amp1 = r[0] * coin0 + r[1] * coin1
        pop1 = pop1 + (amp1.real**2 + amp1.imag**2)
        if k < len(r0):
            amp0 = r0[k, 0] * coin0 + r0[k, 1] * coin1
            pop0 = pop0 + (amp0.real**2 + amp0.imag**2)
            coherence = coherence + np.multiply(amp0, np.conj(amp1))
    return pop0, pop1, coherence


def _record_steps(steps: int, record_steps: Iterable[int] | None) -> Sequence[int]:
    """The validated steps to record: every step 1..steps by default."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if record_steps is None:
        return range(1, steps + 1)
    record_steps = list(record_steps)
    if not record_steps or any(b <= a for a, b in zip(record_steps, record_steps[1:])):
        raise ValueError("record_steps must be nonempty and strictly increasing")
    if record_steps[0] < 1 or record_steps[-1] > steps:
        raise ValueError(f"record_steps must lie within 1..{steps}")
    return record_steps


def _initial_coins(thetas, phis) -> tuple[NDArray, NDArray]:
    """Coin amplitudes ``(cos(theta/2), e^{i phi} sin(theta/2))``, elementwise with broadcasting."""
    return np.cos(thetas / 2.0), np.exp(1j * phis) * np.sin(thetas / 2.0)


def coin_densities(
    states,
    sequence: CoinSequence,
    steps: int,
    record_steps: Sequence[int] | None = None,
):
    """Yield ``(pop0, pop1, coherence)`` of every state, one recorded step at a time.

    ``states`` is an (N, 2) array, or nested list, of (theta, phi) rows with
    theta in [0, pi]; each yielded array has shape (N,).  ``record_steps``
    defaults to every step 1..steps; otherwise it must be a strictly
    increasing subset of that range.  Only one step's values are alive at a
    time, so a consumer that reduces each step keeps O(N) memory.
    """
    record_steps = _record_steps(steps, record_steps)
    coin0, coin1 = _initial_coins(*_angle_arrays(states))
    for r0, r1 in _coin_channel([sequence], steps, record_steps):
        yield _channel_reduction(r0[0], r1[0], coin0, coin1)


def _sampled_sweep(sequences: Sequence[CoinSequence], recorded: Sequence[int], samples: int, seed: int):
    """Mean and std (ddof=0) of S over one seeded sample set, each ``(len(sequences), len(recorded))``.

    Candidates walk in blocks of at most ``WALK_BLOCK_BYTES`` of walk state.
    Each candidate and recorded step is reduced on its own, ``BLOCK_ROWS``
    samples at a time, into one ``(samples,)`` buffer of S, whose mean and std
    are then taken whole.  So the reduction's temporaries stay in cache,
    memory is O(samples + WALK_BLOCK_BYTES), and a candidate's values are
    bitwise those it gets walking alone, at any block size.
    """
    coin0, coin1 = _initial_coins(*sample_initial_states(samples, seed).T)
    steps = recorded[-1]
    mean_s, std_s = np.empty((2, len(sequences), len(recorded)))
    values = np.empty(samples)
    # At least one candidate per block, however long its walk.
    size = max(1, WALK_BLOCK_BYTES // (2 * 2 * (2 * steps + 1) * np.dtype(np.complex128).itemsize))
    for start in range(0, len(sequences), size):
        block = _coin_channel(sequences[start:start + size], steps, recorded)
        for column, (r0, r1) in enumerate(block):
            for m, (r0_m, r1_m) in enumerate(zip(r0, r1), start=start):
                for first in range(0, samples, BLOCK_ROWS):
                    part = slice(first, first + BLOCK_ROWS)
                    values[part] = schmidt_norm_from(
                        *_channel_reduction(r0_m, r1_m, coin0[part], coin1[part]))
                mean_s[m, column], std_s[m, column] = values.mean(), values.std()
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
    mean_s, std_s = _sampled_sweep([sequence], _record_steps(steps, None), samples, seed)
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
    if theta_steps < 2 or phi_steps < 2:
        raise ValueError(
            f"grid axes need >= 2 samples, got theta_steps={theta_steps} phi_steps={phi_steps}"
        )
    theta_axis = np.linspace(0.0, math.pi, theta_steps)
    return theta_axis, np.linspace(0.0, TWO_PI, phi_steps, endpoint=False)


def _grid_groups(sequence: CoinSequence, recorded: Sequence[int], theta_axis: NDArray, phi_axis: NDArray):
    """Yield ``(column, rows, values)``: at ``recorded[column]``, a slice of theta rows and their S.

    The walk runs once.  At each of the strictly increasing ``recorded`` steps
    the theta rows come in groups of about ``BLOCK_ROWS`` cells, coins from the
    two axes, so no ``(theta, phi)`` cell array is built and memory does not
    grow with the grid; ``values`` has shape ``(rows, len(phi_axis))``.
    """
    size = max(1, BLOCK_ROWS // len(phi_axis))
    for column, (r0, r1) in enumerate(_coin_channel([sequence], recorded[-1], recorded)):
        for start in range(0, len(theta_axis), size):
            rows = slice(start, start + size)
            coins = _initial_coins(theta_axis[rows, None], phi_axis)
            yield column, rows, schmidt_norm_from(*_channel_reduction(r0[0], r1[0], *coins))


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
    recorded = _record_steps(t_max, None)
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
    means, _ = _sampled_sweep([seq_ab, seq_a, seq_b], _record_steps(t, [t]), samples, seed)
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
    O(samples + WALK_BLOCK_BYTES), and a candidate's means are bitwise those
    it gets walking alone (``_sampled_sweep``).
    """
    if not candidates:
        raise ValueError("need at least one candidate sequence")
    if not step_list:
        raise ValueError("need at least one step value")
    recorded = _record_steps(max(step_list), sorted(set(step_list)))
    distinct = list({seq.label: seq for seq in candidates}.values())
    means, _ = _sampled_sweep(distinct, recorded, samples, seed)
    rows = [
        ComparisonRow(seq.label, int(t), float(means[m, recorded.index(t)]))
        for t in step_list
        for m, seq in enumerate(distinct)
    ]
    rows.sort(key=lambda r: (r.t, -r.mean_s, r.sequence_label))
    return rows
