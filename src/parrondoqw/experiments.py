"""Experiment protocols: averaging sweeps, grids, fits, and sequence comparisons.

Every quantity runs on the coin-channel engine: the walker state is linear
in the initial coin vector, so one ``walk.basis_walk`` gives, at each
recorded step, the reduced coin density of every initial state
(``coin_densities``).  Each sample's populations, coherence and Schmidt norm
are then elementwise arithmetic on its own angles, bitwise independent of the
rest of the batch.  Initial states travel as ``(N, 2)`` arrays of
``(theta, phi)``.  Randomness enters only through ``sample_initial_states``,
which draws every angle up front from a single seeded generator.

Fairness rule for comparisons: a shared (seed-determined) initial-state set
is evolved under every candidate sequence, never re-sampled per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .entanglement import MAX_SCHMIDT_NORM, schmidt_norm_from
from .sequences import CoinSequence
from .walk import basis_walk

__all__ = [
    "AverageTrajectory",
    "FitResult",
    "GridResult",
    "ComparisonRow",
    "ComparisonTable",
    "ParrondoReport",
    "sample_initial_states",
    "coin_densities",
    "schmidt_trajectories",
    "average_schmidt",
    "log_fit",
    "grid_schmidt",
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

    sequence_label: str
    samples_per_point: int
    seed: int
    steps: NDArray[np.int_]
    mean_s: NDArray[np.float64]
    std_s: NDArray[np.float64]

    def points(self) -> list[tuple[int, float, float]]:
        return [
            (int(t), float(m), float(s))
            for t, m, s in zip(self.steps, self.mean_s, self.std_s)
        ]


@dataclass
class FitResult:
    """Least-squares fit ``S ~ a*ln(t) + b`` with extrapolated predictions."""

    a: float
    b: float
    fit_range: tuple[int, int]
    extrapolation: list[tuple[int, float]]
    residual_rms: float

    def predict(self, t) -> float:
        return self.a * math.log(t) + self.b

    def extrapolation_ratios(self) -> list[tuple[int, float]]:
        """Predictions as S/sqrt(2) ratios, clipped into the physical range."""
        return [
            (t, float(np.clip(s, 1.0, MAX_SCHMIDT_NORM)) / MAX_SCHMIDT_NORM)
            for t, s in self.extrapolation
        ]


@dataclass
class GridResult:
    """Schmidt norm over a regular (theta, phi) grid at a fixed step."""

    sequence_label: str
    t: int
    theta_axis: NDArray[np.float64]
    phi_axis: NDArray[np.float64]
    values: NDArray[np.float64]  # shape (len(theta_axis), len(phi_axis))


@dataclass(frozen=True)
class ComparisonRow:
    sequence_label: str
    t: int
    mean_s: float

    @property
    def mean_s_over_sqrt2(self) -> float:
        return self.mean_s / MAX_SCHMIDT_NORM


@dataclass
class ComparisonTable:
    """Per-sequence mean Schmidt norms on a shared sample set."""

    rows: list[ComparisonRow]
    samples: int
    seed: int


@dataclass
class ParrondoReport:
    """Outcome of one two-coins-beat-both-parents check."""

    sequence_label: str
    single_a_label: str
    single_b_label: str
    t: int
    samples: int
    seed: int
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
    """(thetas, phis) of an (N, 2) array (or nested list) of (theta, phi) rows."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != 2:
        raise ValueError(f"angle arrays need shape (N, 2) of (theta, phi) rows, got {states.shape}")
    if not np.all(np.isfinite(states) & (states[:, :1] >= 0.0) & (states[:, :1] <= math.pi)):
        raise ValueError("angle arrays need finite (theta, phi) rows with theta in [0, pi]")
    return states[:, 0], states[:, 1]


# ---------------------------------------------------------------------------
# Coin-channel engine.
# ---------------------------------------------------------------------------


def _coin_channel(sequence: CoinSequence, steps: int, record_steps: Sequence[int]):
    """Yield ``(R0, R1)`` at each recorded step, the walk of every initial coin ``c``.

    One ``basis_walk`` (a (2, positions) stack) gives ``amp0 = A0 c`` and
    ``amp1 = A1 c``, column k of A0 / A1 being basis coin k's coin-0 / coin-1
    plane.  With the QR factorization
    ``[A0 A1] = Q [R0 R1]`` the populations and coherence of ``c`` are those
    of the at most six amplitudes ``R0 c``, ``R1 c``: the Gram matrices
    ``c^dag A0^dag A0 c`` etc. in square-root form, so a population that is
    tiny through cancellation keeps its relative accuracy.
    """
    recorded = set(record_steps)
    for t, (amp0, amp1) in enumerate(basis_walk(sequence, steps), start=1):
        if t in recorded:
            r = np.linalg.qr(np.concatenate((amp0, amp1)).T, mode="r")
            yield r[:2, :2], r[:, 2:]


def _channel_reduction(r0, r1, coin0, coin1):
    """pop0, pop1 and coherence of the amplitudes ``R0 c``, ``R1 c``, elementwise over samples.

    Rows of ``R1`` below those of ``R0`` (where ``R0 c`` is zero) add to pop1 only.
    """
    pop0 = pop1 = coherence = 0.0
    for k, r in enumerate(r1):
        amp1 = r[0] * coin0 + r[1] * coin1
        pop1 = pop1 + (amp1.real**2 + amp1.imag**2)
        if k < len(r0):
            amp0 = r0[k, 0] * coin0 + r0[k, 1] * coin1
            pop0 = pop0 + (amp0.real**2 + amp0.imag**2)
            coherence = coherence + amp0 * np.conj(amp1)
    return pop0, pop1, coherence


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
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if record_steps is None:
        record_steps = range(1, steps + 1)
    else:
        record_steps = list(record_steps)
        if not record_steps or any(
            b <= a for a, b in zip(record_steps, record_steps[1:])
        ):
            raise ValueError("record_steps must be nonempty and strictly increasing")
        if record_steps[0] < 1 or record_steps[-1] > steps:
            raise ValueError(f"record_steps must lie within 1..{steps}")
    thetas, phis = _angle_arrays(states)
    coin0 = np.cos(thetas / 2.0)
    coin1 = np.exp(1j * phis) * np.sin(thetas / 2.0)
    for r0, r1 in _coin_channel(sequence, steps, record_steps):
        yield _channel_reduction(r0, r1, coin0, coin1)


def schmidt_trajectories(
    states,
    sequence: CoinSequence,
    steps: int,
    record_steps: Sequence[int] | None = None,
) -> NDArray[np.float64]:
    """Per-sample Schmidt norm at the recorded steps; shape (n_recorded, n_states).

    Arguments are those of ``coin_densities``; row i belongs to
    ``record_steps[i]``.  Each sample's S is bitwise independent of the other
    samples in the batch.
    """
    record_steps = range(1, steps + 1) if record_steps is None else list(record_steps)
    out = np.empty((len(record_steps), len(states)), dtype=np.float64)
    for row, densities in enumerate(coin_densities(states, sequence, steps, record_steps)):
        out[row] = schmidt_norm_from(*densities)
    return out


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
    states = sample_initial_states(samples, seed)
    mean_s, std_s = [], []
    for densities in coin_densities(states, sequence, steps):
        values = schmidt_norm_from(*densities)
        mean_s.append(values.mean())
        std_s.append(values.std())
    return AverageTrajectory(
        sequence_label=sequence.label,
        samples_per_point=samples,
        seed=seed,
        steps=np.arange(1, steps + 1),
        mean_s=np.array(mean_s),
        std_s=np.array(std_s),
    )


def log_fit(
    trajectory: AverageTrajectory,
    t_min: int = 10,
    extrapolate_to: int | Iterable[int] = 400,
) -> FitResult:
    """Least-squares fit of ``mean S ~ a*ln(t) + b`` over points with t >= t_min.

    Points are unweighted.  ``extrapolate_to`` is one step value or an
    iterable of them; the fitted curve is evaluated there.

    Raises
    ------
    ValueError
        If fewer than 5 trajectory points satisfy ``t >= t_min``, or an
        extrapolation target is below 1.
    """
    targets = [extrapolate_to] if isinstance(extrapolate_to, int) else list(extrapolate_to)
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
    a, b = np.polyfit(np.log(t_fit), s_fit, 1)
    residuals = s_fit - (a * np.log(t_fit) + b)
    return FitResult(
        a=float(a),
        b=float(b),
        fit_range=(int(t_fit[0]), int(t_fit[-1])),
        extrapolation=[(int(tt), float(a * math.log(tt) + b)) for tt in targets],
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )


def _grid_angles(theta_steps: int, phi_steps: int) -> tuple[NDArray, NDArray, NDArray]:
    """Regular grid: theta in [0, pi] inclusive, phi in [0, 2pi) half-open.

    Returns both axes and the (theta_steps * phi_steps, 2) array of
    (theta, phi) cells, theta-major.
    """
    if theta_steps < 2 or phi_steps < 2:
        raise ValueError(
            f"grid axes need >= 2 samples, got theta_steps={theta_steps} phi_steps={phi_steps}"
        )
    theta_axis = np.linspace(0.0, math.pi, theta_steps)
    phi_axis = np.linspace(0.0, TWO_PI, phi_steps, endpoint=False)
    angles = np.stack(np.meshgrid(theta_axis, phi_axis, indexing="ij", copy=False), axis=-1)
    return theta_axis, phi_axis, angles.reshape(-1, 2)


def grid_schmidt(
    sequence: CoinSequence,
    t: int,
    theta_steps: int,
    phi_steps: int,
) -> GridResult:
    """Schmidt norm at step ``t`` on a regular (theta, phi) grid; deterministic."""
    theta_axis, phi_axis, angles = _grid_angles(theta_steps, phi_steps)
    traj = schmidt_trajectories(angles, sequence, t, record_steps=[t])
    return GridResult(
        sequence_label=sequence.label,
        t=t,
        theta_axis=theta_axis,
        phi_axis=phi_axis,
        values=traj[0].reshape(theta_steps, phi_steps),
    )


def phase_independence_certificate(
    sequence: CoinSequence,
    t_max: int,
    theta_samples: int = 37,
    phi_samples: int = 72,
) -> NDArray[np.float64]:
    """Per-step max deviation of S across phi, ``dev[t-1] = max |S(t,theta,phi) - S(t,theta,phi0)|``.

    A sequence counts as phase-independent up to ``t_max`` when every entry is
    below the working tolerance (1e-10 throughout this package).
    """
    _, _, angles = _grid_angles(theta_samples, phi_samples)
    traj = schmidt_trajectories(angles, sequence, t_max)
    grids = traj.reshape(t_max, theta_samples, phi_samples)
    return np.max(np.abs(grids - grids[:, :, :1]), axis=(1, 2))


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
    are taken over the same seeded sample set.
    """
    for seq, role in ((seq_a, "a"), (seq_b, "b")):
        if not seq.is_single_coin():
            raise ValueError(f"baseline sequence {role!r} must be single-coin, got {seq.label!r}")
    table = compare_table([seq_ab, seq_a, seq_b], [t], samples, seed)
    means = {row.sequence_label: row.mean_s for row in table.rows}
    return ParrondoReport(
        sequence_label=seq_ab.label,
        single_a_label=seq_a.label,
        single_b_label=seq_b.label,
        t=t,
        samples=samples,
        seed=seed,
        mean_combined=means[seq_ab.label],
        mean_a=means[seq_a.label],
        mean_b=means[seq_b.label],
    )


def compare_table(
    candidates: Sequence[CoinSequence],
    step_list: Sequence[int],
    samples: int,
    seed: int,
) -> ComparisonTable:
    """Mean S for every candidate at every requested step, on one shared sample set.

    Rows are ordered by step, then descending mean, ties broken by label.
    Rows are keyed by label and step: a repeated label gives one set of rows,
    a repeated step repeats its rows.
    """
    if not candidates:
        raise ValueError("need at least one candidate sequence")
    if not step_list:
        raise ValueError("need at least one step value")
    states = sample_initial_states(samples, seed)
    recorded = sorted(set(step_list))
    means = {}
    for seq in candidates:
        traj = schmidt_trajectories(states, seq, recorded[-1], record_steps=recorded)
        means[seq.label] = {t: float(row.mean()) for t, row in zip(recorded, traj)}
    rows = [
        ComparisonRow(label, int(t), per_step[t])
        for t in step_list
        for label, per_step in means.items()
    ]
    rows.sort(key=lambda r: (r.t, -r.mean_s, r.sequence_label))
    return ComparisonTable(rows=rows, samples=samples, seed=seed)
