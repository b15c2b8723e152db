import math
import tracemalloc

import numpy as np
import pytest

from parrondoqw.experiments import (
    AverageTrajectory,
    average_schmidt,
    compare_table,
    grid_schmidt,
    log_fit,
    parrondo_check,
    phase_independence_certificate,
    sample_initial_states,
    schmidt_trajectories,
)
from parrondoqw.entanglement import schmidt_norm_from
from parrondoqw.oracles import dense_reference_evolve
from parrondoqw.sequences import parse
from parrondoqw.walk import InitialState

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# sample_initial_states
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    first = sample_initial_states(3, seed=42)
    second = sample_initial_states(3, seed=42)
    assert first.shape == (3, 2)
    assert np.array_equal(first, second)


def test_sampling_respects_ranges():
    angles = sample_initial_states(500, seed=0)
    assert np.all((0.0 <= angles[:, 0]) & (angles[:, 0] <= math.pi))
    assert np.all((0.0 <= angles[:, 1]) & (angles[:, 1] < 2 * math.pi))
    # phi is already canonical: InitialState leaves every sample unchanged
    for theta, phi in angles:
        assert InitialState(theta, phi).phi == phi


def test_sampling_mean_theta_matches_uniform_moments():
    thetas = sample_initial_states(10**5, seed=7)[:, 0]
    three_sigma = 3.0 * (math.pi / math.sqrt(12.0)) / math.sqrt(len(thetas))
    assert abs(thetas.mean() - math.pi / 2) < three_sigma


def test_sampling_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_initial_states(0, seed=1)


# ---------------------------------------------------------------------------
# schmidt_trajectories engine
# ---------------------------------------------------------------------------


def test_trajectories_bitwise_independent_of_batch_composition():
    # Each sample's S is elementwise arithmetic on its own angles, so any
    # sub-batch or reordering gives bitwise the same per-sample values.
    states = sample_initial_states(300, seed=5)
    sequence = parse("XHF")
    baseline = schmidt_trajectories(states, sequence, 12)
    order = np.random.default_rng(0).permutation(len(states))
    permuted = schmidt_trajectories(states[order], sequence, 12)
    assert np.array_equal(permuted, baseline[:, order])
    for part in (slice(0, 1), slice(0, 7), slice(5, 69), slice(1, 300), slice(None, None, 3)):
        other = schmidt_trajectories(states[part], sequence, 12)
        assert np.array_equal(other, baseline[:, part])
    as_list = [[float(theta), float(phi)] for theta, phi in states]
    assert np.array_equal(schmidt_trajectories(as_list, sequence, 12), baseline)
    assert np.array_equal(schmidt_trajectories(states[::-1], sequence, 12), baseline[:, ::-1])


def _dense_schmidt(initial, sequence, t):
    vec = dense_reference_evolve(initial, sequence, t)
    amp0, amp1 = vec[0::2], vec[1::2]
    pop0 = np.sum(amp0.real**2 + amp0.imag**2)
    pop1 = np.sum(amp1.real**2 + amp1.imag**2)
    return float(schmidt_norm_from(pop0, pop1, np.sum(amp0 * np.conj(amp1))))


def test_trajectories_match_dense_reference_near_product_states():
    # Initial states at and next to the poles, and states that one H or F
    # step takes next to a product state (|S - 1| ~ eps/2): the populations
    # must keep their relative accuracy, not only their absolute one.
    states = [InitialState(theta, 1.3) for theta in (0.0, 1e-12, 1e-8, math.pi - 1e-8, math.pi)]
    states += [InitialState(math.pi / 2, math.pi + 1e-8),
               InitialState(math.pi / 2 + 1e-8, math.pi),
               InitialState(math.pi / 2, math.pi / 2 + 1e-8),
               InitialState(math.pi / 2, math.pi + 1e-12)]
    angles = np.array([(s.theta, s.phi) for s in states])
    worst = 0.0
    for label in ("H", "F", "M", "X", "XXH", "MMF", "FMX"):
        sequence = parse(label)
        values = schmidt_trajectories(angles, sequence, 20)
        for i, initial in enumerate(states):
            for t in range(1, 21):
                worst = max(worst, abs(values[t - 1, i] - _dense_schmidt(initial, sequence, t)))
    assert worst < 1e-14


def test_trajectories_reject_bad_angle_arrays():
    for bad in ([[0.5, np.nan]], [[-0.1, 0.0]], [[math.pi + 1e-9, 0.0]], [[np.inf, 1.0]]):
        with pytest.raises(ValueError, match="theta in \\[0, pi\\]"):
            schmidt_trajectories(np.array(bad), parse("H"), 3)
    for bad in (np.array([0.5, 1.0, 2.0]), np.full((3, 3), 0.5)):
        with pytest.raises(ValueError, match="shape \\(N, 2\\)"):
            schmidt_trajectories(bad, parse("H"), 3)


def test_trajectories_record_steps_subset():
    states = sample_initial_states(20, seed=5)
    full = schmidt_trajectories(states, parse("XXH"), 10)
    subset = schmidt_trajectories(states, parse("XXH"), 10, record_steps=[3, 10])
    np.testing.assert_array_equal(subset[0], full[2])
    np.testing.assert_array_equal(subset[1], full[9])


def test_trajectories_record_steps_validation():
    states = sample_initial_states(2, seed=1)
    for bad in ([], [0], [3, 2], [1, 11]):
        with pytest.raises(ValueError):
            schmidt_trajectories(states, parse("H"), 10, record_steps=bad)


# ---------------------------------------------------------------------------
# average_schmidt
# ---------------------------------------------------------------------------


def test_x_walk_average_approaches_analytic_mean():
    # S of a pure-X walk is cos(theta/2) + sin(theta/2) at every step, whose
    # uniform-theta average is 4/pi.
    trajectory = average_schmidt(parse("XXX"), steps=10, samples=10**4, seed=11)
    for t in (1, 5, 10):
        assert abs(trajectory.mean_s[t - 1] - 4.0 / math.pi) < 0.01


def test_xxh_average_is_maximal_at_step_3():
    trajectory = average_schmidt(parse("XXH"), steps=3, samples=64, seed=2)
    assert abs(trajectory.mean_s[2] - SQRT2) < 1e-10
    assert trajectory.std_s[2] < 1e-10


def test_average_reproducible_and_matches_engine():
    a = average_schmidt(parse("MMF"), 15, 50, seed=3)
    b = average_schmidt(parse("MMF"), 15, 50, seed=3)
    np.testing.assert_array_equal(a.mean_s, b.mean_s)
    np.testing.assert_array_equal(a.std_s, b.std_s)
    traj = schmidt_trajectories(sample_initial_states(50, seed=3), parse("MMF"), 15)
    np.testing.assert_array_equal(a.mean_s, traj.mean(axis=1))
    np.testing.assert_array_equal(a.std_s, traj.std(axis=1))


def test_average_mean_within_physical_bounds():
    trajectory = average_schmidt(parse("HFX"), 25, 80, seed=9)
    assert np.all(trajectory.mean_s >= 1.0 - 1e-12)
    assert np.all(trajectory.mean_s <= SQRT2 + 1e-12)
    assert np.all(np.diff(trajectory.steps) > 0)


def test_average_memory_is_bounded_by_samples():
    # 400 steps x 5000 samples of S alone would take 16 MB; reducing each
    # step as it comes keeps the peak at a few (N,) arrays.
    tracemalloc.start()
    try:
        average_schmidt(parse("XXX"), 400, 5000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# log_fit
# ---------------------------------------------------------------------------


def _synthetic(a, b, steps=60):
    t = np.arange(1, steps + 1)
    return AverageTrajectory(
        sequence_label="SYN", samples_per_point=1, seed=0,
        steps=t, mean_s=a * np.log(t) + b, std_s=np.zeros(steps),
    )


def test_log_fit_recovers_exact_generator():
    fit = log_fit(_synthetic(0.1, 1.2), t_min=1, extrapolate_to=400)
    assert fit.a == pytest.approx(0.1, abs=1e-12)
    assert fit.b == pytest.approx(1.2, abs=1e-12)
    assert fit.residual_rms < 1e-12
    assert fit.extrapolation[0][1] == pytest.approx(0.1 * math.log(400) + 1.2, abs=1e-10)


def test_log_fit_flat_series_has_zero_slope():
    fit = log_fit(_synthetic(0.0, 1.3), t_min=5, extrapolate_to=100)
    assert fit.a == pytest.approx(0.0, abs=1e-12)


def test_log_fit_requires_five_points():
    with pytest.raises(ValueError, match="insufficient"):
        log_fit(_synthetic(0.1, 1.0, steps=10), t_min=7, extrapolate_to=50)


def test_log_fit_rejects_targets_below_one():
    for targets in (0, -5, [10, 0]):
        with pytest.raises(ValueError, match="extrapolation targets must be >= 1"):
            log_fit(_synthetic(0.1, 1.2), t_min=1, extrapolate_to=targets)


def test_log_fit_multiple_targets_and_clipping():
    fit = log_fit(_synthetic(0.2, 1.0), t_min=1, extrapolate_to=[100, 10**6])
    assert [t for t, _ in fit.extrapolation] == [100, 10**6]
    ratios = dict(fit.extrapolation_ratios())
    assert ratios[10**6] == pytest.approx(1.0)  # clipped at sqrt(2)/sqrt(2)


# ---------------------------------------------------------------------------
# grid_schmidt / phase independence
# ---------------------------------------------------------------------------


def test_grid_axes_and_shape():
    grid = grid_schmidt(parse("XXH"), t=4, theta_steps=5, phi_steps=8)
    assert grid.values.shape == (5, 8)
    assert grid.theta_axis[0] == 0.0 and grid.theta_axis[-1] == pytest.approx(math.pi)
    assert grid.phi_axis[0] == 0.0 and grid.phi_axis[-1] < 2 * math.pi


def test_grid_requires_two_samples_per_axis():
    with pytest.raises(ValueError):
        grid_schmidt(parse("XXH"), t=4, theta_steps=1, phi_steps=8)


def test_xxh_grid_rows_are_phi_constant():
    grid = grid_schmidt(parse("XXH"), t=10, theta_steps=9, phi_steps=12)
    spread = np.max(grid.values, axis=1) - np.min(grid.values, axis=1)
    assert np.max(spread) < 1e-10


def test_pole_rows_are_phi_constant_for_any_sequence():
    # phi is physically irrelevant when theta is 0 or pi
    grid = grid_schmidt(parse("HHH"), t=6, theta_steps=5, phi_steps=10)
    for row in (0, -1):
        assert np.max(grid.values[row]) - np.min(grid.values[row]) < 1e-12


def test_fourier_grid_is_phase_shifted_hadamard_grid():
    # S_FFF(theta, phi) = S_HHH(theta, phi + pi/2): the F coin acts as a
    # phase-shifted H.  On a 12-point phi axis, +pi/2 is a roll of 3 cells.
    grid_h = grid_schmidt(parse("HHH"), t=5, theta_steps=7, phi_steps=12)
    grid_f = grid_schmidt(parse("FFF"), t=5, theta_steps=7, phi_steps=12)
    np.testing.assert_allclose(
        grid_f.values, np.roll(grid_h.values, -3, axis=1), atol=1e-10
    )


def test_phase_independence_certificate_contrast():
    flat = phase_independence_certificate(parse("XXH"), 20, 9, 12)
    assert flat.shape == (20,)
    assert flat.max() < 1e-10
    bumpy = phase_independence_certificate(parse("HHH"), 5, 9, 12)
    assert bumpy[0] > 0.05


# ---------------------------------------------------------------------------
# parrondo_check / compare_table
# ---------------------------------------------------------------------------


def test_parrondo_xxh_beats_both_parents():
    report = parrondo_check(parse("XXH"), parse("X"), parse("H"), t=50,
                            samples=100, seed=1)
    assert report.is_parrondo
    assert report.margin_a > 0.01 and report.margin_b > 0.01


def test_parrondo_degenerate_sequences_tie():
    report = parrondo_check(parse("HH"), parse("H"), parse("H"), t=10,
                            samples=40, seed=4)
    assert not report.is_parrondo
    assert report.margin_a == 0.0 and report.margin_b == 0.0


def test_parrondo_rejects_multi_coin_baseline():
    with pytest.raises(ValueError, match="single-coin"):
        parrondo_check(parse("XXH"), parse("XH"), parse("H"), t=5, samples=10, seed=1)


def test_rank_sequences_orders_by_mean():
    table = compare_table([parse("XXH"), parse("HHH"), parse("XXX")], [3],
                          samples=200, seed=8)
    assert table.rows[0].sequence_label == "XXH"
    assert table.rows[0].mean_s == pytest.approx(SQRT2, abs=1e-10)
    assert table.rows[0].mean_s >= table.rows[1].mean_s >= table.rows[2].mean_s


def test_rank_single_candidate():
    table = compare_table([parse("H")], [4], samples=30, seed=2)
    assert len(table.rows) == 1
    assert table.rows[0].sequence_label == "H"


def test_xxh_family_members_rank_identically():
    table = compare_table([parse("XXH"), parse("XXF"), parse("XXM")], [14],
                          samples=150, seed=6)
    means = [row.mean_s for row in table.rows]
    assert max(means) - min(means) < 1e-10
    # exact ties fall back to lexicographic labels
    if means[0] == means[1] == means[2]:
        assert [r.sequence_label for r in table.rows] == ["XXF", "XXH", "XXM"]


def test_compare_table_multi_step_ordering():
    table = compare_table([parse("XXH"), parse("XXX")], [3, 7], samples=60, seed=3)
    assert [(r.t, r.sequence_label) for r in table.rows][:2] == [(3, "XXH"), (3, "XXX")]
    assert all(table.rows[i].t <= table.rows[i + 1].t for i in range(len(table.rows) - 1))
    for row in table.rows:
        assert 1.0 / SQRT2 - 1e-12 <= row.mean_s_over_sqrt2 <= 1.0 + 1e-12


def test_compare_table_requires_candidates_and_steps():
    with pytest.raises(ValueError):
        compare_table([], [3], samples=10, seed=1)
    with pytest.raises(ValueError):
        compare_table([parse("H")], [], samples=10, seed=1)
