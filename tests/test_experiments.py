import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.random import default_rng

from parrondoqw import experiments, output, walk
from parrondoqw.experiments import (
    _channel_factors,
    _grid_axes,
    _grid_groups,
    _sampled_sweep,
    AverageTrajectory,
    average_schmidt,
    coin_densities,
    compare_table,
    log_fit,
    parrondo_check,
    phase_independence_certificate,
    sample_initial_states,
)
from parrondoqw.entanglement import schmidt_norm_from
from parrondoqw.oracles import InitialState, dense_reference_evolve
from parrondoqw.sequences import enumerate_patterns, parse

SQRT2 = math.sqrt(2.0)


def _stacked_schmidt(states, sequence, steps, record_steps=None):
    """S of every state at the recorded steps, one row per step, from the engine's stream."""
    densities = coin_densities(states, sequence, steps if record_steps is None else record_steps)
    return np.array([schmidt_norm_from(*d) for d in densities])


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


def test_initial_state_phi_just_below_zero_is_zero():
    # -1e-17 % 2pi rounds up to exactly 2pi, outside [0, 2pi); -0.0 is 0.
    for phi in (-1e-17, -0.0):
        canonical = InitialState(1.0, phi).phi
        assert canonical == 0.0 and math.copysign(1.0, canonical) == 1.0, phi


def test_sampling_mean_theta_matches_uniform_moments():
    thetas = sample_initial_states(10**5, seed=7)[:, 0]
    three_sigma = 3.0 * (math.pi / math.sqrt(12.0)) / math.sqrt(len(thetas))
    assert abs(thetas.mean() - math.pi / 2) < three_sigma


def test_sampling_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_initial_states(0, seed=1)


@pytest.mark.parametrize("seed, error", [(None, TypeError), (1.5, TypeError), (-1, ValueError)])
def test_sampling_refuses_a_seed_that_is_not_a_non_negative_integer(seed, error):
    # None would draw from OS entropy, which no later run can reproduce.
    message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(error, match=message):
        sample_initial_states(2, seed)
    with pytest.raises(error, match=message):
        average_schmidt(parse("H"), 2, 2, seed)


# SeedSequence reads a seed as 32-bit words: one, two, three and four words,
# and more words than its pool of four (10**40 has five, 7**100 nine).
_ORACLE_SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**127 + 12345, 10**40, 7**100]


def _numpy_draw(count, seed):
    """The angles numpy.random draws: ``default_rng(seed)``'s theta block, then its phi block."""
    rng = default_rng(seed)
    return np.stack((rng.uniform(0.0, math.pi, count), rng.uniform(0.0, 2 * math.pi, count)), axis=1)


def test_sampling_is_numpys_pcg64_stream_bitwise():
    for seed in _ORACLE_SEEDS:
        for count in (1, 2, 3, 5, 127, 128, 129, 1000):
            assert sample_initial_states(count, seed).tobytes() == _numpy_draw(count, seed).tobytes(), (seed, count)
    # 16,384 and 100,000 samples take 4 and 25 blocks of BLOCK_ROWS.
    for count in (500, 2500, 16384, 100_000):
        assert sample_initial_states(count, 7).tobytes() == _numpy_draw(count, 7).tobytes(), count
    assert np.array_equal(sample_initial_states(3, np.uint64(2**64 - 1)), _numpy_draw(3, 2**64 - 1))


def test_blocked_draws_start_anywhere_in_the_stream(monkeypatch):
    # A block's angles are drawn from where the block starts in the stream:
    # from outputs 0, 1, n - 3, n and 2n they are numpy's draw, sliced.
    # Under a patched BLOCK_ROWS the sweep's blocks, a partial last block
    # included, join into the whole draw.
    n = output.BLOCK_ROWS
    stream = experiments._seeded_stream(11)
    for first in (0, 1, n - 3, n, 2 * n):
        for count in (1, 5, n):
            expected = default_rng(11).uniform(0.0, math.pi, first + count)[first:]
            assert experiments._uniforms(stream, first, count, math.pi).tobytes() == expected.tobytes()
    monkeypatch.setattr(output, "BLOCK_ROWS", 1000)
    blocks = list(experiments._angle_blocks(2500, 11))
    assert [(rows.start, len(thetas), len(phis)) for rows, thetas, phis in blocks] == [
        (0, 1000, 1000), (1000, 1000, 1000), (2000, 500, 500)]
    joined = np.concatenate([np.stack((thetas, phis), axis=1) for _, thetas, phis in blocks])
    assert joined.tobytes() == _numpy_draw(2500, 11).tobytes()


def test_draw_memory_is_one_block():
    # 100,000 samples of angles would take 1.5 MiB; the blocks hold one
    # BLOCK_ROWS block of angles and the stream's limb arithmetic at a time.
    # The first, small draw builds the step tables, kept for the next.
    list(experiments._angle_blocks(10, 1))
    tracemalloc.start()
    try:
        for _ in experiments._angle_blocks(100_000, 1):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# coin_densities engine
# ---------------------------------------------------------------------------


def test_trajectories_bitwise_independent_of_batch_composition():
    # Each sample's S is elementwise arithmetic on its own angles, so any
    # sub-batch or reordering gives bitwise the same per-sample values.
    states = sample_initial_states(300, seed=5)
    sequence = parse("XHF")
    baseline = _stacked_schmidt(states, sequence, 12)
    order = np.random.default_rng(0).permutation(len(states))
    permuted = _stacked_schmidt(states[order], sequence, 12)
    assert np.array_equal(permuted, baseline[:, order])
    for part in (slice(0, 1), slice(0, 7), slice(5, 69), slice(1, 300), slice(None, None, 3)):
        other = _stacked_schmidt(states[part], sequence, 12)
        assert np.array_equal(other, baseline[:, part])
    as_list = [[float(theta), float(phi)] for theta, phi in states]
    assert np.array_equal(_stacked_schmidt(as_list, sequence, 12), baseline)
    assert np.array_equal(_stacked_schmidt(states[::-1], sequence, 12), baseline[:, ::-1])
    # Batches of 256 KiB of complex values and more (numpy computes some
    # products of such temporaries in place) give the same bits as well.
    large = np.concatenate((states, sample_initial_states(20_000, seed=6)))
    assert np.array_equal(_stacked_schmidt(large, sequence, 12, [12])[0, :300], baseline[11])


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
        values = _stacked_schmidt(angles, sequence, 20)
        for i, initial in enumerate(states):
            for t in range(1, 21):
                worst = max(worst, abs(values[t - 1, i] - _dense_schmidt(initial, sequence, t)))
    assert worst < 1e-14


def test_trajectories_reject_bad_angle_arrays():
    for bad in ([[0.5, np.nan]], [[-0.1, 0.0]], [[math.pi + 1e-9, 0.0]], [[np.inf, 1.0]]):
        with pytest.raises(ValueError, match="theta in \\[0, pi\\]"):
            _stacked_schmidt(np.array(bad), parse("H"), 3)
    for bad in (np.array([0.5, 1.0, 2.0]), np.full((3, 3), 0.5)):
        with pytest.raises(ValueError, match="shape \\(N, 2\\)"):
            _stacked_schmidt(bad, parse("H"), 3)


def test_trajectories_record_steps_subset():
    states = sample_initial_states(20, seed=5)
    full = _stacked_schmidt(states, parse("XXH"), 10)
    subset = _stacked_schmidt(states, parse("XXH"), 10, record_steps=[3, 10])
    np.testing.assert_array_equal(subset[0], full[2])
    np.testing.assert_array_equal(subset[1], full[9])


def test_coin_densities_walk_stops_at_the_last_recorded_step(monkeypatch):
    # Each recorded step's QR reads only the positions that step reaches, so
    # the recorded steps' bits are those of the full run, but no step after
    # the last one is walked.
    states = sample_initial_states(300, seed=8)
    full = list(coin_densities(states, parse("MMF"), 40))
    yields, basis_walk = [], walk.basis_walk

    def counted(*args):
        for psi in basis_walk(*args):
            yields.append(None)
            yield psi

    monkeypatch.setattr(walk, "basis_walk", counted)
    subset = list(coin_densities(states, parse("MMF"), [3, 11]))
    assert len(yields) == 11
    for step, expected in zip(subset, (full[2], full[10]), strict=True):
        for values, reference in zip(step, expected, strict=True):
            np.testing.assert_array_equal(values, reference)


@pytest.mark.parametrize("recorded", [[1], [1, 2, 7], [1, 2, 7, 50], [140]])
def test_channel_factors_keep_the_total_population(recorded):
    # P0 + P1 = I on the engine's own output: with [A0 A1] = Q [R0 R1],
    # R0^dag R0 + R1^dag R1 = A0^dag A0 + A1^dag A1, the identity for a walk
    # that keeps every initial coin normalized.
    factors = _channel_factors(enumerate_patterns("HFMX", 3), recorded)
    assert factors.shape == (76, len(recorded), 3 if recorded == [1] else 4, 4)
    r0, r1 = factors[..., :2], factors[..., 2:]
    gram = np.einsum("...ki,...kj->...ij", r0.conj(), r0) + np.einsum("...ki,...kj->...ij", r1.conj(), r1)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-13


@pytest.mark.parametrize("t", [1, 2, 3, 7, 20, 60])
def test_channel_factors_at_t_are_those_of_a_walk_of_t_steps(t):
    # Each recorded step's QR reads only the 2t+1 positions its light cone
    # reaches, so R at t does not depend on how far the walk goes: bitwise,
    # sign bits included, with the rows past a short R zero.
    patterns = enumerate_patterns("HFMX", 3)
    alone = _channel_factors(patterns, [t])[:, 0]
    for length in (t + 5, 140):
        walked_on = _channel_factors(patterns, [t, length])[:, 0]
        assert walked_on[:, : alone.shape[1]].tobytes() == alone.tobytes(), length
        assert not walked_on[:, alone.shape[1]:].any()


def test_coin_densities_at_t_do_not_depend_on_steps():
    states = sample_initial_states(500, seed=4)
    for label in ("MMF", "HXMFMX", "HHH", "FMX", "HFX"):
        for t in (1, 2, 3, 7, 20, 60):
            long_walk, _ = coin_densities(states, parse(label), [t, 140])
            (short_walk,) = coin_densities(states, parse(label), [t])
            for values, reference in zip(long_walk, short_walk, strict=True):
                assert np.array_equal(values, reference), (label, t)


def test_trajectories_record_steps_validation():
    states = sample_initial_states(2, seed=1)
    for bad in ([], [0], [3, 2]):
        with pytest.raises(ValueError):
            _stacked_schmidt(states, parse("H"), 10, record_steps=bad)


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
    traj = _stacked_schmidt(sample_initial_states(50, seed=3), parse("MMF"), 15)
    np.testing.assert_array_equal(a.mean_s, traj.mean(axis=1))
    np.testing.assert_array_equal(a.std_s, traj.std(axis=1))


def test_average_mean_within_physical_bounds():
    trajectory = average_schmidt(parse("HFX"), 25, 80, seed=9)
    assert np.all(trajectory.mean_s >= 1.0 - 1e-12)
    assert np.all(trajectory.mean_s <= SQRT2 + 1e-12)
    assert np.all(np.diff(trajectory.steps) > 0)


@pytest.mark.parametrize("run", [
    lambda: average_schmidt(parse("XXX"), 400, 5000, 1),
    lambda: compare_table([parse("XXX")], range(1, 401), 5000, 1),
    lambda: compare_table(enumerate_patterns("HFMX", 3), [3], 20000, 1),
], ids=["average", "compare", "compare-candidates"])
def test_average_memory_is_bounded_by_samples(run):
    # 400 steps x 5000 samples of S alone would take 16 MB; reducing each
    # step as it comes keeps the peak at a few (N,) arrays.
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _counted_calls(monkeypatch, name="_channel_reduction"):
    """A list that grows by one at every call of ``experiments.<name>``."""
    calls, func = [], getattr(experiments, name)

    def counted(*args):
        calls.append(None)
        return func(*args)

    monkeypatch.setattr(experiments, name, counted)
    return calls


@pytest.mark.parametrize("block_rows", [164, 492, 1000, 4096])
def test_sampled_sweep_is_bitwise_the_same_at_every_sample_block_size(monkeypatch, block_rows):
    # 2,500 samples in blocks of 1000 leave a partial last block; 4096 is one
    # block.  Each sample's S is elementwise arithmetic and the mean and std
    # run over the whole buffer, so both equal a single whole block bitwise.
    # BLOCK_ROWS also sizes candidate blocks: at 20 steps a candidate's walk
    # state is 4 * 41 = 164 values, so 164 and 492 walk 1 and 3 of the 4
    # candidates at a time, and the others all 4 together.  The count of
    # reductions shows the patched size reaches every sample block.
    sequences = [parse("MMF"), parse("XXH"), parse("HFX"), parse("H")]
    recorded = [1, 3, 7, 20]
    monkeypatch.setattr(output, "BLOCK_ROWS", 2500)
    whole = _sampled_sweep(sequences, recorded, 2500, 3)
    monkeypatch.setattr(output, "BLOCK_ROWS", block_rows)
    calls = _counted_calls(monkeypatch)
    mean_s, std_s = _sampled_sweep(sequences, recorded, 2500, 3)
    assert len(calls) == 4 * 4 * math.ceil(2500 / block_rows)
    assert mean_s.shape == std_s.shape == (4, 4)
    np.testing.assert_array_equal(mean_s, whole[0])
    np.testing.assert_array_equal(std_s, whole[1])


def test_sampled_sweep_memory_is_its_coins_and_s():
    # The sweep holds 24 B of coins and 8 B of S per sample, and the 16 B of
    # drawn angles only until the coins are built, one block at a time:
    # 100,000 samples peak near 3.9 MiB.  Building the coins whole from the
    # draw, with full-size temporaries, peaked at 5.3 MiB.  The first,
    # small call keeps numpy's one-time imports out of the trace.
    average_schmidt(parse("XXX"), 5, 10, 1)
    tracemalloc.start()
    try:
        average_schmidt(parse("XXX"), 5, 100_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_coin_densities_are_bitwise_the_same_at_every_block_size(monkeypatch):
    # 2,500 states in blocks of 1000 leave a partial last block; each state's
    # values are elementwise arithmetic on its own coin, so they equal those
    # of a single whole block bitwise, the poles included.
    states = sample_initial_states(2500, 4)
    states[:4, 0] = [0.0, math.pi, 0.0, math.pi]
    monkeypatch.setattr(output, "BLOCK_ROWS", 2500)
    whole = list(coin_densities(states, parse("MMF"), 12))
    monkeypatch.setattr(output, "BLOCK_ROWS", 1000)
    calls = _counted_calls(monkeypatch)
    blocked = list(coin_densities(states, parse("MMF"), 12))
    assert len(calls) == 12 * math.ceil(2500 / 1000)
    assert len(blocked) == len(whole) == 12
    for step, expected in zip(blocked, whole):
        for values, reference in zip(step, expected):
            assert values.shape == (2500,)
            np.testing.assert_array_equal(values, reference)


def test_coin_densities_memory_is_a_few_arrays_per_state():
    # Reduced BLOCK_ROWS states at a time, a step holds its three outputs
    # (32 B a state) and one block of temporaries: with the coins and the
    # step the consumer still holds, about 90 B a state.  Reducing all
    # 100,000 states at once peaked at 14.5 MiB.
    states = sample_initial_states(100_000, 1)
    tracemalloc.start()
    try:
        for _ in coin_densities(states, parse("MMF"), 20):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# log_fit
# ---------------------------------------------------------------------------


def _synthetic(a, b, steps=60):
    t = np.arange(1, steps + 1)
    return AverageTrajectory(steps=t, mean_s=a * np.log(t) + b, std_s=np.zeros(steps))


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


def test_log_fit_takes_a_numpy_integer_as_one_target():
    trajectory = _synthetic(0.1, 1.2)
    expected = log_fit(trajectory, t_min=1, extrapolate_to=400)
    for target in (np.int64(400), np.int32(400), np.array(400)):
        assert log_fit(trajectory, t_min=1, extrapolate_to=target) == expected
    last = trajectory.steps[-1]
    assert log_fit(trajectory, t_min=1, extrapolate_to=last) == log_fit(trajectory, t_min=1, extrapolate_to=int(last))
    with pytest.raises(ValueError, match="extrapolation targets must be >= 1"):
        log_fit(trajectory, t_min=1, extrapolate_to=np.int64(0))


# ---------------------------------------------------------------------------
# grid groups / phase independence
# ---------------------------------------------------------------------------


def _grid(label, t, theta_steps, phi_steps):
    """Both axes and the (theta_steps, phi_steps) S values at step t, from the grid groups."""
    theta_axis, phi_axis = _grid_axes(theta_steps, phi_steps)
    values = np.full((theta_steps, phi_steps), np.nan)
    for column, rows, group in _grid_groups(parse(label), [t], theta_axis, phi_axis):
        assert column == 0
        values[rows] = group
    return theta_axis, phi_axis, values


def _expanded_cells(theta_steps, phi_steps):
    """The (theta_steps * phi_steps, 2) array of grid cells, theta-major."""
    theta_axis, phi_axis = _grid_axes(theta_steps, phi_steps)
    return np.stack(np.meshgrid(theta_axis, phi_axis, indexing="ij"), axis=-1).reshape(-1, 2)


def test_grid_axes_and_shape():
    theta_axis, phi_axis, values = _grid("XXH", 4, 5, 8)
    assert values.shape == (5, 8) and np.all(np.isfinite(values))
    assert theta_axis[0] == 0.0 and theta_axis[-1] == pytest.approx(math.pi)
    assert phi_axis[0] == 0.0 and phi_axis[-1] < 2 * math.pi


def test_grid_requires_two_samples_per_axis():
    with pytest.raises(ValueError):
        _grid("XXH", 4, 1, 8)


def test_xxh_grid_rows_are_phi_constant():
    _, _, values = _grid("XXH", 10, 9, 12)
    spread = np.max(values, axis=1) - np.min(values, axis=1)
    assert np.max(spread) < 1e-10


def test_pole_rows_are_phi_constant_for_any_sequence():
    # phi is physically irrelevant when theta is 0 or pi
    _, _, values = _grid("HHH", 6, 5, 10)
    for row in (0, -1):
        assert np.max(values[row]) - np.min(values[row]) < 1e-12


def test_fourier_grid_is_phase_shifted_hadamard_grid():
    # S_FFF(theta, phi) = S_HHH(theta, phi + pi/2): the F coin acts as a
    # phase-shifted H.  On a 12-point phi axis, +pi/2 is a roll of 3 cells.
    _, _, grid_h = _grid("HHH", 5, 7, 12)
    _, _, grid_f = _grid("FFF", 5, 7, 12)
    np.testing.assert_allclose(grid_f, np.roll(grid_h, -3, axis=1), atol=1e-10)


# (37, 1000): 4-row groups, the last one partial.  (3, 16389): more phi
# cells than BLOCK_ROWS, so one theta row per group.
@pytest.mark.parametrize("theta_steps, phi_steps", [(37, 1000), (3, 16389)])
@pytest.mark.parametrize("label", ["HHH", "FMX", "XXH"])
def test_grid_groups_are_bitwise_the_expanded_cells(monkeypatch, label, theta_steps, phi_steps):
    # Coins taken from the axes add no drift: every cell equals, exactly, the
    # value coin_densities gives it among the expanded (theta, phi) cells, at
    # every recorded step.  Each group of theta rows builds its coins once
    # and yields one block per recorded step.
    recorded = [1, 4, 7]
    cells = _expanded_cells(theta_steps, phi_steps)
    expected = [schmidt_norm_from(*d).reshape(theta_steps, phi_steps)
                for d in coin_densities(cells, parse(label), recorded)]
    built = _counted_calls(monkeypatch, "_initial_coins")
    theta_axis, phi_axis = _grid_axes(theta_steps, phi_steps)
    seen = []
    for column, rows, group in _grid_groups(parse(label), recorded, theta_axis, phi_axis):
        seen.append((column, rows.start, rows.stop))
        assert group.shape == expected[column][rows].shape
        assert np.all(group == expected[column][rows])
    groups = [(rows.start, rows.stop) for rows in output._blocks(theta_steps, phi_steps)]
    assert sorted(seen) == sorted((column, *rows) for column in range(3) for rows in groups)
    assert len(built) == len(groups) == {37: 10, 3: 3}[theta_steps]


def test_certificate_memory_does_not_grow_with_the_grid():
    # One (N, 2) angles array of this 361 x 720 grid alone would take 4 MiB;
    # the certificate holds one group of theta rows at a time.
    tracemalloc.start()
    try:
        phase_independence_certificate(parse("HHH"), 3, 361, 720)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# (37, 1000): 4-row groups.  (3, 5000): one theta row per group.
@pytest.mark.parametrize("theta_steps, phi_steps", [(37, 1000), (3, 5000)])
@pytest.mark.parametrize("label", ["HHH", "XXH"])
def test_certificate_over_many_groups_is_bitwise_the_expanded_cells(label, theta_steps, phi_steps):
    t_max = 5
    cells = _expanded_cells(theta_steps, phi_steps)
    expected = [
        np.max(np.abs(grid - grid[:, :1]))
        for grid in (schmidt_norm_from(*d).reshape(theta_steps, phi_steps)
                     for d in coin_densities(cells, parse(label), t_max))
    ]
    deviations = phase_independence_certificate(parse(label), t_max, theta_steps, phi_steps)
    assert np.array_equal(deviations, expected)


@pytest.mark.parametrize("t_max", [0, -1])
def test_certificate_rejects_steps_below_one(t_max):
    with pytest.raises(ValueError, match=f"steps must be >= 1, got {t_max}"):
        phase_independence_certificate(parse("HHH"), t_max)


@pytest.mark.parametrize("t_max", [3, 0, -1])
def test_certificate_checks_the_grid_axes_first(t_max):
    with pytest.raises(ValueError, match="grid axes need >= 2 samples, got theta_steps=1"):
        phase_independence_certificate(parse("HHH"), t_max, theta_samples=1)


@pytest.mark.parametrize("axis", ["theta_samples", "phi_samples"])
def test_certificate_refuses_an_axis_numpy_cannot_build(axis):
    # np.linspace cannot build 2**63 samples: it raises IndexError for theta
    # and returns an empty phi axis.
    with pytest.raises(ValueError, match=r"grid axes need <= \d+ samples"):
        phase_independence_certificate(parse("HHH"), 3, **{axis: 2**63})


def test_hxx_is_maximal_on_the_whole_grid_at_steps_4_and_5_only():
    # The abstract's "maximally entangled states in some cases", for HXX: on
    # the 37 x 72 (theta, phi) grid every initial state reaches S = sqrt(2)
    # at t = 4 and 5, and at t = 3 and 6 some do not.
    worst = {t: np.max(np.abs(_grid("HXX", t, 37, 72)[2] - SQRT2)) for t in (3, 4, 5, 6)}
    assert worst[4] < 1e-12 and worst[5] < 1e-12
    assert worst[3] > 0.4 and worst[6] > 0.04


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


def test_parrondo_means_are_compare_table_means():
    # Fairness rule: the same sequences, step, samples and seed give bitwise
    # the means that compare_table ranks.
    sequences = [parse("MMF"), parse("M"), parse("F")]
    report = parrondo_check(*sequences, t=30, samples=200, seed=5)
    means = {r.sequence_label: r.mean_s for r in compare_table(sequences, [30], samples=200, seed=5)}
    assert (report.mean_combined, report.mean_a, report.mean_b) == (means["MMF"], means["M"], means["F"])


def test_rank_sequences_orders_by_mean():
    rows = compare_table([parse("XXH"), parse("HHH"), parse("XXX")], [3],
                         samples=200, seed=8)
    assert rows[0].sequence_label == "XXH"
    assert rows[0].mean_s == pytest.approx(SQRT2, abs=1e-10)
    assert rows[0].mean_s >= rows[1].mean_s >= rows[2].mean_s


def test_rank_single_candidate():
    rows = compare_table([parse("H")], [4], samples=30, seed=2)
    assert len(rows) == 1
    assert rows[0].sequence_label == "H"


def test_xxh_family_members_rank_identically():
    rows = compare_table([parse("XXH"), parse("XXF"), parse("XXM")], [14],
                         samples=150, seed=6)
    means = [row.mean_s for row in rows]
    assert max(means) - min(means) < 1e-10
    # exact ties fall back to lexicographic labels
    if means[0] == means[1] == means[2]:
        assert [r.sequence_label for r in rows] == ["XXF", "XXH", "XXM"]


def test_compare_table_multi_step_ordering():
    rows = compare_table([parse("XXH"), parse("XXX")], [3, 7], samples=60, seed=3)
    assert [(r.t, r.sequence_label) for r in rows][:2] == [(3, "XXH"), (3, "XXX")]
    assert all(rows[i].t <= rows[i + 1].t for i in range(len(rows) - 1))
    for row in rows:
        assert 1.0 / SQRT2 - 1e-12 <= row.mean_s / SQRT2 <= 1.0 + 1e-12


def test_candidates_bitwise_independent_of_their_batch():
    # Candidates walk together in blocks of BLOCK_ROWS complex values of walk
    # state, 4 * (2*steps + 1) per candidate; each one's means are bitwise
    # those it gets walking alone, and do not depend on which candidates
    # share its block.
    candidates = enumerate_patterns("HFMX", 3)
    assert len(candidates) == 76
    per_block = output.BLOCK_ROWS // (4 * (2 * 20 + 1))
    assert 1 <= per_block < len(candidates) and len(candidates) % per_block != 0

    def means(sequences):
        return {(r.sequence_label, r.t): r.mean_s
                for r in compare_table(sequences, [7, 20], samples=64, seed=1)}

    batched = means(candidates)
    assert len(batched) == 2 * len(candidates)
    alone = {}
    for seq in candidates:
        alone.update(means([seq]))
    reversed_order = means(candidates[::-1])
    for key, value in batched.items():
        assert alone[key] == value, key
        assert reversed_order[key] == value, key


def test_compare_table_mean_at_t_does_not_depend_on_other_steps():
    candidates = enumerate_patterns("HFMX", 3)
    alone = {r.sequence_label: r.mean_s for r in compare_table(candidates, [7], 1000, 1)}
    beside = {r.sequence_label: r.mean_s for r in compare_table(candidates, [7, 140], 1000, 1) if r.t == 7}
    assert beside == alone


def test_compare_table_walks_a_repeated_label_once():
    rows = compare_table([parse("XXH"), parse("H"), parse("xxh")], [3, 5], samples=30, seed=2)
    assert sorted((r.t, r.sequence_label) for r in rows) == [
        (3, "H"), (3, "XXH"), (5, "H"), (5, "XXH")]


def test_compare_table_requires_candidates_and_steps():
    with pytest.raises(ValueError):
        compare_table([], [3], samples=10, seed=1)
    with pytest.raises(ValueError):
        compare_table([parse("H")], [], samples=10, seed=1)
