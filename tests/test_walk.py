import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondoqw.coins import named_coin
from parrondoqw.entanglement import schmidt_norm_from
from parrondoqw.experiments import coin_densities
from parrondoqw.oracles import InitialState, dense_reference_evolve
from parrondoqw.sequences import parse
from parrondoqw.walk import basis_walk

SQRT2 = math.sqrt(2.0)

theta_st = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
phi_st = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True, allow_nan=False)
pattern_st = st.lists(st.sampled_from("HFMX"), min_size=1, max_size=4)


def _planes(initial, sequence, steps):
    """The coin-0 and coin-1 planes of the walk from ``initial`` after ``steps`` steps, from the basis walk."""
    *_, (psi,) = basis_walk([sequence], steps)
    c0, c1 = initial.coin_amplitudes()
    return c0 * psi[:, 0] + c1 * psi[:, 1]


def _vector(initial, sequence, steps):
    """The same walk in the dense oracle's ordering ``vec[2*(j+steps) + c]``."""
    amp0, amp1 = _planes(initial, sequence, steps)
    vec = np.empty(2 * amp0.size, dtype=np.complex128)
    vec[0::2] = amp0
    vec[1::2] = amp1
    return vec


# ---------------------------------------------------------------------------
# InitialState
# ---------------------------------------------------------------------------


def test_initial_state_theta_range_enforced():
    for bad in (-0.1, math.pi + 0.1):
        with pytest.raises(ValueError, match="theta"):
            InitialState(bad, 0.0)


def test_initial_state_phi_canonicalized():
    assert InitialState(1.0, -math.pi / 2).phi == pytest.approx(3 * math.pi / 2)
    assert InitialState(1.0, 2 * math.pi).phi == pytest.approx(0.0)


def test_initial_state_rejects_non_finite():
    with pytest.raises(ValueError):
        InitialState(math.nan, 0.0)
    with pytest.raises(ValueError):
        InitialState(1.0, math.inf)


# ---------------------------------------------------------------------------
# Initial coin amplitudes and the basis walk's window
# ---------------------------------------------------------------------------


def test_prepare_pure_coin0():
    assert InitialState(0.0, 1.23).coin_amplitudes() == (1.0, 0.0)
    amp0, amp1 = _planes(InitialState(0.0, 1.23), parse("XX"), 4)
    assert amp0.shape == amp1.shape == (9,)
    assert np.sum(np.abs(amp0) ** 2 + np.abs(amp1) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_prepare_pure_coin1():
    c0, c1 = InitialState(math.pi, 0.0).coin_amplitudes()
    assert abs(c1 - 1.0) < 1e-15
    assert abs(c0) < 1e-15


def test_prepare_equal_superposition_with_phase():
    c0, c1 = InitialState(math.pi / 2, math.pi / 2).coin_amplitudes()
    assert c0 == pytest.approx(1 / SQRT2)
    assert c1 == pytest.approx(1j / SQRT2)


def test_prepare_rejects_bad_step_budget():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            next(basis_walk([parse("H")], bad))


# ---------------------------------------------------------------------------
# One basis-walk step: psi[m, coin, basis, position], window -1..1
# ---------------------------------------------------------------------------


def test_apply_coin_flip():
    # After one step from basis |0>, +1 holds (coin|0>)[1] as coin 0 and -1
    # holds (coin|0>)[0] as coin 1: X sends all of |0> to |1>.
    (psi,), = basis_walk([parse("X")], 1)
    assert psi[0, 0, 2] == 1.0
    assert psi[1, 0, 0] == 0.0


def test_apply_coin_hadamard_column():
    (psi,), = basis_walk([parse("H")], 1)
    assert psi[0, 0, 2] == pytest.approx(1 / SQRT2)
    assert psi[1, 0, 0] == pytest.approx(1 / SQRT2)


def test_shift_moves_coin1_right_as_coin0():
    # X turns basis |0> into coin 1 at the origin; the shift moves it to +1 as coin 0.
    (psi,), = basis_walk([parse("X")], 1)
    assert psi[0, 0, 2] == 1.0
    assert not psi[1, 0].any()


def test_shift_moves_coin0_left_as_coin1():
    # X turns basis |1> into coin 0 at the origin; the shift moves it to -1 as coin 1.
    (psi,), = basis_walk([parse("X")], 1)
    assert psi[1, 1, 0] == 1.0
    assert not psi[0, 1].any()


def test_one_h_step_sends_basis_coin0_both_ways():
    # H|0> = (|0> + |1>)/sqrt2: the coin-1 half moves right as coin 0, the
    # coin-0 half moves left as coin 1, and nothing stays at the origin.
    (psi,), = basis_walk([parse("H")], 1)
    half = named_coin("H")[0, 0]
    assert half == pytest.approx(1 / SQRT2)
    np.testing.assert_array_equal(psi[:, 0], [[0, 0, half], [half, 0, 0]])


def test_full_x_step_streams_coin0_right():
    # X flips the coin whole and the shift flips it back, with no mixing:
    # basis coin |0> moves to +1 as coin 0, |1> to -1 as coin 1.
    (psi,), = basis_walk([parse("X")], 1)
    np.testing.assert_array_equal(psi[0], [[0, 0, 1], [0, 0, 0]])
    np.testing.assert_array_equal(psi[1], [[0, 0, 0], [1, 0, 0]])


def test_hadamard_step_from_pole_is_maximally_entangling():
    (pop0, pop1, coherence), = coin_densities([[0.0, 0.0]], parse("H"), 1)
    assert pop0[0] == pytest.approx(0.5, abs=1e-15)
    assert pop1[0] == pytest.approx(0.5, abs=1e-15)
    assert coherence[0] == 0.0
    assert schmidt_norm_from(pop0, pop1, coherence)[0] == pytest.approx(SQRT2, abs=1e-15)


def test_double_x_step_preserves_schmidt_norm():
    angles = np.array([(0.7, 1.1), (2.2, 4.0), (math.pi / 2, 0.0)])
    one, two = (schmidt_norm_from(*d) for d in coin_densities(angles, parse("X"), 2))
    np.testing.assert_allclose(two, one, rtol=0, atol=1e-14)


def test_six_xxh_steps_match_paper_value():
    (densities,) = coin_densities([[math.pi / 2, 0.3]], parse("XXH"), 6, record_steps=[6])
    value = schmidt_norm_from(*densities)[0]
    expected = (math.sqrt(5.0) + math.sqrt(3.0)) / (2.0 * SQRT2)
    assert value == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# basis_walk
# ---------------------------------------------------------------------------


def test_x_walk_streams_fully_right():
    amp0, amp1 = _planes(InitialState(0.0, 0.0), parse("X"), 5)
    assert amp0[5 + 5] == 1.0
    assert np.sum(np.abs(amp0) ** 2 + np.abs(amp1) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_three_xxh_steps_occupy_four_positions():
    amp0, amp1 = _planes(InitialState(1.0, 2.0), parse("XXH"), 3)
    occupied = (np.abs(amp0) > 1e-14) | (np.abs(amp1) > 1e-14)
    assert set(np.flatnonzero(occupied) - 3) == {3, 1, -1, -3}


def test_one_hadamard_step_is_normalized():
    (psi,), = basis_walk([parse("H")], 1)
    np.testing.assert_allclose(np.sum(np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2, axis=-1), 1.0,
                               rtol=0, atol=1e-15)


def test_evolve_yields_every_step():
    planes = list(basis_walk([parse("XH")], 7))
    assert len(planes) == 7
    assert all(psi.shape == (1, 2, 2, 15) for psi in planes)


def test_batched_walk_matches_each_sequence_alone():
    # Mixed periods, one longer than the walk: each candidate's planes are
    # bitwise those of its own walk.  The second batch's coin planes are
    # 8 x 2 x 1041 cells = 266,496 B, at or above numpy's 256 KiB threshold
    # for computing into a temporary in place, while each walk alone stays
    # below it, so a value must not depend on the size of its batch.
    batches = (
        (("X", "HXMFMXHHF", "XXH", "FM"), 7),
        (("X", "HXMFMXHHF", "XXH", "FM", "H", "MMF", "HFX", "XXXH"), 520),
    )
    for labels, steps in batches:
        sequences = [parse(label) for label in labels]
        alone = [basis_walk([sequence], steps) for sequence in sequences]
        for psi, *singles in zip(basis_walk(sequences, steps), *alone):
            for m, (single,) in enumerate(singles):
                np.testing.assert_array_equal(psi[m], single)


def test_basis_walk_needs_a_sequence():
    with pytest.raises(ValueError, match="at least one coin sequence"):
        next(basis_walk([], 3))


def test_evolve_rejects_nonpositive_steps():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            list(coin_densities([[0.0, 0.0]], parse("H"), bad))


# ---------------------------------------------------------------------------
# Invariants of the basis walk (property-based): they hold for every initial
# state at once, because the walk from coin c is A c.
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(pattern=pattern_st)
def test_norm_conserved_along_any_walk(pattern):
    # A0^dag A0 + A1^dag A1 = P0 + P1 = I: the walk is an isometry on the
    # initial coin, so every initial state stays normalized.
    for ((amp0, amp1),) in basis_walk([parse("".join(pattern))], 12):
        gram = amp0.conj() @ amp0.T + amp1.conj() @ amp1.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(pattern=pattern_st)
def test_support_confined_and_parity_respected(pattern):
    steps = 12
    positions = np.arange(-steps, steps + 1)
    for t, ((amp0, amp1),) in enumerate(basis_walk([parse("".join(pattern))], steps), start=1):
        outside = (np.abs(positions) > t) | ((positions - t) % 2 != 0)
        assert not amp0[:, outside].any()
        assert not amp1[:, outside].any()


@settings(max_examples=30, deadline=None)
@given(pattern=pattern_st)
def test_basis_walk_edge_cells_stay_empty(pattern):
    # The cells the shift fills with zeros (coin 0 at the left edge, coin 1
    # at the right edge) never hold amplitude, and before the last step
    # neither edge cell does, so no shift ever drops amplitude.
    steps = 12
    for t, ((amp0, amp1),) in enumerate(basis_walk([parse("".join(pattern))], steps), start=1):
        assert not amp0[:, 0].any() and not amp1[:, -1].any()
        if t < steps:
            assert not amp0[:, [0, -1]].any() and not amp1[:, [0, -1]].any()


@settings(max_examples=30, deadline=None)
@given(theta=theta_st, phi=phi_st)
def test_x_step_preserves_coin_populations(theta, phi):
    pop0, pop1, _ = zip(*coin_densities([[theta, phi]], parse("X"), 3))
    before = (math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2)
    for after0, after1 in zip(pop0, pop1):
        assert after0[0] == pytest.approx(before[0], abs=1e-14)
        assert after1[0] == pytest.approx(before[1], abs=1e-14)


# ---------------------------------------------------------------------------
# Dense reference oracle
# ---------------------------------------------------------------------------


def test_dense_reference_matches_hand_computed_hadamard_step():
    vec = dense_reference_evolve(InitialState(0.0, 0.0), parse("H"), 1)
    expected = np.array([0, 1 / SQRT2, 0, 0, 1 / SQRT2, 0], dtype=complex)
    np.testing.assert_allclose(vec, expected, atol=1e-15)


def test_dense_reference_matches_fast_path_for_xxh():
    initial = InitialState(1.4, 5.1)
    dense = dense_reference_evolve(initial, parse("XXH"), 10)
    np.testing.assert_allclose(_vector(initial, parse("XXH"), 10), dense, atol=1e-12)


def test_dense_reference_random_equivalence_sweep():
    rng = np.random.default_rng(99)
    for _ in range(10):
        label = "".join(rng.choice(list("HFMX"), size=rng.integers(1, 5)))
        initial = InitialState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        dense = dense_reference_evolve(initial, parse(label), 15)
        assert np.max(np.abs(_vector(initial, parse(label), 15) - dense)) < 1e-12


def test_dense_reference_step_guard():
    with pytest.raises(ValueError, match="dense reference"):
        dense_reference_evolve(InitialState(0.0, 0.0), parse("H"), 201)
    with pytest.raises(ValueError):
        dense_reference_evolve(InitialState(0.0, 0.0), parse("H"), 0)
