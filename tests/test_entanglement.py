import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondoqw.entanglement import MAX_SCHMIDT_NORM, eigenvalues_from, schmidt_norm_from
from parrondoqw.experiments import coin_densities, schmidt_trajectories
from parrondoqw.oracles import closed_form_oracle, dense_reference_evolve
from parrondoqw.sequences import parse
from parrondoqw.walk import InitialState

SQRT2 = math.sqrt(2.0)

theta_st = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
phi_st = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True, allow_nan=False)
pattern_st = st.lists(st.sampled_from("HFMX"), min_size=1, max_size=4)


def _densities_at(theta, phi, label, t):
    """(pop0, pop1, coherence) of one walk after ``t`` steps, as Python scalars."""
    *_, (pop0, pop1, coherence) = coin_densities([[theta, phi]], parse(label), t)
    return float(pop0[0]), float(pop1[0]), complex(coherence[0])


def _schmidt(pop0, pop1, coherence):
    return float(schmidt_norm_from(pop0, pop1, coherence))


# ---------------------------------------------------------------------------
# coin_densities
# ---------------------------------------------------------------------------


def test_product_state_record():
    # An X step only moves the coin-0 component: the walk stays a product state.
    pop0, pop1, coherence = _densities_at(0.0, 0.0, "X", 1)
    assert pop0 == 1.0
    assert pop1 == 0.0
    assert coherence == 0.0
    e_minus, e_plus = eigenvalues_from(pop0, pop1, coherence)
    assert _schmidt(pop0, pop1, coherence) == pytest.approx(1.0, abs=1e-15)
    assert e_minus == pytest.approx(0.0, abs=1e-15)
    assert e_plus == pytest.approx(1.0, abs=1e-15)


def test_disjoint_support_has_no_coherence():
    # X steps stream coin 0 right and coin 1 left: the two planes never overlap.
    pop0, pop1, coherence = _densities_at(math.pi / 2, 0.7, "X", 2)
    assert pop0 == pytest.approx(0.5)
    assert pop1 == pytest.approx(0.5)
    assert coherence == 0.0
    assert _schmidt(pop0, pop1, coherence) == pytest.approx(SQRT2, abs=1e-15)


def test_four_xxh_steps_coherence():
    # Hand-composing four steps gives coherence -e^{i phi} sin(theta)/4: the
    # only overlapping site is the origin, holding -sin(theta/2) e^{i phi}/sqrt(2)
    # in coin 0 and cos(theta/2)/sqrt(2) in coin 1.
    theta, phi = 1.1, 0.7
    pop0, _, coherence = _densities_at(theta, phi, "XXH", 4)
    expected = -np.exp(1j * phi) * math.sin(theta) / 4.0
    assert coherence == pytest.approx(expected, abs=1e-14)
    assert pop0 == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# eigenvalues_from / schmidt_norm_from
# ---------------------------------------------------------------------------


def test_schmidt_norm_maximal_for_balanced_incoherent():
    assert _schmidt(0.5, 0.5, 0j) == pytest.approx(SQRT2, abs=1e-15)


def test_schmidt_norm_product_state():
    assert _schmidt(1.0, 0.0, 0j) == pytest.approx(1.0, abs=1e-15)


def test_schmidt_norm_with_real_coherence():
    # E = 1/2 +- 1/4, so S = sqrt(1/4) + sqrt(3/4)
    assert eigenvalues_from(0.5, 0.5, 0.25 + 0j) == pytest.approx((0.25, 0.75), abs=1e-15)
    value = _schmidt(0.5, 0.5, 0.25 + 0j)
    assert value == pytest.approx(0.5 + math.sqrt(3.0) / 2.0, abs=1e-15)


def test_schmidt_norm_from_is_vectorized():
    pop0 = np.array([1.0, 0.5, 0.5])
    pop1 = 1.0 - pop0
    coherence = np.array([0j, 0j, 0.25 + 0j])
    values = schmidt_norm_from(pop0, pop1, coherence)
    np.testing.assert_allclose(
        values, [1.0, SQRT2, 0.5 + math.sqrt(3.0) / 2.0], atol=1e-15
    )


def test_radicand_clamp_absorbs_float_dips():
    # Slightly unphysical inputs (rounding artifacts) must not produce NaN.
    assert _schmidt(1.0 + 1e-16, -1e-16, 0j) == pytest.approx(1.0)
    assert math.isfinite(_schmidt(0.5, 0.5, 0.5 + 0.5j))
    e_minus, e_plus = eigenvalues_from(0.5, 0.5, 0.5 + 0.5j)
    assert e_minus == 0.0 and e_plus == 1.0


@settings(max_examples=40, deadline=None)
@given(theta=theta_st, phi=phi_st, pattern=pattern_st)
def test_record_invariants_along_walks(theta, phi, pattern):
    for pop0, pop1, coherence in coin_densities([[theta, phi]], parse("".join(pattern)), 8):
        pop0, pop1, coherence = float(pop0[0]), float(pop1[0]), complex(coherence[0])
        e_minus, e_plus = (float(e) for e in eigenvalues_from(pop0, pop1, coherence))
        schmidt = _schmidt(pop0, pop1, coherence)
        assert pop0 + pop1 == pytest.approx(1.0, abs=1e-12)
        assert e_minus + e_plus == pytest.approx(1.0, abs=1e-12)
        assert -1e-15 <= e_minus <= e_plus <= 1.0 + 1e-15
        assert 1.0 - 1e-12 <= schmidt <= SQRT2 + 1e-12
        bloch = (coherence.real, coherence.imag, 0.5 * (pop0 - pop1))
        bloch_len = math.sqrt(sum(c * c for c in bloch))
        assert bloch_len <= 0.5 + 1e-12
        assert e_minus == pytest.approx(0.5 - bloch_len, abs=1e-12)
        assert e_plus == pytest.approx(0.5 + bloch_len, abs=1e-12)
        assert schmidt == pytest.approx(math.sqrt(e_minus) + math.sqrt(e_plus), abs=1e-15)


def test_coin_densities_match_dense_position_sums():
    # The engine's populations and coherence equal the position sums of the
    # dense oracle's amplitudes.
    initial = InitialState(2.0, 0.4)
    vec = dense_reference_evolve(initial, parse("HF"), 6)
    amp0, amp1 = vec[0::2], vec[1::2]
    pop0, pop1, coherence = _densities_at(initial.theta, initial.phi, "HF", 6)
    assert pop0 == pytest.approx(float(np.sum(np.abs(amp0) ** 2)), abs=1e-15)
    assert pop1 == pytest.approx(float(np.sum(np.abs(amp1) ** 2)), abs=1e-15)
    assert coherence == pytest.approx(complex(np.sum(amp0 * np.conj(amp1))), abs=1e-15)


# ---------------------------------------------------------------------------
# closed_form_oracle
# ---------------------------------------------------------------------------


def test_oracle_xxh_family_is_maximal_at_steps_3_and_5():
    for tag in ("XXH", "XXF", "XXM"):
        for theta, phi in ((0.0, 0.0), (1.0, 2.0), (math.pi, 5.0)):
            assert closed_form_oracle(tag, 3, InitialState(theta, phi)) == SQRT2
            assert closed_form_oracle(tag, 5, InitialState(theta, phi)) == SQRT2


def test_oracle_one_step_hadamard_at_equator():
    value = closed_form_oracle("H", 1, InitialState(math.pi / 2, 0.0))
    assert value == pytest.approx(1.0, abs=1e-15)


def test_oracle_fourier_and_miracle_coincide():
    for theta, phi in ((0.3, 0.9), (2.0, 4.4)):
        initial = InitialState(theta, phi)
        assert closed_form_oracle("F", 1, initial) == pytest.approx(
            closed_form_oracle("M", 1, initial), abs=1e-15
        )


def test_oracle_matches_simulation_on_sample_points():
    for tag, t in (("XXH", 1), ("XXH", 2), ("XXH", 4), ("XXH", 6), ("H", 1), ("F", 1), ("M", 1)):
        for theta, phi in ((0.4, 1.3), (2.5, 5.9)):
            initial = InitialState(theta, phi)
            simulated = schmidt_trajectories([[theta, phi]], parse(tag), t, record_steps=[t])[0, 0]
            assert simulated == pytest.approx(
                closed_form_oracle(tag, t, initial), abs=1e-12
            )


def test_oracle_rejects_pairs_outside_table():
    initial = InitialState(1.0, 1.0)
    with pytest.raises(ValueError, match="closed form"):
        closed_form_oracle("XXH", 7, initial)
    with pytest.raises(ValueError, match="closed form"):
        closed_form_oracle("H", 2, initial)
    with pytest.raises(ValueError, match="closed form"):
        closed_form_oracle("XH", 1, initial)


def test_oracle_accepts_lowercase_tags():
    assert closed_form_oracle("xxh", 3, InitialState(1.0, 0.0)) == SQRT2


def test_max_schmidt_norm_constant():
    assert MAX_SCHMIDT_NORM == pytest.approx(SQRT2)
