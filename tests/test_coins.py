import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondoqw.coins import ALPHABET, named_coin
from parrondoqw.experiments import coin_densities
from parrondoqw.oracles import NAMED_COIN_PARAMS, CoinParams, build_coin, verify_unitarity
from parrondoqw.sequences import parse

INV_SQRT2 = 1.0 / math.sqrt(2.0)

EXPECTED = {
    "H": np.array([[1, 1], [1, -1]]) * INV_SQRT2,
    "F": np.array([[1, 1j], [1j, 1]]) * INV_SQRT2,
    "M": np.array([[1j, 1], [-1, -1j]]) * INV_SQRT2,
    "X": np.array([[0, 1], [1, 0]]),
}

finite_angle = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@pytest.mark.parametrize("name", list(ALPHABET))
def test_named_coin_matches_explicit_form(name):
    np.testing.assert_allclose(named_coin(name), EXPECTED[name], atol=1e-15)


@pytest.mark.parametrize("name", list(ALPHABET))
def test_named_coin_matches_parameterized_form(name):
    built = build_coin(NAMED_COIN_PARAMS[name])
    np.testing.assert_allclose(built, named_coin(name), atol=1e-15)


def test_named_coin_case_insensitive():
    np.testing.assert_array_equal(named_coin("h"), named_coin("H"))
    np.testing.assert_array_equal(named_coin("x"), named_coin("X"))


def test_no_caller_can_change_a_coin():
    sequence = parse("H")
    before = [d.copy() for d in next(coin_densities([[1.0, 0.5]], sequence, 1))]
    for matrix in (named_coin("H"), sequence.coin_at(1)):
        with pytest.raises(ValueError, match="read-only"):
            matrix[:] = np.eye(2)
    after = next(coin_densities([[1.0, 0.5]], sequence, 1))
    for old, new in zip(before, after):
        assert old.tobytes() == new.tobytes()


def test_unknown_coin_rejected():
    with pytest.raises(ValueError, match="unknown coin"):
        named_coin("Q")
    with pytest.raises(ValueError, match="unknown coin"):
        named_coin("HH")


def test_build_coin_hadamard_parameters():
    coin = build_coin(CoinParams(-math.pi / 2, math.pi / 4, -math.pi / 2, math.pi))
    np.testing.assert_allclose(coin, EXPECTED["H"], atol=1e-15)


def test_build_coin_identity_at_zero_angles():
    np.testing.assert_allclose(build_coin(CoinParams(0, 0, 0, 0)), np.eye(2), atol=0)


def test_build_coin_flip_is_alpha_independent():
    # cos(beta) = 0 removes every alpha-dependent entry
    base = build_coin(CoinParams(0.0, math.pi / 2, -math.pi / 2, math.pi))
    np.testing.assert_allclose(base, EXPECTED["X"], atol=1e-15)
    for alpha in (0.3, 1.2, math.pi / 2):
        shifted = build_coin(CoinParams(alpha, math.pi / 2, -math.pi / 2, math.pi))
        np.testing.assert_allclose(shifted, base, atol=1e-15)


def test_build_coin_rejects_non_finite_angles():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            build_coin(CoinParams(bad, 0, 0, 0))


def test_verify_unitarity_accepts_named_coins():
    for name in ALPHABET:
        assert verify_unitarity(named_coin(name))


def test_verify_unitarity_rejects_projector():
    assert not verify_unitarity(np.array([[1, 0], [0, 0]], dtype=complex))


def test_verify_unitarity_rejects_wrong_shape():
    assert not verify_unitarity(np.eye(3, dtype=complex))


def test_build_coin_unitary_over_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=4)
        coin = build_coin(CoinParams(*angles))
        assert verify_unitarity(coin)
        assert abs(abs(np.linalg.det(coin)) - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(alpha=finite_angle, beta=finite_angle, gamma=finite_angle, eta=finite_angle)
def test_build_coin_unitary_property(alpha, beta, gamma, eta):
    assert verify_unitarity(build_coin(CoinParams(alpha, beta, gamma, eta)))

