import numpy as np
import pytest

from parrondoqw.coins import named_coin
from parrondoqw.sequences import CoinSequence, enumerate_patterns, parse


def test_parse_strips_trailing_ellipsis():
    assert parse("XXH...").pattern == ("X", "X", "H")


def test_parse_single_lowercase_coin():
    seq = parse("h")
    assert seq.pattern == ("H",)
    assert seq.label == "H"


def test_parse_rejects_illegal_symbols():
    for bad in ("XQZ", "", "...", "X X", "XX..H"):
        with pytest.raises(ValueError):
            parse(bad)


def test_parse_label_round_trip():
    for label in ("XXH", "H", "MMF", "XHXH"):
        assert parse(label).label == label
        assert parse(parse(label).label).pattern == parse(label).pattern


def test_coin_at_follows_one_based_repeating_pattern():
    seq = parse("XXH")
    np.testing.assert_array_equal(seq.coin_at(1), named_coin("X"))
    np.testing.assert_array_equal(seq.coin_at(2), named_coin("X"))
    np.testing.assert_array_equal(seq.coin_at(3), named_coin("H"))
    np.testing.assert_array_equal(seq.coin_at(4), named_coin("X"))
    np.testing.assert_array_equal(seq.coin_at(6), named_coin("H"))


def test_coin_at_constant_sequence():
    np.testing.assert_array_equal(parse("H").coin_at(1000), named_coin("H"))


def test_coin_at_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        parse("XXH").coin_at(0)


def test_coin_at_is_periodic():
    seq = parse("XHF")
    for i in range(1, 30):
        np.testing.assert_array_equal(seq.coin_at(i), seq.coin_at(i + len(seq.pattern)))


def test_repetition_multiples_generate_identical_streams():
    for short, long in (("H", "HH"), ("XH", "XHXH")):
        for i in range(1, 101):
            np.testing.assert_array_equal(parse(short).coin_at(i), parse(long).coin_at(i))


def test_sequence_requires_known_coins():
    with pytest.raises(ValueError):
        CoinSequence(("H", "Q"))
    with pytest.raises(ValueError):
        CoinSequence(())


def test_single_coin_detection():
    assert parse("H").is_single_coin()
    assert parse("HH").is_single_coin()
    assert not parse("XH").is_single_coin()


def test_enumerate_period_one():
    labels = [s.label for s in enumerate_patterns("HX", 1)]
    assert labels == ["H", "X"]


def test_enumerate_period_two_drops_repetitions():
    labels = [s.label for s in enumerate_patterns("HX", 2)]
    # HH and XX collapse onto H and X; rotations HX / XH stay distinct
    assert labels == ["H", "X", "HX", "XH"]


def test_enumerate_period_three_contains_studied_sequences():
    labels = {s.label for s in enumerate_patterns("HFMX", 3)}
    for wanted in ("XXH", "XHH", "HHX", "MMF", "FFM"):
        assert wanted in labels


def test_enumerate_counts_primitive_patterns():
    # 4 singles, 4^2-4 primitive pairs, 4^3-4 primitive triples
    assert len(enumerate_patterns("HFMX", 3)) == 4 + 12 + 60


def test_enumerate_guards():
    with pytest.raises(ValueError):
        enumerate_patterns("HX", 7)
    with pytest.raises(ValueError):
        enumerate_patterns("HX", 0)
    with pytest.raises(ValueError):
        enumerate_patterns("HQ", 2)
    with pytest.raises(ValueError):
        enumerate_patterns("HH", 2)
