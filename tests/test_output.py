import math

import numpy as np
import pytest

from parrondoqw.output import BLOCK_ROWS, format_column, write_csv


def one_value(x):
    """The number rule for one cell, as the row-at-a-time writer applied it."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    return f"{x:.11e}" if abs(x) < 1e-3 else f"{x:.12g}"


EDGE_VALUES = [
    0.0, -0.0, 1e-3, -1e-3, math.nextafter(1e-3, 0.0), -math.nextafter(1e-3, 0.0),
    5e-324, -2.2250738585072014e-309, math.nan, math.inf, -math.inf, 1e16, -1e16,
    0.5, 1.0, 123456789012.5, 1.41421356237309515,
]


def test_format_column_edge_values():
    assert format_column(np.array(EDGE_VALUES)) == [one_value(x) for x in EDGE_VALUES]
    assert format_column(EDGE_VALUES) == [one_value(x) for x in EDGE_VALUES]


def test_format_column_random_magnitudes():
    rng = np.random.default_rng(7)
    n = 100_000
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20.0, 20.0, n)
    assert format_column(values) == [one_value(x) for x in values.tolist()]


def test_format_column_integers_and_strings():
    ints = [1, -7, 0, 2**62]
    assert format_column(np.array(ints)) == ["1", "-7", "0", str(2**62)]
    assert format_column(ints) == ["1", "-7", "0", str(2**62)]
    texts = ["XXH", "0.5", "abc"]
    assert format_column(texts) is texts
    assert format_column([]) == []


def test_write_csv_across_block_boundaries(tmp_path):
    n = 2 * BLOCK_ROWS + 3
    rng = np.random.default_rng(3)
    labels = [f"L{i % 11}" for i in range(n)]
    steps = np.arange(1, n + 1)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    values[::97] = 0.0
    out = tmp_path / "table.csv"
    write_csv(str(out), {"command": "test"}, {"label": labels, "t": steps, "x": values})
    expected = '# manifest: {"command": "test"}\nlabel,t,x\n' + "".join(
        f"{a},{one_value(b)},{one_value(c)}\n" for a, b, c in zip(labels, steps, values.tolist())
    )
    assert out.read_text() == expected


def test_write_csv_refuses_ragged_columns(tmp_path):
    out = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="columns differ in length"):
        write_csv(str(out), {}, {"a": [1, 2], "b": [1.0]})
    assert not out.exists()
