import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parrondoqw.cli import read_average_csv
from parrondoqw.output import BLOCK_ROWS, _blocks, format_column, write_csv


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
    assert format_column(texts) == texts
    assert format_column([]) == []


@pytest.mark.parametrize("ints", [
    np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]),
    np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64),
    np.array([-128, -1, 0, 127], dtype=np.int8),
], ids=["int64", "uint64", "int8"])
def test_format_column_integer_extremes(ints):
    assert format_column(ints) == [str(i) for i in ints.tolist()]


def test_format_column_list_of_str_takes_the_text_rule():
    # A list holding str is one text column: every cell comes back as str.
    assert format_column(["x", 1.5]) == ["x", "1.5"]


def test_format_column_booleans_print_as_integers():
    assert format_column(np.array([True, False, True])) == ["1", "0", "1"]


def test_text_array_column_is_the_list_column(tmp_path):
    # A numpy U array, which np.asarray makes of a list of str, is the same
    # text as the list, UTF-8 encoded.
    texts = ["MFM", "X", "é", ""]
    assert format_column(np.array(texts)) == texts
    written = []
    for name, column in ("list", texts), ("array", np.array(texts)):
        out = tmp_path / f"{name}.csv"
        write_csv(str(out), {}, {"a": column, "t": np.arange(len(texts))})
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("cells", [1, 164, 720, 16_389])
@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 10_000])
def test_blocks_tile_the_range_in_order(count, cells):
    # The items each slice cuts from range(count), concatenated, are the
    # range itself: no gap, no overlap, in order.  Every block is full but
    # the last, which holds at least one item.
    size = max(1, BLOCK_ROWS // cells)
    parts = [range(count)[block] for block in _blocks(count, cells)]
    assert [i for part in parts for i in part] == list(range(count))
    assert all(len(part) == size for part in parts[:-1])
    assert all(1 <= len(part) <= size for part in parts[-1:])


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


@pytest.mark.parametrize("later", [{"a": [3]}, {"x": [4], "y": [5], "z": [6]}, {"b": [4], "a": [3]}],
                         ids=["fewer", "other", "reordered"])
def test_write_csv_refuses_a_block_under_other_names(tmp_path, later):
    out = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=re.escape(f"{list(later)} are not the first block's ['a', 'b']")):
        write_csv(str(out), {}, iter([{"a": [1], "b": [2]}, later]))


@pytest.mark.parametrize("later", [{"a": [3]}, {"a": [3], "b": ["4,5"]}, {"a": [3], "b": [4, 5]}],
                         ids=["other-names", "separator", "ragged"])
def test_write_csv_refused_later_block_leaves_no_file(tmp_path, later):
    # The first block is written before a later one is refused: the file
    # must not stay behind looking like a whole table.
    out = tmp_path / "partial.csv"
    with pytest.raises(ValueError):
        write_csv(str(out), {}, iter([{"a": [1], "b": [2]}, later]))
    assert not out.exists()


def test_write_csv_refused_later_block_leaves_a_fifo_in_place(tmp_path):
    # Only a regular file is removed: a FIFO (like stdout, a pipe or a
    # device) stays what it was.  The reader is held open, so the writer's
    # open does not block and the first block fits the pipe's buffer.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(ValueError):
            write_csv(str(fifo), {}, iter([{"a": [1], "b": [2]}, {"a": [3]}]))
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 1024) == b"# manifest: {}\na,b\n1,2\n"
    finally:
        os.close(reader)


@pytest.mark.parametrize("separator", [",", "\r", "\n", "\0"], ids=["comma", "CR", "LF", "NUL"])
def test_text_cells_holding_a_separator_are_refused(tmp_path, separator):
    texts = [f"a{separator}b", "c"]
    for column in texts, np.array(texts):
        out = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="may not hold a comma, CR, LF or NUL"):
            write_csv(str(out), {}, {"x": column, "t": [1, 2]})
        assert not out.exists()
    for column in texts, np.array(texts):
        with pytest.raises(ValueError, match="may not hold a comma, CR, LF or NUL"):
            format_column(column)


def written_cells(tmp_path, values):
    """The cells of one float column as ``write_csv`` writes them."""
    out = tmp_path / "column.csv"
    write_csv(str(out), {}, {"x": values})
    return out.read_text().split("\n")[2:-1]


def midpoints_and_neighbours():
    """Doubles at and around decimal 12-digit midpoints, exponents 1e-3 .. 1e11.

    For each exponent, 7,000 random midpoints d.ddddddddddd5 x 10**e (the
    nearest double to each), then the doubles 2 ulps either side, near
    enough for the scaled value to round onto the tie, and 64 ulps either
    side, clear of it.
    """
    rng = np.random.default_rng(12)
    mids = np.array([float(f"{m}5e{e - 12}") for e in range(-3, 12)
                     for m in rng.integers(10**11, 10**12, 7_000).tolist()])
    down, up = mids, mids
    for _ in range(2):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
    far = 64 * np.spacing(mids)
    return np.concatenate([mids, down, up, mids - far, mids + far])


def test_number_rule_at_decimal_midpoints(tmp_path):
    values = midpoints_and_neighbours()
    assert len(values) == 5 * 105_000
    values[1::2] *= -1.0
    expected = [one_value(x) for x in values.tolist()]
    assert format_column(values) == expected
    assert written_cells(tmp_path, values) == expected


CARRIES = [
    9.999999999995, 99999999999.95, 999999999999.5, 999999999999.4, 999999999999.7,
    9.9999999999996, 0.099999999999996, 0.0099999999999996, 99999999999.96,
    0.00099999999999995, 0.00099999999999996, 999999.9999995, 999999.99999951,
]


def test_number_rule_carries_across_powers_of_ten(tmp_path):
    values = CARRIES + [-x for x in CARRIES]
    expected = [one_value(x) for x in values]
    assert one_value(999999999999.5) == "1e+12"
    assert format_column(values) == expected
    assert written_cells(tmp_path, values) == expected


SPECIALS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -4e-320,
    math.nan, math.inf, -math.inf, -1.5, -0.001, -123456.789, -999999999999.0,
]


def test_number_rule_signs_and_special_values(tmp_path):
    expected = [one_value(x) for x in SPECIALS]
    assert expected[:3] == ["-0.00000000000e+00", "0.00000000000e+00", "4.94065645841e-324"]
    assert expected[6:9] == ["nan", "inf", "-inf"]
    assert format_column(SPECIALS) == expected
    assert written_cells(tmp_path, SPECIALS) == expected
    for value in SPECIALS:
        assert format_column([value]) == [one_value(value)]


def test_write_csv_text_columns(tmp_path):
    out = tmp_path / "table.csv"
    write_csv(str(out), {}, {"a": ["XXH", "é", ""], "b": np.array([b"1", b"22", b"333"])})
    assert out.read_text(encoding="utf-8").split("\n")[1:] == ["a,b", "XXH,1", "é,22", ",333", ""]


@pytest.mark.parametrize("table", [{}, iter([]), [{}]], ids=["no-column", "no-block", "empty-block"])
def test_write_csv_refuses_empty_table(tmp_path, table):
    out = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="a table needs at least one"):
        write_csv(str(out), {"command": "test"}, table)
    assert not out.exists()


# ---------------------------------------------------------------------------
# read_average_csv on generated files
# ---------------------------------------------------------------------------

_MANIFESTS = st.one_of(
    st.sampled_from(["{}", '{"a": NaN}', '{"a": 1e999}', "[1]", "null", "[" * 3000, "{"]),
    st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.floats(), st.text(max_size=4)),
                    max_size=3).map(json.dumps),
    st.text(max_size=12),
)
_NAMES = st.sampled_from(["t", "mean_S", "std_S", "mean_S_over_sqrt2", "", " t", "T", "\u00fc"])
_CELLS = st.one_of(
    st.sampled_from(["1", "2", "3", "0", "-1", "2.5", "1.25", "nan", "inf", "-inf", "1e300",
                     "9.3e18", "9223372036854775808", "", " ", "\u00e9", "1_0", "0x1", "\u0661"]),
    st.integers().map(str),
    st.floats().map(repr),
)
_LINES = st.one_of(
    _MANIFESTS.map(lambda m: "# manifest:" + m),
    st.lists(_NAMES, min_size=1, max_size=5).map(",".join),
    st.lists(_CELLS, min_size=1, max_size=5).map(",".join),
    st.text(max_size=12),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_LINES, max_size=8), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_read_average_csv_returns_or_raises_value_error(tmp_path, lines, newline):
    # Manifest lines, headers and cells of every kind, lone surrogates (bytes
    # that are not UTF-8) included: a file is read, or refused with ValueError.
    path = tmp_path / "generated.csv"
    path.write_bytes(newline.join(lines).encode("utf-8", "surrogatepass"))
    try:
        manifest, trajectory = read_average_csv(str(path))
    except ValueError:
        return
    assert manifest is None or isinstance(manifest, dict)
    assert len(trajectory.steps) == len(trajectory.mean_s) >= 1

