"""Deterministic CSV/JSON serialization with provenance headers.

Contract: every output file starts with '#'-prefixed comment lines carrying
the run manifest (command, version, all experiment parameters), followed by a
column-name row, then data rows.  A CSV table comes in as columns (or blocks
of them) and goes out in blocks of ``BLOCK_ROWS`` rows.  JSON floats are
rounded to the same 12 digits, and a JSON payload that is not finite is
refused before any file opens.  Nothing time- or machine-dependent is ever
written, so identical invocations produce byte-identical files.  The module
is a leaf: it imports nothing from the package.

The number rule is ``%.12g``, except ``%.11e`` below 1e-3; integers print as
integers.  ``_cells`` holds it once, for ``format_column`` and ``write_csv``
alike: it turns a column into an ``(n, w)`` uint8 matrix whose row i is the
text of cell i with NUL bytes anywhere in it, and a block's text is its
cells' matrices joined by comma and newline columns with the NULs deleted.

No float a command writes reaches 10 in magnitude: S lies in [1, sqrt 2],
the populations, coherences and eigenvalues of a 2x2 coin density are at
most 1 in magnitude, and the angles lie in [0, 2 pi).  So a float with
1e-3 <= |x| < 10 is made in numpy.  Its decimal exponent e (-3 ... 0) comes
from comparisons with the doubles 1e-3 ... 1, each at or above the power of
ten it names, so e is exact.  ``y = |x| * 10**(11 - e)`` is one multiply by
an exact power of ten, so y is the exact product rounded to the nearest
double, and rounding never moves a value past a double.  Since
``y <= 1e12 < 2**40``, every tie n + 1/2 is a double, so y lies on the same
side of each tie as the exact product unless y is the tie itself.  The tie
margin is therefore zero: where y is not on a tie, ``m = rint(y)`` is the
exact product rounded to 12 digits, as ``%.12g`` rounds it, and a carry to
10**12 moves e up one.  ``m * 10**(e + 3)`` is |x| * 10**14 rounded to 12
digits: an integer below 1e15 < 2**53, so the product is exact, and it holds
the integer digit and 14 fraction digits.  They are split into groups of 2,
4, 4, 4 and 1 digits in float arithmetic, exact for integers below 2**53,
and each group is one word of a lookup table.  A cell is a row of five
4-byte words: the sign, the integer digit, the point and the first fraction
digit; three words of four fraction digits; the last digit and three NULs.
The sign of a positive number is NUL; trailing fraction zeros, and the point
of a whole number, are masked to NUL; and word columns that are NUL in every
cell of a block are dropped.

Every other float takes the ``%`` rule one cell at a time: nan and the
infinities, |x| < 1e-3 (zero, -0.0 and subnormals included), values that
round to 10 or more (the same text, only slower), and cells whose y lies
exactly on a tie.  Every other column becomes a numpy ``S`` array, whose
bytes are the cells: a ``U`` array (what ``np.asarray`` makes of a list of
``str``) is UTF-8 encoded once and refused if a cell holds a comma, CR, LF
or NUL, ``S`` cells are taken as they are, integers convert by ``astype("S")``
and booleans print as 1 and 0.  Both writers write bytes to the file, or to
stdout's buffer (decoded to a stdout with none); a regular file whose writing
raises is removed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import stat
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "format_column",
    "write_csv",
    "write_json",
]

#: Rows formatted and written at a time, states or grid cells reduced at a
#: time, and complex values of candidate walk state stepped at a time: the
#: text of at most one block exists.  At 4096 rows a complex temporary is
#: 64 KiB, below glibc's default 128 KiB mmap threshold, so a block's
#: temporaries reuse heap pages and cache lines instead of being mapped and
#: faulted in anew for every block.  ``_blocks`` is its one reader.
BLOCK_ROWS = 1 << 12


def _blocks(count: int, cells: int = 1) -> Iterator[slice]:
    """Slices cutting ``range(count)`` in order, ``max(1, BLOCK_ROWS // cells)`` items each but the last."""
    step = max(1, BLOCK_ROWS // cells)
    return (slice(start, start + step) for start in range(0, count, step))


def _words(texts: Iterable[str]) -> np.ndarray:
    """Each text of four one-byte characters as one word, in the machine's byte order."""
    return np.frombuffer("".join(texts).encode("latin-1"), np.uint32)


def _digit_words() -> np.ndarray:
    """The ASCII digits of 0 ... 9999, one word each (what ``_words`` makes of them, faster)."""
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    columns = [np.tile(np.repeat(ten, 10 ** (3 - k)), 10**k) for k in range(4)]
    return np.stack(columns, axis=1).view(np.uint32)[:, 0]


def _trailing_zeros(width: int) -> np.ndarray:
    """The number of trailing zero digits of 0 ... 10**width - 1 (``width`` for 0)."""
    zeros = np.zeros(10**width, np.uint8)
    for k in range(1, width + 1):
        zeros[::10**k] += 1
    return zeros


_LOWER = np.array([1e-3, 1e-2, 1e-1, 1.0])
_POW10 = np.array([float(10**k) for k in range(15)])
#: Word 0 by ``100 * negative + top two digits``: the sign, the integer digit,
#: the point and the first fraction digit.
_LEAD = _words(f"{sign}{i // 10}.{i % 10}" for sign in "\0-" for i in range(100))
_DIGITS4 = _digit_words()
_LAST = _words(f"{i}\0\0\0" for i in range(10))
_ZEROS4 = _trailing_zeros(4)
#: Words by the number of fraction digits shown: byte i of word k is fraction
#: digit 4k + i - 2, byte 2 of word 0 is the point, bytes 0 and 1 of word 0
#: (sign and integer digit) always show.
_FRAC_MASKS = _words("\xff" if p < 0 or max(p, 1) <= shown else "\0"
                     for k in range(5) for shown in range(15)
                     for p in range(4 * k - 2, 4 * k + 2)).reshape(5, 15)


def _percent(cells: list) -> list[str]:
    """The number rule one cell at a time, with Python's ``%``."""
    return ["%.11e" % x if abs(x) < 1e-3 else "%.12g" % x for x in cells]


def _split(values: np.ndarray, divisor):
    """Quotient and remainder of float integers below 2**53 by a power of ten, exactly."""
    high = np.floor(values / divisor)
    return high, values - high * divisor


def _column(values) -> np.ndarray:
    """``values`` as an array of floats or of ``S`` cells, by the rules of the module docstring."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind == "U":
        texts = array.tolist()
        if bad := [text for text in texts if not {",", "\r", "\n", "\0"}.isdisjoint(text)]:
            raise ValueError(f"a text cell may not hold a comma, CR, LF or NUL, got {bad[0]!r}")
        return np.array([text.encode() for text in texts], dtype="S")
    if kind in "biu":
        return (array.view(np.uint8) if kind == "b" else array).astype("S")
    return array


def _cells(values) -> np.ndarray:
    """The NUL-padded ``(n, w)`` uint8 text matrix of one column: its ``S`` bytes, or its floats' cells."""
    array = _column(values)
    if array.dtype.kind == "S":
        return array.view(np.uint8).reshape(len(array), array.itemsize)
    return _number_cells(array.astype(np.float64, copy=False)) if len(array) else np.zeros((0, 0), np.uint8)


def _number_cells(x: np.ndarray) -> np.ndarray:
    """The cell matrix of floats: 12 digits made in numpy, the rest by ``%``."""
    n = len(x)
    a = np.abs(x)
    ok = (a >= 1e-3) & (a < 10)
    e = np.clip(np.searchsorted(_LOWER, a, side="right") - 4, -3, 0)
    y = np.where(ok, a, 1.0) * _POW10[11 - e]
    m = np.rint(y)
    ok &= np.abs(y - m) != 0.5  # on a tie: which side the exact product is on is unknown
    carry = m == 1e12
    ok &= ~(carry & (e == 0))  # rounds to 10
    m[carry] = 1e11
    e[carry & ok] += 1
    groups = np.empty((5, n), np.intp)
    groups[0], rest = _split(m * _POW10[e + 3], 1e13)  # |x| * 10**14, rounded to 12 digits
    groups[1], rest = _split(rest, 1e9)
    groups[2], rest = _split(rest, 1e5)
    groups[3], groups[4] = _split(rest, 10)
    zeros = (groups[4] == 0).astype(np.intp)  # trailing zeros of the fraction, from its last digit up
    for k, group in (1, groups[3]), (5, groups[2]), (9, groups[1]):
        zeros = np.where(zeros == k, zeros + _ZEROS4[group], zeros)
    zeros += (zeros == 13) & (groups[0] % 10 == 0)
    groups[0] += 100 * (x < 0)
    words = np.empty((5, n), np.uint32)
    words[0] = _LEAD[groups[0]]
    words[1:4] = _DIGITS4[groups[1:4]]
    words[4] = _LAST[groups[4]]
    words &= np.take(_FRAC_MASKS, 14 - zeros, axis=1)
    width = np.flatnonzero(words.max(axis=1))[-1] + 1
    cells = np.ascontiguousarray(words[:width].T).view(np.uint8)
    bad = np.flatnonzero(~ok)
    if bad.size:
        texts = _cells(_percent(x[bad].tolist()))
        if texts.shape[1] > cells.shape[1]:
            cells = np.pad(cells, ((0, 0), (0, texts.shape[1] - cells.shape[1])))
        cells[bad] = 0
        cells[bad, :texts.shape[1]] = texts
    return cells


def _joined(cells: Sequence[np.ndarray]) -> bytes:
    """The text of a block of rows: each row's cells joined by commas, ended by a newline."""
    n = len(cells[0])
    comma, newline = (np.broadcast_to(np.uint8(ord(c)), (n, 1)) for c in ",\n")
    parts = [part for matrix in cells for part in (matrix, comma)]
    parts[-1] = newline
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def format_column(values) -> list[str]:
    """Text of every cell of one column, by the package's one number rule.

    Floats print at 12 significant digits (``%.12g``), in scientific form
    ``%.11e`` when ``|x| < 1e-3`` (zero, -0.0 and subnormals included); nan
    and the infinities print as ``nan``, ``inf`` and ``-inf``.  Integers
    print as integers, booleans as 1 and 0.  Text (a numpy ``U`` or ``S``
    array, or a list of ``str``) is its own cells, refused as in
    ``write_csv`` when a ``str`` cell holds a comma, CR, LF or NUL.
    """
    return _joined([_cells(values)]).decode().split("\n")[:-1]


@contextlib.contextmanager
def _binary_out(path: str | None):
    """The binary ``write`` of ``path``, or of stdout for None or ``-`` (decoded if it has no buffer)."""
    if path is None or path == "-":
        sys.stdout.flush()
        stream = getattr(sys.stdout, "buffer", sys.stdout)
        yield stream.write if stream is not sys.stdout else lambda data: stream.write(data.decode())
        stream.flush()
    else:
        with open(path, "wb") as stream:
            try:
                yield stream.write
            except BaseException:
                # A table cut short must not look whole; stdout, a pipe or a device stays.
                if stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
                    os.unlink(path)
                raise


def _columns(block: dict[str, Sequence], names: list[str]) -> list[np.ndarray]:
    """The columns of one block of rows, refused when there are none, they are not ``names`` or differ in length."""
    columns = [_column(column) for column in block.values()]
    if not columns:
        raise ValueError("a table needs at least one column")
    if list(block) != names:
        raise ValueError(f"a block's columns {list(block)} are not the first block's {names}")
    if any(len(column) != len(columns[0]) for column in columns):
        raise ValueError(f"columns differ in length: {[len(column) for column in columns]}")
    return columns


def write_csv(path: str | None, manifest: dict, table: dict | Iterable[dict]) -> None:
    """Write the manifest comment, the column row, then the rows of ``table``.

    ``table`` maps each column name, in order, to its cells: numbers (a numpy
    array or a sequence), or text already formatted (a list of strings, a
    numpy ``U`` or ``S`` array).  Every column has the same length.  ``table``
    may instead be an iterable of such dicts, blocks of rows under the first
    block's names, written in turn.  Rows go out ``BLOCK_ROWS`` at a time,
    each block written as one ``bytes``.  ``ValueError`` refuses a table with
    no block, and a block with no column, other names than the first block's,
    ragged columns or ``str`` text holding a comma, CR, LF or NUL: each block
    before it is written, the first before the output opens.
    """
    blocks = iter([table] if isinstance(table, dict) else table)
    first = next(blocks, None)
    if first is None:
        raise ValueError("a table needs at least one block of rows")
    names = list(first)
    checked = _columns(first, names)
    with _binary_out(path) as write:
        head = f"# manifest: {json.dumps(manifest, sort_keys=True)}\n" + ",".join(names) + "\n"
        write(head.encode())
        for columns in itertools.chain([checked], (_columns(block, names) for block in blocks)):
            for rows in _blocks(len(columns[0])):
                cells = [_cells(column[rows]) for column in columns]
                write(_joined(cells))


def write_json(path: str | None, manifest: dict, payload: dict) -> None:
    """Write one flat JSON object with the manifest embedded under 'manifest'.

    The text is built before the output opens, so a payload holding NaN or an
    infinity raises ``ValueError`` and leaves no file behind.
    """
    document = _rounded({"manifest": manifest, **payload})
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _binary_out(path) as write:
        write(text.encode())


def _rounded(node):
    if isinstance(node, dict):
        return {k: _rounded(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_rounded(v) for v in node]
    if isinstance(node, float):
        return float(f"{node:.12g}")
    return node
