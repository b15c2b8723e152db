"""Deterministic CSV/JSON serialization with provenance headers.

Contract: every output file starts with '#'-prefixed comment lines carrying
the run manifest (command, version, all experiment parameters), followed by a
column-name row, then data rows.  A CSV table comes in as columns (or blocks
of them) and goes out in blocks of ``BLOCK_ROWS`` rows; within a block each
column is formatted in one pass by ``format_column``, which holds the
package's one number rule.  JSON floats are rounded to the same 12 digits,
and a JSON payload that is not finite is refused before any file opens.
Nothing time- or machine-dependent is ever written, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "format_column",
    "write_csv",
    "write_json",
    "read_average_csv",
]

#: Rows formatted and written at a time: the text of at most one block exists.
BLOCK_ROWS = 1 << 14


def format_column(values) -> list[str]:
    """Text of every cell of one column, by the package's one number rule.

    Floats print at 12 significant digits (``%.12g``), in scientific form
    ``%.11e`` when ``|x| < 1e-3`` (zero, -0.0 and subnormals included); nan
    and the infinities print as ``nan``, ``inf`` and ``-inf``.  Integers
    print as integers.  A list of strings is text already and passes through
    unchanged.
    """
    if isinstance(values, list) and values and isinstance(values[0], str):
        return values
    array = np.asarray(values)
    cells = array.tolist()
    if array.dtype.kind in "iu":
        return list(map(str, cells))
    texts = ("%.12g\n" * len(cells) % tuple(cells)).split("\n")
    texts.pop()
    for i in np.flatnonzero(np.abs(array) < 1e-3).tolist():
        texts[i] = "%.11e" % cells[i]
    return texts


def _finite(text: str) -> float:
    """``json.loads`` hook: a number, rejected when it is not finite (``1e400``, ``NaN``)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _columns(block: dict[str, Sequence]) -> list[Sequence]:
    """The columns of one block of rows, refused when they differ in length."""
    columns = list(block.values())
    if any(len(column) != len(columns[0]) for column in columns):
        raise ValueError(f"columns differ in length: {[len(column) for column in columns]}")
    return columns


def write_csv(path: str | None, manifest: dict, table: dict | Iterable[dict]) -> None:
    """Write the manifest comment, the column row, then the rows of ``table``.

    ``table`` maps each column name, in order, to its cells: a numpy array or
    sequence of numbers, or a list of strings already formatted.  Every
    column has the same length.  ``table`` may instead be an iterable of such
    dicts, blocks of rows under the first block's names, written in turn.
    Rows go out ``BLOCK_ROWS`` at a time, each block's columns formatted by
    ``format_column``.  The first block is checked before the output opens.
    """
    blocks = iter([table] if isinstance(table, dict) else table)
    first = next(blocks)
    checked = _columns(first)
    stream, owned = _open_out(path)
    try:
        stream.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")
        stream.write(",".join(first) + "\n")
        for columns in itertools.chain([checked], map(_columns, blocks)):
            for start in range(0, len(columns[0]), BLOCK_ROWS):
                texts = [format_column(column[start:start + BLOCK_ROWS]) for column in columns]
                stream.write("\n".join(map(",".join, zip(*texts))) + "\n")
    finally:
        if owned:
            stream.close()


def write_json(path: str | None, manifest: dict, payload: dict) -> None:
    """Write one flat JSON object with the manifest embedded under 'manifest'.

    The text is built before the output opens, so a payload holding NaN or an
    infinity raises ``ValueError`` and leaves no file behind.
    """
    document = _rounded({"manifest": manifest, **payload})
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    stream, owned = _open_out(path)
    try:
        stream.write(text)
    finally:
        if owned:
            stream.close()


def _rounded(node):
    if isinstance(node, dict):
        return {k: _rounded(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_rounded(v) for v in node]
    if isinstance(node, float):
        return float(f"{node:.12g}")
    return node


def read_average_csv(path: str):
    """Load a trajectory CSV written by the ``average`` command.

    Returns (manifest_or_None, AverageTrajectory).  Raises ValueError on
    malformed input (a manifest that is not a JSON object of finite numbers,
    missing columns, non-numeric or non-finite cells, no data rows, a ``t``
    that is not a positive integer below 2**63 or does not increase from row
    to row).
    """
    from .experiments import AverageTrajectory

    manifest = None
    header: list[str] | None = None
    data: list[list[float]] = []
    bad_t = None  # the first bad t, raised once the rows are known to be well formed
    previous = 0.0
    with open(path, "r", encoding="utf-8") as stream:
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                comment = line.lstrip("#").strip()
                if comment.startswith("manifest:"):
                    try:
                        manifest = json.loads(
                            comment[len("manifest:"):], parse_float=_finite, parse_constant=_finite
                        )
                    except (ValueError, RecursionError):
                        manifest = None
                    if not isinstance(manifest, dict):
                        raise ValueError(f"{path}:{line_no}: malformed manifest")
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(header)} columns, got {len(cells)}"
                )
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: non-numeric cell ({exc})") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{line_no}: non-finite cell in {line!r}")
            data.append(values)
            if bad_t is None and "t" in header:
                t = values[header.index("t")]
                if t < 1 or t != math.floor(t):
                    bad_t = f"{path}:{line_no}: t must be a positive integer, got {t!r}"
                elif t >= 2**63:
                    bad_t = f"{path}:{line_no}: t must be below 2**63, got {t!r}"
                elif t <= previous:
                    bad_t = f"{path}:{line_no}: t must increase from row to row, got {t:g} after {previous:g}"
                previous = t
    if header is None or not data:
        raise ValueError(f"{path}: no trajectory data found")
    for required in ("t", "mean_S"):
        if required not in header:
            raise ValueError(f"{path}: missing required column {required!r}")
    if bad_t is not None:
        raise ValueError(bad_t)
    table = np.asarray(data)
    mean_col = header.index("mean_S")
    std = (
        table[:, header.index("std_S")]
        if "std_S" in header
        else np.zeros(table.shape[0])
    )
    return manifest, AverageTrajectory(
        steps=table[:, header.index("t")].astype(int),
        mean_s=table[:, mean_col],
        std_s=std,
    )
