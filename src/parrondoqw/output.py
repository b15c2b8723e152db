"""Deterministic CSV/JSON serialization with provenance headers.

Contract: every output file starts with '#'-prefixed comment lines carrying
the run manifest (command, version, all experiment parameters), followed by a
column-name row, then data rows.  Numbers are printed at 12 significant
digits, scientific notation when |x| < 1e-3; JSON floats are rounded to the
same 12 digits, and a JSON payload that is not finite is refused before any
file opens.  Nothing time- or machine-dependent is ever written, so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "format_number",
    "write_csv",
    "write_json",
    "read_average_csv",
]


def format_number(value) -> str:
    """12-significant-digit text form; scientific when |x| < 1e-3 (zero included)."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if abs(x) < 1e-3:
        return f"{x:.11e}"
    return f"{x:.12g}"


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


def write_csv(
    path: str | None,
    manifest: dict,
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    """Write the manifest comment, the column row, then data rows (numbers via ``format_number``)."""
    stream, owned = _open_out(path)
    try:
        stream.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(
                ",".join(c if isinstance(c, str) else format_number(c) for c in row) + "\n"
            )
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
    that is not a positive integer or does not increase from row to row).
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
