"""Deterministic CSV/JSON serialization with provenance headers.

Contract: every output file starts with '#'-prefixed comment lines carrying
the run manifest (command, version, all experiment parameters), followed by a
column-name row, then data rows.  Numbers are printed at 12 significant
digits, scientific notation when |x| < 1e-3.  Nothing time- or
machine-dependent is ever written, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Iterable, Sequence, TextIO

import numpy as np

__all__ = [
    "format_number",
    "make_manifest",
    "write_csv",
    "write_json",
    "read_average_csv",
]


def format_number(value) -> str:
    """12-significant-digit text form; scientific when |x| < 1e-3."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if not math.isfinite(x):
        return repr(x)
    if x == 0.0 or abs(x) < 1e-3:
        return f"{x:.11e}"
    return f"{x:.12g}"


def _round12(value: float) -> float:
    """Round to 12 significant digits (keeps JSON output in step with CSV)."""
    x = float(value)
    return x if not math.isfinite(x) or x == 0.0 else float(f"{x:.12g}")


def make_manifest(command: str, version: str, **params) -> dict:
    return {"command": command, "version": version, "params": dict(params)}


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
    """Write manifest comments, the column row, then formatted data rows."""
    stream, owned = _open_out(path)
    try:
        _write_manifest_comment(stream, manifest)
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_format_cell(cell) for cell in row) + "\n")
    finally:
        if owned:
            stream.close()


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    return format_number(cell)


def _write_manifest_comment(stream: TextIO, manifest: dict) -> None:
    stream.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")


def write_json(path: str | None, manifest: dict, payload: dict) -> None:
    """Write one flat JSON object with the manifest embedded under 'manifest'."""
    document = {"manifest": manifest}
    document.update(payload)
    stream, owned = _open_out(path)
    try:
        stream.write(json.dumps(_rounded(document), indent=2, sort_keys=True) + "\n")
    finally:
        if owned:
            stream.close()


def _rounded(node):
    if isinstance(node, dict):
        return {k: _rounded(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_rounded(v) for v in node]
    if isinstance(node, (bool, int, str)) or node is None:
        return node
    if isinstance(node, (float, np.floating)):
        return _round12(node)
    if isinstance(node, np.integer):
        return int(node)
    return node


def read_average_csv(path: str):
    """Load a trajectory CSV written by the ``average`` command.

    Returns (manifest_or_None, AverageTrajectory).  Raises ValueError on
    malformed input (missing columns, non-numeric or non-finite cells, no
    data rows, a ``t`` that is not a positive integer or does not increase
    from row to row).
    """
    from .experiments import AverageTrajectory

    manifest = None
    header: list[str] | None = None
    data: list[list[float]] = []
    line_numbers: list[int] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                comment = line.lstrip("#").strip()
                if comment.startswith("manifest:"):
                    try:
                        manifest = json.loads(comment[len("manifest:"):].strip())
                    except json.JSONDecodeError:
                        manifest = None
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
            line_numbers.append(line_no)
    if header is None or not data:
        raise ValueError(f"{path}: no trajectory data found")
    for required in ("t", "mean_S"):
        if required not in header:
            raise ValueError(f"{path}: missing required column {required!r}")
    t_col = header.index("t")
    previous = 0.0
    for line_no, values in zip(line_numbers, data):
        t = values[t_col]
        if t < 1 or t != math.floor(t):
            raise ValueError(f"{path}:{line_no}: t must be a positive integer, got {t!r}")
        if t <= previous:
            raise ValueError(f"{path}:{line_no}: t must increase from row to row, got {t:g} after {previous:g}")
        previous = t
    table = np.asarray(data)
    mean_col = header.index("mean_S")
    std = (
        table[:, header.index("std_S")]
        if "std_S" in header
        else np.zeros(table.shape[0])
    )
    params = (manifest or {}).get("params", {})
    return manifest, AverageTrajectory(
        sequence_label=str(params.get("seq", "")),
        samples_per_point=int(params.get("samples", 0)),
        seed=int(params.get("seed", 0)),
        steps=table[:, t_col].astype(int),
        mean_s=table[:, mean_col],
        std_s=std,
    )
