"""Output check for every benchmark invocation.

An output passes when
- its manifest line and column row equal the reference byte for byte;
- every number agrees with the reference recorded at the seed commit within
  ``|a - b| <= ATOL + RTOL * max(|a|, |b|)``.  Output is printed at 12
  significant digits; RTOL allows ten units in the last printed digit, the
  last-digit drift the project tolerates.  ATOL covers values that are
  rounding noise around zero (a std of ~1e-16 where every sample agrees);
- every Schmidt norm lies in [1, sqrt(2)];
- for ``search``, rows are ranked by non-increasing mean S (near-ties within
  the tolerance may swap, so rows are matched by sequence label).

``grid-wide`` writes 11 MB, so its JSON reference keeps the file's SHA-256,
header and grid shape, and its S column, as printed, is kept xz-compressed
beside it; theta and phi are checked against the grid they must lie on.
Other references keep the whole file.  Byte-identity with the reference is
reported separately, as information only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import lzma
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Workload

RTOL = 1e-10
ATOL = 1e-12
SQRT2 = math.sqrt(2.0)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    identical: bool = False


def load_reference(workload: Workload, seed: int) -> dict:
    """Reference entry for one workload and CLI seed."""
    with open(REFERENCE_DIR / f"{workload.name}.json", encoding="utf-8") as stream:
        outputs = json.load(stream)["outputs"]
    return outputs[reference_key(workload, seed)]


def reference_key(workload: Workload, seed: int) -> str:
    return str(seed) if workload.seeded else "unseeded"


def reference_entry(workload: Workload, data: bytes) -> dict:
    """Reference entry recorded from a trusted output."""
    lines = data.decode("utf-8").split("\n")[:-1]
    entry = {"sha256": hashlib.sha256(data).hexdigest(), "header": lines[:2],
             "rows": len(lines) - 2}
    if workload.kind != "grid":
        entry["lines"] = lines[2:]
        return entry
    theta_steps = len({line.split(",")[0] for line in lines[2:]})
    entry["shape"] = [theta_steps, (len(lines) - 2) // theta_steps]
    entry["s_file"] = f"{workload.name}-S.txt.xz"
    return entry


def grid_s_column(data: bytes) -> bytes:
    """The S column of a grid output as printed, one value a line; the
    reference keeps it xz-compressed in ``reference/<s_file>``."""
    rows = data.split(b"\n")[2:-1]
    return b"".join(row.rsplit(b",", 1)[1] + b"\n" for row in rows)


@functools.cache
def _reference_s(s_file: str) -> np.ndarray:
    text = lzma.decompress((REFERENCE_DIR / s_file).read_bytes()).decode("ascii")
    return np.array(text.split(), dtype=np.float64)


def check_output(workload: Workload, reference: dict, data: bytes) -> CheckResult:
    result = CheckResult(identical=hashlib.sha256(data).hexdigest() == reference["sha256"])
    if result.identical:
        return result  # the reference itself passed these checks when recorded
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        result.problems.append("output is not UTF-8")
        return result
    lines = text.split("\n")
    if lines[-1] != "":
        result.problems.append("output does not end with a newline")
        return result
    lines = lines[:-1]
    for got, want, what in zip(lines[:2], reference["header"], ("manifest line", "column row")):
        if got != want:
            result.problems.append(f"{what} differs: {got!r} != {want!r}")
    if len(lines) - 2 != reference["rows"]:
        result.problems.append(f"{len(lines) - 2} data rows, reference has {reference['rows']}")
    if result.problems:
        return result
    rows = lines[2:]
    try:
        if workload.kind == "average":
            _check_average(rows, reference, result.problems)
        elif workload.kind == "search":
            _check_search(rows, reference, result.problems)
        else:
            _check_grid(rows, reference, result.problems)
    except ValueError as exc:
        result.problems.append(f"unparsable row: {exc}")
    return result


def _close(a: float, b: float, count: int = 1) -> bool:
    return abs(a - b) <= count * ATOL + RTOL * max(abs(a), abs(b))


def _check_s_range(label: str, s: float, problems: list[str]) -> None:
    if not 1.0 <= s <= SQRT2:
        problems.append(f"{label}: S = {s!r} outside [1, sqrt(2)]")


def _check_numbers(label: str, got: list[str], want: list[str], problems: list[str]) -> None:
    for g, w in zip(got, want):
        if not _close(float(g), float(w)):
            problems.append(f"{label}: {g} != reference {w}")


def _check_average(rows: list[str], reference: dict, problems: list[str]) -> None:
    for row, ref in zip(rows, reference["lines"]):
        got, want = row.split(","), ref.split(",")
        if len(got) != 4 or got[0] != want[0]:
            problems.append(f"row {row!r} does not match reference {ref!r}")
            continue
        _check_numbers(f"t={got[0]}", got[1:], want[1:], problems)
        _check_s_range(f"t={got[0]}", float(got[1]), problems)


def _check_search(rows: list[str], reference: dict, problems: list[str]) -> None:
    want = {line.split(",")[0]: line.split(",") for line in reference["lines"]}
    previous = math.inf
    for row in rows:
        got = row.split(",")
        ref = want.pop(got[0], None)
        if ref is None or len(got) != 4 or got[1] != ref[1]:
            problems.append(f"row {row!r} has no matching reference row")
            continue
        _check_numbers(got[0], got[2:], ref[2:], problems)
        mean_s = float(got[2])
        _check_s_range(got[0], mean_s, problems)
        if not (mean_s <= previous or _close(mean_s, previous)):
            problems.append(f"{got[0]}: mean S {got[2]} ranked after the smaller {previous!r}")
        previous = mean_s
    if want:
        problems.append(f"reference rows missing from output: {sorted(want)}")


def _grid_values(rows: list[str]) -> np.ndarray:
    return np.array([row.split(",") for row in rows], dtype=np.float64)


def _check_grid(rows: list[str], reference: dict, problems: list[str]) -> None:
    values = _grid_values(rows)
    theta_steps, phi_steps = reference["shape"]
    theta = np.repeat(np.linspace(0.0, math.pi, theta_steps), phi_steps)
    phi = np.tile(np.linspace(0.0, 2.0 * math.pi, phi_steps, endpoint=False), theta_steps)
    for name, col, axis in (("theta", 0, theta), ("phi", 1, phi)):
        bad = np.abs(values[:, col] - axis) > ATOL + RTOL * np.abs(axis)
        if bad.any():
            problems.append(f"{int(bad.sum())} rows with a wrong {name}")
    s = values[:, 2]
    out_of_range = (s < 1.0) | (s > SQRT2)
    if out_of_range.any():
        problems.append(f"{int(out_of_range.sum())} grid S values outside [1, sqrt(2)]")
    want = _reference_s(reference["s_file"])
    bad = np.abs(s - want) > ATOL + RTOL * np.maximum(np.abs(s), np.abs(want))
    if bad.any():
        first = int(np.argmax(bad))
        problems.append(f"{int(bad.sum())} grid S values differ from the reference, first at "
                        f"row {first}: {float(s[first])!r} != {float(want[first])!r}")
