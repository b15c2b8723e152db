"""Command-line interface: deterministic experiment runs with file output.

Subcommands
-----------
trace      per-step entanglement record of one walk
average    mean Schmidt norm per step over seeded random initial states
fit        logarithmic fit + extrapolation of an ``average`` CSV
grid       Schmidt norm over a regular (theta, phi) grid at fixed step
compare    mean Schmidt norm for several sequences at several steps
parrondo   does a two-coin sequence beat both single-coin parents?
search     enumerate short patterns and rank them by mean Schmidt norm

Every output starts with a ``# manifest:`` comment (JSON: command, version,
parameters) so runs are self-describing; identical invocations produce
byte-identical files.  Data goes to --out (default stdout), diagnostics to
stderr.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .entanglement import MAX_SCHMIDT_NORM, eigenvalues_from
from .experiments import (
    TWO_PI,
    AverageTrajectory,
    _angle_arrays,
    _grid_axes,
    _grid_groups,
    average_schmidt,
    coin_densities,
    compare_table,
    log_fit,
    parrondo_check,
)
from .output import format_column, write_csv, write_json
from .sequences import enumerate_patterns, parse

__all__ = ["main"]

_THREADS_HELP = "accepted for compatibility and ignored: the engine runs on one thread"

#: Namespace entries that are not experiment parameters, so not in the manifest.
_NOT_PARAMS = frozenset({"command", "run", "out", "threads", "degrees"})


def _int_at_least(minimum: int):
    """argparse type: an integer that is at least ``minimum``."""
    def parse_int(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse_int


_positive_int = _int_at_least(1)


def _positive_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list") from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"steps must be >= 1, got {min(values)}")
    return values


def _label_list(text: str) -> list[str]:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise argparse.ArgumentTypeError("empty sequence list")
    return labels


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parrondoqw",
        description="Quantum-walk entanglement experiments with deterministic coin sequences.",
    )
    parser.add_argument("--version", action="version", version=f"parrondoqw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, samples_default: int) -> None:
        p.add_argument("--samples", type=_positive_int, default=samples_default,
                       help=f"random initial states (default {samples_default})")
        p.add_argument("--seed", type=_int_at_least(0), default=1,
                       help="master RNG seed, >= 0 (default 1)")
        p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("trace", help="per-step record of a single walk")
    p.add_argument("--seq", required=True, help="coin sequence label, e.g. XXH")
    p.add_argument("--theta", type=float, required=True, help="initial theta")
    p.add_argument("--phi", type=float, default=0.0, help="initial phi (default 0)")
    p.add_argument("--degrees", action="store_true", help="interpret angles as degrees")
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(run=_cmd_trace)

    p = sub.add_parser("average", help="mean Schmidt norm per step")
    p.add_argument("--seq", required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    add_common(p, samples_default=100)
    p.set_defaults(run=_cmd_average)

    p = sub.add_parser("fit", help="log fit + extrapolation of an average CSV")
    p.add_argument("--in", dest="input", required=True, help="trajectory CSV from 'average'")
    p.add_argument("--tmin", type=_positive_int, default=10,
                   help="first step included in the fit (default 10)")
    p.add_argument("--extrapolate", type=_positive_int_list, default=[400],
                   help="comma-separated steps to predict (default 400)")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("grid", help="Schmidt norm over a (theta, phi) grid")
    p.add_argument("--seq", required=True)
    p.add_argument("--t", type=_positive_int, required=True, help="step at which S is recorded")
    p.add_argument("--theta-steps", type=_int_at_least(2), default=37)
    p.add_argument("--phi-steps", type=_int_at_least(2), default=72)
    p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(run=_cmd_grid)

    p = sub.add_parser("compare", help="rank sequences by mean Schmidt norm")
    p.add_argument("--seqs", type=_label_list, required=True, help="comma-separated labels")
    p.add_argument("--t-list", type=_positive_int_list, required=True,
                   help="comma-separated steps")
    add_common(p, samples_default=1000)
    p.set_defaults(run=_cmd_compare)

    p = sub.add_parser("parrondo", help="two-coin sequence vs both single-coin parents")
    p.add_argument("--ab", required=True, help="combined sequence label")
    p.add_argument("--a", required=True, help="first single-coin baseline")
    p.add_argument("--b", required=True, help="second single-coin baseline")
    p.add_argument("--t", type=_positive_int, required=True)
    add_common(p, samples_default=100)
    p.set_defaults(run=_cmd_parrondo)

    p = sub.add_parser("search", help="enumerate and rank short patterns")
    p.add_argument("--alphabet", default="HFMX", help="coin letters to combine (default HFMX)")
    p.add_argument("--max-period", type=_positive_int, default=3)
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--top", type=_positive_int, default=None, help="keep only the best N rows")
    add_common(p, samples_default=1000)
    p.set_defaults(run=_cmd_search)

    return parser


# ---------------------------------------------------------------------------
# Command implementations.  Each one first writes the canonical form of its
# parameters back into ``args`` (sequence labels, radians, ...), so that
# ``_manifest`` records what was run, not how it was spelled.
# ---------------------------------------------------------------------------


def _manifest(args) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    return {"command": args.command, "version": __version__, "params": params}


def _cmd_trace(args) -> None:
    theta, phi = args.theta, args.phi
    if args.degrees:
        if not 0.0 <= theta <= 180.0:
            raise ValueError(f"theta must lie in [0, 180] degrees, got {theta!r}")
        theta = math.radians(theta)
        phi = math.radians(phi)
    sequence = parse(args.seq)
    _angle_arrays([[theta, phi]])
    # A tiny negative phi rounds up to exactly 2pi; the manifest keeps [0, 2pi).
    phi %= TWO_PI
    args.seq, args.theta, args.phi = sequence.label, theta, 0.0 if phi == TWO_PI else phi
    densities = coin_densities([[args.theta, args.phi]], sequence, args.steps)
    pop0, pop1, coherence = (np.concatenate(per_step) for per_step in zip(*densities))
    e_minus, e_plus = eigenvalues_from(pop0, pop1, coherence)
    write_csv(args.out, _manifest(args), {
        "t": np.arange(1, args.steps + 1),
        "S": np.sqrt(e_minus) + np.sqrt(e_plus),
        "pop0": pop0,
        "pop1": pop1,
        "re_coherence": coherence.real,
        "im_coherence": coherence.imag,
        "E_minus": e_minus,
        "E_plus": e_plus,
    })


def _cmd_average(args) -> None:
    sequence = parse(args.seq)
    args.seq = sequence.label
    traj = average_schmidt(sequence, args.steps, args.samples, args.seed)
    write_csv(args.out, _manifest(args), {
        "t": traj.steps,
        "mean_S": traj.mean_s,
        "std_S": traj.std_s,
        "mean_S_over_sqrt2": traj.mean_s / MAX_SCHMIDT_NORM,
    })


def _finite(text: str) -> float:
    """``json.loads`` hook: a number, rejected when it is not finite (``1e400``, ``NaN``)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_average_csv(path: str):
    """Load a trajectory CSV written by the ``average`` command.

    Returns (manifest_or_None, AverageTrajectory).  Raises ValueError on
    malformed input (a manifest that is not a JSON object of finite numbers,
    missing columns, non-numeric or non-finite cells, no data rows, a ``t``
    that is not a positive integer below 2**63 or does not increase from row
    to row).
    """
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
                raise ValueError(f"{path}:{line_no}: expected {len(header)} columns, got {len(cells)}")
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
    std = table[:, header.index("std_S")] if "std_S" in header else np.zeros(table.shape[0])
    return manifest, AverageTrajectory(
        steps=table[:, header.index("t")].astype(int),
        mean_s=table[:, mean_col],
        std_s=std,
    )


def _cmd_fit(args) -> None:
    input_manifest, traj = read_average_csv(args.input)
    fit = log_fit(traj, t_min=args.tmin, extrapolate_to=args.extrapolate)
    ratios = dict(fit.extrapolation_ratios())
    write_json(
        args.out, _manifest(args),
        {
            "a": fit.a,
            "b": fit.b,
            "fit_t_min": fit.fit_range[0],
            "fit_t_max": fit.fit_range[1],
            "residual_rms": fit.residual_rms,
            "extrapolation": [
                {"t": t, "S": s, "S_over_sqrt2": ratios[t]}
                for t, s in fit.extrapolation
            ],
            "input_manifest": input_manifest,
        },
    )


def _cmd_grid(args) -> None:
    sequence = parse(args.seq)
    args.seq = sequence.label
    theta_axis, phi_axis = _grid_axes(args.theta_steps, args.phi_steps)
    # Format each axis value once, as numpy text: every cell of a row or
    # column repeats it.  Each group of theta rows becomes text as it is
    # reduced, so the grid's values are never held whole; write_csv takes the
    # first group, and so the walk, before the output opens.
    thetas = np.array(format_column(theta_axis), dtype="S")
    phis = np.array(format_column(phi_axis), dtype="S")
    write_csv(args.out, _manifest(args), (
        {"theta": np.repeat(thetas[rows], len(phis)),
         "phi": np.tile(phis, len(thetas[rows])),
         "S": values.ravel()}
        for _, rows, values in _grid_groups(sequence, [args.t], theta_axis, phi_axis)
    ))


def _cmd_compare(args) -> None:
    sequences = [parse(label) for label in args.seqs]
    args.seqs = [s.label for s in sequences]
    _write_comparison(args, compare_table(sequences, args.t_list, args.samples, args.seed))


def _cmd_parrondo(args) -> None:
    seq_ab, seq_a, seq_b = parse(args.ab), parse(args.a), parse(args.b)
    args.ab, args.a, args.b = seq_ab.label, seq_a.label, seq_b.label
    report = parrondo_check(seq_ab, seq_a, seq_b, args.t, args.samples, args.seed)
    write_json(
        args.out, _manifest(args),
        {
            "sequence": args.ab,
            "single_a": args.a,
            "single_b": args.b,
            "t": args.t,
            "samples": args.samples,
            "seed": args.seed,
            "mean_combined": report.mean_combined,
            "mean_a": report.mean_a,
            "mean_b": report.mean_b,
            "margin_a": report.margin_a,
            "margin_b": report.margin_b,
            "is_parrondo": report.is_parrondo,
        },
    )


def _cmd_search(args) -> None:
    candidates = enumerate_patterns(args.alphabet, args.max_period)
    args.alphabet = "".join(sorted(set(args.alphabet.upper())))
    rows = compare_table(candidates, [args.t], args.samples, args.seed)
    _write_comparison(args, rows[: args.top])


def _write_comparison(args, rows) -> None:
    mean_s = np.array([r.mean_s for r in rows])
    write_csv(args.out, _manifest(args), {
        "sequence": [r.sequence_label for r in rows],
        "t": [r.t for r in rows],
        "mean_S": mean_s,
        "mean_S_over_sqrt2": mean_s / MAX_SCHMIDT_NORM,
    })


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
