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
import math
import sys
from typing import Sequence

from . import __version__
from .entanglement import MAX_SCHMIDT_NORM, eigenvalues_from
from .experiments import (
    average_schmidt,
    coin_densities,
    compare_table,
    grid_schmidt,
    log_fit,
    parrondo_check,
)
from .output import make_manifest, read_average_csv, write_csv, write_json
from .sequences import enumerate_patterns, parse
from .walk import InitialState

__all__ = ["main"]

_THREADS_HELP = "accepted for compatibility and ignored: the engine runs on one thread"

#: Namespace entries that are not experiment parameters, so not in the manifest.
_NOT_PARAMS = frozenset({"command", "run", "out", "threads", "degrees"})


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
        p.add_argument("--seed", type=int, default=1, help="master RNG seed (default 1)")
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
    p.add_argument("--theta-steps", type=_positive_int, default=37)
    p.add_argument("--phi-steps", type=_positive_int, default=72)
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
    return make_manifest(args.command, __version__, **params)


def _cmd_trace(args) -> None:
    theta, phi = args.theta, args.phi
    if args.degrees:
        if not 0.0 <= theta <= 180.0:
            raise ValueError(f"theta must lie in [0, 180] degrees, got {theta!r}")
        theta = math.radians(theta)
        phi = math.radians(phi)
    sequence = parse(args.seq)
    initial = InitialState(theta, phi)
    args.seq, args.theta, args.phi = sequence.label, theta, initial.phi
    rows = []
    densities = coin_densities([[initial.theta, initial.phi]], sequence, args.steps)
    for t, (pop0, pop1, coherence) in enumerate(densities, start=1):
        pop0, pop1, coherence = pop0[0], pop1[0], coherence[0]
        e_minus, e_plus = eigenvalues_from(pop0, pop1, coherence)
        rows.append((
            t, math.sqrt(e_minus) + math.sqrt(e_plus), pop0, pop1,
            coherence.real, coherence.imag, e_minus, e_plus,
        ))
    write_csv(
        args.out, _manifest(args),
        ["t", "S", "pop0", "pop1", "re_coherence", "im_coherence", "E_minus", "E_plus"],
        rows,
    )


def _cmd_average(args) -> None:
    sequence = parse(args.seq)
    args.seq = sequence.label
    traj = average_schmidt(sequence, args.steps, args.samples, args.seed)
    rows = (
        (int(t), m, s, m / MAX_SCHMIDT_NORM)
        for t, m, s in zip(traj.steps, traj.mean_s, traj.std_s)
    )
    write_csv(args.out, _manifest(args), ["t", "mean_S", "std_S", "mean_S_over_sqrt2"], rows)


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
    result = grid_schmidt(sequence, args.t, args.theta_steps, args.phi_steps)
    rows = (
        (theta, phi, result.values[i, j])
        for i, theta in enumerate(result.theta_axis)
        for j, phi in enumerate(result.phi_axis)
    )
    write_csv(args.out, _manifest(args), ["theta", "phi", "S"], rows)


def _cmd_compare(args) -> None:
    sequences = [parse(label) for label in args.seqs]
    args.seqs = [s.label for s in sequences]
    table = compare_table(sequences, args.t_list, args.samples, args.seed)
    rows = (
        (row.sequence_label, row.t, row.mean_s, row.mean_s_over_sqrt2)
        for row in table.rows
    )
    write_csv(args.out, _manifest(args), ["sequence", "t", "mean_S", "mean_S_over_sqrt2"], rows)


def _cmd_parrondo(args) -> None:
    seq_ab, seq_a, seq_b = parse(args.ab), parse(args.a), parse(args.b)
    args.ab, args.a, args.b = seq_ab.label, seq_a.label, seq_b.label
    report = parrondo_check(seq_ab, seq_a, seq_b, args.t, args.samples, args.seed)
    write_json(
        args.out, _manifest(args),
        {
            "sequence": report.sequence_label,
            "single_a": report.single_a_label,
            "single_b": report.single_b_label,
            "t": report.t,
            "samples": report.samples,
            "seed": report.seed,
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
    table = compare_table(candidates, [args.t], args.samples, args.seed)
    rows = table.rows if args.top is None else table.rows[: args.top]
    write_csv(
        args.out, _manifest(args),
        ["sequence", "t", "mean_S", "mean_S_over_sqrt2"],
        ((r.sequence_label, r.t, r.mean_s, r.mean_s_over_sqrt2) for r in rows),
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
