"""The benchmark's workloads: CLI invocations of the paper's experiments.

Each workload is one ``parrondoqw`` command line; why each one is there is
recorded in ``BENCHMARK.json``.  The benchmark seed picks
the ``--seed`` the command receives; outputs are checked against references
recorded for ``REFERENCE_SEEDS``, so any benchmark seed is folded onto that
set (seeds 1..10 pass through unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

#: CLI seeds for which reference outputs are shipped in ``reference/``.
REFERENCE_SEEDS = tuple(range(1, 11))


def cli_seed(bench_seed: int) -> int:
    """The ``--seed`` passed to the program for a benchmark seed."""
    return REFERENCE_SEEDS[(bench_seed - REFERENCE_SEEDS[0]) % len(REFERENCE_SEEDS)]


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # CLI arguments without --seed / --out
    seeded: bool  # receives --seed (grid has no randomness)
    kind: str  # output layout: "average", "search" or "grid"
    work: int  # samples x steps x candidates (grid: points x t)

    def argv(self, seed: int, out: str) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.seeded else []
        return [*self.args, *seed_args, "--out", out]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "avg-mmf",
            ("average", "--seq", "MMF", "--steps", "140", "--samples", "2500"),
            seeded=True,
            kind="average",
            work=2500 * 140,
        ),
        Workload(
            "search-p3",
            ("search", "--alphabet", "HFMX", "--max-period", "3", "--t", "50",
             "--samples", "500"),
            seeded=True,
            kind="search",
            # 76 primitive HFMX patterns of period <= 3.
            work=500 * 50 * 76,
        ),
        Workload(
            "grid-wide",
            ("grid", "--seq", "HHH", "--t", "8", "--theta-steps", "361",
             "--phi-steps", "720"),
            seeded=False,
            kind="grid",
            work=361 * 720 * 8,
        ),
        Workload(
            "avg-xxx-t2",
            ("average", "--seq", "XXX", "--steps", "50", "--samples", "16384",
             "--threads", "2"),
            seeded=True,
            kind="average",
            work=16384 * 50,
        ),
    )
}
