"""Record the reference outputs that ``check.py`` compares against.

    python3 perfbench/record_reference.py [workload ...]

Runs every workload once per reference seed (once for the unseeded grid)
through the CLI and writes ``reference/<workload>.json`` (and, for the grid,
its S column to ``reference/<workload>-S.txt.xz``).  Run it only at a
commit whose outputs are trusted: the references in the repository were
recorded at the seed commit, and a later change is checked against them.
Every recorded output must itself pass the range checks.
"""

from __future__ import annotations

import json
import lzma
import sys
import tempfile
from pathlib import Path

from check import REFERENCE_DIR, check_output, grid_s_column, reference_entry, reference_key
from run import ROOT, Launcher
from workloads import REFERENCE_SEEDS, WORKLOADS


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        outputs = {}
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_name:
            tmp = Path(tmp_name)
            out = tmp / "out.csv"
            with Launcher(tmp) as launcher:
                for seed in REFERENCE_SEEDS if workload.seeded else REFERENCE_SEEDS[:1]:
                    argv = [sys.executable, "-m", "parrondoqw.cli", *workload.argv(seed, str(out))]
                    child = launcher.run(argv)
                    if child.returncode != 0:
                        print(f"{name} seed {seed}: exit {child.returncode}\n{child.stderr}",
                              file=sys.stderr)
                        return 1
                    data = out.read_bytes()
                    entry = reference_entry(workload, data)
                    if "s_file" in entry:
                        (REFERENCE_DIR / entry["s_file"]).write_bytes(
                            lzma.compress(grid_s_column(data), preset=9))
                    # Re-check against an entry that cannot match byte for byte,
                    # so the range and ranking checks run on the recorded output.
                    problems = check_output(workload, dict(entry, sha256=""), data).problems
                    if problems:
                        print(f"{name} seed {seed}: {problems[:5]}", file=sys.stderr)
                        return 1
                    outputs[reference_key(workload, seed)] = entry
                    print(f"{name} seed {seed}: {entry['rows']} rows, {child.wall_s:.2f} s")
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as stream:
            json.dump({"workload": name, "argv": list(workload.args), "outputs": outputs},
                      stream, indent=1)
            stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
