"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/sweep.py [--runs 10] [--trace 0]
                               [--workloads avg-mmf,grid-wide] [--json out.json]

Makes ``--runs`` runs of ``run.py`` per workload with seeds 1, 2, ... and
``run_seconds`` from ``BENCHMARK.json``, interleaving the workloads (the
order rotates every round).  For every
workload and end-to-end metric it prints the median of the per-run values,
their quartiles and the quartile spread as a share of the median, beside the
metric's bound in ``BENCHMARK.json``.  It pools the invocation times of all
runs for ``wall_s_tail`` (the highest percentile with at least ten samples
beyond it), and prints ``failed_frac`` and the byte-identical count.  With
``--trace 1`` it prints the medians of the per-layer metrics instead.
Exits 1 if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, load_spec, machine_info, tail


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next(json.loads(x[len("detail: "):]) for x in lines if x.startswith("detail: "))
    return {"seed": seed, "run_s": elapsed, "result": result, "detail": detail,
            "stderr": done.stderr}


def spread(values: list[float]) -> dict:
    """Median and, from two values on, quartiles and their spread as a share
    of a nonzero median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    stats = {"median": median, "q1": q1, "q3": q3}
    if median:
        stats["spread"] = (q3 - q1) / median
    return stats


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--json", help="write the summary and every run's values here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        seed = 1 + i
        for workload in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs[workload].append(run)
            result = run["result"]
            ok &= result["correct"] and result["failed"] == 0
            print(f"[{time.strftime('%H:%M:%S')}] {workload} seed {seed}: "
                  f"{run['run_s']:.1f} s, correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
            if not result["correct"]:
                print(run["stderr"][-2000:], file=sys.stderr)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    print(f"\nmachine: {json.dumps(machine_info(), sort_keys=True)}")
    for workload, done in runs.items():
        attempted = sum(r["result"]["attempted"] for r in done)
        failed = sum(r["result"]["failed"] for r in done)
        probes = [statistics.median(r["detail"]["probes_s"]) for r in done]
        entry = {"runs": len(done), "attempted": attempted, "failed": failed,
                 "failed_frac": failed / attempted, "machine.probe_s": spread(probes),
                 "max_run_s": max(r["run_s"] for r in done), "metrics": {},
                 "per_run": [{"seed": r["seed"], "run_s": r["run_s"], **r["detail"]} for r in done]}
        print(f"\n{workload}: {len(done)} runs, seeds {done[0]['seed']}..{done[-1]['seed']}, "
              f"longest run {entry['max_run_s']:.1f} s")
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in done]
            stats = spread(values)
            stats["values"] = values
            entry["metrics"][metric["name"]] = stats
            line = f"  {metric['name']:<42} {stats['median']:14.6g} {metric['unit']:<6}"
            if "spread" in stats:
                line += f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f}"
            if "bound" in metric and "spread" in stats:
                verdict = "ok" if stats["spread"] < metric["bound"] / 3 else (
                    "within bound" if stats["spread"] <= metric["bound"] else "TOO WIDE")
                line += f" (bound {metric['bound']}: {verdict})"
            print(line)
        if not args.trace:
            walls = [w for r in done for w in r["detail"]["walls_s"]]
            identical = sum(r["detail"]["identical"] for r in done)
            found = tail(walls)
            entry["wall_s_tail"] = None if found is None else {
                "value": found[0], "percentile": found[1], "beyond": found[2], "n": len(walls)}
            entry["identical"] = identical
            if found is None:
                print(f"  {'wall_s_tail':<42} n/a: {len(walls)} invocations pooled")
            else:
                print(f"  {'wall_s_tail':<42} {found[0]:14.6g} s      p{found[1]:.1f} of "
                      f"{len(walls)} pooled invocations, {found[2]} beyond")
            print(f"  {'failed_frac':<42} {entry['failed_frac']:14.6g}        "
                  f"{failed} of {attempted}; byte-identical to reference {identical}")
        print(f"  {'machine.probe_s (per-run medians)':<42} {entry['machine.probe_s']['median']:14.6g}"
              f" s      spread {entry['machine.probe_s'].get('spread', 0):.4f}")
        summary[workload] = entry
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump({"machine": machine_info(), "seconds": spec["run_seconds"],
                       "trace": args.trace, "workloads": summary}, stream, indent=1)
            stream.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
