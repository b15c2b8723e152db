"""Benchmark of whole ``parrondoqw`` CLI invocations.

Usage (from the repository root):

    python3 perfbench/run.py --workload avg-mmf --seed 1 --seconds 25 --trace 0

``--trace 0`` times complete CLI invocations, each in a fresh interpreter,
one at a time from this single process (a closed loop with one client), for
about ``--seconds`` seconds.  Between invocations it times a fresh
interpreter importing ``parrondoqw.cli`` (set-up) and a fixed numpy probe
(machine drift).  It reports the end-to-end metrics.

``--trace 1`` runs the same command in process, alternating untraced and
traced ``cli.main`` calls, and reports the per-layer metrics from spans the
benchmark records around the program's public functions (see ``spans.py``),
plus the import split and the acceptance-criterion timings.

Every output is checked against references recorded at the seed commit
(``check.py``).  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is run from ``src/`` of the checkout, which must
exist; everything written goes to a temporary directory inside the checkout.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools stay at one thread, here (for the in-process runs) and in
# every child; set before numpy is imported.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from accept import CRITERIA, load_tests, time_criterion  # noqa: E402
from check import check_output, load_reference  # noqa: E402
from spans import COUNTS, Tracer, installed, layer_metrics, span_records, span_table  # noqa: E402
from workloads import WORKLOADS, Workload, cli_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A run never stops before this many timed invocations (or traced pairs).
MIN_INVOCATIONS = 3
MIN_TRACED = 2
#: Fresh interpreters timed per invocation (set-up is short, so it gets more
#: samples), and for the import split of a traced run.
SETUPS_PER_LAP = 2
SETUP_REPEATS = 5
#: A child still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 100.0

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import parrondoqw.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------


def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class Child:
    wall_s: float
    maxrss_kib: int
    returncode: int
    stdout: str
    stderr: str


class Launcher:
    """Runs children one at a time through ``launcher.py`` (see there why)."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).resolve().parent / "launcher.py")],
            env=child_env(tmp), cwd=tmp, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)

    def run(self, argv: list[str]) -> Child:
        """Run ``argv`` to completion: wall time from spawn to reap, peak RSS from wait4."""
        out, err = self.tmp / "child.out", self.tmp / "child.err"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return Child(reply["wall_s"], reply["maxrss_kib"], reply["status"],
                     out.read_text(errors="replace"), err.read_text(errors="replace"))

    def setup(self) -> tuple[float, float, float] | None:
        """(wall, numpy import, package import) of a fresh interpreter, or None on failure."""
        child = self.run([sys.executable, "-c", SETUP_CODE])
        if child.returncode != 0:
            print(f"FAILED set-up: {child.stderr.strip()[-300:]}", file=sys.stderr)
            return None
        numpy_s, package_s = (float(x) for x in child.stdout.split())
        return child.wall_s, numpy_s, package_s


# ---------------------------------------------------------------------------
# Machine.
# ---------------------------------------------------------------------------


class Probe:
    """Fixed numpy work shaped like the engine's inner loop (coin mix, shift,
    reduction on a 2 x 1024 x 257 complex128 block).  The program never runs
    it, so a change in its time between runs is drift of the machine."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.amps = rng.standard_normal((2, 1024, 257)) + 1j * rng.standard_normal((2, 1024, 257))
        self.mixed = np.empty_like(self.amps)
        self.coin = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2.0)

    def __call__(self) -> float:
        amps, mixed = self.amps.copy(), self.mixed
        start = time.perf_counter()
        for _ in range(8):
            np.einsum("ab,bnp->anp", self.coin, amps, out=mixed)
            amps[0, :, 1:] = mixed[1, :, :-1]
            amps[1, :, :-1] = mixed[0, :, 1:]
            np.sum(amps[0] * np.conj(amps[1]), axis=-1)
        return time.perf_counter() - start


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples beyond) at the highest nearest-rank percentile
    with at least ten samples beyond it; None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    identical: int = 0

    def record(self, problems: list[str], identical: bool, what: str) -> None:
        self.attempted += 1
        self.identical += identical
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)


def _stop(start: float, seconds: float, laps: list[float], done: int, minimum: int) -> bool:
    """True once ``minimum`` laps are done and another would end past ``seconds``."""
    return done >= minimum and time.perf_counter() - start + statistics.median(laps) > seconds


def timed_run(workload: Workload, seed: int, seconds: float, tmp: Path, units: dict) -> dict:
    reference = load_reference(workload, seed)
    out = tmp / "out.csv"
    argv = [sys.executable, "-m", "parrondoqw.cli", *workload.argv(seed, str(out))]
    tally = Tally()
    probe = Probe()
    walls, rss, setups, probes, laps = [], [], [], [probe()], []
    start = time.perf_counter()
    with Launcher(tmp) as launcher:
        setup_ok = launcher.setup() is not None  # warm-up: fills bytecode caches
        while True:
            lap = time.perf_counter()
            for _ in range(SETUPS_PER_LAP):
                setup = launcher.setup()
                setup_ok &= setup is not None
                if setup is not None:
                    setups.append(setup[0])
            child = launcher.run(argv)
            walls.append(child.wall_s)
            rss.append(child.maxrss_kib / 1024.0)
            if child.returncode != 0:
                tally.record([f"exit code {child.returncode}: {child.stderr.strip()[-300:]}"],
                             False, workload.name)
            else:
                result = check_output(workload, reference, out.read_bytes())
                tally.record(result.problems, result.identical, workload.name)
            out.unlink(missing_ok=True)
            probes.append(probe())
            laps.append(time.perf_counter() - lap)
            if _stop(start, seconds, laps, len(walls), MIN_INVOCATIONS):
                break
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "sample_steps_per_s": workload.work / wall,
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {"walls_s": walls, "setups_s": setups, "peak_rss_mib": rss, "probes_s": probes,
              "identical": tally.identical}
    found = tail(walls)
    print(f"{workload.name}: {tally.attempted} invocations of "
          f"parrondoqw {' '.join(workload.argv(seed, 'OUT'))}")
    for name, value in metrics.items():
        print(f"  {name:<20} {value:14.6g} {units[name]}")
    if found is None:
        print(f"  {'wall_s_tail':<20} n/a: {len(walls)} invocations, a percentile with "
              f">= 10 beyond needs >= 11")
    else:
        print(f"  {'wall_s_tail':<20} {found[0]:14.6g} s (p{found[1]:.1f}, {found[2]} beyond, "
              f"n={len(walls)})")
    print(f"  {'failed_frac':<20} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed} of {tally.attempted})")
    print(f"  byte-identical to reference: {tally.identical} of {tally.attempted}")
    print(f"  machine.probe_s median {statistics.median(probes):.4f} s "
          f"(min {min(probes):.4f}, max {max(probes):.4f})")
    return {"correct": tally.failed == 0 and setup_ok, "tally": tally,
            "metrics": metrics, "detail": detail}


def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from parrondoqw import cli, entanglement, experiments, sequences

    return {"cli": cli, "experiments": experiments, "entanglement": entanglement,
            "sequences": sequences}


def _call_main(main, argv: list[str]) -> tuple[int, float, str]:
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # noqa: BLE001 - a crash is one failed invocation
        return -1, time.perf_counter() - start, traceback.format_exc()
    return code, time.perf_counter() - start, ""


def traced_run(workload: Workload, seed: int, seconds: float, tmp: Path, units: dict) -> dict:
    start = time.perf_counter()
    reference = load_reference(workload, seed)
    tally = Tally()
    probe = Probe()
    probes = [probe()]
    with Launcher(tmp) as launcher:
        setup_ok = launcher.setup() is not None  # warm-up: fills bytecode caches
        imports = [launcher.setup() for _ in range(SETUP_REPEATS)]
    setup_ok &= all(imports)
    imports = [x for x in imports if x]
    modules = _import_program()

    tests = load_tests()
    accept, accept_lines = {}, []
    for name, bound, test in CRITERIA:
        elapsed, ok, detail = time_criterion(getattr(tests, test))
        accept[name] = elapsed
        tally.record([] if ok else [detail], False, name)
        accept_lines.append(f"  {name:<40} {elapsed:10.4f} s  bound {bound:g} s  "
                            f"{'PASS' if ok else 'FAIL'}  {detail}")
    probes.append(probe())

    main_thread = threading.get_ident()
    untraced_s, traced_s, layers, laps = [], [], [], []
    first_tracer = None
    while True:
        lap = time.perf_counter()
        rep = len(laps)
        for traced in ((False, True) if rep % 2 == 0 else (True, False)):
            out = tmp / f"{'traced' if traced else 'untraced'}-{rep}.csv"
            argv = workload.argv(seed, str(out))
            if traced:
                tracer = Tracer()
                with installed(tracer, modules):
                    code, elapsed, crash = _call_main(modules["cli"].main, argv)
            else:
                code, elapsed, crash = _call_main(modules["cli"].main, argv)
            if code != 0:
                tally.record([f"main returned {code} {crash}"], False, workload.name)
            else:
                result = check_output(workload, reference, out.read_bytes())
                tally.record(result.problems, result.identical, workload.name)
            if traced:
                traced_s.append(elapsed)
                layers.append(layer_metrics(tracer))
                first_tracer = first_tracer or tracer
            else:
                untraced_s.append(elapsed)
            out.unlink(missing_ok=True)
        probes.append(probe())
        laps.append(time.perf_counter() - lap)
        if _stop(start, seconds, laps, len(laps), MIN_TRACED):
            break

    repeats = True
    for name in COUNTS:
        values = {layer[name] for layer in layers}
        if len(values) != 1:
            repeats = False
            print(f"FAILED count {name} differs between traced runs: {sorted(values)}",
                  file=sys.stderr)
    metrics = {
        "setup.numpy_import_s": statistics.median(x[1] for x in imports),
        "setup.package_import_s": statistics.median(x[2] for x in imports),
    }
    for name, first in layers[0].items():
        # Integer metrics are counts, equal in every traced run; times vary.
        metrics[name] = first if isinstance(first, int) else statistics.median(
            layer[name] for layer in layers)
    untraced, traced = statistics.median(untraced_s), statistics.median(traced_s)
    metrics["cli.main_s"] = untraced
    metrics["cli.tracing_overhead"] = traced / untraced - 1.0
    metrics.update(accept)
    metrics["machine.probe_s"] = statistics.median(probes)

    print(f"{workload.name}: {len(untraced_s)} untraced and {len(traced_s)} traced in-process "
          f"runs of parrondoqw {' '.join(workload.argv(seed, 'OUT'))}")
    print(f"  cli.main untraced median {untraced:.4f} s, traced {traced:.4f} s: tracing "
          f"overhead {100 * metrics['cli.tracing_overhead']:+.2f}%")
    print("spans of the first traced run:")
    for line in span_table(first_tracer, main_thread):
        print(line)
    print("acceptance criteria (untraced, in process):")
    for line in accept_lines:
        print(line)
    print("per-layer metrics (medians over traced runs):")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:16.8g} {units[name]}")
    print(f"  counts repeat exactly across {len(layers)} traced runs: {repeats}")
    detail = {"untraced_main_s": untraced_s, "traced_main_s": traced_s, "probes_s": probes,
              "imports_s": imports, "spans": span_records(first_tracer, main_thread)}
    return {"correct": tally.failed == 0 and setup_ok and repeats, "tally": tally,
            "metrics": metrics, "detail": detail}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parrondoqw" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'parrondoqw'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    seed = cli_seed(args.seed)
    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = traced_run if args.trace else timed_run
        result = run(workload, seed, args.seconds, Path(tmp), units)
    print("detail: " + json.dumps(result["detail"]))
    tally = result["tally"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
