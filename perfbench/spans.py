"""In-memory span tracing of one in-process CLI invocation.

Spans are recorded from the benchmark's side only: public functions are
replaced, for the duration of one traced run, by wrappers installed under
the name their caller looks them up by (``cli.average_schmidt``,
``experiments.coin_reduction``, ...).  The program's source is not touched.

Each thread keeps its own span stack.  Work submitted to the engine's
``ThreadPoolExecutor`` starts its stack with the span that was open on the
submitting thread, so spans on worker threads get ``schmidt_trajectories``
as their parent; a shared stack would pair spans across threads and give
wrong self times.  A span's self time is its duration minus the union of
its children's intervals.

Bookkeeping that costs more than a few list appends (clamp recounts, output
file sizes) runs after the traced call returns, outside every span.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np


@dataclass(eq=False)
class Span:
    name: str
    parent: Span | None
    thread: int
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans, worker busy intervals and per-call summaries of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (parent span on the submitting thread, worker thread, start, end)
        self.busy: list[tuple[Span | None, int, float, float]] = []
        self.summaries: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable, summarize: Callable | None = None) -> Callable:
        """``func`` recording a span named ``name``; ``summarize(func, args, kwargs,
        result)`` is stored per call, after the span has closed."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if summarize is not None:
                self.summaries[name].append(summarize(func, args, kwargs, result))
            return result

        return traced

    def executor_class(self, base: type) -> type:
        """Subclass of ``base`` whose tasks inherit the submitter's open span."""
        tracer = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                submitter = tracer._stack()
                parent = submitter[-1] if submitter else None

                def task():
                    stack = tracer._stack()
                    stack[:] = [] if parent is None else [parent]
                    start = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        end = time.perf_counter()
                        stack.clear()
                        tracer.busy.append((parent, threading.get_ident(), start, end))

                return super().submit(task)

        return TracedExecutor


# ---------------------------------------------------------------------------
# What gets wrapped.
# ---------------------------------------------------------------------------


def _trajectory_dims(func, args, kwargs, result):
    """(samples, steps, recorded steps) of one ``schmidt_trajectories`` call."""
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    steps = bound.arguments["steps"]
    record = bound.arguments["record_steps"]
    recorded = steps if record is None else len(list(record))
    return len(bound.arguments["states"]), steps, recorded


def _keep_result(func, args, kwargs, result):
    return result


def _count_result(func, args, kwargs, result):
    return len(result)


def _output_path(func, args, kwargs, result):
    return inspect.signature(func).bind(*args, **kwargs).arguments["path"]


#: (module, attribute, summarize) for every wrapped function.  The span name
#: is ``module.attribute``.  Per-cell helpers such as ``format_number`` are
#: deliberately not wrapped.
WRAPPED = (
    ("cli", "average_schmidt", None),
    ("cli", "compare_table", None),
    ("cli", "grid_schmidt", None),
    ("cli", "enumerate_patterns", _count_result),
    ("cli", "write_csv", _output_path),
    ("experiments", "sample_initial_states", None),
    ("experiments", "schmidt_trajectories", _trajectory_dims),
    ("experiments", "coin_reduction", _keep_result),
    ("experiments", "schmidt_norm_from", None),
)


@contextmanager
def installed(tracer: Tracer, modules: dict[str, ModuleType]):
    """Install the wrappers on ``modules`` (keyed by short name), then restore."""
    saved = []
    try:
        for module_name, attr, summarize in WRAPPED:
            module = modules[module_name]
            func = getattr(module, attr, None)
            if func is None:
                tracer.absent.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, func))
            setattr(module, attr, tracer.wrap(f"{module_name}.{attr}", func, summarize))
        pool = getattr(modules["experiments"], "ThreadPoolExecutor", None)
        if pool is None:
            tracer.absent.append("experiments.ThreadPoolExecutor")
        else:
            saved.append((modules["experiments"], "ThreadPoolExecutor", pool))
            modules["experiments"].ThreadPoolExecutor = tracer.executor_class(pool)
        yield tracer
    finally:
        for module, attr, func in reversed(saved):
            setattr(module, attr, func)


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    return by_name


def self_times(spans: list[Span]) -> dict[Span, float]:
    children: dict[Span, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span: span.duration - _union_length([
            (max(c.start, span.start), min(c.end, span.end)) for c in children[span]
        ])
        for span in spans
    }


def clamp_hits(reductions) -> int:
    """Elements where ``schmidt_norm_from`` clamps ``det`` or ``|n|``."""
    hits = 0
    for pop0, pop1, coherence in reductions:
        coherence_sq = coherence.real**2 + coherence.imag**2
        bloch_len = np.sqrt(coherence_sq + (0.5 * (pop0 - pop1)) ** 2)
        det = pop0 * pop1 - coherence_sq
        hits += int(np.count_nonzero((bloch_len > 0.5) | (det < 0.0) | (det > 0.25)))
    return hits


def _output_counts(paths) -> tuple[int, int]:
    rows = size = 0
    for path in paths:
        data = Path(path).read_bytes()
        size += len(data)
        # Data rows: every line after the '#' comments and the column row.
        lines = data.split(b"\n")[:-1]
        rows += sum(1 for line in lines if not line.startswith(b"#")) - 1
    return rows, size


#: Metrics that must repeat exactly between traced runs of one invocation.
COUNTS = (
    "experiments.cell_steps",
    "entanglement.rows_reduced",
    "sequences.candidates",
    "output.rows",
    "output.bytes",
    "entanglement.clamp_hits",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run.  An absent layer reads 0 calls."""
    own = self_times(tracer.spans)
    by_name = _by_name(tracer.spans)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(own[s] for s in by_name[name])

    engine = by_name["experiments.schmidt_trajectories"]
    dims = tracer.summaries["experiments.schmidt_trajectories"]
    cells = sum(n * t * (2 * t + 1) for n, t, _ in dims)
    occupied = sum(n * t * (t + 3) // 2 for n, t, _ in dims)
    # Seed engine model: per step the coin mix reads and writes both coin
    # planes of complex128 (2 x 16 B per cell, each way), and so does the
    # shift; each recorded step's reduction reads both planes once more.
    moved = sum((128 * t + 32 * r) * n * (2 * t + 1) for n, t, r in dims)
    engine_s = sum(s.duration for s in engine)

    worker_threads = len({thread for _, thread, _, _ in tracer.busy}) or (1 if engine else 0)
    busy_by_span: dict[Span, float] = defaultdict(float)
    for parent, _, start, end in tracer.busy:
        busy_by_span[parent] += end - start
    busy = sum(busy_by_span.get(s, s.duration) for s in engine)

    reductions = tracer.summaries["experiments.coin_reduction"]
    rows, size = _output_counts(p for p in tracer.summaries["cli.write_csv"] if p not in (None, "-"))
    return {
        "experiments.schmidt_trajectories_self_s": self_total("experiments.schmidt_trajectories"),
        "experiments.schmidt_trajectories_calls": len(engine),
        "experiments.cell_steps": cells,
        "experiments.cell_steps_per_s": cells / engine_s if engine_s > 0 else 0.0,
        "experiments.bytes_moved_computed": moved,
        "experiments.window_occupancy": occupied / cells if cells else 0.0,
        "experiments.worker_threads": worker_threads,
        "experiments.parallel_busy_ratio": busy / (engine_s * worker_threads) if engine_s > 0 else 0.0,
        "experiments.sample_initial_states_s": total("experiments.sample_initial_states"),
        "experiments.grid_setup_s": self_total("cli.grid_schmidt"),
        "entanglement.coin_reduction_s": total("experiments.coin_reduction"),
        "entanglement.coin_reduction_calls": len(by_name["experiments.coin_reduction"]),
        "entanglement.rows_reduced": sum(int(r[0].size) for r in reductions),
        "entanglement.schmidt_norm_from_s": total("experiments.schmidt_norm_from"),
        "entanglement.clamp_hits": clamp_hits(reductions),
        "sequences.enumerate_patterns_s": total("cli.enumerate_patterns"),
        "sequences.candidates": sum(tracer.summaries["cli.enumerate_patterns"]),
        "output.write_csv_s": total("cli.write_csv"),
        "output.rows": rows,
        "output.bytes": size,
    }


def span_records(tracer: Tracer, main_thread: int) -> list[list]:
    """Every span as [name, parent, on main thread, start, end], times from the first start."""
    origin = min((s.start for s in tracer.spans), default=0.0)
    return [[s.name, s.parent.name if s.parent else None, s.thread == main_thread,
             s.start - origin, s.end - origin] for s in sorted(tracer.spans, key=lambda s: s.start)]


def span_table(tracer: Tracer, main_thread: int) -> list[str]:
    """One line per span name: calls, calls on worker threads, parents, times."""
    own = self_times(tracer.spans)
    lines = []
    for name, spans in sorted(_by_name(tracer.spans).items()):
        parents = sorted({s.parent.name if s.parent else "-" for s in spans})
        on_workers = sum(1 for s in spans if s.thread != main_thread)
        lines.append(
            f"  {name:<38} calls {len(spans):>5}  on worker threads {on_workers:>5}  "
            f"total {sum(s.duration for s in spans):9.4f} s  self {sum(own[s] for s in spans):9.4f} s  "
            f"parent {','.join(parents)}"
        )
    if tracer.busy:
        lines.append(f"  worker tasks: {len(tracer.busy)} on "
                     f"{len({t for _, t, _, _ in tracer.busy})} threads, parent "
                     f"{','.join(sorted({p.name if p else '-' for p, _, _, _ in tracer.busy}))}")
    for name in tracer.absent:
        lines.append(f"  {name:<38} absent (0 calls)")
    return lines
