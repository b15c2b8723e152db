"""Timings of acceptance criteria 1, 2 and 8: the acceptance tests' own
functions, loaded read-only from ``tests/test_acceptance.py`` and called
untraced and in process.

A criterion passes when its test function returns; the tests assert both the
criterion's value and its time bound, so a miss raises ``AssertionError``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

TESTS = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"

#: (metric name, bound in seconds, test function in ``TESTS``)
CRITERIA = (
    ("accept.c1_s", 1.0, "test_criterion_1_maximal_entanglement_at_steps_3_and_5"),
    ("accept.c2_s", 5.0, "test_criterion_2_closed_form_oracle_suite"),
    ("accept.c8_s", 30.0, "test_criterion_8_mmf_asymptotic_extrapolation"),
)


def load_tests() -> ModuleType:
    """The acceptance test module; ``parrondoqw`` must be importable."""
    spec = importlib.util.spec_from_file_location("perfbench_acceptance", TESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_criterion(test: Callable[[], None]) -> tuple[float, bool, str]:
    """(elapsed seconds, whether the test passed, the line it printed)."""
    printed = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            test()
        ok = True
    except AssertionError:
        ok = False
    elapsed = time.perf_counter() - start
    return elapsed, ok, printed.getvalue().strip()
