import os
import subprocess
import sys
from pathlib import Path

import parrondoqw

PUBLIC = [
    "ALPHABET",
    "AverageTrajectory",
    "CoinSequence",
    "FitResult",
    "MAX_SCHMIDT_NORM",
    "ParrondoReport",
    "__version__",
    "average_schmidt",
    "basis_walk",
    "coin_densities",
    "compare_table",
    "eigenvalues_from",
    "enumerate_patterns",
    "log_fit",
    "named_coin",
    "parrondo_check",
    "parse",
    "phase_independence_certificate",
    "sample_initial_states",
    "schmidt_norm_from",
]


def test_every_public_name_resolves():
    assert len(set(parrondoqw.__all__)) == len(parrondoqw.__all__)
    for name in parrondoqw.__all__:
        assert getattr(parrondoqw, name) is not None, name


def test_public_names_are_pinned():
    assert sorted(parrondoqw.__all__) == PUBLIC


def test_cli_import_leaves_oracles_out():
    src = str(Path(parrondoqw.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, parrondoqw.cli; print(sorted(m for m in sys.modules if m.startswith('parrondoqw')))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "parrondoqw.cli" in loaded.stdout
    assert "parrondoqw.oracles" not in loaded.stdout
