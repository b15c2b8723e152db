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

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_library_block():
    """The Python code block of README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_block_runs(capsys):
    exec(compile(_readme_library_block(), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "(1, 2, 2, 13)"


def test_every_public_name_resolves():
    assert len(set(parrondoqw.__all__)) == len(parrondoqw.__all__)
    for name in parrondoqw.__all__:
        assert getattr(parrondoqw, name) is not None, name


def test_public_names_are_pinned():
    assert sorted(parrondoqw.__all__) == PUBLIC


def _fresh_python(code, *args):
    """Standard output of ``code`` run by a fresh interpreter that imports this package."""
    src = str(Path(parrondoqw.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_oracles_out():
    code = "import sys, parrondoqw.cli; print(sorted(m for m in sys.modules if m.startswith('parrondoqw')))"
    loaded = _fresh_python(code)
    assert "parrondoqw.cli" in loaded
    assert "parrondoqw.oracles" not in loaded


def test_sampled_run_leaves_numpy_random_unloaded(tmp_path):
    # The package computes its seeded stream itself.  numpy.random, with the
    # secrets, hashlib and OpenSSL modules it imports, took 10-19 ms and about
    # 6 MiB of peak RSS of a run's start-up (2-core Xeon, numpy 2.4.6).
    code = (
        "import sys; from parrondoqw.cli import main; "
        "assert main(['average', '--seq', 'MMF', '--steps', '3', '--samples', '5', '--out', sys.argv[1]]) == 0; "
        "print(sorted(m for m in ('numpy.random', 'secrets', 'hashlib', '_hashlib') if m in sys.modules))"
    )
    assert _fresh_python(code, tmp_path / "mmf.csv") == "[]\n"
    assert (tmp_path / "mmf.csv").read_text().startswith("# manifest:")
