import json
import math

import numpy as np
import pytest

from parrondoqw.cli import main

SQRT2 = math.sqrt(2.0)


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    """Split a CSV file into (comment_lines, header, rows-of-strings)."""
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def column(header, rows, name):
    idx = header.index(name)
    return [float(r[idx]) for r in rows]


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_xxh_is_maximal_at_steps_3_and_5(tmp_path):
    out = tmp_path / "trace.csv"
    assert run("trace", "--seq", "XXH", "--theta", 1.0, "--phi", 2.0,
               "--steps", 6, "--out", out) == 0
    comments, header, rows = read_csv(out)
    assert any("manifest" in c for c in comments)
    assert header == ["t", "S", "pop0", "pop1", "re_coherence", "im_coherence",
                      "E_minus", "E_plus"]
    s_values = column(header, rows, "S")
    assert abs(s_values[2] - SQRT2) < 1e-10
    assert abs(s_values[4] - SQRT2) < 1e-10


def test_trace_pure_x_walk_stays_product(tmp_path):
    out = tmp_path / "trace.csv"
    assert run("trace", "--seq", "X", "--theta", 0, "--steps", 10, "--out", out) == 0
    _, header, rows = read_csv(out)
    assert all(s == pytest.approx(1.0, abs=1e-12) for s in column(header, rows, "S"))


def test_trace_one_hadamard_step_from_pole(tmp_path):
    out = tmp_path / "trace.csv"
    assert run("trace", "--seq", "H", "--theta", 0, "--steps", 1, "--out", out) == 0
    _, header, rows = read_csv(out)
    assert column(header, rows, "S")[0] == pytest.approx(SQRT2, abs=1e-10)


def test_trace_degrees_flag(tmp_path):
    rad = tmp_path / "rad.csv"
    deg = tmp_path / "deg.csv"
    assert run("trace", "--seq", "XXH", "--theta", math.pi / 2, "--phi", math.pi,
               "--steps", 4, "--out", rad) == 0
    assert run("trace", "--seq", "XXH", "--theta", 90, "--phi", 180, "--degrees",
               "--steps", 4, "--out", deg) == 0
    _, header, rows_rad = read_csv(rad)
    _, _, rows_deg = read_csv(deg)
    for a, b in zip(column(header, rows_rad, "S"), column(header, rows_deg, "S")):
        assert a == pytest.approx(b, abs=1e-12)


def test_trace_rejects_bad_sequence():
    assert run("trace", "--seq", "XQZ", "--theta", 0, "--steps", 2) == 1


def test_trace_degrees_range_error_is_in_degrees(capsys):
    assert run("trace", "--seq", "H", "--theta", 200, "--degrees", "--steps", 2) == 1
    err = capsys.readouterr().err
    assert "[0, 180] degrees" in err and "200" in err
    assert "3.49" not in err


# ---------------------------------------------------------------------------
# average
# ---------------------------------------------------------------------------


def test_average_row_count_and_columns(tmp_path):
    out = tmp_path / "avg.csv"
    assert run("average", "--seq", "MMF", "--steps", 25, "--samples", 20,
               "--seed", 1, "--out", out) == 0
    _, header, rows = read_csv(out)
    assert header == ["t", "mean_S", "std_S", "mean_S_over_sqrt2"]
    assert len(rows) == 25
    means = column(header, rows, "mean_S")
    ratios = column(header, rows, "mean_S_over_sqrt2")
    for m, r in zip(means, ratios):
        assert r == pytest.approx(m / SQRT2, rel=1e-10)


def test_average_identical_invocations_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ("average", "--seq", "XHH", "--steps", 12, "--samples", 30, "--seed", 5)
    assert run(*args, "--out", first) == 0
    assert run(*args, "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_average_zero_samples_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run("average", "--seq", "H", "--steps", 5, "--samples", 0)
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _write_log_csv(path, a=0.05, b=1.25, steps=60):
    lines = ["# manifest: {}", "t,mean_S,std_S,mean_S_over_sqrt2"]
    for t in range(1, steps + 1):
        s = a * math.log(t) + b
        lines.append(f"{t},{s!r},0,{s / SQRT2!r}")
    path.write_text("\n".join(lines) + "\n")


def test_fit_recovers_synthetic_log_curve(tmp_path):
    traj = tmp_path / "traj.csv"
    out = tmp_path / "fit.json"
    _write_log_csv(traj)
    assert run("fit", "--in", traj, "--tmin", 1, "--extrapolate", 400,
               "--out", out) == 0
    document = json.loads(out.read_text())
    assert document["a"] == pytest.approx(0.05, abs=1e-10)
    assert document["b"] == pytest.approx(1.25, abs=1e-10)
    assert document["residual_rms"] < 1e-12
    (prediction,) = document["extrapolation"]
    assert prediction["t"] == 400
    assert prediction["S"] == pytest.approx(0.05 * math.log(400) + 1.25, abs=1e-9)


def test_fit_insufficient_points_fails_cleanly(tmp_path):
    traj = tmp_path / "traj.csv"
    _write_log_csv(traj, steps=140)
    assert run("fit", "--in", traj, "--tmin", 139) == 1


def test_fit_rejects_non_finite_cells(tmp_path, capsys):
    for cell in ("nan", "inf", "-inf"):
        bad = tmp_path / f"{cell}.csv"
        out = tmp_path / f"{cell}.json"
        bad.write_text(f"t,mean_S,std_S\n1,1.1,0\n2,{cell},0\n")
        assert run("fit", "--in", bad, "--tmin", 1, "--out", out) == 1
        assert f"{bad}:3: non-finite cell" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-5", "400,0"])
def test_fit_extrapolate_rejects_non_positive_steps(tmp_path, capsys, value):
    traj = tmp_path / "traj.csv"
    _write_log_csv(traj)
    with pytest.raises(SystemExit) as excinfo:
        run("fit", "--in", traj, "--extrapolate", value)
    assert excinfo.value.code == 2
    assert "argument --extrapolate: steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("t_cells, bad_line, message", [
    ("30,25,20,15,10.7,12,14", 3, "t must increase from row to row, got 25 after 30"),
    ("10,11,12.5,13,14,15", 4, "t must be a positive integer, got 12.5"),
    ("0,1,2,3,4,5", 2, "t must be a positive integer, got 0.0"),
    ("-3,1,2,3,4,5", 2, "t must be a positive integer, got -3.0"),
    ("1,2,3,3,4,5", 5, "t must increase from row to row, got 3 after 3"),
], ids=["unsorted", "non-integer", "zero", "negative", "repeated"])
def test_fit_rejects_bad_t_column(tmp_path, capsys, t_cells, bad_line, message):
    bad = tmp_path / "bad.csv"
    out = tmp_path / "fit.json"
    rows = [f"{t},1.3,0" for t in t_cells.split(",")]
    bad.write_text("t,mean_S,std_S\n" + "\n".join(rows) + "\n")
    assert run("fit", "--in", bad, "--tmin", 1, "--out", out) == 1
    assert f"{bad}:{bad_line}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,mean_S\n1,notanumber\n")
    assert run("fit", "--in", bad) == 1
    missing = tmp_path / "missing.csv"
    missing.write_text("a,b\n1,2\n")
    assert run("fit", "--in", missing) == 1


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_long_format_row_count(tmp_path):
    out = tmp_path / "grid.csv"
    assert run("grid", "--seq", "XXH", "--t", 3, "--theta-steps", 2,
               "--phi-steps", 2, "--out", out) == 0
    _, header, rows = read_csv(out)
    assert header == ["theta", "phi", "S"]
    assert len(rows) == 4


def test_grid_xxh_phi_independent(tmp_path):
    out = tmp_path / "grid.csv"
    assert run("grid", "--seq", "XXH", "--t", 10, "--theta-steps", 5,
               "--phi-steps", 8, "--out", out) == 0
    _, header, rows = read_csv(out)
    values = np.array(column(header, rows, "S")).reshape(5, 8)
    assert np.max(np.ptp(values, axis=1)) < 1e-10


def test_grid_hhh_varies_with_phi(tmp_path):
    out = tmp_path / "grid.csv"
    assert run("grid", "--seq", "HHH", "--t", 1, "--theta-steps", 5,
               "--phi-steps", 8, "--out", out) == 0
    _, header, rows = read_csv(out)
    values = np.array(column(header, rows, "S")).reshape(5, 8)
    assert np.max(np.ptp(values, axis=1)) > 0.05


# ---------------------------------------------------------------------------
# compare / parrondo / search
# ---------------------------------------------------------------------------


def test_compare_xxh_is_maximal_at_3_and_5(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run("compare", "--seqs", "XXH,HHH,XXX", "--t-list", "3,5",
               "--samples", 100, "--seed", 1, "--out", out) == 0
    _, header, rows = read_csv(out)
    seq_idx = header.index("sequence")
    ratio_idx = header.index("mean_S_over_sqrt2")
    for row in rows:
        if row[seq_idx] == "XXH":
            assert float(row[ratio_idx]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("value", ["0", "3,0", "-2"])
def test_compare_t_list_rejects_non_positive_steps(capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        run("compare", "--seqs", "XXH", "--t-list", value, "--samples", 10)
    assert excinfo.value.code == 2
    assert "argument --t-list: steps must be >= 1" in capsys.readouterr().err


def test_parrondo_verdict_json(tmp_path):
    out = tmp_path / "parrondo.json"
    assert run("parrondo", "--ab", "XXH", "--a", "X", "--b", "H", "--t", 50,
               "--samples", 100, "--seed", 1, "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["is_parrondo"] is True
    assert report["mean_combined"] > report["mean_a"]
    assert report["mean_combined"] > report["mean_b"]
    assert report["margin_a"] == pytest.approx(
        report["mean_combined"] - report["mean_a"], abs=1e-9
    )


def test_search_ranks_alphabet(tmp_path):
    out = tmp_path / "search.csv"
    assert run("search", "--alphabet", "HX", "--max-period", 1, "--t", 10,
               "--samples", 50, "--seed", 2, "--out", out) == 0
    _, header, rows = read_csv(out)
    assert {row[header.index("sequence")] for row in rows} == {"H", "X"}
    means = column(header, rows, "mean_S")
    assert means == sorted(means, reverse=True)


def test_search_top_limits_rows(tmp_path):
    out = tmp_path / "search.csv"
    assert run("search", "--alphabet", "HX", "--max-period", 2, "--t", 5,
               "--samples", 20, "--seed", 2, "--top", 3, "--out", out) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# determinism & stream output
# ---------------------------------------------------------------------------


def test_thread_count_never_changes_output(tmp_path):
    files = []
    for threads in (1, 2, 8):
        out = tmp_path / f"avg-{threads}.csv"
        assert run("average", "--seq", "XXH", "--steps", 20, "--samples", 64,
                   "--seed", 9, "--threads", threads, "--out", out) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]


def test_stdout_output(capsys):
    assert run("trace", "--seq", "H", "--theta", 0, "--steps", 1) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# manifest:")
    assert "t,S," in captured.out


# ---------------------------------------------------------------------------
# manifests: one builder for all seven commands
# ---------------------------------------------------------------------------

# Recorded before the commands shared one manifest builder; the parameters
# are canonical (labels upper-cased, alphabet sorted, trace angles in
# radians with phi in [0, 2pi)) and never include --out, --threads or
# --degrees.
MANIFESTS = {
    "trace": (
        ["trace", "--seq", "xxh...", "--theta", "90", "--phi", "-90", "--degrees", "--steps", "3"],
        '{"command": "trace", "params": {"phi": 4.71238898038469, "seq": "XXH", "steps": 3, '
        '"theta": 1.5707963267948966}, "version": "0.1.0"}',
    ),
    "average": (
        ["average", "--seq", "mmf", "--steps", "4", "--samples", "5", "--seed", "3", "--threads", "2"],
        '{"command": "average", "params": {"samples": 5, "seed": 3, "seq": "MMF", "steps": 4}, '
        '"version": "0.1.0"}',
    ),
    "fit": (
        ["fit", "--in", "traj.csv", "--tmin", "5", "--extrapolate", "400,1000"],
        '{"command": "fit", "params": {"extrapolate": [400, 1000], "input": "traj.csv", "tmin": 5}, '
        '"version": "0.1.0"}',
    ),
    "grid": (
        ["grid", "--seq", "hx", "--t", "3", "--theta-steps", "3", "--phi-steps", "4", "--threads", "2"],
        '{"command": "grid", "params": {"phi_steps": 4, "seq": "HX", "t": 3, "theta_steps": 3}, '
        '"version": "0.1.0"}',
    ),
    "compare": (
        ["compare", "--seqs", "xxh...,HHH", "--t-list", "3,5", "--samples", "10", "--seed", "2"],
        '{"command": "compare", "params": {"samples": 10, "seed": 2, "seqs": ["XXH", "HHH"], '
        '"t_list": [3, 5]}, "version": "0.1.0"}',
    ),
    "parrondo": (
        ["parrondo", "--ab", "xxh", "--a", "x", "--b", "h", "--t", "5", "--samples", "10", "--threads", "2"],
        '{"command": "parrondo", "params": {"a": "X", "ab": "XXH", "b": "H", "samples": 10, "seed": 1, '
        '"t": 5}, "version": "0.1.0"}',
    ),
    "search": (
        ["search", "--alphabet", "xhfm", "--max-period", "2", "--t", "4", "--samples", "10"],
        '{"command": "search", "params": {"alphabet": "FHMX", "max_period": 2, "samples": 10, '
        '"seed": 1, "t": 4, "top": null}, "version": "0.1.0"}',
    ),
}


@pytest.mark.parametrize("command", sorted(MANIFESTS))
def test_manifest_is_pinned(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    _write_log_csv(tmp_path / "traj.csv")
    argv, expected = MANIFESTS[command]
    assert run(*argv) == 0
    text = capsys.readouterr().out
    if command in ("fit", "parrondo"):
        assert json.dumps(json.loads(text)["manifest"], sort_keys=True) == expected
    else:
        assert text.splitlines()[0] == f"# manifest: {expected}"
