import contextlib
import hashlib
import io
import json
import math
import os
import tracemalloc

import argparse

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parrondoqw.cli import _int_at_least, _label_list, _positive_int_list, main
from parrondoqw.output import write_json

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


@pytest.mark.parametrize("theta, phi, named", [
    ("4", "0", "theta=4.0"),
    ("1", "inf", "phi=inf"),
    ("nan", "0", "theta=nan"),
])
def test_trace_bad_angle_is_one_line_naming_it(capsys, theta, phi, named):
    assert run("trace", "--seq", "H", "--theta", theta, "--phi", phi, "--steps", 2) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and named in line


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


@pytest.mark.parametrize("flag", ["--theta-steps", "--phi-steps"])
def test_grid_single_sample_axis_is_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as excinfo:
        run("grid", "--seq", "H", "--t", 2, flag, 1, "--out", out)
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


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
    ("1,2,3,4,5,6,7,8,9,10,1e300", 12, "t must be below 2**63, got 1e+300"),
    ("1,2,3,4,5,6,7,8,9,10,9.3e18", 12, "t must be below 2**63, got 9.3e+18"),
], ids=["unsorted", "non-integer", "zero", "negative", "repeated", "huge", "above-int64"])
def test_fit_rejects_bad_t_column(tmp_path, capsys, t_cells, bad_line, message):
    bad = tmp_path / "bad.csv"
    out = tmp_path / "fit.json"
    rows = [f"{t},1.3,0" for t in t_cells.split(",")]
    bad.write_text("t,mean_S,std_S\n" + "\n".join(rows) + "\n")
    assert run("fit", "--in", bad, "--tmin", 1, "--out", out) == 1
    assert f"{bad}:{bad_line}: {message}" in capsys.readouterr().err
    assert not out.exists()


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("manifest, accepted", [
    ('[1, 2]', False),
    ('{"params": null}', True),
    ('{"params": {"samples": [3]}}', True),
    ('{"params": {"samples": 1e400}}', False),
    ('{"params": {}, "x": 1e400}', False),
    ('{"params": {}, "x": NaN}', False),
    ('{"params": ', False),
    ("[" * 10**5, False),
], ids=["list", "null-params", "list-samples", "overflow-param", "overflow-key", "nan", "truncated", "deep"])
def test_fit_manifest_is_a_finite_json_object(tmp_path, capsys, manifest, accepted):
    traj = tmp_path / "traj.csv"
    out = tmp_path / "fit.json"
    _write_log_csv(traj)
    traj.write_text(traj.read_text().replace("# manifest: {}", f"# manifest: {manifest}"))
    code = run("fit", "--in", traj, "--tmin", 1, "--out", out)
    err = capsys.readouterr().err
    if accepted:
        assert code == 0 and err == ""
        document = json.loads(out.read_text(), parse_constant=_no_constants)
        assert document["input_manifest"] == json.loads(manifest)
    else:
        assert code == 1 and not out.exists()
        assert err == f"error: {traj}:1: malformed manifest\n"


@pytest.mark.parametrize("mean_s, extrapolate", [
    ([(-1) ** (t + 1) * 1e308 for t in range(1, 21)], "400"),
    ([1e306 * math.log(t) + 1.2 for t in range(1, 21)], "1" + "0" * 400),
], ids=["alternating-1e308", "huge-slope"])
def test_fit_that_overflows_is_an_error(tmp_path, capsys, mean_s, extrapolate):
    traj = tmp_path / "traj.csv"
    out = tmp_path / "fit.json"
    traj.write_text("t,mean_S\n" + "".join(f"{t},{s!r}\n" for t, s in enumerate(mean_s, start=1)))
    assert run("fit", "--in", traj, "--tmin", 1, "--extrapolate", extrapolate, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: log fit gives a non-finite ") and err.count("\n") == 1
    assert not out.exists()


def test_write_json_refuses_non_finite_payload(tmp_path):
    out = tmp_path / "out.json"
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(out), {}, {"x": value})
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


@pytest.mark.parametrize("argv", [
    ["average", "--seq", "X", "--steps", "1", "--samples", "1"],
    ["compare", "--seqs", "XXH", "--t-list", "3", "--samples", "1"],
    ["parrondo", "--ab", "XXH", "--a", "X", "--b", "H", "--t", "3", "--samples", "1"],
    ["search", "--max-period", "1", "--t", "3", "--samples", "1"],
], ids=["average", "compare", "parrondo", "search"])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as excinfo:
        run(*argv, "--seed", "-5", "--out", out)
    assert excinfo.value.code == 2
    assert "argument --seed: must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv, "--seed", "0", "--out", out) == 0


def test_parrondo_verdict_json(tmp_path):
    out = tmp_path / "parrondo.json"
    assert run("parrondo", "--ab", "xxh", "--a", "x", "--b", "h", "--t", 50,
               "--samples", 100, "--seed", 1, "--out", out) == 0
    report = json.loads(out.read_text())
    echoed = {k: report[k] for k in ("sequence", "single_a", "single_b", "t", "samples", "seed")}
    assert echoed == {"sequence": "XXH", "single_a": "X", "single_b": "H",
                      "t": 50, "samples": 100, "seed": 1}
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


@pytest.mark.parametrize("argv", [
    ["trace", "--seq", "H", "--theta", "0", "--steps", "1"],
    ["parrondo", "--ab", "XXH", "--a", "X", "--b", "H", "--t", "5", "--samples", "10"],
], ids=["csv", "json"])
def test_stdout_without_buffer_gets_the_file_bytes(tmp_path, argv):
    # An io.StringIO stdout has no binary buffer to write the bytes to.
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 0
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert run(*argv) == 0
    assert text.getvalue().encode() == out.read_bytes()


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
    # Recorded later: phi % 2pi rounds a phi just below 0 up to exactly 2pi,
    # which the manifest writes as 0.0.
    "trace-phi-below-0": (
        ["trace", "--seq", "XXH", "--theta", "1", "--phi=-1e-17", "--steps", "2"],
        '{"command": "trace", "params": {"phi": 0.0, "seq": "XXH", "steps": 2, "theta": 1.0}, '
        '"version": "0.1.0"}',
    ),
    "trace-phi-below-0-degrees": (
        ["trace", "--seq", "XXH", "--theta", "1", "--phi=-360e-17", "--degrees", "--steps", "2"],
        '{"command": "trace", "params": {"phi": 0.0, "seq": "XXH", "steps": 2, '
        '"theta": 0.017453292519943295}, "version": "0.1.0"}',
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


# ---------------------------------------------------------------------------
# data bytes: the whole output of one small run of each CSV command
# ---------------------------------------------------------------------------

# SHA-256 of the complete output (manifest, column row and every data row),
# recorded with the row-at-a-time writer that the columnar one replaced.  The
# trace run prints exact zeros as 0.00000000000e+00.
CSV_SHA256 = {
    "trace": (
        ["trace", "--seq", "XXH", "--theta", "1", "--phi", "2", "--steps", "5"],
        "aca2fb5a7804eeeef69c38a0314e7835827f5e64b1f899ef9d6f6967115f03c2",
    ),
    "average": (
        ["average", "--seq", "MMF", "--steps", "20", "--samples", "50"],
        "de67e5bc20b7f86484caacceac26816328b9b6c88845c7b003fcce540bd166db",
    ),
    "grid": (
        ["grid", "--seq", "HHH", "--t", "8", "--theta-steps", "37", "--phi-steps", "72"],
        "58b17d7d026e2abe4be450ed8888c9ac5f60260a17f468ff3591b9cfc47a9b02",
    ),
    # 65,160 rows: many groups of theta rows, the last one partial.
    "grid-blocks": (
        ["grid", "--seq", "HHH", "--t", "8", "--theta-steps", "181", "--phi-steps", "360"],
        "f57ca6c27cf23394fc07e6a7ac1584ccc310b9353e37af2eb9064284c79dfd7e",
    ),
    # The grid-wide benchmark workload: 259,920 rows, 10,990,712 bytes.
    "grid-wide": (
        ["grid", "--seq", "HHH", "--t", "8", "--theta-steps", "361", "--phi-steps", "720"],
        "3591776337bd43d67ffcc5b91fe5f6c0f4f391e8e08f77ff8184a7c11db1a0e5",
    ),
    "compare": (
        ["compare", "--seqs", "XXH,HHH", "--t-list", "3,5"],
        "f6ae8f3495e749cfd969ce4e42091050f5ce34dc4ee588b8c0e0fb0852fe2b0f",
    ),
    "search": (
        ["search", "--max-period", "2", "--t", "4", "--samples", "20"],
        "bcaef0baae05d8c1a0e9f7e2694e5314462fc77c135fb9007b2780ff80e3c408",
    ),
    # 76 candidates at t = 20: more than one block of the batched walk.
    "search-blocks": (
        ["search", "--max-period", "3", "--t", "20", "--samples", "50"],
        "fb4e8d5ad064e912f92329cb301e800833d2e60f33e1ddf0927a1adfcab8d15a",
    ),
    # The other three benchmark workloads at seed 1.
    "avg-mmf": (
        ["average", "--seq", "MMF", "--steps", "140", "--samples", "2500", "--seed", "1"],
        "122bb0527b4c9c31f765b8ed8cbf69930368af54c0f24e5b2fa719e3329d9b7f",
    ),
    "search-p3": (
        ["search", "--alphabet", "HFMX", "--max-period", "3", "--t", "50", "--samples", "500", "--seed", "1"],
        "7ccccfa678a421b28c70324f5ba4369f546ea9201fdca743c96cf5f4753974ce",
    ),
    "avg-xxx-t2": (
        ["average", "--seq", "XXX", "--steps", "50", "--samples", "16384", "--threads", "2", "--seed", "1"],
        "640f8c590a3b46f16ad36f49d9a5fc051a2c17084ffa28341c36aea6859d3fca",
    ),
}


@pytest.mark.parametrize("command", sorted(CSV_SHA256))
def test_csv_bytes_are_pinned(tmp_path, command):
    argv, expected = CSV_SHA256[command]
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("command", sorted(CSV_SHA256))
def test_stdout_bytes_are_the_file_bytes(capfdbinary, command):
    argv, expected = CSV_SHA256[command]
    assert run(*argv, "--out", "-") == 0
    assert hashlib.sha256(capfdbinary.readouterr().out).hexdigest() == expected


# SHA-256 of the whole JSON output, recorded before parrondo_check took its
# means from the shared sampled sweep.  fit reads an average output written
# beside it, by relative path, since its manifest records the path as given.
JSON_SHA256 = {
    "fit": (
        ["fit", "--in", "mmf.csv", "--tmin", "10", "--extrapolate", "400"],
        "4c5ecc6bf1f61dce3ad15ebf6d1d8e2e6237a489b1163cd15aafc66bb1abcb97",
    ),
    "parrondo": (
        ["parrondo", "--ab", "XXH", "--a", "X", "--b", "H", "--t", "50", "--samples", "100", "--seed", "1"],
        "dee8465641b5b514c6b45d981bba73c936b4eb7082edf74f1d8b8f87e833df3a",
    ),
}


@pytest.mark.parametrize("command", sorted(JSON_SHA256))
def test_json_bytes_are_pinned(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert run("average", "--seq", "MMF", "--steps", 140, "--samples", 100, "--seed", 1,
               "--out", "mmf.csv") == 0
    argv, expected = JSON_SHA256[command]
    assert run(*argv, "--out", "out.json") == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("argv", [
    ["fit", "--in", "{csv}", "--tmin", "5", "--extrapolate", "400,1000"],
    ["parrondo", "--ab", "XXH", "--a", "X", "--b", "H", "--t", "20", "--samples", "50"],
], ids=["fit", "parrondo"])
def test_json_stdout_bytes_are_the_file_bytes(tmp_path, capfdbinary, argv):
    csv = tmp_path / "avg.csv"
    assert run("average", "--seq", "MMF", "--steps", 30, "--samples", 50, "--out", csv) == 0
    argv = [arg.format(csv=csv) for arg in argv]
    out = tmp_path / "out.json"
    assert run(*argv, "--out", out) == 0
    capfdbinary.readouterr()
    assert run(*argv, "--out", "-") == 0
    assert capfdbinary.readouterr().out == out.read_bytes()


def test_grid_output_memory_is_bounded():
    # 259,920 rows: expanding every cell to text at once would take tens of MiB.
    tracemalloc.start()
    try:
        assert run("grid", "--seq", "HHH", "--t", "8", "--theta-steps", "361",
                   "--phi-steps", "720", "--out", os.devnull) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_grid_output_memory_does_not_grow_with_the_grid():
    # 1441 x 720 cells: the grid's values alone would take 7.9 MiB.  The CLI
    # writes each group of theta rows as it is reduced and holds one block.
    tracemalloc.start()
    try:
        assert run("grid", "--seq", "HHH", "--t", "8", "--theta-steps", "1441",
                   "--phi-steps", "720", "--out", os.devnull) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# allocations that cannot succeed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["grid", "--seq", "H", "--t", "10000000000000", "--theta-steps", "2", "--phi-steps", "2"],
    ["average", "--seq", "H", "--steps", "10000000000000", "--samples", "1"],
    ["trace", "--seq", "H", "--theta", "1", "--steps", "10000000000000"],
    ["compare", "--seqs", "H,X", "--t-list", "10000000000000"],
    ["search", "--max-period", "2", "--t", "10000000000000", "--samples", "1"],
    ["parrondo", "--ab", "XXH", "--a", "X", "--b", "H", "--t", "10000000000000", "--samples", "1"],
    # 2**63 steps: a range of every step is longer than a C ssize_t.
    ["average", "--seq", "H", "--steps", str(2**63), "--samples", "1"],
    ["trace", "--seq", "H", "--theta", "1", "--steps", str(2**63)],
    ["compare", "--seqs", "H,X", "--t-list", str(2**63)],
    ["grid", "--seq", "H", "--t", str(2**63), "--theta-steps", "2", "--phi-steps", "2"],
    # 2**63 samples on a grid axis: np.linspace cannot build that axis.
    ["grid", "--seq", "HHH", "--t", "3", "--theta-steps", str(2**63)],
    ["grid", "--seq", "HHH", "--t", "3", "--phi-steps", str(2**63)],
    # Samples no draw can hold: 72.8 TiB of angles, and more than numpy sizes.
    ["average", "--seq", "H", "--steps", "3", "--samples", "10000000000000"],
    ["search", "--max-period", "2", "--t", "3", "--samples", str(2**63)],
], ids=["grid", "average", "trace", "compare", "search", "parrondo",
        "average-2^63", "trace-2^63", "compare-2^63", "grid-2^63",
        "grid-theta-steps-2^63", "grid-phi-steps-2^63",
        "average-samples", "search-samples-2^63"])
def test_oversized_walk_is_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# argument types on arbitrary text
# ---------------------------------------------------------------------------

# Arbitrary text, and text of the characters a number list is made of.
_ARGUMENT_TEXT = st.one_of(st.text(), st.text(alphabet="0123456789-+_ ,.e\u0661"))


@settings(max_examples=200, deadline=None)
@given(minimum=st.integers(-3, 3), text=_ARGUMENT_TEXT)
def test_int_at_least_returns_or_raises_argument_type_error(minimum, text):
    try:
        value = _int_at_least(minimum)(text)
    except argparse.ArgumentTypeError:
        return
    assert isinstance(value, int) and value >= minimum


@settings(max_examples=200, deadline=None)
@given(text=_ARGUMENT_TEXT)
def test_positive_int_list_returns_or_raises_argument_type_error(text):
    try:
        values = _positive_int_list(text)
    except argparse.ArgumentTypeError:
        return
    assert values and all(isinstance(v, int) and v >= 1 for v in values)


@settings(max_examples=200, deadline=None)
@given(text=_ARGUMENT_TEXT)
def test_label_list_returns_or_raises_argument_type_error(text):
    try:
        labels = _label_list(text)
    except argparse.ArgumentTypeError:
        return
    assert labels and all(label and label == label.strip() for label in labels)



# ---------------------------------------------------------------------------
# whole runs on generated argv
# ---------------------------------------------------------------------------

_LABELS = st.one_of(st.text(alphabet="HFMX", min_size=1, max_size=4),
                    st.sampled_from(["", " ", "Q", "hfx", "H X", "XXH,", "é"]))
_ANGLES = st.one_of(st.floats(0.0, 3.0).map(repr), st.floats(-1.0, 200.0).map(repr),
                    st.sampled_from(["nan", "-1e-17", "inf", "-inf", "1e400", "181", "-181", "720", "pi", ""]))
# Every value that sets a step count stays small, so no run walks for long.
_STEPS = st.integers(-1, 8).map(str)
_SMALL = st.integers(-1, 40).map(str)


def _lists(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


def _flags(required, optional=()):
    """argv of every ``required`` flag and any of the ``optional`` ones, each with a drawn value."""
    parts = [st.tuples(st.just(flag), values) for flag, values in required]
    parts += [st.one_of(st.just(()), st.tuples(st.just(flag), values)) for flag, values in optional]
    return st.tuples(*parts).map(lambda pairs: [arg for pair in pairs for arg in pair])


_RUNS = {
    "trace": _flags([("--seq", _LABELS), ("--theta", _ANGLES), ("--steps", _STEPS)],
                    [("--phi", _ANGLES), ("--degrees", st.just("--degrees"))]),
    "average": _flags([("--seq", _LABELS), ("--steps", _STEPS)],
                      [("--samples", _SMALL), ("--seed", _SMALL), ("--threads", _SMALL)]),
    "fit": _flags([("--in", st.sampled_from(["log.csv", "missing.csv", "junk.csv"]))],
                  [("--tmin", _SMALL), ("--extrapolate", _lists(_SMALL))]),
    "grid": _flags([("--seq", _LABELS), ("--t", _STEPS)],
                   [("--theta-steps", _SMALL), ("--phi-steps", _SMALL), ("--threads", _SMALL)]),
    "compare": _flags([("--seqs", _lists(_LABELS)), ("--t-list", _lists(_STEPS))],
                      [("--samples", _SMALL), ("--seed", _SMALL)]),
    "parrondo": _flags([("--ab", _LABELS), ("--a", _LABELS), ("--b", _LABELS), ("--t", _STEPS)],
                       [("--samples", _SMALL), ("--seed", _SMALL)]),
    "search": _flags([("--t", _STEPS)],
                     [("--alphabet", _LABELS), ("--max-period", st.integers(-1, 3).map(str)),
                      ("--top", _SMALL), ("--samples", _SMALL), ("--seed", _SMALL)]),
}


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(sorted(_RUNS)).flatmap(lambda command: _RUNS[command].map(lambda flags: [command, *flags])))
def test_whole_runs_on_generated_argv_end_cleanly(tmp_path, monkeypatch, argv):
    # Any command with any of its flags ends in exit 0, 1 or 2, never in a
    # traceback; a domain error is one "error:" line, and a run that
    # succeeds prints a manifest comment (CSV) or a JSON object.
    monkeypatch.chdir(tmp_path)
    _write_log_csv(tmp_path / "log.csv")
    (tmp_path / "junk.csv").write_text("t,mean_S\n1,x\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if code == 0:
        assert out.getvalue().startswith(("# manifest:", "{")), argv
