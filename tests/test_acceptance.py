"""End-to-end acceptance suite.

Each test checks one numbered claim at its stated tolerance and prints one
``ACCEPTANCE n: PASS/FAIL`` line (visible with ``pytest -s`` or in captured
output).  Claims marked with a runtime bound are also timed.
"""

import math
import time

import numpy as np

from parrondoqw.cli import main
from parrondoqw.entanglement import schmidt_norm_from
from parrondoqw.experiments import (
    _grid_axes,
    average_schmidt,
    coin_densities,
    log_fit,
    phase_independence_certificate,
    sample_initial_states,
)
from parrondoqw.oracles import InitialState, closed_form_oracle, dense_reference_evolve
from parrondoqw.sequences import parse
from parrondoqw.walk import basis_walk

SQRT2 = math.sqrt(2.0)
GRID_THETA, GRID_PHI = 37, 72


def _stacked_schmidt(states, sequence, steps, record_steps=None):
    """S of every state at the recorded steps, one row per step, from the engine's stream."""
    densities = coin_densities(states, sequence, steps if record_steps is None else record_steps)
    return np.array([schmidt_norm_from(*d) for d in densities])


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_maximal_entanglement_at_steps_3_and_5():
    start = time.perf_counter()
    states = sample_initial_states(1000, seed=1)
    worst = 0.0
    for label in ("XXH", "XXF", "XXM"):
        values = _stacked_schmidt(states, parse(label), 5, record_steps=[3, 5])
        worst = max(worst, float(np.max(np.abs(values - SQRT2))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, ok, f"max |S - sqrt2| = {worst:.2e} over 1000 states at t=3,5 "
                   f"for XXH/XXF/XXM ({elapsed:.2f} s, bound 1 s)")


def test_criterion_2_closed_form_oracle_suite():
    start = time.perf_counter()
    theta_axis, phi_axis = _grid_axes(GRID_THETA, GRID_PHI)
    angles = np.stack(np.meshgrid(theta_axis, phi_axis, indexing="ij"), axis=-1).reshape(-1, 2)
    states = [InitialState(theta, phi) for theta, phi in angles]
    worst = 0.0
    xxh = _stacked_schmidt(angles, parse("XXH"), 6)
    for i, initial in enumerate(states):
        for t in range(1, 7):
            worst = max(worst, abs(xxh[t - 1][i] - closed_form_oracle("XXH", t, initial)))
    for tag in ("H", "F", "M"):
        one = _stacked_schmidt(angles, parse(tag), 1)
        for i, initial in enumerate(states):
            worst = max(worst, abs(one[0][i] - closed_form_oracle(tag, 1, initial)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(2, ok, f"simulated vs closed-form worst deviation {worst:.2e} on "
                   f"{GRID_THETA}x{GRID_PHI} grid ({elapsed:.2f} s, bound 5 s)")


def test_criterion_3_phase_independence_certificates():
    worst_family = 0.0
    for label in ("XXH", "XXF", "XXM"):
        deviations = phase_independence_certificate(parse(label), 50, GRID_THETA, GRID_PHI)
        worst_family = max(worst_family, float(deviations.max()))
    control = float(phase_independence_certificate(parse("HHH"), 1, GRID_THETA, GRID_PHI)[0])
    ok = worst_family < 1e-10 and control > 0.05
    _report(3, ok, f"XXH/XXF/XXM max phi-deviation {worst_family:.2e} up to t=50; "
                   f"HHH control deviation {control:.3f} at t=1")


def _phase_shift_deviations(roll_f: int, roll_m: int, phase_sign: int) -> float:
    """Worst |S_FFF - S_HHH(shifted)| and |S_MMM - S_HHH(shifted)| deviation.

    Grid column phi holds the angles of
    ``InitialState(theta, phase_sign * phi)``: +1 is the package's
    ``e^{+i phi}`` convention, -1 the ``e^{-i phi}`` one.  The phi axis is
    closed under phi -> -phi mod 2pi, so both grids share their cells.
    On the 72-point phi axis one grid cell is 5 degrees, so a +pi/2 argument
    shift is a roll of -18 cells and a -pi/2 shift a roll of +18.
    """
    theta_axis, phi_axis = _grid_axes(GRID_THETA, GRID_PHI)
    states = np.array([
        (initial.theta, initial.phi)
        for initial in (InitialState(theta, phase_sign * phi) for theta in theta_axis for phi in phi_axis)
    ])
    record = [1, 5, 20, 50]
    shape = (len(record), GRID_THETA, GRID_PHI)
    g_h = _stacked_schmidt(states, parse("HHH"), 50, record_steps=record).reshape(shape)
    g_f = _stacked_schmidt(states, parse("FFF"), 50, record_steps=record).reshape(shape)
    g_m = _stacked_schmidt(states, parse("MMM"), 50, record_steps=record).reshape(shape)
    worst = 0.0
    for row in range(len(record)):
        worst = max(worst, float(np.max(np.abs(g_f[row] - np.roll(g_h[row], roll_f, axis=1)))))
        worst = max(worst, float(np.max(np.abs(g_m[row] - np.roll(g_h[row], roll_m, axis=1)))))
    return worst


def test_criterion_4_phase_shift_equivalence_as_stated():
    """S_FFF(t,theta,phi) = S_HHH(t,theta,phi-pi/2), S_MMM = S_HHH(.,phi+pi/2).

    The criterion is stated for phi entering the initial state as
    ``e^{-i phi}``, i.e. ``cos(theta/2)|0_p,0_c> + e^{-i phi} sin(theta/2)|0_p,1_c>``
    (equivalently: the package convention with F and M replaced by their
    complex conjugates).  ``InitialState`` puts ``e^{+i phi}`` on
    ``|0_p,1_c>``, so the stated state at phi is ``InitialState(theta, -phi)``
    and the grids are built that way.  Writing ``S'(phi) = S(-phi)`` maps the
    stated form onto the package-convention form checked by the twin below:
    ``S_FFF(phi) = S_HHH(phi+pi/2)`` and ``S_MMM(phi) = S_HHH(phi-pi/2)``.

    Derivation for F: ``F = D H D`` with ``D = diag(1, i)``, and the
    coin-flipping shift W obeys ``W diag(a, b) = diag(b, a) W``, so one step
    is ``U_F = diag(i, 1) U_H D``; since ``D diag(i, 1) = i I``,
    ``U_F^t = i^(t-1) diag(i, 1) U_H^t D``.  The left factor is a coin-local
    unitary and leaves S unchanged; ``D`` advances the initial phase by pi/2.
    (M likewise: ``M = i D H D*``.)  In the package convention the two
    direction assignments agree at t = 1 and t = 2 (to 4.4e-16 on this grid)
    and first separate at t = 3.
    """
    worst = _phase_shift_deviations(roll_f=+18, roll_m=-18, phase_sign=-1)  # phi-pi/2 / phi+pi/2
    _report(4, worst < 1e-10,
            f"as-stated shift directions: worst deviation {worst:.2e} "
            f"at t in {{1,5,20,50}} (tolerance 1e-10)")


def test_criterion_4_phase_shift_equivalence_true_directions():
    worst = _phase_shift_deviations(roll_f=-18, roll_m=+18, phase_sign=+1)  # phi+pi/2 / phi-pi/2
    _report(4, worst < 1e-10,
            f"package-convention shift directions: worst deviation {worst:.2e} "
            f"at t in {{1,5,20,50}} (tolerance 1e-10)")


def test_criterion_5_x_baseline_analytic_mean():
    states = sample_initial_states(100000, seed=3)
    values = _stacked_schmidt(states, parse("XXX"), 50, record_steps=[1, 10, 50])
    target = 4.0 / math.pi
    worst = float(np.max(np.abs(values.mean(axis=1) - target)))
    _report(5, worst < 0.01,
            f"XXX mean S at t=1,10,50 within {worst:.2e} of 4/pi over 1e5 samples")


def test_criterion_6_parrondo_ordering():
    states = sample_initial_states(100, seed=1)

    def mean_at_50(label):
        return float(_stacked_schmidt(states, parse(label), 50, record_steps=[50]).mean())

    xxh, hhh, xxx = mean_at_50("XXH"), mean_at_50("HHH"), mean_at_50("XXX")
    xhh, h, x = mean_at_50("XHH"), mean_at_50("H"), mean_at_50("X")
    margins = (xxh - hhh, hhh - xxx, xhh - h, xhh - x)
    ok = all(m > 0.01 for m in margins)
    _report(6, ok, f"t=50 means XXH={xxh:.4f} > HHH={hhh:.4f} > XXX={xxx:.4f}; "
                   f"XHH={xhh:.4f} beats H={h:.4f} and X={x:.4f} "
                   f"(margins {', '.join(f'{m:.3f}' for m in margins)}, all > 0.01)")


def test_criterion_7_mmh_table_value():
    trajectory = average_schmidt(parse("MMH"), steps=20, samples=100, seed=1)
    ratio = float(trajectory.mean_s[-1]) / SQRT2
    _report(7, abs(ratio - 0.997) <= 0.005,
            f"MMH at t=20: mean S/sqrt2 = {ratio:.4f} (target 0.997 +- 0.005)")


def test_criterion_8_mmf_asymptotic_extrapolation():
    start = time.perf_counter()
    trajectory = average_schmidt(parse("MMF"), steps=140, samples=100, seed=1)
    fit = log_fit(trajectory, t_min=10, extrapolate_to=400)
    ratio = dict(fit.extrapolation_ratios())[400]
    elapsed = time.perf_counter() - start
    ok = abs(ratio - 0.9962) <= 0.005 and elapsed < 30.0
    _report(8, ok, f"MMF log-fit extrapolation to t=400: S/sqrt2 = {ratio:.4f} "
                   f"(target 0.9962 +- 0.005; {elapsed:.1f} s, bound 30 s)")


def test_criterion_9_dense_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        label = "".join(rng.choice(list("HFMX"), size=rng.integers(1, 5)))
        initial = InitialState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        sequence = parse(label)
        *_, ((amp0, amp1),) = basis_walk([sequence], 20)
        c = initial.coin_amplitudes()
        dense = dense_reference_evolve(initial, sequence, 20)
        worst = max(worst, float(np.max(np.abs(c[0] * amp0[0] + c[1] * amp0[1] - dense[0::2]))),
                    float(np.max(np.abs(c[0] * amp1[0] + c[1] * amp1[1] - dense[1::2]))))
    _report(9, worst < 1e-12,
            f"fast vs dense evolution: worst componentwise deviation {worst:.2e} "
            f"over 50 random (sequence, state) pairs at 20 steps")


def test_criterion_10_cli_determinism(tmp_path):
    outputs = []
    for tag, threads in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / f"{tag}.csv"
        code = main(["average", "--seq", "MMH", "--steps", "20", "--samples", "100",
                     "--seed", "1", "--threads", str(threads), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())

    def data_section(blob: bytes) -> bytes:
        return b"\n".join(
            line for line in blob.splitlines() if not line.startswith(b"#")
        )

    identical_data = (
        data_section(outputs[0]) == data_section(outputs[1]) == data_section(outputs[2])
    )
    identical_bytes = outputs[0] == outputs[1] == outputs[2]
    _report(10, identical_data,
            f"identical invocations across --threads 1/4/1: data sections "
            f"byte-identical={identical_data} (whole files identical={identical_bytes})")
