"""Acceptance suite: the ten contract checks, one reported line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line for every criterion alongside the measured figure of merit.
"""

import time

import numpy as np

from uncollapse import (
    ExperimentConfig,
    PartialMeasurement,
    PureState,
    RotationPulse,
    apply_partial_null,
    apply_rotation,
    bloch_reconstruct,
    build_partial_collapse,
    build_uncollapse,
    estimate_probabilities,
    exact_tomography_record,
    exact_uncollapse_chi,
    process_fidelity,
    qpt_reconstruct,
    run_exact,
    state_fidelity,
    state_from_angles,
    state_from_bloch,
    success_probability,
    tomo_probabilities,
    default_device,
    BlochVector,
    ProbeSet,
    PROBE_STATES,
    bloch_from_state,
)
from uncollapse.montecarlo import _draw_count, _run_batch, _shot_uniforms
from uncollapse.tomography import with_tomography


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_01_reversal_identity_property():
    """200 random setups: reversal output = X-pi rotated input."""
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 1.0
    for _ in range(200):
        theta0 = rng.uniform(0.0, np.pi)
        phi0 = rng.uniform(0.0, 2 * np.pi)
        p = rng.uniform(0.0, 0.99)
        rate = rng.uniform(0.0, 8 * np.pi)
        cfg = ExperimentConfig(PureState(theta0, phi0), p=p, phi_m_rate=rate)
        out = run_exact(build_uncollapse(cfg), cfg)
        target = apply_rotation(
            state_from_angles(PureState(theta0, phi0)), RotationPulse.about_x(np.pi)
        )
        worst = min(worst, state_fidelity(out.conditional, target))
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - 1e-10 and elapsed < 1.0
    _report(
        1, ok, f"worst recovery infidelity {1.0 - worst:.3e} across 200 draws in {elapsed:.2f} s"
    )


def test_02_polar_angle_law_grid():
    """Null-result angle law on a 21 x 21 grid, tolerance 1e-10."""
    worst = 0.0
    for theta0 in np.linspace(0.0, np.pi, 21):
        for p in np.linspace(0.0, 0.95, 21):
            q = state_from_angles(PureState(theta0, 0.0))
            after, _ = apply_partial_null(q, PartialMeasurement(p, 0.0))
            rho = after.normalized().rho
            # polar angle read back from the density operator itself
            got = float(
                np.arctan2(2.0 * abs(rho[0, 1]), (rho[0, 0] - rho[1, 1]).real)
            )
            want = 2.0 * np.arctan2(
                np.sqrt(1.0 - p) * np.sin(theta0 / 2.0), np.cos(theta0 / 2.0)
            )
            worst = max(worst, abs(got - want))
    _report(2, worst < 1e-10, f"largest angle-law deviation {worst:.3e}")


def test_03_success_probability_is_one_minus_p():
    """Two null results happen with probability exactly 1 - p."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.0, 0.99)
        cfg = ExperimentConfig(
            PureState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)), p=p
        )
        worst = max(worst, abs(success_probability(cfg) - (1.0 - p)))
    _report(3, worst < 1e-12, f"largest |p_success - (1-p)| = {worst:.3e}")


def test_04_background_closed_forms():
    """Collapse background p sin^2(theta0/2); reversal background p."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        theta0 = rng.uniform(0.0, np.pi)
        phi0 = rng.uniform(0.0, 2 * np.pi)
        p = rng.uniform(0.0, 0.99)
        cfg = ExperimentConfig(PureState(theta0, phi0), p=p)
        collapse = run_exact(build_partial_collapse(cfg), cfg)
        worst = max(
            worst, abs(collapse.p_background - p * np.sin(theta0 / 2.0) ** 2)
        )
        reversal = run_exact(build_uncollapse(cfg), cfg)
        worst = max(worst, abs(reversal.p_background - p))
    _report(4, worst < 1e-12, f"largest background deviation {worst:.3e}")


def test_05_reconstruction_round_trip():
    """Forward model then inversion is the identity on Bloch vectors."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        p_b = rng.uniform(0.0, 0.95)
        record = tomo_probabilities(state_from_bloch(BlochVector(*v)), p_b, default_device())
        back = bloch_reconstruct(record)
        worst = max(worst, float(np.max(np.abs(back.as_array() - v))))
    _report(5, worst < 1e-10, f"largest round-trip error {worst:.3e}")


def test_06_echo_cancellation_and_wrong_pulse():
    """Reversal invariant under the phase model; the 0.9 pi pulse is not."""
    base = ExperimentConfig(PureState(1.1, 0.4), p=0.6, phi_m_rate=4 * np.pi)
    ref = run_exact(build_uncollapse(base), base).conditional
    invariance = 0.0
    for model in (lambda p: 0.0, lambda p: 2.9, lambda p: 11.0 * p * p):
        cfg = ExperimentConfig(PureState(1.1, 0.4), p=0.6, phi_m_model=model)
        out = run_exact(build_uncollapse(cfg), cfg).conditional
        invariance = max(invariance, float(np.max(np.abs(out.rho - ref.rho))))
    wrong = []
    for rate in (0.0, 4 * np.pi):
        cfg = ExperimentConfig(PureState(1.1, 0.4), p=0.6, pi_fraction=0.9, phi_m_rate=rate)
        wrong.append(run_exact(build_uncollapse(cfg), cfg).conditional.rho)
    sensitivity = float(np.max(np.abs(wrong[0] - wrong[1])))
    ok = invariance < 1e-10 and sensitivity > 1e-3
    _report(
        6, ok, f"echo invariance {invariance:.3e}, wrong-pulse sensitivity {sensitivity:.3e}"
    )


def test_07_process_matrix_exactness():
    """Ideal reversal: Re chi(X,X) = 1 for every p; identity: chi = diag(1,0,0,0)."""
    worst = 0.0
    for p in np.linspace(0.0, 0.99, 12):
        cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p)
        worst = max(worst, abs(process_fidelity(exact_uncollapse_chi(cfg)) - 1.0))
    outputs = tuple(bloch_from_state(state_from_angles(s)) for s in PROBE_STATES)
    chi_id = qpt_reconstruct(ProbeSet(PROBE_STATES, outputs))
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    identity_dev = float(np.max(np.abs(chi_id.matrix - want)))
    ok = worst < 1e-10 and identity_dev < 1e-10
    _report(7, ok, f"fidelity deviation {worst:.3e}, identity-chi deviation {identity_dev:.3e}")


def test_08_decohered_fidelity_curve():
    """Relaxation and dephasing on: high plateau, then monotone decline."""
    start = time.perf_counter()
    ps = [round(0.05 * i, 10) for i in range(20)]
    fidelities = []
    for p in ps:
        cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p, decoherence_enabled=True)
        fidelities.append(process_fidelity(exact_uncollapse_chi(cfg)))
    elapsed = time.perf_counter() - start
    plateau = min(f for p, f in zip(ps, fidelities) if p <= 0.6)
    tail = [f for p, f in zip(ps, fidelities) if p >= 0.7]
    monotone = all(a > b for a, b in zip(tail, tail[1:]))
    within_band = all(0.60 <= f <= 1.0 for f in fidelities)
    ok = plateau >= 0.70 and monotone and within_band and elapsed < 5.0
    _report(
        8,
        ok,
        f"min fidelity for p<=0.6 is {plateau:.4f}, tail monotone={monotone}, "
        f"sweep in {elapsed:.2f} s",
    )


def test_09_sampled_estimates_match_exact_engine():
    """1e5 shots per setting track the exact engine within 5 sigma."""
    start = time.perf_counter()
    n = 100_000
    worst_pull = 0.0
    for kind in ("collapse", "uncollapse"):
        for j, p in enumerate((0.1, 0.3, 0.5, 0.7)):
            cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p)
            est = estimate_probabilities(cfg, n, seed=9000 + j, kind=kind)
            exact, _ = exact_tomography_record(cfg, kind)
            pairs = (
                (est.p_x, exact.p_x, est.stderr[0]),
                (est.p_y, exact.p_y, est.stderr[1]),
                (est.p_z, exact.p_z, est.stderr[2]),
                (est.p_b, exact.p_b, est.stderr_b),
            )
            for got, want, err in pairs:
                pull = abs(got - want) / max(err, 1e-12)
                worst_pull = max(worst_pull, pull)
    # determinism under partitioning: the same counters reassemble bit-exactly
    cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=0.3)
    seq = with_tomography(build_uncollapse(cfg), "x", cfg.timing)
    n_draws = _draw_count(seq, cfg)
    full = _shot_uniforms(42, 0, 0, 10_000, n_draws)
    halves = np.vstack(
        [_shot_uniforms(42, 0, 0, 5_000, n_draws), _shot_uniforms(42, 0, 5_000, 5_000, n_draws)]
    )
    bitwise = np.array_equal(full, halves)
    if bitwise:
        out_full = _run_batch(seq, cfg, full)
        out_halves = _run_batch(seq, cfg, halves)
        bitwise = np.array_equal(out_full[0], out_halves[0]) and np.array_equal(
            out_full[1], out_halves[1]
        )
    elapsed = time.perf_counter() - start
    ok = worst_pull < 5.0 and bitwise and elapsed < 60.0
    _report(
        9,
        ok,
        f"worst pull {worst_pull:.2f} sigma, partition bit-identical={bitwise}, "
        f"in {elapsed:.1f} s",
    )


def test_10_sweep_shape_properties():
    """Collapse P_X oscillates with p; reversal stays flat (decoherence off)."""
    ps = np.linspace(0.0, 0.95, 20)
    collapse_px = []
    reversal_px = []
    reversal_xy = []
    for p in ps:
        cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p)
        rec_c, _ = exact_tomography_record(cfg, "collapse")
        collapse_px.append(rec_c.p_x)
        rec_u, _ = exact_tomography_record(cfg, "uncollapse")
        reversal_px.append(rec_u.p_x)
        b = bloch_reconstruct(rec_u)
        reversal_xy.append((b.x, b.y))
    diffs = np.sign(np.diff(collapse_px))
    non_monotone = bool(np.any(diffs > 0) and np.any(diffs < 0))
    px_flat = float(np.max(np.abs(np.array(reversal_px) - reversal_px[0])))
    xy = np.array(reversal_xy)
    xy_flat = float(np.max(np.abs(xy - xy[0])))
    ok = non_monotone and px_flat < 1e-9 and xy_flat < 1e-9
    _report(
        10,
        ok,
        f"collapse P_X non-monotone={non_monotone}, reversal P_X spread {px_flat:.3e}, "
        f"restored (X, Y) spread {xy_flat:.3e}",
    )
