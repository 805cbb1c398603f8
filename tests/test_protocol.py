"""Sequence construction and exact conditional evolution."""

from dataclasses import replace

import numpy as np
import pytest

from uncollapse import (
    PROBE_STATES,
    DomainError,
    ExperimentConfig,
    PartialMeasurement,
    PulseSequence,
    PulseTiming,
    PureState,
    RotationPulse,
    SequenceStep,
    StructuralError,
    UndefinedStateError,
    apply_rotation,
    bloch_from_state,
    build_partial_collapse,
    build_uncollapse,
    exact_tomography_record,
    polar_azimuth,
    run_exact,
    state_fidelity,
    state_from_angles,
    success_probability,
    theory_polar_angle,
)
from uncollapse.montecarlo import _draw_count, _run_batch
from uncollapse.protocol import (
    FULL_MEASURE,
    IDLE,
    PARTIAL_MEASURE,
    PREPARE,
    ROTATE,
    STEP_KINDS,
    build_sequence,
    fold,
)
from uncollapse.tomography import with_tomography


def _cfg(theta0=np.pi / 2, phi0=0.0, **kw):
    return ExperimentConfig(initial=PureState(theta0, phi0), **kw)


def test_default_timing_totals_44_ns():
    t = PulseTiming()
    cfg = _cfg(p=0.5)
    assert with_tomography(build_uncollapse(cfg), "z", t).total_duration_ns == 44.0
    assert build_uncollapse(cfg).total_duration_ns == 34.0  # analysis pulse excluded


def test_reversal_is_the_collapse_then_idle_pulse_and_its_measure_step_again():
    cfg = _cfg(1.1, 0.4, p=0.37, pi_fraction=0.9, p_error_fraction=0.03)
    t = cfg.timing
    collapse = build_partial_collapse(cfg).steps
    assert collapse[-1] == SequenceStep(PARTIAL_MEASURE, t.measure_ns, cfg.measurement())
    assert build_uncollapse(cfg).steps == collapse + (
        SequenceStep(IDLE, t.idle_ns),
        SequenceStep(ROTATE, t.pi_pulse_ns, RotationPulse.about_x(0.9 * np.pi)),
        collapse[-1],
    )


def test_sequence_step_kind_and_duration_checks():
    with pytest.raises(StructuralError):
        SequenceStep("warmup", 1.0)
    with pytest.raises(StructuralError):
        SequenceStep(IDLE, -1.0)
    with pytest.raises(StructuralError):
        SequenceStep(IDLE, float("nan"))


@pytest.mark.parametrize(
    "name", ["prepare_ns", "measure_ns", "idle_ns", "pi_pulse_ns", "tomography_ns"]
)
@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_pulse_timing_rejects_negative_and_nan_durations(name, value):
    with pytest.raises(DomainError):
        PulseTiming(**{name: value})


def test_nan_idle_is_rejected_rather_run_as_a_step_that_takes_no_time():
    # a NaN duration once passed the nonnegative check and then decohered
    # nothing: p_success 0.70270, the zero-idle value
    with pytest.raises(DomainError):
        cfg = _cfg(p=0.3, decoherence_enabled=True, timing=PulseTiming(idle_ns=float("nan")))
        run_exact(build_uncollapse(cfg), cfg)


def test_each_step_kind_rejects_a_wrong_payload():
    payloads = {
        PREPARE: PureState(0.0),
        ROTATE: RotationPulse.about_x(np.pi),
        PARTIAL_MEASURE: PartialMeasurement(0.3),
        IDLE: None,
        FULL_MEASURE: None,
    }
    assert payloads.keys() == STEP_KINDS.keys()
    for kind, payload in payloads.items():
        assert SequenceStep(kind, 1.0, payload).payload == payload
        for wrong in [value for value in payloads.values() if value != payload] + [5.0]:
            with pytest.raises(StructuralError):
                SequenceStep(kind, 1.0, wrong)
    # a (kind, start, duration) call cannot pass a duration off as the payload
    with pytest.raises(StructuralError):
        SequenceStep(IDLE, 10.0, 5.0)


MALFORMED_SEQUENCES = (
    PulseSequence(()),
    PulseSequence((SequenceStep(IDLE, 5.0),)),
    PulseSequence(
        (
            SequenceStep(PREPARE, 10.0, PureState(0.0)),
            SequenceStep(PREPARE, 10.0, PureState(0.0)),
        )
    ),
    PulseSequence(
        (
            SequenceStep(PREPARE, 10.0, PureState(0.0)),
            SequenceStep(FULL_MEASURE, 0.0),
            SequenceStep(IDLE, 5.0),
        )
    ),
)


def test_run_exact_structural_errors():
    for decoherence in (False, True):
        cfg = _cfg(p=0.3, decoherence_enabled=decoherence)
        for seq in MALFORMED_SEQUENCES:
            with pytest.raises(StructuralError):
                run_exact(seq, cfg)


def test_fold_sweep_structural_errors():
    cfg = _cfg(p=0.3)
    grid = [0.1, 0.2]
    for seq in MALFORMED_SEQUENCES:
        with pytest.raises(StructuralError):
            fold(seq, cfg, p_grid=grid)
    unmeasured = PulseSequence(
        (
            SequenceStep(PREPARE, 10.0, PureState(1.0)),
            SequenceStep(ROTATE, 10.0, RotationPulse.about_x(np.pi)),
        )
    )
    # no measurement to sweep, or one the grid cannot stand in for
    for seq in (unmeasured, build_uncollapse(cfg.at_strength(0.5))):
        with pytest.raises(StructuralError):
            fold(seq, cfg, p_grid=grid)
    mixed = build_uncollapse(cfg).steps[:-1] + build_uncollapse(cfg.at_strength(0.5)).steps[-1:]
    with pytest.raises(StructuralError):
        fold(PulseSequence(mixed), cfg, p_grid=grid)
    rho, escaped = fold(build_uncollapse(cfg), cfg, p_grid=grid)
    assert rho.shape == (2, 2, 2) and escaped.shape == (2,)


@pytest.mark.parametrize("kind", ["collapse", "uncollapse"])
@pytest.mark.parametrize("decoherence", [False, True])
def test_fold_over_strengths_and_probes_equals_one_fold_per_member(kind, decoherence):
    # exactly equal, not close: member 4*i + j runs a one-member fold's arithmetic
    rng = np.random.default_rng(1414)
    for _ in range(6):
        cfg = _cfg(
            rng.uniform(0, np.pi),
            rng.uniform(0, 2 * np.pi),
            p=0.0,
            decoherence_enabled=decoherence,
            pi_fraction=rng.uniform(0.8, 1.1),
            phi_m_rate=rng.uniform(0.0, 20.0),
            p_error_fraction=rng.uniform(-0.1, 0.1),
        )
        grid = np.sort(rng.uniform(0.0, 0.95, int(rng.integers(1, 6)))).tolist()
        rho, escaped = fold(build_sequence(kind, cfg), cfg, PROBE_STATES, grid)
        assert rho.shape == (4 * len(grid), 2, 2) and escaped.shape == (4 * len(grid),)
        for i, p in enumerate(grid):
            for j, probe in enumerate(PROBE_STATES):
                point = replace(cfg.at_strength(p), initial=probe)
                one_rho, one_escaped = fold(build_sequence(kind, point), point)
                assert (rho[4 * i + j] == one_rho[0]).all()
                assert escaped[4 * i + j] == one_escaped[0]


def test_run_batch_structural_errors():
    # the sampling engine refuses the same sequences instead of sampling rho = 0
    for decoherence in (False, True):
        cfg = _cfg(p=0.3, decoherence_enabled=decoherence)
        for seq in MALFORMED_SEQUENCES:
            with pytest.raises(StructuralError):
                _draw_count(seq, cfg)
            for n_draws in (0, 1, 4):
                with pytest.raises(StructuralError):
                    _run_batch(seq, cfg, np.full((3, n_draws), 0.5))
        good = build_uncollapse(cfg)
        n_draws = _draw_count(good, cfg)
        with pytest.raises(StructuralError):
            _run_batch(good, cfg, np.full((3, n_draws + 1), 0.5))
        # a stack of sequences whose step structures differ
        with pytest.raises(StructuralError):
            _run_batch((build_partial_collapse(cfg), good), cfg, np.full((4, n_draws), 0.5))
        # uniform rows that do not split evenly over the stack
        with pytest.raises(StructuralError):
            _run_batch((good, good), cfg, np.full((3, n_draws), 0.5))


def test_run_exact_checks_positivity_once_per_run(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    cfg = _cfg(p=0.3, decoherence_enabled=True)
    seq = with_tomography(build_uncollapse(cfg), "x", cfg.timing)
    run_exact(seq, cfg)
    assert len(calls) == 1


def test_long_decoherence_leaves_a_nonnegative_background():
    # a long idle relaxes every input to |0>, and the trace may end an ulp
    # above 1; the background must still be a probability
    for theta0 in np.linspace(0.0, np.pi, 7):
        for p in (0.0, 0.3):
            cfg = _cfg(theta0, p=p, decoherence_enabled=True, timing=PulseTiming(idle_ns=1e6))
            record, out = exact_tomography_record(cfg, "uncollapse")
            assert 0.0 <= out.p_background == record.p_b <= 1.0


def test_reversal_restores_the_rotated_initial_state():
    # conditioned on two null results the sequence acts as a pi rotation
    # about X on every input, for every strength and measurement phase
    rng = np.random.default_rng(101)
    worst = 1.0
    for _ in range(200):
        theta0 = rng.uniform(0, np.pi)
        phi0 = rng.uniform(0, 2 * np.pi)
        p = rng.uniform(0, 0.99)
        rate = rng.uniform(0, 8 * np.pi)
        cfg = _cfg(theta0, phi0, p=p, phi_m_rate=rate)
        out = run_exact(build_uncollapse(cfg), cfg)
        target = apply_rotation(
            state_from_angles(PureState(theta0, phi0)), RotationPulse.about_x(np.pi)
        )
        worst = min(worst, state_fidelity(out.conditional, target))
    assert worst >= 1.0 - 1e-10


def test_success_probability_is_one_minus_p():
    rng = np.random.default_rng(59)
    for _ in range(50):
        theta0 = rng.uniform(0, np.pi)
        p = rng.uniform(0, 0.99)
        cfg = _cfg(theta0, rng.uniform(0, 2 * np.pi), p=p)
        assert abs(success_probability(cfg) - (1.0 - p)) < 1e-12


def test_background_probabilities_closed_forms():
    rng = np.random.default_rng(61)
    for _ in range(50):
        theta0 = rng.uniform(0, np.pi)
        phi0 = rng.uniform(0, 2 * np.pi)
        p = rng.uniform(0, 0.99)
        collapse = run_exact(build_partial_collapse(_cfg(theta0, phi0, p=p)), _cfg(theta0, phi0, p=p))
        assert abs(collapse.p_background - p * np.sin(theta0 / 2.0) ** 2) < 1e-12
        reversal = run_exact(build_uncollapse(_cfg(theta0, phi0, p=p)), _cfg(theta0, phi0, p=p))
        assert abs(reversal.p_background - p) < 1e-12   # independent of the state


def test_measurement_phase_cancels_through_the_echo():
    # the reversal output must not depend on the phase model at all
    base = _cfg(1.1, 0.4, p=0.6, phi_m_rate=4 * np.pi)
    ref = run_exact(build_uncollapse(base), base).conditional
    for model in (lambda p: 0.0, lambda p: 2.9, lambda p: 11.0 * p * p):
        cfg = _cfg(1.1, 0.4, p=0.6, phi_m_model=model)
        out = run_exact(build_uncollapse(cfg), cfg).conditional
        assert np.max(np.abs(out.rho - ref.rho)) < 1e-10


def test_wrong_recovery_pulse_exposes_the_measurement_phase():
    outputs = []
    for rate in (0.0, 4 * np.pi):
        cfg = _cfg(1.1, 0.4, p=0.6, pi_fraction=0.9, phi_m_rate=rate)
        outputs.append(run_exact(build_uncollapse(cfg), cfg).conditional)
    assert np.max(np.abs(outputs[0].rho - outputs[1].rho)) > 1e-3


def test_polar_angle_law_collapse_and_reversal():
    rng = np.random.default_rng(71)
    for _ in range(50):
        theta0 = rng.uniform(0.05, np.pi - 0.05)
        p = rng.uniform(0, 0.99)
        cfg = _cfg(theta0, 0.0, p=p)
        col = run_exact(build_partial_collapse(cfg), cfg)
        theta, _ = polar_azimuth(bloch_from_state(col.conditional.normalized()))
        assert abs(theta - theory_polar_angle("collapse", theta0, p)) < 1e-10
        rev = run_exact(build_uncollapse(cfg), cfg)
        theta_r, _ = polar_azimuth(bloch_from_state(rev.conditional.normalized()))
        assert abs(theta_r - theory_polar_angle("uncollapse", theta0, p)) < 1e-10
        assert abs(theory_polar_angle("uncollapse", theta0, p) - (np.pi - theta0)) < 1e-15


def test_theory_polar_angle_domain_errors():
    with pytest.raises(DomainError):
        theory_polar_angle("collapse", -0.1, 0.5)
    with pytest.raises(DomainError):
        theory_polar_angle("collapse", 1.0, 1.5)
    with pytest.raises(DomainError):
        theory_polar_angle("sideways", 1.0, 0.5)
    with pytest.raises(UndefinedStateError):
        theory_polar_angle("collapse", np.pi, 1.0)   # state escapes with certainty
    # the atan2 form stays finite at theta0 = pi for p < 1
    assert abs(theory_polar_angle("collapse", np.pi, 0.9) - np.pi) < 1e-12


def test_relaxation_raises_reversal_success_above_ideal():
    # energy relaxation funnels weight toward |0>, which never tunnels, so
    # with decoherence on the two-null probability exceeds 1 - p.
    # oracle: hand-rolled density-matrix evolution of the same step list
    p, theta0 = 0.47, np.pi / 2
    cfg = _cfg(theta0, 0.0, p=p, decoherence_enabled=True)

    t1 = 450.0
    t2 = 350.0
    t_phi = 1.0 / (1.0 / t2 - 1.0 / (2.0 * t1))
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    escaped = 0.0

    def decohere(rho, dt):
        g = 1.0 - np.exp(-dt / t1)
        out = np.array(
            [
                [rho[0, 0] + g * rho[1, 1], np.sqrt(1 - g) * rho[0, 1]],
                [np.sqrt(1 - g) * rho[1, 0], (1 - g) * rho[1, 1]],
            ]
        )
        decay = np.exp(-dt / t_phi)
        out[0, 1] *= decay
        out[1, 0] *= decay
        return out

    def measure(rho, escaped, phi_m):
        m0 = np.diag([1.0, np.sqrt(1.0 - p) * np.exp(-1.0j * phi_m)])
        return m0 @ rho @ m0.conj().T, escaped + p * rho[1, 1].real

    phi_m = 4 * np.pi * p
    rho = decohere(rho, 10.0)                       # prepare window
    rho, escaped = measure(rho, escaped, phi_m)
    rho = decohere(rho, 3.0)
    rho = decohere(rho, 8.0)                        # idle
    u = np.array([[np.cos(np.pi / 2), -1.0j * np.sin(np.pi / 2)],
                  [-1.0j * np.sin(np.pi / 2), np.cos(np.pi / 2)]])
    rho = decohere(u @ rho @ u.conj().T, 10.0)      # recovery pulse
    rho, escaped = measure(rho, escaped, phi_m)
    rho = decohere(rho, 3.0)
    expected_success = np.trace(rho).real

    got = success_probability(cfg)
    assert abs(got - expected_success) < 1e-12
    assert got > 1.0 - p                            # relaxation protects population
    ideal = success_probability(_cfg(theta0, 0.0, p=p))
    assert abs(ideal - (1.0 - p)) < 1e-12


def test_decoherence_degrades_recovery_monotonically():
    fidelities = []
    for p in np.linspace(0.0, 0.9, 10):
        cfg = _cfg(np.pi / 2, 0.0, p=p, decoherence_enabled=True)
        out = run_exact(build_uncollapse(cfg), cfg)
        target = apply_rotation(
            state_from_angles(PureState(np.pi / 2, 0.0)), RotationPulse.about_x(np.pi)
        )
        fidelities.append(state_fidelity(out.conditional, target))
    assert all(a > b for a, b in zip(fidelities, fidelities[1:]))
    assert fidelities[0] < 1.0


def test_strength_calibration_bias_shifts_the_realized_strength():
    f = 0.05
    cfg = _cfg(np.pi / 2, 0.0, p=0.4, p_error_fraction=f)
    assert abs(cfg.measurement().p - 0.42) < 1e-15
    col = run_exact(build_partial_collapse(cfg), cfg)
    theta, _ = polar_azimuth(bloch_from_state(col.conditional.normalized()))
    assert abs(theta - theory_polar_angle("collapse", np.pi / 2, 0.42)) < 1e-12
    assert abs(success_probability(cfg) - (1.0 - 0.42)) < 1e-12
    # default off reproduces the nominal dial exactly
    assert abs(success_probability(_cfg(np.pi / 2, 0.0, p=0.4)) - 0.6) < 1e-15
    # biased strength clips at 1
    assert ExperimentConfig(PureState(0.3), p=0.99, p_error_fraction=0.05).measurement().p == 1.0


def test_experiment_config_validation():
    with pytest.raises(DomainError):
        _cfg(p=1.2)
    with pytest.raises(DomainError):
        _cfg(p=0.5, pi_fraction=-0.1)
    with pytest.raises(DomainError):
        _cfg(p=0.5, p_error_fraction=-1.0)
    with pytest.raises(DomainError):
        _cfg(p=0.5, p_error_fraction=float("nan"))
    for rate in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            _cfg(p=0.5, phi_m_rate=rate)


def test_at_strength_returns_adjusted_copy():
    cfg = _cfg(p=0.1, phi_m_rate=2.0)
    other = cfg.at_strength(0.8)
    assert other.p == 0.8 and other.phi_m_rate == 2.0 and cfg.p == 0.1


def test_ramsey_dephasing_switch_degrades_faster():
    echo = _cfg(np.pi / 2, 0.0, p=0.3, decoherence_enabled=True, use_echo_t2=True)
    ramsey = _cfg(np.pi / 2, 0.0, p=0.3, decoherence_enabled=True, use_echo_t2=False)
    target = apply_rotation(
        state_from_angles(PureState(np.pi / 2, 0.0)), RotationPulse.about_x(np.pi)
    )
    f_echo = state_fidelity(run_exact(build_uncollapse(echo), echo).conditional, target)
    f_ramsey = state_fidelity(run_exact(build_uncollapse(ramsey), ramsey).conditional, target)
    assert f_ramsey < f_echo


def test_pulses_steps_and_sequences_are_hashable_values():
    assert RotationPulse.about_x(np.pi) == RotationPulse(np.array([1.0, 0.0, 0.0]), np.pi)
    assert hash(RotationPulse.about_x(np.pi)) == hash(RotationPulse((1, 0, 0), np.pi))
    cfg = _cfg(p=0.4)
    first = with_tomography(build_uncollapse(cfg), "y", cfg.timing)
    second = with_tomography(build_uncollapse(cfg), "y", cfg.timing)
    assert first == second and hash(first) == hash(second)
    assert with_tomography(build_uncollapse(cfg), "x", cfg.timing) != first
    # the analysis pulse is one more rotate step before the readout
    assert [step.kind for step in first.steps[-2:]] == [ROTATE, FULL_MEASURE]
    with pytest.raises(DomainError, match="unknown tomography setting 'w'"):
        with_tomography(build_uncollapse(cfg), "w", cfg.timing)
