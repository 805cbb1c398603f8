"""Measurement back-action, rotations, and decoherence channels."""

import numpy as np
import pytest

from uncollapse import (
    DecoherenceStep,
    DeviceParams,
    DomainError,
    KrausSet,
    PartialMeasurement,
    PureState,
    RotationPulse,
    amplitude_damping_kraus,
    apply_decoherence,
    apply_partial_null,
    apply_partial_tunnel,
    apply_rotation,
    default_device,
    QubitState,
    apply_kraus,
    dephasing_kraus,
    kraus_completeness_check,
    pure_dephasing_time,
    state_from_angles,
    tomography_rotation,
    UndefinedStateError,
)
from uncollapse.channels import CLICK, ESCAPE, STAY, decoherence_ops

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_partial_measurement_kraus_completeness():
    for p in (0.0, 0.3, 0.7, 1.0):
        residual = kraus_completeness_check(PartialMeasurement(p, 1.3).kraus())
        assert residual < 1e-14


def test_partial_measurement_rejects_bad_strength():
    with pytest.raises(DomainError):
        PartialMeasurement(-0.1, 0.0)
    with pytest.raises(DomainError):
        PartialMeasurement(1.1, 0.0)


def test_kraus_set_structure_and_completeness_report():
    # a lone null branch is a legal (incomplete) set; the deficit is
    # reported by the completeness check rather than at construction
    lone = KrausSet((np.diag([1.0, 0.5]),))
    assert abs(kraus_completeness_check(lone) - 0.75) < 1e-15
    with pytest.raises(DomainError):
        KrausSet((np.eye(3),))
    with pytest.raises(DomainError):
        KrausSet(())


def test_null_map_matches_hand_built_operator():
    # oracle: conjugate rho by diag(1, sqrt(1-p) e^{-i phi}) directly
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        p, phi_m = rng.uniform(0, 0.99), rng.uniform(0, 2 * np.pi)
        q = state_from_angles(PureState(theta, phi))
        m0 = np.diag([1.0, np.sqrt(1.0 - p) * np.exp(-1.0j * phi_m)])
        expected = m0 @ q.rho @ m0.conj().T
        got, prob_null = apply_partial_null(q, PartialMeasurement(p, phi_m))
        assert np.allclose(got.rho, expected, atol=1e-14)
        assert abs(prob_null - np.trace(expected).real) < 1e-14
        assert got.escaped == q.escaped    # conditional branch keeps the record


def test_null_result_polar_angle_law_on_a_grid():
    # closed form: theta' = 2 atan(sqrt(1-p) tan(theta0/2))
    thetas = np.linspace(0.0, np.pi, 21)
    ps = np.linspace(0.0, 0.95, 21)
    worst = 0.0
    for theta0 in thetas:
        for p in ps:
            q = state_from_angles(PureState(theta0, 0.0))
            after, _ = apply_partial_null(q, PartialMeasurement(p, 0.0))
            rho = after.normalized().rho
            got = float(
                np.arctan2(2.0 * abs(rho[0, 1]), (rho[0, 0] - rho[1, 1]).real)
            )
            want = 2.0 * np.arctan2(
                np.sqrt(1.0 - p) * np.sin(theta0 / 2.0), np.cos(theta0 / 2.0)
            )
            worst = max(worst, abs(got - want))
    assert worst < 1e-10


def test_null_result_shifts_azimuth_by_measurement_phase():
    q = state_from_angles(PureState(np.pi / 2, 0.7))
    phi_m = 1.9
    after, _ = apply_partial_null(q, PartialMeasurement(0.4, phi_m))
    rho = after.normalized().rho
    # phase of rho01 is +phi0 for this convention, shifted by +phi_m
    assert abs(np.angle(rho[0, 1]) - (0.7 + phi_m)) < 1e-12


def test_tunnel_branch_moves_weight_into_escaped():
    rng = np.random.default_rng(17)
    for _ in range(50):
        theta = rng.uniform(0, np.pi)
        p = rng.uniform(0, 1)
        q = state_from_angles(PureState(theta, 0.0))
        pop1 = float(q.rho[1, 1].real)
        after, prob = apply_partial_tunnel(q, PartialMeasurement(p, 0.0))
        assert abs(prob - p * pop1) < 1e-14
        assert abs(after.escaped - (q.escaped + p * pop1)) < 1e-14
        after.validate(require_total=True)


def test_rotation_pulses_are_unitary_and_signed_correctly():
    rng = np.random.default_rng(3)
    for _ in range(30):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        u = RotationPulse(tuple(axis), angle).unitary()
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    # pi about X is -i sigma_x
    u = RotationPulse.about_x(np.pi).unitary()
    assert np.allclose(u, -1.0j * SIGMA_X, atol=1e-14)


def test_rotation_pulse_rejects_non_unit_axis():
    with pytest.raises(DomainError):
        RotationPulse((1.0, 1.0, 0.0), np.pi)
    with pytest.raises(DomainError):
        RotationPulse((np.nan, 0.0, 0.0), np.pi)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RotationPulse((1.0, 0.0), np.pi), DomainError, "rotation axis must be a 3-vector"),
        (lambda: amplitude_damping_kraus(1.5), DomainError,
         "damping parameter must lie in [0, 1]"),
        (lambda: amplitude_damping_kraus(np.nan), DomainError,
         "damping parameter must lie in [0, 1]"),
        (lambda: dephasing_kraus(-0.1), DomainError, "dephasing parameter must lie in [0, 1]"),
        (lambda: dephasing_kraus(np.nan), DomainError, "dephasing parameter must lie in [0, 1]"),
        (lambda: apply_partial_null(QubitState(np.zeros((2, 2)), 1.0),
                                    PartialMeasurement(0.3, 0.0)),
         UndefinedStateError, "partial measurement of a vanished state"),
    ],
    ids=["axis-2-vector", "damping-1.5", "damping-nan", "dephasing-negative", "dephasing-nan",
         "null-of-vanished-state"],
)
def test_channel_inputs_are_refused_with_their_message(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def test_non_finite_angles_are_rejected_at_construction():
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            RotationPulse.about_x(value)
        with pytest.raises(DomainError):
            PartialMeasurement(0.3, value)


def test_pi_rotation_about_x_flips_poles():
    up = state_from_angles(PureState(0.0))
    flipped = apply_rotation(up, RotationPulse.about_x(np.pi))
    assert abs(flipped.rho[1, 1].real - 1.0) < 1e-14


def test_tomography_rotation_settings_map_the_right_axes():
    # the measured population after each setting must equal
    # (1 + x)/2, (1 - y)/2, (1 - z)/2 respectively
    rng = np.random.default_rng(29)
    for _ in range(50):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        q = state_from_angles(PureState(theta, phi))
        x = np.sin(theta) * np.cos(phi)
        y = -np.sin(theta) * np.sin(phi)
        z = np.cos(theta)
        for setting, want in (("x", (1 + x) / 2), ("y", (1 - y) / 2), ("z", (1 - z) / 2)):
            rotated = apply_rotation(q, tomography_rotation(setting))
            assert abs(rotated.rho[1, 1].real - want) < 1e-12
    with pytest.raises(DomainError):
        tomography_rotation("w")


def test_each_setting_has_one_analysis_pulse_object():
    # the sampler runs an op once for all stacked settings only when it is
    # one object, so every call for a setting returns the same pulse and map
    for setting in ("x", "y", "z"):
        assert tomography_rotation(setting) is tomography_rotation(setting)
        assert tomography_rotation(setting).transfer() is tomography_rotation(setting).transfer()


@pytest.mark.parametrize("duration", [-1.0, float("nan")])
def test_decoherence_step_rejects_negative_and_nan_durations(duration):
    with pytest.raises(DomainError):
        DecoherenceStep(duration, 450.0, 600.0)


@pytest.mark.parametrize("time", [-1.0, 0.0, float("nan")])
def test_decay_times_must_be_positive_numbers(time):
    for t1, t2 in ((time, 350.0), (450.0, time)):
        with pytest.raises(DomainError):
            pure_dephasing_time(t1, t2)
    for t1, t_phi in ((time, 600.0), (450.0, time)):
        with pytest.raises(DomainError):
            DecoherenceStep(10.0, t1, t_phi)


def test_pure_dephasing_time_from_rate_subtraction():
    # 1/T2 = 1/(2 T1) + 1/T_phi
    t_phi = pure_dephasing_time(450.0, 350.0)
    assert abs(1.0 / t_phi - (1.0 / 350.0 - 1.0 / 900.0)) < 1e-15
    assert pure_dephasing_time(100.0, 200.0) == np.inf


@pytest.mark.parametrize(
    "t1, t2, t_phi",
    [(450.0, 1e-310, 1e-310), (1e-310, 1e-310, 2e-310), (1e308, 1e-310, 1e-310),
     (450.0, 5e-324, 5e-324), (1e-310, 3e-310, np.inf), (1e-310, 350.0, np.inf)],
)
def test_pure_dephasing_time_of_a_time_whose_reciprocal_overflows(t1, t2, t_phi):
    # once returned 0 for T2 = 1e-310 and NaN for T1 = T2 = 1e-310
    assert pure_dephasing_time(t1, t2) == t_phi


def test_a_device_at_times_with_finite_reciprocals_builds_its_steps():
    device = DeviceParams(1e-308, 1e-308, 1e-308)
    assert DecoherenceStep.for_device(device, 10.0).t_phi_ns == 2e-308


def test_decoherence_step_gamma_and_lambda():
    step = DecoherenceStep(duration_ns=44.0, t1_ns=450.0, t_phi_ns=600.0)
    assert abs(step.gamma - (1.0 - np.exp(-44.0 / 450.0))) < 1e-15
    assert abs(step.lam - (1.0 - np.exp(-44.0 / 600.0))) < 1e-15


@pytest.mark.parametrize("echo", [True, False])
def test_relaxation_limited_device_has_no_dephasing(echo):
    # T2 at its bound 2*T1 leaves T_phi infinite: no flip, even over an
    # infinite step, and no nan from inf/inf
    device = DeviceParams(t1_ns=450.0, t2_echo_ns=900.0, t2_ramsey_ns=900.0)
    for duration in (0.0, 10.0, float("inf")):
        step = DecoherenceStep.for_device(device, duration, echo=echo)
        assert step.t_phi_ns == float("inf")
        assert step.lam == 0.0
        damping, dephasing = decoherence_ops(step)
        np.testing.assert_array_equal(dephasing.event, np.zeros((4, 4)))
        assert all(np.isfinite(m).all() for op in (damping, dephasing)
                   for m in (op.no_event, op.event, op.in_well))


def test_decoherence_step_for_device_picks_t2():
    d = default_device()
    echo = DecoherenceStep.for_device(d, 10.0, echo=True)
    ramsey = DecoherenceStep.for_device(d, 10.0, echo=False)
    assert abs(1.0 / echo.t_phi_ns - (1.0 / 350.0 - 1.0 / 900.0)) < 1e-15
    assert abs(1.0 / ramsey.t_phi_ns - (1.0 / 120.0 - 1.0 / 900.0)) < 1e-15


def test_damping_and_dephasing_kraus_are_complete():
    for gamma in (0.0, 0.2, 1.0):
        assert kraus_completeness_check(amplitude_damping_kraus(gamma)) < 1e-14
    for lam in (0.0, 0.5, 1.0):
        assert kraus_completeness_check(dephasing_kraus(lam)) < 1e-14


def test_decoherence_action_matches_closed_form():
    # oracle: population decays toward |0> with factor (1-gamma),
    # coherence shrinks by sqrt(1-gamma) * exp(-t/T_phi)
    rng = np.random.default_rng(31)
    step = DecoherenceStep(duration_ns=21.0, t1_ns=450.0, t_phi_ns=677.0)
    decay = np.exp(-21.0 / 450.0)
    coh = np.sqrt(decay) * np.exp(-21.0 / 677.0)
    for _ in range(50):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        q = state_from_angles(PureState(theta, phi))
        out = apply_decoherence(q, step)
        assert abs(out.rho[1, 1].real - decay * q.rho[1, 1].real) < 1e-14
        assert abs(out.rho[0, 1] - coh * q.rho[0, 1]) < 1e-14
        assert abs(out.trace - q.trace) < 1e-14   # trace preserving
        assert out.escaped == q.escaped


def _random_states(rng, count):
    # unnormalized mixed operators with an escape record, as the engines see them
    for _ in range(count):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        yield QubitState(rho * rng.uniform(0.1, 1.0) / np.trace(rho).real, 0.0)


def _assert_map_matches_kraus(transfer, operators, states):
    for q in states:
        want = apply_kraus(q, KrausSet(tuple(operators)))
        assert np.max(np.abs(transfer @ q.pauli - want.pauli)) < 1e-12
        got = QubitState.from_pauli(transfer @ q.pauli)
        assert np.max(np.abs(got.rho - want.rho)) < 1e-12


def test_transfer_ops_match_their_kraus_references():
    # oracle: sum_k K rho K' applied to the 2x2 operator, branch by branch
    rng = np.random.default_rng(37)
    states = list(_random_states(rng, 20))
    for _ in range(10):
        m = PartialMeasurement(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
        null, tunnel = m.kraus().operators
        op = m.transfer()
        assert op.effect == ESCAPE and op.in_well is op.no_event
        _assert_map_matches_kraus(op.no_event, [null], states)
        _assert_map_matches_kraus(op.event, [tunnel], states)
        assert m.transfer(CLICK).effect == CLICK
        np.testing.assert_array_equal(m.transfer(CLICK).in_well, np.eye(4))

        axis = rng.normal(size=3)
        pulse = RotationPulse(axis / np.linalg.norm(axis), rng.uniform(-2 * np.pi, 2 * np.pi))
        op = pulse.transfer()
        assert op.event is None
        _assert_map_matches_kraus(op.no_event, [pulse.unitary()], states)

        step = DecoherenceStep(rng.uniform(0, 500), 450.0, rng.uniform(100, 1000))
        damping, dephasing = decoherence_ops(step)
        for op, kraus in ((damping, amplitude_damping_kraus(step.gamma)),
                          (dephasing, dephasing_kraus(step.lam))):
            assert op.effect == STAY
            _assert_map_matches_kraus(op.no_event, kraus.operators[:1], states)
            _assert_map_matches_kraus(op.event, kraus.operators[1:], states)
            _assert_map_matches_kraus(op.in_well, kraus.operators, states)


def test_event_branches_and_probabilities():
    # a jump lands on |0>, a flip negates the coherences, and the event
    # probability is row 0 of A1 r
    q = state_from_angles(PureState(1.2, 0.4))
    r = q.pauli
    step = DecoherenceStep(40.0, 450.0, 600.0)
    damping, dephasing = decoherence_ops(step)
    jump = damping.event @ r
    assert np.allclose(jump / jump[0], [1.0, 0.0, 0.0, 1.0], atol=1e-15)
    assert abs(jump[0] - step.gamma * q.rho[1, 1].real) < 1e-15
    assert abs((dephasing.event @ r)[0] - step.lam / 2.0) < 1e-15
    flip = dephasing.event @ r
    assert np.allclose(flip / flip[0], r * [1.0, -1.0, -1.0, 1.0], atol=1e-15)
    m = PartialMeasurement(0.6, 0.3)
    assert abs((m.transfer().event @ r)[0] - 0.6 * q.rho[1, 1].real) < 1e-15


def test_ground_state_is_a_decoherence_fixed_point():
    q = state_from_angles(PureState(0.0))
    out = apply_decoherence(q, DecoherenceStep(100.0, 450.0, 600.0))
    assert np.allclose(out.rho, q.rho, atol=1e-15)


def test_memoized_maps_are_shared_and_read_only():
    from uncollapse.protocol import _prepare_op
    from uncollapse.qpt import PROBE_STATES, _design_matrix

    measure = PartialMeasurement(0.3, 0.7)
    assert measure.transfer() is PartialMeasurement(0.3, 0.7).transfer()
    pulse = RotationPulse.about_x(np.pi)
    assert pulse.transfer() is RotationPulse.about_x(np.pi).transfer()
    step = DecoherenceStep(10.0, 450.0, 500.0)
    ops = [measure.transfer(), measure.transfer(CLICK), pulse.transfer(),
           tomography_rotation("x").transfer(), *decoherence_ops(step), _prepare_op(PureState(1.0))]
    arrays = [m for op in ops for m in (op.no_event, op.event, op.in_well) if m is not None]
    arrays += [_design_matrix(PROBE_STATES)]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0, 0] = 0.5
