"""State containers, Bloch conversions, and fidelity."""

import itertools
import math

import numpy as np
import pytest

from uncollapse import (
    BlochVector,
    DeviceParams,
    DomainError,
    PureState,
    QubitState,
    RotationPulse,
    UndefinedStateError,
    bloch_from_state,
    default_device,
    state_fidelity,
    state_from_angles,
    state_from_bloch,
    tomography_rotation,
)
from uncollapse.qubit import (PAULI_BASIS, SIGMA_X, SIGMA_Y, SIGMA_Z, operators_from_pauli,
                              pauli_vectors, validate_bloch_rows, validate_states)


def test_pure_state_amplitudes_are_normalized():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = PureState(rng.uniform(0, np.pi), rng.uniform(-10, 10))
        amps = s.amplitudes()
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-14


def test_pure_state_rejects_bad_polar_angle():
    with pytest.raises(DomainError):
        PureState(-0.1)
    with pytest.raises(DomainError):
        PureState(np.pi + 0.1)


def test_pure_state_rejects_a_non_finite_azimuth():
    for phi0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            PureState(1.0, phi0)


def test_pure_state_reduces_azimuth():
    s = PureState(1.0, -np.pi / 2)
    assert abs(s.phi0 - 3 * np.pi / 2) < 1e-12


def test_bloch_components_follow_the_angle_convention():
    # amplitudes (cos(t/2), e^{-i phi} sin(t/2)) give
    # (x, y, z) = (sin t cos phi, -sin t sin phi, cos t)
    rng = np.random.default_rng(7)
    for _ in range(100):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        b = bloch_from_state(state_from_angles(PureState(theta, phi)))
        assert abs(b.x - np.sin(theta) * np.cos(phi)) < 1e-12
        assert abs(b.y + np.sin(theta) * np.sin(phi)) < 1e-12
        assert abs(b.z - np.cos(theta)) < 1e-12


def test_ground_state_sits_at_north_pole():
    b = bloch_from_state(state_from_angles(PureState(0.0)))
    assert abs(b.z - 1.0) < 1e-15 and abs(b.x) < 1e-15 and abs(b.y) < 1e-15


def test_bloch_round_trip_through_density_operator():
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)   # mixed states included
        b = BlochVector(*v)
        back = bloch_from_state(state_from_bloch(b))
        assert np.allclose(back.as_array(), b.as_array(), atol=1e-12)


def test_bloch_validate_rejects_long_vectors():
    with pytest.raises(DomainError):
        BlochVector(0.8, 0.8, 0.8).validate()
    # the constructor itself stays permissive for noisy reconstructions
    BlochVector(0.8, 0.8, 0.8)


# a Bloch vector that fails one bound, and the error it raises
_BAD_BLOCH = [
    ((1.5, 0.0, 0.0), "Bloch component x=1.5 outside [-1, 1]"),
    ((0.0, 1.5, 0.1), "Bloch component y=1.5 outside [-1, 1]"),
    ((0.5, 2.0, -1.25), "Bloch component y=2.0 outside [-1, 1]"),
    ((0.0, 0.0, math.nan), "Bloch component z=nan outside [-1, 1]"),
    ((0.8, 0.7, 0.1), "Bloch vector of squared length 1.14 leaves the unit ball"),
    ((0.8, 0.8, 0.8), "Bloch vector of squared length 1.92 leaves the unit ball"),
]


@pytest.mark.parametrize(
    "vector, message",
    _BAD_BLOCH + [  # integers print as given
        ((2, 0, 0), "Bloch component x=2 outside [-1, 1]"),
        ((1, 1, 0), "Bloch vector of squared length 2.0000000000000004 leaves the unit ball"),
    ],
)
def test_a_bloch_vector_outside_its_bounds_raises_its_literal_error(vector, message):
    with pytest.raises(DomainError) as raised:
        BlochVector(*vector).validate()
    assert str(raised.value) == message


def test_a_stack_of_bloch_rows_raises_at_its_first_failing_row():
    good = [(0.0, 0.0, 1.0), (0.6, -0.8, 0.0), (1.0 + 1e-10, 0.0, 0.0), (0.0, 0.0, 0.0)]
    validate_bloch_rows(np.array(good))
    validate_bloch_rows(np.zeros((0, 3)))
    # whichever bound the first failing row breaks, its error wins over a later row's
    for (first, message), (later, _) in zip(_BAD_BLOCH, _BAD_BLOCH[::-1]):
        with pytest.raises(DomainError) as raised:
            validate_bloch_rows(np.array([good[1], first, good[0], later]))
        assert str(raised.value) == message


def test_bloch_norm_of_a_finite_vector_neither_overflows_nor_underflows():
    # the squares of these components leave the float64 range
    assert BlochVector(1e300, 0.0, -1e300).norm == math.hypot(1e300, 1e300)
    assert BlochVector(3e-200, 4e-200, 0.0).norm == 5e-200
    with pytest.raises(DomainError, match="outside"):
        BlochVector(1e300, 0.0, 0.0).validate()


def test_qubit_state_shape_and_bookkeeping_checks():
    with pytest.raises(DomainError):
        QubitState(np.eye(3))
    q = QubitState(np.diag([0.5, 0.5]), escaped=0.0)
    q.validate(require_total=True)
    with pytest.raises(DomainError):
        QubitState(np.diag([0.4, 0.4]), escaped=0.0).validate(require_total=True)
    QubitState(np.diag([0.4, 0.4]), escaped=0.0).validate(require_total=False)
    with pytest.raises(DomainError):
        QubitState(np.array([[0.5, 0.5], [-0.5, 0.5]]), 0.0).validate()
    with pytest.raises(DomainError):
        QubitState(np.array([[1.2, 0.0], [0.0, -0.2]]), 0.0).validate()


# one faulty member per case, with the text QubitState.validate has always given
_FAULTY_MEMBERS = [
    (np.array([[0.5, 0.5], [-0.5, 0.5]]), 0.0, r"density operator is not Hermitian"),
    (np.diag([0.65, -0.15]), 0.5, r"density operator has negative eigenvalue -0\.15"),
    (np.diag([0.6, 0.6]), 0.0, r"conditional trace 1\.2 outside \[0, 1\]"),
    (np.diag([0.3, 0.3]), -0.2, r"escaped probability -0\.2 outside \[0, 1\]"),
    (np.diag([0.4, 0.4]), 0.4, r"trace \+ escaped = 1\.2000000000000002 exceeds 1"),
    (np.diag([0.25, 0.25]), 0.3, r"trace \+ escaped = 0\.8 does not close to 1"),
    # NaN would pass the hermiticity and positivity checks, so finiteness comes first
    (np.array([[0.5, np.nan], [np.nan, 0.5]]), 0.0, r"is not finite"),
    (np.diag([0.5, 0.5]), np.nan, r"is not finite"),
]


# _FAULTY_MEMBERS in the order validate_states runs its checks, each with the
# literal message that the check printed when it looped over the members
_CHECK_ORDER = [(*_FAULTY_MEMBERS[index][:2], message) for index, message in [
    (6, "conditional state or escaped probability is not finite"),
    (0, "density operator is not Hermitian"),
    (1, "density operator has negative eigenvalue -0.15"),
    (2, "conditional trace 1.2 outside [0, 1]"),
    (3, "escaped probability -0.2 outside [0, 1]"),
    (4, "trace + escaped = 1.2000000000000002 exceeds 1"),
    (5, "trace + escaped = 0.8 does not close to 1"),
]]
_GOOD_MEMBER = (np.diag([0.5, 0.5]), 0.0)


def _stack(*members):
    return (np.array([rho for rho, _ in members], dtype=complex),
            np.array([escaped for _, escaped in members]))


@pytest.mark.parametrize("early, late", list(itertools.combinations(range(len(_CHECK_ORDER)), 2)))
def test_the_earlier_check_names_the_error_whichever_member_fails_it(early, late):
    # the member failing the later check comes first in the stack
    stack = _stack(_CHECK_ORDER[late][:2], _GOOD_MEMBER, _CHECK_ORDER[early][:2])
    with pytest.raises(DomainError) as error:
        validate_states(*stack)
    assert str(error.value) == _CHECK_ORDER[early][2]


def test_the_first_member_failing_a_check_names_it():
    stack = _stack(_GOOD_MEMBER, (np.diag([0.7, -0.3]), 0.6), _CHECK_ORDER[2][:2])
    with pytest.raises(DomainError, match=r"^density operator has negative eigenvalue -0\.3$"):
        validate_states(*stack)


def test_without_the_total_an_open_member_passes_and_every_other_check_still_runs():
    unclosed = _CHECK_ORDER[-1][:2]
    validate_states(*_stack(unclosed, _GOOD_MEMBER), require_total=False)
    for *member, message in _CHECK_ORDER[:-1]:
        with pytest.raises(DomainError) as error:
            validate_states(*_stack(unclosed, _GOOD_MEMBER, member), require_total=False)
        assert str(error.value) == message


@pytest.mark.parametrize("rho, escaped, message", _FAULTY_MEMBERS)
@pytest.mark.parametrize("position", [0, 2, 3])
def test_stacked_validation_raises_what_a_single_state_raises(rho, escaped, message, position):
    rng = np.random.default_rng(position)
    good = []
    for _ in range(3):
        trace = rng.uniform(0.1, 1.0)
        pure = state_from_angles(PureState(rng.uniform(0, np.pi), rng.uniform(0, 6))).rho
        good.append((trace * pure, 1.0 - trace))
    validate_states(np.array([m for m, _ in good]), np.array([e for _, e in good]))
    members = good[:position] + [(rho, escaped)] + good[position:]
    stack = np.array([m for m, _ in members], dtype=complex)
    escapes = np.array([e for _, e in members])
    with pytest.raises(DomainError, match=message) as single:
        QubitState(rho, escaped).validate()
    with pytest.raises(DomainError) as stacked:
        validate_states(stack, escapes)
    assert str(stacked.value) == str(single.value)


def test_stacked_validation_passes_good_stacks_and_checks_all_of_them():
    members = [state_from_angles(PureState(t, 0.3)).rho for t in np.linspace(0, np.pi, 5)]
    validate_states(np.array(members), np.zeros(5))
    validate_states(np.array(members) * 0.5, np.full(5, 0.2), require_total=False)
    with pytest.raises(DomainError, match="does not close"):
        validate_states(np.array(members) * 0.5, np.full(5, 0.2))


def test_normalized_strips_escape_record():
    q = QubitState(np.diag([0.3, 0.3]), escaped=0.4)
    n = q.normalized()
    assert abs(n.trace - 1.0) < 1e-15
    assert n.escaped == 0.0
    with pytest.raises(UndefinedStateError):
        QubitState(np.zeros((2, 2)), escaped=1.0).normalized()


def test_a_vanished_state_has_no_purity_and_no_bloch_vector():
    vanished = QubitState(np.zeros((2, 2)), escaped=1.0)
    with pytest.raises(UndefinedStateError) as raised:
        vanished.purity
    assert str(raised.value) == "purity undefined: conditional trace is zero"
    with pytest.raises(UndefinedStateError) as raised:
        bloch_from_state(vanished)
    assert str(raised.value) == "Bloch vector undefined: conditional trace is zero"


def test_purity_of_pure_and_maximally_mixed():
    pure = state_from_angles(PureState(1.1, 2.2))
    assert abs(pure.purity - 1.0) < 1e-12
    mixed = QubitState(np.diag([0.5, 0.5]))
    assert abs(mixed.purity - 0.5) < 1e-15


def test_state_fidelity_matches_eigen_decomposition_oracle():
    # oracle: F = (tr sqrt(sqrt(a) b sqrt(a)))^2 via explicit eigendecompositions
    def sqrtm(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T

    rng = np.random.default_rng(41)
    for _ in range(50):
        va = rng.normal(size=3)
        vb = rng.normal(size=3)
        va *= rng.uniform(0, 1) / np.linalg.norm(va)
        vb *= rng.uniform(0, 1) / np.linalg.norm(vb)
        a = state_from_bloch(BlochVector(*va))
        b = state_from_bloch(BlochVector(*vb))
        ra = sqrtm(a.rho)
        expected = np.trace(sqrtm(ra @ b.rho @ ra)).real ** 2
        assert abs(state_fidelity(a, b) - expected) < 1e-10


def test_state_fidelity_pure_target_reduces_to_overlap():
    rng = np.random.default_rng(43)
    for _ in range(50):
        s = PureState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        t = PureState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        overlap = abs(np.vdot(s.amplitudes(), t.amplitudes())) ** 2
        got = state_fidelity(state_from_angles(s), state_from_angles(t))
        assert abs(got - overlap) < 1e-12


def test_device_params_invariants():
    d = default_device()
    assert (d.t1_ns, d.t2_echo_ns, d.t2_ramsey_ns) == (450.0, 350.0, 120.0)
    assert d.visibility == 1.0
    assert default_device(visibility=0.9).visibility == 0.9
    with pytest.raises(DomainError):
        DeviceParams(t1_ns=100.0, t2_echo_ns=250.0, t2_ramsey_ns=50.0)
    with pytest.raises(DomainError):
        DeviceParams(t1_ns=100.0, t2_echo_ns=80.0, t2_ramsey_ns=90.0)
    with pytest.raises(DomainError):
        DeviceParams(t1_ns=-1.0, t2_echo_ns=1.0, t2_ramsey_ns=1.0)
    # the reconstruction divides by the visibility
    for visibility in (0.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            default_device(visibility=visibility)


@pytest.mark.parametrize("time", [-1.0, 0.0, float("nan")])
@pytest.mark.parametrize("name", ["t1_ns", "t2_echo_ns", "t2_ramsey_ns"])
def test_device_decay_times_must_be_positive_numbers(name, time):
    # "not > 0", since NaN passes a "<= 0" check
    times = {"t1_ns": 450.0, "t2_echo_ns": 350.0, "t2_ramsey_ns": 120.0, name: time}
    with pytest.raises(DomainError, match=name):
        DeviceParams(**times)


@pytest.mark.parametrize("time", [1e-310, 5e-324])
@pytest.mark.parametrize("name", ["t1_ns", "t2_echo_ns", "t2_ramsey_ns"])
def test_device_decay_times_must_have_finite_rates(name, time):
    # the rates are reciprocals, and 1/time overflows below about 5.6e-309
    times = {"t1_ns": 450.0, "t2_echo_ns": 350.0, "t2_ramsey_ns": 120.0, name: time}
    with pytest.raises(DomainError) as raised:
        DeviceParams(**times)
    assert str(raised.value) == f"{name} {time} is too small: its reciprocal overflows"


def _operators_by_component(r):
    # the component formulas that the Pauli table replaced
    t, x, y, z = r.T
    entries = 0.5 * np.array([t + z, x - 1.0j * y, x + 1.0j * y, t - z])
    return entries.T.reshape(-1, 2, 2)


def _pauli_vectors_by_component(rho):
    diag_sum = (rho[:, 0, 0] + rho[:, 1, 1]).real
    diag_diff = (rho[:, 0, 0] - rho[:, 1, 1]).real
    coherence = rho[:, 0, 1]
    return np.array([diag_sum, 2.0 * coherence.real, -2.0 * coherence.imag, diag_diff]).T


def test_the_pauli_table_converts_hermitian_stacks_as_the_component_formulas_did():
    rng = np.random.default_rng(53)
    for _ in range(5):
        # random vectors and operators with exact zeros; a + a' is Hermitian bit for bit
        r = rng.normal(size=(200, 4)) * (rng.random((200, 4)) < 0.7)
        a = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
        a *= rng.random((200, 2, 2)) < 0.7
        assert np.array_equal(operators_from_pauli(r), _operators_by_component(r))
        for rho in (_operators_by_component(r), a + a.conj().swapaxes(-1, -2)):
            assert np.array_equal(pauli_vectors(rho), _pauli_vectors_by_component(rho))


def test_a_non_hermitian_operator_has_the_pauli_vector_re_tr_rho_sigma():
    rng = np.random.default_rng(59)
    rho = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    want = [[np.trace(m @ s).real for s in PAULI_BASIS] for m in rho]
    assert np.array_equal(pauli_vectors(rho), want)


def test_a_rotation_unitary_is_the_sigma_sum_it_was():
    rng = np.random.default_rng(61)
    axes = rng.normal(size=(50, 3))
    pulses = [RotationPulse.about_x(np.pi), RotationPulse.about_x(-0.3)]
    pulses += [tomography_rotation(setting) for setting in "xyz"]
    pulses += [RotationPulse(tuple(v / np.linalg.norm(v)), rng.uniform(-7.0, 7.0)) for v in axes]
    for pulse in pulses:
        half = pulse.angle / 2.0
        nx, ny, nz = pulse.axis
        sigma = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z
        want = np.cos(half) * np.eye(2) - 1.0j * np.sin(half) * sigma
        assert np.array_equal(pulse.unitary(), want)


def test_pauli_vector_round_trip():
    # oracle: r_i = tr(rho sigma_i) for unnormalized, mixed operators
    rng = np.random.default_rng(47)
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q = QubitState(a @ a.conj().T, 0.3)
        want = [np.trace(q.rho @ np.array(s)).real for s in paulis]
        assert np.allclose(q.pauli, want, atol=1e-14)
        back = QubitState.from_pauli(q.pauli, q.escaped)
        assert np.allclose(back.rho, q.rho, atol=1e-14) and back.escaped == 0.3
