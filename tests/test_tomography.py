"""Forward detection model, Bloch reconstruction, and angle read-back."""

import math

import numpy as np
import pytest

from uncollapse import (
    BlochVector,
    DecoherenceStep,
    DegenerateBackgroundError,
    DomainError,
    ExperimentConfig,
    PartialMeasurement,
    PulseTiming,
    PureState,
    TomographyRecord,
    UndefinedDirectionError,
    UndefinedStateError,
    apply_partial_null,
    bloch_from_state,
    bloch_reconstruct,
    default_device,
    exact_tomography_record,
    polar_azimuth,
    state_from_angles,
    state_from_bloch,
    tomo_probabilities,
)
from uncollapse.qubit import ROUNDOFF_TOL, TRACE_FLOOR
from uncollapse.tomography import (
    _check_table,
    _forward,
    _readout_rows,
    bloch_rows,
    exact_tomography_sweep,
    polar_angles,
)


def test_forward_model_on_basis_states():
    d = default_device()
    ground = tomo_probabilities(state_from_angles(PureState(0.0)), 0.0, d)
    assert ground.p_z == 0.0
    excited = tomo_probabilities(state_from_angles(PureState(np.pi)), 0.0, d)
    assert abs(excited.p_z - 1.0) < 1e-14


def test_forward_model_for_partially_collapsed_superposition():
    # oracle: collapse (|0>+|1>)/sqrt2 by hand, then P_Z = p_b + (1-p_b) rho'_11
    p = 0.6
    q = state_from_angles(PureState(np.pi / 2, 0.0))
    collapsed, _ = apply_partial_null(q, PartialMeasurement(p, 0.0))
    pop = (1.0 - p) / (2.0 - p)
    record = tomo_probabilities(collapsed, p / 2.0, default_device())
    assert abs(record.p_z - (p / 2.0 + (1.0 - p / 2.0) * pop)) < 1e-14


def test_reconstruction_round_trip_is_exact():
    rng = np.random.default_rng(83)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 1.0) / np.linalg.norm(v)
        q = state_from_bloch(BlochVector(*v))
        p_b = rng.uniform(0, 0.95)
        back = bloch_reconstruct(tomo_probabilities(q, p_b, default_device()))
        worst = max(worst, float(np.max(np.abs(back.as_array() - v))))
    assert worst < 1e-10


def test_reconstruction_sign_convention():
    # a record with no tunneling above background is the ground state
    record = TomographyRecord(p_x=0.55, p_y=0.55, p_z=0.1, p_b=0.1)
    b = bloch_reconstruct(record)
    assert abs(b.z - 1.0) < 1e-12
    full = TomographyRecord(p_x=0.5, p_y=0.5, p_z=1.0, p_b=0.0)
    assert abs(bloch_reconstruct(full).z + 1.0) < 1e-12


def test_reconstruction_rejects_saturated_background():
    with pytest.raises(DegenerateBackgroundError):
        bloch_reconstruct(TomographyRecord(p_x=1.0, p_y=1.0, p_z=1.0, p_b=1.0 - 1e-13))


@pytest.mark.parametrize("visibility", [0.0, -0.5, math.nan, 2.0, math.inf])
def test_reconstruction_rejects_a_visibility_outside_zero_to_one(visibility):
    record = TomographyRecord(p_x=0.5, p_y=0.5, p_z=0.5, p_b=0.0)
    with pytest.raises(DomainError, match="visibility"):
        bloch_reconstruct(record, visibility)


def test_only_an_exact_record_must_invert_into_the_unit_ball():
    values = dict(p_x=1.0, p_y=0.0, p_z=0.0, p_b=0.0)
    with pytest.raises(DomainError, match="unit ball"):
        bloch_reconstruct(TomographyRecord(**values))
    sampled = TomographyRecord(**values, shots=10, stderr=(0.0, 0.0, 0.0), stderr_b=0.0)
    assert bloch_reconstruct(sampled).as_array().tolist() == [1.0, 1.0, 1.0]


def test_record_validation_and_statistical_slack():
    with pytest.raises(DomainError):
        TomographyRecord(p_x=1.2, p_y=0.5, p_z=0.5, p_b=0.0)
    with pytest.raises(DomainError):
        TomographyRecord(p_x=0.1, p_y=0.5, p_z=0.5, p_b=0.3)
    # sampled records may dip below the background by a few sigma
    TomographyRecord(
        p_x=0.28, p_y=0.5, p_z=0.5, p_b=0.3,
        shots=100, stderr=(0.05, 0.05, 0.05), stderr_b=0.03,
    )
    with pytest.raises(DomainError, match="falls below the background"):
        TomographyRecord(0.1, 0.1, 0.1, 0.5, stderr=(0.01, 0.01, 0.01), stderr_b=0.01)
    with pytest.raises(DomainError):
        TomographyRecord(p_x=0.5, p_y=0.5, p_z=0.5, p_b=0.5).probability("q")


def test_probability_reads_each_setting_and_rejects_other_names_as_before():
    record = TomographyRecord(p_x=0.2, p_y=0.4, p_z=0.7, p_b=0.1)
    assert [record.probability(s) for s in ("x", "y", "z")] == [0.2, 0.4, 0.7]
    for setting in ("q", "", 1):
        with pytest.raises(DomainError) as error:
            record.probability(setting)
        assert str(error.value) == f"unknown tomography setting {setting!r}"
    with pytest.raises(TypeError):
        record.probability(["x"])


# a record that breaks one bound, and the message it raises
_RECORD_ERRORS = [
    (dict(p_x=1.2, p_y=0.5, p_z=0.5, p_b=0.0), "probability p_x=1.2 outside [0, 1]"),
    (dict(p_x=0.5, p_y=-0.1, p_z=0.5, p_b=0.0), "probability p_y=-0.1 outside [0, 1]"),
    (dict(p_x=0.5, p_y=0.5, p_z=1.0 + 2e-12, p_b=0.0), "probability p_z=1.000000000002 outside [0, 1]"),
    (dict(p_x=0.5, p_y=0.5, p_z=0.5, p_b=1.5), "probability p_b=1.5 outside [0, 1]"),
    (dict(p_x=0.5, p_y=0.5, p_z=0.5, p_b=-0.25), "probability p_b=-0.25 outside [0, 1]"),
    (dict(p_x=0.1, p_y=0.5, p_z=0.5, p_b=0.3),
     "p_x=0.1 falls below the background 0.3 by more than 1e-09"),
    (dict(p_x=0.5, p_y=0.5, p_z=0.1, p_b=0.3, stderr=(0.01, 0.02, 0.03), stderr_b=0.01),
     "p_z=0.1 falls below the background 0.3 by more than 0.18973666061010275"),
    # integers print as given
    (dict(p_x=2, p_y=0, p_z=0, p_b=0), "probability p_x=2 outside [0, 1]"),
    (dict(p_x=0, p_y=1, p_z=1, p_b=1), "p_x=0 falls below the background 1 by more than 1e-09"),
]


@pytest.mark.parametrize("fields, message", _RECORD_ERRORS)
def test_a_record_outside_its_bounds_raises_its_literal_error(fields, message):
    assert _outcome(lambda: TomographyRecord(**fields)) == (DomainError, message)


@pytest.mark.parametrize("value", ["0.5", None])
def test_a_record_of_non_numbers_is_refused(value):
    with pytest.raises(TypeError):
        TomographyRecord(value, 0.5, 0.5, 0.0)
    with pytest.raises(TypeError):
        BlochVector(value, 0.0, 0.0).validate()


@pytest.mark.parametrize(
    "stderr, stderr_b",
    [
        ((math.nan,) * 3, 0.01),
        ((0.01, 0.01, 0.01), math.nan),
        ((0.01, math.inf, 0.01), 0.01),
        ((0.01, 0.01, 0.01), math.inf),
        ((-1.0,) * 3, 0.0),
        ((0.01, 0.01, 0.01), -0.01),
        ((0.01, 0.01), 0.01),
        ((0.01,) * 4, 0.01),
        ((0.01, 0.01, 0.01), None),
        (None, 0.01),
    ],
)
def test_standard_errors_are_three_and_one_finite_non_negative_numbers(stderr, stderr_b):
    # a nan or negative slack would switch the background check off, and this
    # row, far below its background, would reconstruct to (-2.6, 2.6, 2.6)
    with pytest.raises(DomainError, match="standard errors"):
        TomographyRecord(0.1, 0.1, 0.1, 0.5, stderr=stderr, stderr_b=stderr_b)


def test_degenerate_state_raises():
    from uncollapse import QubitState

    with pytest.raises(UndefinedStateError):
        tomo_probabilities(QubitState(np.zeros((2, 2)), 1.0), 0.5, default_device())


def test_polar_azimuth_conventions():
    theta, phi = polar_azimuth(BlochVector(0.0, 0.0, 1.0))
    assert theta == 0.0
    theta, phi = polar_azimuth(BlochVector(1.0, 0.0, 0.0))
    assert abs(theta - np.pi / 2) < 1e-15 and phi == 0.0
    with pytest.raises(UndefinedDirectionError):
        polar_azimuth(BlochVector(1e-12, 0.0, 0.0))


def test_a_huge_finite_bloch_vector_has_a_direction():
    # its squared length overflows float64; its direction is still defined
    assert polar_azimuth(BlochVector(1e300, 0.0, 0.0)) == (math.pi / 2, 0.0)
    rows = np.array([[0.0, 0.0, 1e300], [1e300, 1e300, 0.0], [-3e299, 0.0, -3e299]])
    assert polar_angles(rows).tolist() == [0.0, math.pi / 2, 3 * math.pi / 4]


def test_polar_azimuth_round_trips_pure_states():
    rng = np.random.default_rng(89)
    for _ in range(100):
        s = PureState(rng.uniform(0.01, np.pi - 0.01), rng.uniform(0, 2 * np.pi))
        theta, phi = polar_azimuth(bloch_from_state(state_from_angles(s)))
        assert abs(theta - s.theta0) < 1e-10
        assert abs((phi - s.phi0 + np.pi) % (2 * np.pi) - np.pi) < 1e-10


def test_collapse_sweep_oscillates_and_reversal_sweep_is_flat():
    # single-measurement sweep: P_X oscillates through the phase model
    # while P_B grows linearly; reversal sweep: reconstruction is flat
    ps = np.linspace(0.0, 0.95, 20)
    p_x = []
    for p in ps:
        cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p)
        record, _ = exact_tomography_record(cfg, "collapse")
        assert abs(record.p_b - p / 2.0) < 1e-12
        p_x.append(record.p_x)
    diffs = np.sign(np.diff(p_x))
    assert np.any(diffs > 0) and np.any(diffs < 0)   # non-monotone

    vectors = []
    for p in ps:
        cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p)
        record, _ = exact_tomography_record(cfg, "uncollapse")
        vectors.append(bloch_reconstruct(record).as_array())
    vectors = np.array(vectors)
    assert np.max(np.abs(vectors - vectors[0])) < 1e-10

    # with decoherence on the restored vector drifts more as p grows
    devs = []
    for p in (0.1, 0.5, 0.9):
        cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p, decoherence_enabled=True)
        record, _ = exact_tomography_record(cfg, "uncollapse")
        devs.append(float(np.max(np.abs(bloch_reconstruct(record).as_array() - vectors[0]))))
    assert devs[0] < devs[1] < devs[2]


def test_reconstruction_inverts_reduced_visibility_exactly():
    rng = np.random.default_rng(97)
    for visibility in (0.5, 0.9):
        device = default_device(visibility=visibility)
        for _ in range(50):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1.0) / np.linalg.norm(v)
            p_b = rng.uniform(0, 0.95)
            record = tomo_probabilities(state_from_bloch(BlochVector(*v)), p_b, device)
            back = bloch_reconstruct(record, visibility)
            assert np.max(np.abs(back.as_array() - v)) < 1e-12
        # |0> stays on the sphere; the v = 1 inverse would leave the ball
        ground = tomo_probabilities(state_from_angles(PureState(0.0)), 0.2, device)
        assert abs(bloch_reconstruct(ground, visibility).norm - 1.0) < 1e-12


def test_exact_record_ties_to_run_outcome():
    cfg = ExperimentConfig(PureState(1.2, 0.7), p=0.35)
    record, outcome = exact_tomography_record(cfg, "uncollapse")
    assert abs(record.p_b - outcome.p_background) < 1e-15
    assert abs(outcome.p_success - (1.0 - 0.35)) < 1e-12
    with pytest.raises(DomainError):
        exact_tomography_record(cfg, "diagonal")


def _per_point(cfg, p_grid, kind):
    # the reference: one sequence, one fold and one record per strength
    pairs = [exact_tomography_record(cfg.at_strength(p), kind) for p in p_grid]
    return [record for record, _ in pairs], [outcome.p_success for _, outcome in pairs]


def _per_record(records, visibility):
    # the reference: each record reconstructed, and its angle read, on its own
    vectors = [bloch_reconstruct(record, visibility) for record in records]
    return [[*v] for v in vectors], [polar_azimuth(v)[0] for v in vectors]


def _per_table(table, visibility):
    vectors = bloch_rows(table, visibility)
    return vectors.tolist(), polar_angles(vectors).tolist()


def _assert_sweep_equals_per_point(cfg, p_grid, kinds=("collapse", "uncollapse")):
    visibility = cfg.device.visibility
    for kind in kinds:
        table, p_success = exact_tomography_sweep(cfg, p_grid, kind)
        records, reference = _per_point(cfg, p_grid, kind)
        assert table.tolist() == [[r.p_x, r.p_y, r.p_z, r.p_b] for r in records]
        assert p_success.tolist() == reference
        # Bloch rows and angles equal by ==, or the same error
        assert _outcome(lambda: _per_table(table, visibility)) == _outcome(
            lambda: _per_record(records, visibility)
        )


def test_stacked_sweep_equals_the_per_point_path():
    # exactly equal, not close: every grid member runs a one-point fold's arithmetic
    rng = np.random.default_rng(808)
    for i in range(24):
        cfg = ExperimentConfig(
            PureState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
            p=0.0,
            decoherence_enabled=bool(i % 2),
            use_echo_t2=bool(i // 2 % 2),
            pi_fraction=rng.choice([1.0, rng.uniform(0.8, 1.1)]),
            device=default_device(rng.choice([1.0, rng.uniform(0.5, 1.0)])),
            phi_m_rate=rng.uniform(0.0, 20.0),
            p_error_fraction=rng.choice([0.0, rng.uniform(-0.1, 0.1)]),
            timing=PulseTiming(idle_ns=rng.uniform(0, 30), tomography_ns=rng.uniform(0, 15)),
        )
        # one-point grids too
        size = 1 if i % 3 == 0 else int(rng.integers(2, 40))
        _assert_sweep_equals_per_point(cfg, np.sort(rng.uniform(0.0, 0.95, size)).tolist())


def test_stacked_sweep_clamps_and_models_the_phase_like_one_point():
    # a calibration bias that clamps the realized strength to 1 on the last point
    # (the reversal cannot run there: it empties the well)
    clamped = ExperimentConfig(PureState(1.3, 0.2), p=0.0, p_error_fraction=0.5)
    grid = [0.1, 0.5, 0.9]
    assert clamped.grid_measurements(grid)[0].tolist() == [0.15000000000000002, 0.75, 1.0]
    _assert_grid_measurements_match(clamped, grid)
    _assert_sweep_equals_per_point(clamped, grid, kinds=("collapse",))
    table, _ = exact_tomography_sweep(clamped, grid, "collapse")
    assert abs(table[-1, 3] - math.sin(0.65) ** 2) < 1e-15
    # a nonlinear phase model, evaluated at each realized strength
    for decoherence in (False, True):
        cfg = ExperimentConfig(
            PureState(2.0, 1.0),
            p=0.0,
            decoherence_enabled=decoherence,
            p_error_fraction=-0.07,
            phi_m_model=lambda p: 3.0 * math.sin(5.0 * p) + p**2,
        )
        grid = np.linspace(0.0, 0.95, 17).tolist()
        _assert_grid_measurements_match(cfg, grid)
        _assert_sweep_equals_per_point(cfg, grid)


def _assert_grid_measurements_match(cfg, grid):
    p_real, phi_m = cfg.grid_measurements(grid)
    points = [cfg.at_strength(p) for p in grid]
    assert p_real.tolist() == [c.measurement().p for c in points]
    assert phi_m.tolist() == [c.measurement().phi_m for c in points]


def _raised(call):
    try:
        call()
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


def _outcome(call):
    # the result, or the type and message of what the call raised
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "kind, theta0, p_grid",
    [
        # the clamped strength 1 empties the well after two measurements
        ("uncollapse", 1.0, [0.2, 0.9]),
        # and |1> after one
        ("collapse", np.pi, [0.3, 0.9]),
        ("collapse", 1.0, [0.2, 1.5]),
        ("uncollapse", 1.0, [-0.1, 0.2]),
    ],
)
def test_a_failing_grid_point_raises_what_the_per_point_path_raises(kind, theta0, p_grid):
    cfg = ExperimentConfig(PureState(theta0, 0.0), p=0.0, p_error_fraction=0.5)
    expected = _raised(lambda: _per_point(cfg, p_grid, kind))
    assert expected is not None
    assert _raised(lambda: exact_tomography_sweep(cfg, p_grid, kind)) is expected


def test_readout_rows_are_the_same_on_every_call():
    step = DecoherenceStep(12.0, 450.0, 350.0)
    for visibility, decay in ((1.0, None), (0.9, None), (0.9, step)):
        assert np.array_equal(_readout_rows(visibility, decay), _readout_rows(visibility, decay))


def _per_member_forward(paulis, p_b, device):
    # the reference: the loop over members that the checked table replaced,
    # every member's state checks first, then one record per member
    for trace, background in zip(paulis[:, 0], p_b):
        if trace <= TRACE_FLOOR:
            raise UndefinedStateError("tomography of a vanished conditional state")
        if not 0.0 <= background <= 1.0:
            raise DomainError(f"background probability must lie in [0, 1], got {float(background)}")
    rows = _readout_rows(device.visibility, None)
    populations = (rows @ (paulis / paulis[:, :1])[:, :, None])[:, :, 0]
    probs = p_b[:, None] + (1.0 - p_b[:, None]) * populations
    return [TomographyRecord(*row, background) for row, background in zip(probs.tolist(), p_b)]


def _physical_stack(size):
    # unnormalized Pauli vectors of physical states, and their backgrounds
    rng = np.random.default_rng(18)
    vectors = rng.normal(size=(size, 3))
    vectors *= rng.uniform(0, 1, (size, 1)) / np.linalg.norm(vectors, axis=1, keepdims=True)
    paulis = np.column_stack((np.ones(size), vectors)) * rng.uniform(0.1, 1.0, (size, 1))
    return paulis, rng.uniform(0.0, 0.9, size)


# (Pauli vector, background) of a member that fails one check: a vanished
# trace, a background outside [0, 1], P_Z above 1, P_Z below the background,
# P_X below 0 and P_Y above 1
_FAILING_MEMBERS = {
    "vanished": ((TRACE_FLOOR, 0.0, 0.0, 0.0), 0.2),
    "background": ((1.0, 0.0, 0.0, 0.0), 1.5),
    "negative_background": ((1.0, 0.6, 0.0, 0.0), -0.1),
    "above_one": ((1.0, 0.0, 0.0, -3.0), 0.5),
    "below_background": ((1.0, 0.0, 0.0, 1.5), 0.5),
    "p_x_below_zero": ((1.0, -3.0, 0.0, 0.0), 0.0),
    "p_y_above_one": ((1.0, 0.0, -3.0, 0.0), 0.0),
}

# the error each member raises at visibility 0.9, wherever it stands in the stack
_MEMBER_ERRORS = {
    "vanished": (UndefinedStateError, "tomography of a vanished conditional state"),
    "background": (DomainError, "background probability must lie in [0, 1], got 1.5"),
    "negative_background": (DomainError, "background probability must lie in [0, 1], got -0.1"),
    "above_one": (DomainError, "probability p_z=1.4 outside [0, 1]"),
    "below_background": (DomainError, "p_z=0.3875 falls below the background 0.5 by more than 1e-09"),
    "p_x_below_zero": (DomainError, "probability p_x=-0.8999999999999999 outside [0, 1]"),
    "p_y_above_one": (DomainError, "probability p_y=1.7999999999999998 outside [0, 1]"),
}


@pytest.mark.parametrize(
    "failures",
    [{at: kind} for kind in _FAILING_MEMBERS for at in (0, 3, 6)]
    + [
        {1: "below_background", 4: "vanished"},
        {2: "above_one", 5: "below_background"},
        {0: "below_background", 6: "above_one"},
        {3: "above_one", 4: "background"},
        {2: "negative_background", 5: "vanished"},
    ],
)
def test_a_failing_member_of_a_table_raises_what_the_member_loop_raised(failures):
    paulis, p_b = _physical_stack(7)
    for at, kind in failures.items():
        paulis[at], p_b[at] = _FAILING_MEMBERS[kind]
    device = default_device(0.9)
    expected = _outcome(lambda: _per_member_forward(paulis, p_b, device))
    assert isinstance(expected[0], type)
    assert _outcome(lambda: _forward(paulis, p_b, device, None)) == expected


@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("kind", list(_FAILING_MEMBERS))
def test_a_failing_member_raises_its_literal_error(kind, at):
    paulis, p_b = _physical_stack(7)
    paulis[at], p_b[at] = _FAILING_MEMBERS[kind]
    assert _outcome(lambda: _forward(paulis, p_b, default_device(0.9), None)) == _MEMBER_ERRORS[kind]


def _one_row_at_a_time(check, rows, *per_row):
    # the reference: each row checked on its own and the results stacked; the
    # first row that fails raises
    results = [check(row[None], *(values[None] for values in extra))
               for row, *extra in zip(rows, *per_row)]
    return np.concatenate(results).tolist()


def _pairs_between_good_rows(pool, good):
    # every ordered pair of pool rows, apart and with good rows around them
    return [np.array([good, first, good, second]) for first in pool for second in pool]


# rows (P_X, P_Y, P_Z, P_B) that pass, or fail one record bound; P_Z below
# the background by 0.02 and P_X by 0.2 pass with the sampled slack, and P_X
# below it by 0.45 fails with either
_RECORD_ROWS = np.array([
    [0.3, 0.25, 0.2, 0.1],
    [0.5, 0.5, 0.28, 0.3],
    [0.1, 0.5, 0.5, 0.3],
    [0.5, 0.5, 0.5, 0.95],
    [1.2, 0.5, 0.5, 0.0],
    [0.5, -0.1, 0.5, 0.0],
    [0.5, 0.5, 0.5, 1.5],
    [math.nan, 0.5, 0.5, 0.1],
])


@pytest.mark.parametrize("sampled", [False, True])
def test_a_row_passes_or_fails_the_record_check_as_it_does_alone(sampled):
    outcomes = set()
    for table in _pairs_between_good_rows(_RECORD_ROWS, _RECORD_ROWS[0]):
        if sampled:
            slack = ROUNDOFF_TOL + 6.0 * np.hypot(np.linspace(0.01, 0.06, 12).reshape(4, 3), 0.03)
            expected = _outcome(lambda: _one_row_at_a_time(_check_table, table, slack))
        else:
            slack = ROUNDOFF_TOL
            expected = _outcome(lambda: _one_row_at_a_time(lambda row: _check_table(row, slack), table))
        assert _outcome(lambda: _check_table(table, slack).tolist()) == expected
        outcomes.add(expected[1] if isinstance(expected, tuple) else "passed")
    assert len(outcomes) == (7 if sampled else 8)


def test_a_table_without_a_failing_member_equals_the_member_loop():
    paulis, p_b = _physical_stack(40)
    records = _per_member_forward(paulis, p_b, default_device(0.9))
    table = _forward(paulis, p_b, default_device(0.9), None)
    assert table.tolist() == [[r.p_x, r.p_y, r.p_z, r.p_b] for r in records]


# (P_X, P_Y, P_Z, P_B) rows that fail one reconstruction check at visibility
# 0.5: a saturated background (under which the rest reads near the origin), a
# component past 1 and a vector past the unit ball; at 5e-324 every row
# overflows to infinity
_FAILING_ROWS = {
    "saturated": (1.0 - 0.75e-13, 1.0 - 0.75e-13, 1.0 - 0.75e-13, 1.0 - 1e-13),
    "component": (1.0, 0.5, 0.5, 0.0),
    "y_component": (0.25, 1.0, 0.5, 0.0),
    "ball": (0.45, 0.05, 0.25, 0.0),
}

# the error each row raises at visibility 0.5, wherever it stands in the table
_ROW_ERRORS = {
    "saturated": (DegenerateBackgroundError, "background probability too close to 1"),
    "component": (DomainError, "Bloch component x=3.0 outside [-1, 1]"),
    "y_component": (DomainError, "Bloch component y=-3.0 outside [-1, 1]"),
    "ball": (DomainError, "Bloch vector of squared length 1.28 leaves the unit ball"),
}
_NOT_FINITE = (
    DomainError,
    "reconstruction at visibility 5e-324 is not finite: BlochVector(x=inf, y=-inf, z=-inf)",
)


@pytest.mark.parametrize("visibility", [0.5, 5e-324])
@pytest.mark.parametrize(
    "failures",
    [{at: kind} for kind in _FAILING_ROWS for at in (0, 2)]
    + [{1: "ball", 2: "saturated"}, {0: "saturated", 2: "component"}, {}],
)
def test_table_reconstruction_raises_what_the_first_failing_record_raises(failures, visibility):
    table = np.array([[0.3, 0.25, 0.2, 0.1]] * 3)
    for at, kind in failures.items():
        table[at] = _FAILING_ROWS[kind]
    records = [TomographyRecord(*row) for row in table.tolist()]
    expected = _outcome(lambda: _per_record(records, visibility))
    assert _outcome(lambda: _per_table(table, visibility)) == expected
    assert isinstance(expected[0], type) == (bool(failures) or visibility < 0.5)


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("kind", list(_FAILING_ROWS))
def test_a_failing_row_raises_its_literal_error(kind, at):
    table = np.array([[0.3, 0.25, 0.2, 0.1]] * 3)
    table[at] = _FAILING_ROWS[kind]
    assert _outcome(lambda: bloch_rows(table, 0.5)) == _ROW_ERRORS[kind]
    assert _outcome(lambda: bloch_reconstruct(TomographyRecord(*table[at]), 0.5)) == _ROW_ERRORS[kind]
    # at 5e-324 every row overflows, and only a saturated first row raises first
    expected = _ROW_ERRORS[kind] if (kind, at) == ("saturated", 0) else _NOT_FINITE
    assert _outcome(lambda: bloch_rows(table, 5e-324)) == expected


@pytest.mark.parametrize("sampled", [False, True])
def test_a_row_reconstructs_or_fails_as_it_does_alone(sampled):
    good = [0.3, 0.25, 0.2, 0.1]
    pool = np.array([good, [0.35, 0.3, 0.25, 0.2], *_FAILING_ROWS.values(), [0.5, math.nan, 0.5, 0.1]])
    outcomes = set()
    for table in _pairs_between_good_rows(pool, good):
        expected = _outcome(lambda: _one_row_at_a_time(lambda row: bloch_rows(row, 0.5, sampled), table))
        assert _outcome(lambda: bloch_rows(table, 0.5, sampled).tolist()) == expected
        outcomes.add(expected[1] if isinstance(expected, tuple) else "passed")
    # sampled rows may leave the unit ball: only the background and finiteness checks fail
    assert len(outcomes) == (3 if sampled else 6)


def test_a_sampled_record_reconstructs_as_a_sampled_row():
    row = [0.45, 0.05, 0.25, 0.0]
    record = TomographyRecord(*row, shots=10, stderr=(0.1, 0.1, 0.1), stderr_b=0.1)
    assert [*bloch_reconstruct(record, 0.5)] == bloch_rows(np.array([row]), 0.5, sampled=True)[0].tolist()


@pytest.mark.parametrize("visibility", [0.0, -0.5, math.nan, 2.0, math.inf])
def test_table_reconstruction_rejects_a_visibility_outside_zero_to_one(visibility):
    with pytest.raises(DomainError, match="visibility"):
        bloch_rows(np.array([[0.5, 0.5, 0.5, 0.0]]), visibility)


@pytest.mark.parametrize("component", [math.nan, math.inf, -math.inf])
def test_a_direction_needs_a_finite_bloch_vector(component):
    vector = BlochVector(0.0, component, 0.5)
    with pytest.raises(DomainError, match="not finite"):
        polar_azimuth(vector)
    rows = np.array([[0.0, 0.0, 1.0], [*vector], [0.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match="not finite"):
        polar_angles(rows)


def test_an_angle_failure_raises_its_literal_error():
    rows = np.array([[0.0, 0.0, 1.0], [0.0, math.nan, 0.5], [1e-12, 0.0, 0.0]])
    not_finite = (DomainError, "Bloch vector BlochVector(x=0.0, y=nan, z=0.5) is not finite")
    short = (UndefinedDirectionError, "Bloch vector too short to define a direction")
    assert _outcome(lambda: polar_angles(rows)) == not_finite
    assert _outcome(lambda: polar_angles(rows[::-1].copy())) == short
    assert _outcome(lambda: polar_azimuth(BlochVector(*rows[1]))) == not_finite
    assert _outcome(lambda: polar_azimuth(BlochVector(*rows[2]))) == short


def test_a_row_has_an_angle_or_fails_as_it_does_alone():
    good = [0.0, 0.6, -0.8]
    pool = np.array([good, [1e300, 0.0, 0.0], [0.0, 1e-12, 0.0], [math.inf, 0.0, 0.0], [0.0, 0.0, math.nan]])
    for table in _pairs_between_good_rows(pool, good):
        expected = _outcome(lambda: _one_row_at_a_time(polar_angles, table))
        assert _outcome(lambda: polar_angles(table).tolist()) == expected


def test_table_angles_raise_at_the_first_short_or_non_finite_row():
    rows = np.array([[0.0, 0.0, 1.0], [1e-12, 0.0, 0.0], [math.nan, 0.0, 0.0]])
    with pytest.raises(UndefinedDirectionError):
        polar_angles(rows)
    with pytest.raises(DomainError, match="not finite"):
        polar_angles(rows[::-1].copy())
