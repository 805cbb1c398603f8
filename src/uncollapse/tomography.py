"""State tomography: forward detection model and linear reconstruction.

Each tomography setting applies one analysis pulse and then a full
measurement (a strength-1 partial measurement scaled by the readout
visibility).  The detection probability for setting s is

    P_s = p_b + (1 - p_b) * v * <1| rho_s |1>

where p_b is the probability that a detection already happened earlier in
the sequence and rho_s is the normalized conditional state after the
setting's rotation.  For v in (0, 1] the forward model is inverted exactly by

    x = 2*(P_x - p_b)/((1 - p_b)*v) - 1
    y = -(2*(P_y - p_b)/((1 - p_b)*v) - 1)
    z = -(2*(P_z - p_b)/((1 - p_b)*v) - 1)

given the rotation conventions of :func:`channels.tomography_rotation`.  The
checks and this inversion are written once, for a (k, 4) table of rows
(P_X, P_Y, P_Z, P_B), in :func:`_check_table` and :func:`bloch_rows`; a
:class:`TomographyRecord` and :func:`bloch_reconstruct` are their one-row cases.
"""

from dataclasses import dataclass

import numpy as np

# apply_* are not called here; they stay importable from this module, where
# perfbench/tracer.py looks the per-operation wrappers up
from .channels import (  # noqa: F401
    CLICK,
    DecoherenceStep,
    PartialMeasurement,
    apply_decoherence,
    apply_rotation,
    chain,
    decoherence_ops,
    tomography_rotation,
)
from .errors import (
    DegenerateBackgroundError,
    DomainError,
    UndefinedDirectionError,
    UndefinedStateError,
)
from .protocol import (
    FULL_MEASURE,
    ROTATE,
    ExperimentConfig,
    PulseSequence,
    PulseTiming,
    RunOutcome,
    SequenceStep,
    build_sequence,
    fold,
    run_exact,
)
from .qubit import (EXACT_TOL, ROUNDOFF_TOL, TRACE_FLOOR, BlochVector, DeviceParams, QubitState,
                    pauli_vectors, validate_bloch_rows)

TOMO_SETTINGS = ("x", "y", "z")
_FLIP_YZ = np.array([1.0, -1.0, -1.0])


def _check_table(table: np.ndarray, slack) -> np.ndarray:
    """Check each row (P_X, P_Y, P_Z, P_B) of a (k, 4) table: every probability in
    [0, 1], then no setting below the background by more than ``slack`` (a scalar
    or a (k, 3) array).  The first failing row raises :class:`DomainError`."""
    in_range = (-EXACT_TOL <= table) & (table <= 1.0 + EXACT_TOL)
    below = table[:, :3] < table[:, 3:] - slack
    if not in_range.all() or below.any():
        passed = np.concatenate((in_range, ~below), axis=1)
        index = passed.all(axis=1).argmin()
        check, row = passed[index].argmin(), table[index].tolist()
        name, value = ("p_x", "p_y", "p_z", "p_b")[check % 4], row[check % 4]
        if check < 4:
            raise DomainError(f"probability {name}={value} outside [0, 1]")
        bound = float(np.broadcast_to(slack, (len(table), 3))[index, check - 4])
        raise DomainError(
            f"{name}={value} falls below the background {row[3]} by more than {bound}")
    return table


@dataclass(frozen=True)
class TomographyRecord:
    """Detection probabilities for the three settings plus the background.

    ``stderr`` holds per-setting standard errors and ``stderr_b`` the
    background standard error of a record from sampled counts (three and one
    finite non-negative numbers); exact records leave both None.
    """

    p_x: float
    p_y: float
    p_z: float
    p_b: float
    shots: int | None = None
    stderr: tuple | None = None
    stderr_b: float | None = None

    def __post_init__(self):
        slack = ROUNDOFF_TOL
        if self.stderr is not None or self.stderr_b is not None:
            stderr = () if self.stderr is None else self.stderr
            errors = np.array([*stderr, self.stderr_b], dtype=float)
            if not (errors.shape == (4,) and all(0.0 <= e < np.inf for e in errors.tolist())):
                raise DomainError("need three finite non-negative standard errors and one for the "
                                  f"background, got {self.stderr} and {self.stderr_b}")
            # statistical slack: the pooled background estimate may sit above
            # a single setting's count by a few standard errors
            slack += 6.0 * np.hypot(self.stderr, self.stderr_b)
        _check_table(np.array([[self.p_x, self.p_y, self.p_z, self.p_b]]), slack)

    def probability(self, setting: str) -> float:
        tomography_rotation(setting)  # the one check of the setting's name
        return getattr(self, "p_" + setting)


def _readout_rows(visibility: float, tomo_decoherence: DecoherenceStep | None) -> np.ndarray:
    """Row s gives v * <1| rho_s |1> from r of the normalized state: the
    readout's event row through the compiled tomography operations."""
    readout = PartialMeasurement(visibility).transfer(CLICK).event[0]
    decay = decoherence_ops(tomo_decoherence)
    return np.array([readout @ chain((tomography_rotation(s).transfer(), *decay)) for s in TOMO_SETTINGS])


def _forward(paulis: np.ndarray, p_b: np.ndarray, d: DeviceParams, tomo_decoherence) -> np.ndarray:
    """Forward detection model over a stack: the (k, 4) Pauli vectors of the
    conditional states and their (k,) background probabilities give the
    (k, 4) table of rows (P_X, P_Y, P_Z, P_B), from one matrix product for the
    whole stack.  Every state check runs before any record check, and the
    first failing member names the error."""
    vanished = paulis[:, 0] <= TRACE_FLOOR
    for member in np.flatnonzero(vanished | ~((0.0 <= p_b) & (p_b <= 1.0)))[:1].tolist():
        if vanished[member]:
            raise UndefinedStateError("tomography of a vanished conditional state")
        raise DomainError(f"background probability must lie in [0, 1], got {float(p_b[member])}")
    rows = _readout_rows(d.visibility, tomo_decoherence)
    # one matrix-vector product per member, so that a stack computes exactly
    # what a single state does
    populations = (rows @ (paulis / paulis[:, :1])[:, :, None])[:, :, 0]
    probs = p_b[:, None] + (1.0 - p_b[:, None]) * populations
    return _check_table(np.column_stack((probs, p_b)), ROUNDOFF_TOL)


def tomo_probabilities(q: QubitState, p_b: float, d: DeviceParams,
                       tomo_decoherence=None) -> TomographyRecord:
    """Forward detection model for the three tomography settings: the record of
    :func:`_forward`'s one row.  ``tomo_decoherence`` optionally decoheres the
    state during the analysis pulse window (rotation first, then decay),
    mirroring exact execution of an appended tomography step."""
    table = _forward(pauli_vectors(q.rho[None]), np.array([p_b], dtype=float), d, tomo_decoherence)
    return TomographyRecord(*table[0].tolist())


def bloch_reconstruct(t: TomographyRecord, visibility: float = 1.0) -> BlochVector:
    """Invert the forward model at readout visibility ``visibility`` in (0, 1]:
    :func:`bloch_rows` of the record's one row, sampled if it has standard errors."""
    row = np.array([[t.p_x, t.p_y, t.p_z, t.p_b]], dtype=float)
    return BlochVector(*bloch_rows(row, visibility, t.stderr is not None).tolist()[0])


def bloch_rows(table: np.ndarray, visibility: float = 1.0, sampled: bool = False) -> np.ndarray:
    """The (k, 3) Bloch rows of a (k, 4) table, inverting the forward model at
    readout visibility ``visibility`` in (0, 1].  Each row's background must sit
    below 1 and its inverse must be finite.  Unless ``sampled``, the inverse must
    also be a physical state (float64 roundoff in a row grows by about
    ``2/((1 - p_b) * v)``); sampled rows may leave the unit ball, unrepaired here.
    The first failing row raises its first failing check."""
    if not 0.0 < visibility <= 1.0:
        raise DomainError(f"readout visibility must lie in (0, 1], got {visibility}")
    probs, p_b = table[:, :3], table[:, 3:]
    # a failing row may divide by zero or overflow; it raises below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vectors = (2.0 * (probs - p_b) * (1.0 / (1.0 - p_b)) / visibility - 1.0) * _FLIP_YZ
    saturated = p_b[:, 0] >= 1.0 - EXACT_TOL
    failed = saturated | ~np.isfinite(vectors).all(axis=1)
    first = failed.argmax() if failed.any() else len(vectors)
    if not sampled:
        validate_bloch_rows(vectors[:first])  # the rows before the first failing one
    if first < len(vectors):
        if saturated[first]:
            raise DegenerateBackgroundError("background probability too close to 1")
        vec = BlochVector(*vectors[first].tolist())
        raise DomainError(f"reconstruction at visibility {visibility} is not finite: {vec}")
    return vectors


def polar_azimuth(b: BlochVector) -> tuple[float, float]:
    """Polar angle in [0, pi] and azimuth in [0, 2*pi) of a finite Bloch vector.
    The polar angle and its checks are :func:`polar_angles` of the one row.  A
    state of azimuth phi0 has Bloch components (x, y) = (cos, -sin)*sin(theta),
    so the azimuth is atan2(-y, x)."""
    theta = float(polar_angles(np.array([[*b]], dtype=float))[0])
    phi = float(np.arctan2(-b.y, b.x) % (2.0 * np.pi))
    return theta, phi


def polar_angles(vectors: np.ndarray) -> np.ndarray:
    """The (k,) polar angles of a (k, 3) stack of Bloch rows.  The first failing
    row raises: :class:`DomainError` if it is not finite, else
    :class:`UndefinedDirectionError` if it is too short to define a direction
    (a finite row too long to square in float64 still defines one)."""
    x, y, z = vectors.T
    finite = np.isfinite(vectors).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        valid = finite & (np.sqrt(x**2 + y**2 + z**2) > ROUNDOFF_TOL)
    if not valid.all():
        row = valid.argmin()
        if not finite[row]:
            raise DomainError(f"Bloch vector {BlochVector(*vectors[row].tolist())} is not finite")
        raise UndefinedDirectionError("Bloch vector too short to define a direction")
    # atan2 of (transverse, axial) stays well conditioned at the poles,
    # where arccos of the normalized z component loses half the digits
    return np.arctan2(np.hypot(x, y), z)


def with_tomography(seq: PulseSequence, setting: str, timing: PulseTiming) -> PulseSequence:
    """Append the analysis pulse and the full measurement for one setting.

    The z setting keeps the pulse window (with no rotation) so that all
    three settings share a common readout instant.
    """
    analysis = SequenceStep(ROTATE, timing.tomography_ns, tomography_rotation(setting))
    return PulseSequence(seq.steps + (analysis, SequenceStep(FULL_MEASURE, 0.0)))


def exact_tomography_record(
    cfg: ExperimentConfig, kind: str = "uncollapse"
) -> tuple[TomographyRecord, RunOutcome]:
    """Run a sequence exactly and evaluate the tomography forward model."""
    outcome = run_exact(build_sequence(kind, cfg), cfg)
    record = tomo_probabilities(
        outcome.conditional,
        outcome.p_background,
        cfg.device,
        tomo_decoherence=cfg.decoherence_for(cfg.timing.tomography_ns),
    )
    return record, outcome


def exact_tomography_sweep(
    cfg: ExperimentConfig, p_grid, kind: str = "uncollapse", initials: tuple | None = None
) -> tuple:
    """The table rows and success probabilities :func:`exact_tomography_record`
    gives at ``cfg.at_strength(p)`` for each p of ``p_grid`` (None: ``cfg.p``)
    from each of ``initials`` (None: ``cfg.initial``), member ``i*k + j`` from
    strength i and initial j, by one :func:`fold` and one forward pass."""
    rho, escaped = fold(build_sequence(kind, cfg), cfg, initials, p_grid)
    analysis = cfg.decoherence_for(cfg.timing.tomography_ns)
    paulis = pauli_vectors(rho)
    return _forward(paulis, escaped, cfg.device, analysis), paulis[:, 0]
