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

given the rotation conventions of :func:`channels.tomography_rotation`; a
stack of exact states is one table of rows (P_X, P_Y, P_Z, P_B), with no
record per member, inverted in one pass by :func:`bloch_rows`.
"""

import functools
import math
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
                    pauli_vectors)

TOMO_SETTINGS = ("x", "y", "z")


@dataclass(frozen=True)
class TomographyRecord:
    """Detection probabilities for the three settings plus the background.

    ``stderr`` holds per-setting standard errors and ``stderr_b`` the
    background standard error when the record comes from sampled counts;
    exact records leave them None.
    """

    p_x: float
    p_y: float
    p_z: float
    p_b: float
    shots: int | None = None
    stderr: tuple | None = None
    stderr_b: float | None = None

    def __post_init__(self):
        for name, value in self._items() + (("p_b", self.p_b),):
            if not -EXACT_TOL <= value <= 1.0 + EXACT_TOL:
                raise DomainError(f"probability {name}={value} outside [0, 1]")
        for index, (name, value) in enumerate(self._items()):
            # statistical slack: the pooled background estimate may sit above
            # a single setting's count by a few standard errors
            slack = ROUNDOFF_TOL
            if self.stderr is not None and self.stderr_b is not None:
                slack += 6.0 * float(np.hypot(self.stderr[index], self.stderr_b))
            if value < self.p_b - slack:
                raise DomainError(
                    f"{name}={value} falls below the background {self.p_b} by more than {slack}"
                )

    def _items(self) -> tuple:
        return (("p_x", self.p_x), ("p_y", self.p_y), ("p_z", self.p_z))

    def probability(self, setting: str) -> float:
        try:
            return {"x": self.p_x, "y": self.p_y, "z": self.p_z}[setting]
        except KeyError:
            raise DomainError(f"unknown tomography setting {setting!r}") from None


@functools.lru_cache(maxsize=64)
def _readout_rows(visibility: float, tomo_decoherence: DecoherenceStep | None) -> np.ndarray:
    """Row s gives v * <1| rho_s |1> from r of the normalized state: the
    readout's event row through the compiled tomography operations."""
    readout = PartialMeasurement(visibility).transfer(CLICK).event[0]
    decay = decoherence_ops(tomo_decoherence)
    rows = np.array(
        [readout @ chain((tomography_rotation(s).transfer(), *decay)) for s in TOMO_SETTINGS]
    )
    rows.setflags(write=False)
    return rows


def _forward(paulis: np.ndarray, p_b: np.ndarray, d: DeviceParams, tomo_decoherence) -> np.ndarray:
    """Forward detection model over a stack: the (k, 4) Pauli vectors of the
    conditional states and their (k,) background probabilities give the
    (k, 4) table of rows (P_X, P_Y, P_Z, P_B), from one matrix product for the
    whole stack.  Every state check runs before any record check, and the
    first failing member names the error."""
    failed = (paulis[:, 0] <= TRACE_FLOOR) | ~((0.0 <= p_b) & (p_b <= 1.0))
    for trace, background in zip(paulis[failed, 0].tolist(), p_b[failed].tolist()):
        if trace <= TRACE_FLOOR:
            raise UndefinedStateError("tomography of a vanished conditional state")
        raise DomainError(f"background probability must lie in [0, 1], got {background}")
    rows = _readout_rows(d.visibility, tomo_decoherence)
    # one matrix-vector product per member, so that a stack computes exactly
    # what a single state does
    populations = (rows @ (paulis / paulis[:, :1])[:, :, None])[:, :, 0]
    probs = p_b[:, None] + (1.0 - p_b[:, None]) * populations
    table = np.column_stack((probs, p_b))
    valid = ((-EXACT_TOL <= table) & (table <= 1.0 + EXACT_TOL)).all(axis=1)
    valid &= (probs >= p_b[:, None] - ROUNDOFF_TOL).all(axis=1)
    if not valid.all():
        TomographyRecord(*table[valid.argmin()].tolist())  # raises the member's error
    return table


def tomo_probabilities(
    q: QubitState,
    p_b: float,
    d: DeviceParams,
    tomo_decoherence=None,
) -> TomographyRecord:
    """Forward detection model for the three tomography settings.

    ``tomo_decoherence`` optionally decoheres the state during the analysis
    pulse window (rotation first, then decay), mirroring exact execution of
    an appended tomography step.
    """
    table = _forward(pauli_vectors(q.rho[None]), np.array([p_b], dtype=float), d, tomo_decoherence)
    return TomographyRecord(*table[0].tolist())


def bloch_reconstruct(t: TomographyRecord, visibility: float = 1.0) -> BlochVector:
    """Invert the forward model at readout visibility ``visibility`` in (0, 1].

    An exact record (one without standard errors) must invert to a physical
    state, else :class:`DomainError`: float64 roundoff in the record grows by
    about ``2/((1 - p_b) * v)``.  Sampled records may leave the unit ball,
    unrepaired here, but must still invert to finite components.
    """
    if not 0.0 < visibility <= 1.0:
        raise DomainError(f"readout visibility must lie in (0, 1], got {visibility}")
    if t.p_b >= 1.0 - EXACT_TOL:
        raise DegenerateBackgroundError("background probability too close to 1")
    scale = 1.0 / (1.0 - t.p_b)
    x, y, z = (2.0 * (prob - t.p_b) * scale / visibility - 1.0 for prob in (t.p_x, t.p_y, t.p_z))
    vec = BlochVector(x, -y, -z)
    if not all(map(math.isfinite, vec)):
        raise DomainError(f"reconstruction at visibility {visibility} is not finite: {vec}")
    return vec if t.stderr is not None else vec.validate()


def bloch_rows(table: np.ndarray, visibility: float = 1.0) -> np.ndarray:
    """The (k, 3) rows :func:`bloch_reconstruct` gives the exact rows of a (k, 4)
    table, by the same arithmetic and checks; the first failing row raises its error."""
    probs, p_b = table[:, :3], table[:, 3:]
    # a failing row may divide by zero or overflow; it raises below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vectors = (2.0 * (probs - p_b) * (1.0 / (1.0 - p_b)) / visibility - 1.0) * (1, -1, -1)
        x, y, z = vectors.T
        valid = (p_b[:, 0] < 1.0 - EXACT_TOL) & (abs(vectors) <= 1.0 + ROUNDOFF_TOL).all(axis=1)
        valid &= x**2 + y**2 + z**2 <= 1.0 + ROUNDOFF_TOL
    if not (valid.all() and 0.0 < visibility <= 1.0):
        bloch_reconstruct(TomographyRecord(*table[valid.argmin()].tolist()), visibility)
    return vectors


def polar_azimuth(b: BlochVector) -> tuple[float, float]:
    """Polar angle in [0, pi] and azimuth in [0, 2*pi) of a finite Bloch vector.

    The polar angle and its checks are :func:`polar_angles` of the one row.
    The azimuth convention matches the pure-state parameterization: a state
    with azimuth phi0 has Bloch components (x, y) = (cos, -sin)*sin(theta),
    so phi = atan2(-y, x).
    """
    theta = float(polar_angles(np.array([[*b]], dtype=float))[0])
    phi = float(np.arctan2(-b.y, b.x) % (2.0 * np.pi))
    return theta, phi


def polar_angles(vectors: np.ndarray) -> np.ndarray:
    """The (k,) polar angles of a (k, 3) stack of Bloch rows.  The first failing
    row raises: :class:`DomainError` if it is not finite, else
    :class:`UndefinedDirectionError` if it is too short to define a direction
    (a finite row too long to square in float64 still defines one)."""
    x, y, z = vectors.T
    with np.errstate(over="ignore", invalid="ignore"):
        valid = np.isfinite(vectors).all(axis=1) & (np.sqrt(x**2 + y**2 + z**2) > ROUNDOFF_TOL)
    if not valid.all():
        row = BlochVector(*vectors[valid.argmin()].tolist())
        if not all(map(math.isfinite, row)):
            raise DomainError(f"Bloch vector {row} is not finite")
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
