"""Elementary quantum operations on the conditional qubit state.

The tunable-strength measurement detects |1> with probability p and never
detects |0>.  Its null branch applies

    M0 = [[1, 0], [0, sqrt(1-p) * exp(-i*phi_m)]]

to the in-well operator, steering the state toward |0> while adding the
accumulated measurement phase phi_m to the azimuth.  The detected branch
removes weight p*rho_11 from the well; its in-well Kraus representative is
diag(0, sqrt(p)), so M0'M0 + diag(0, p) = 1 and the pair is complete.

Energy relaxation toward |0> and pure dephasing are the standard
amplitude-damping and phase-flip channels.  For a step of given duration
the damping parameter is gamma = 1 - exp(-t/T1) and the dephasing
parameter is lam = 1 - exp(-t/T_phi), applied as a phase flip with
probability lam/2 so that off-diagonal elements shrink by exactly
exp(-t/T_phi).

Both engines run these operations as Pauli transfer matrices on
r = (tr rho, <X>, <Y>, <Z>) (Chow et al., PRL 109, 060501 (2012); Greenbaum,
arXiv:1509.02921), built from the Kraus sets below.  The maps of a
measurement, a rotation and a decoherence step depend only on their
parameters, so each is built once per distinct value and kept in a bounded
cache as read-only arrays.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UndefinedStateError
from .qubit import (
    EXACT_TOL,
    IDENTITY,
    PAULI_BASIS,
    PAULI_VEC,
    ROUNDOFF_TOL,
    SIGMA_Z,
    TRACE_FLOOR,
    DeviceParams,
    QubitState,
)

# What an event does to a shot: a detection leaves the well, the readout
# clicks, and a jump (to |0>) or a phase flip stays in the well.
ESCAPE = "escape"
CLICK = "click"
STAY = "stay"


@dataclass(frozen=True)
class KrausSet:
    """A collection of 2x2 Kraus operators."""

    operators: tuple

    def __post_init__(self):
        if len(self.operators) == 0:
            raise DomainError("a Kraus set needs at least one operator")
        ops = []
        for op in self.operators:
            mat = np.array(op, dtype=complex)
            if mat.shape != (2, 2):
                raise DomainError(f"Kraus operators must be 2x2, got {mat.shape}")
            mat.setflags(write=False)
            ops.append(mat)
        object.__setattr__(self, "operators", tuple(ops))


def kraus_completeness_check(kraus: KrausSet) -> float:
    """Max-norm deviation of sum_k K'K from the identity."""
    total = np.zeros((2, 2), dtype=complex)
    for op in kraus.operators:
        total += op.conj().T @ op
    return float(np.max(np.abs(total - IDENTITY)))


def apply_kraus(q: QubitState, kraus: KrausSet) -> QubitState:
    """Apply sum_k K rho K' to the conditional operator; escaped unchanged."""
    rho = np.zeros((2, 2), dtype=complex)
    for op in kraus.operators:
        rho += op @ q.rho @ op.conj().T
    return QubitState(rho, q.escaped)


def transfer_matrix(operators) -> np.ndarray:
    """Pauli transfer matrix R[i, j] = tr(s_i E(s_j)) / 2 of E(rho) = sum_k K rho K'.

    ``operators`` is (k, 2, 2), or (..., k, 2, 2) for a stack of channels,
    which gives a (..., 4, 4) stack of maps.
    """
    ops = np.asarray(operators, dtype=complex)
    superop = np.einsum("...kac,...kbd->...abcd", ops, ops.conj())
    superop = superop.reshape(superop.shape[:-4] + (4, 4))
    return 0.5 * (PAULI_VEC.conj().T @ superop @ PAULI_VEC).real


@dataclass(frozen=True, eq=False)
class TransferOp:
    """One compiled operation on r = (tr rho, <X>, <Y>, <Z>).

    ``no_event`` (A0) and ``event`` (A1) are the transfer matrices of the two
    outcomes, and the event has probability (A1 r)[0] / r[0]; a deterministic
    operation has ``event`` None and draws no uniform.  ``in_well`` maps the
    in-well ensemble: A0 for a measurement, the identity for the readout
    that ends a sequence, A0 + A1 otherwise.
    """

    no_event: np.ndarray
    event: np.ndarray | None = None
    effect: str = STAY
    in_well: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        in_well = self.no_event
        if self.event is not None and self.effect == CLICK:
            in_well = np.eye(4)
        elif self.event is not None and self.effect == STAY:
            in_well = self.no_event + self.event
        for matrix in (self.no_event, self.event, in_well):
            if matrix is not None:
                matrix.setflags(write=False)
        object.__setattr__(self, "in_well", in_well)


def chain(ops) -> np.ndarray:
    """In-well map of ``ops`` applied in order."""
    return functools.reduce(lambda acc, op: op.in_well @ acc, ops, np.eye(4))


@dataclass(frozen=True)
class PartialMeasurement:
    """Tunable-strength measurement: detection probability p for |1>,
    measurement phase phi_m picked up by the null branch."""

    p: float
    phi_m: float = 0.0

    def __post_init__(self):
        if not -EXACT_TOL <= self.p <= 1.0 + EXACT_TOL:
            raise DomainError(f"measurement strength must lie in [0, 1], got {self.p}")
        if not math.isfinite(self.phi_m):
            raise DomainError(f"measurement phase must be finite, got {self.phi_m}")
        object.__setattr__(self, "p", float(min(max(self.p, 0.0), 1.0)))
        object.__setattr__(self, "phi_m", float(self.phi_m))

    def kraus(self) -> KrausSet:
        null, tunnel = _measurement_kraus(np.array([self.p]), np.array([self.phi_m]))[0]
        return KrausSet((null, tunnel))

    # Serves reuse within one compile: the reversal's two measurements share
    # (p, phi_m).  Either engine compiles a sweep once, at its config, and takes
    # the other strengths' maps from one measurement_maps call, so a small LRU
    # keeps the few live entries.  It keys on the arguments as passed, so the
    # escape branch is always spelled transfer().
    @functools.lru_cache(maxsize=16)
    def transfer(self, effect: str = ESCAPE) -> TransferOp:
        """Null branch as A0 and detection as A1; a detection escapes the well
        unless ``effect`` says otherwise (CLICK for the final readout)."""
        no_event, event = measurement_maps(np.array([self.p]), np.array([self.phi_m]))
        return TransferOp(no_event[0], event[0], effect)


def _measurement_kraus(p: np.ndarray, phi_m: np.ndarray) -> np.ndarray:
    """(n, 2, 2, 2) null and tunnel operators of n measurements, from their
    strengths (already in [0, 1]) and phases."""
    kraus = np.zeros((len(p), 2, 2, 2), dtype=complex)
    kraus[:, 0, 0, 0] = 1.0
    kraus[:, 0, 1, 1] = np.sqrt(1.0 - p) * np.exp(-1.0j * phi_m)
    kraus[:, 1, 1, 1] = np.sqrt(p)
    return kraus


def measurement_maps(p: np.ndarray, phi_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 4, 4) null maps A0 and detection maps A1 of n measurements
    with strengths ``p`` (already in [0, 1]) and phases ``phi_m``, from one
    batched :func:`transfer_matrix` each; member i equals the map of
    ``PartialMeasurement(p[i], phi_m[i])``."""
    kraus = _measurement_kraus(p, phi_m)
    return transfer_matrix(kraus[:, :1]), transfer_matrix(kraus[:, 1:])


@dataclass(frozen=True)
class RotationPulse:
    """Rotation by ``angle`` about a unit ``axis`` of the Bloch sphere.

    The unitary is exp(-i*angle*(axis . sigma)/2), which rotates Bloch
    vectors right-handedly about the axis.
    """

    axis: tuple
    angle: float

    def __post_init__(self):
        axis = np.array(self.axis, dtype=float)
        if axis.shape != (3,):
            raise DomainError("rotation axis must be a 3-vector")
        if not abs(np.linalg.norm(axis) - 1.0) <= ROUNDOFF_TOL:
            raise DomainError("rotation axis must have unit length")
        if not math.isfinite(self.angle):
            raise DomainError(f"rotation angle must be finite, got {self.angle}")
        object.__setattr__(self, "axis", tuple(axis.tolist()))
        object.__setattr__(self, "angle", float(self.angle))

    @classmethod
    def about_x(cls, angle: float) -> "RotationPulse":
        return cls((1.0, 0.0, 0.0), angle)

    def unitary(self) -> np.ndarray:
        half = self.angle / 2.0
        axis_sigma = np.tensordot(self.axis, PAULI_BASIS[1:], 1)
        return np.cos(half) * IDENTITY - 1.0j * np.sin(half) * axis_sigma

    @functools.lru_cache(maxsize=64)
    def transfer(self) -> TransferOp:
        return TransferOp(transfer_matrix([self.unitary()]))


# tomography setting -> its analysis pulse, one shared object per setting
_ANALYSIS_PULSES = {
    "x": RotationPulse((0.0, 1.0, 0.0), np.pi / 2.0),
    "y": RotationPulse((1.0, 0.0, 0.0), np.pi / 2.0),
    "z": RotationPulse((0.0, 0.0, 1.0), 0.0),
}
TOMO_SETTINGS = tuple(_ANALYSIS_PULSES)


def tomography_rotation(setting: str) -> RotationPulse:
    """Analysis pulse that maps the requested Bloch component onto the
    detected (|1>-population) axis.

    The sign conventions are frozen so that the quoted reconstruction
    formulas invert the forward model exactly: a +pi/2 rotation about Y
    carries +x onto -z (the |1> pole) for the x setting, a +pi/2 rotation
    about X carries -y onto -z for the y setting, and the z setting applies
    no rotation.
    """
    if setting not in _ANALYSIS_PULSES:
        raise DomainError(f"unknown tomography setting {setting!r}")
    return _ANALYSIS_PULSES[setting]


def pure_dephasing_time(t1_ns: float, t2_ns: float) -> float:
    """T_phi from 1/T2 = 1/(2*T1) + 1/T_phi.

    Returns infinity when T2 saturates the relaxation-limited bound 2*T1,
    meaning there is no pure dephasing at all.
    """
    if not (t1_ns > 0.0 and t2_ns > 0.0):
        raise DomainError("decay times must be positive")
    rate = 1.0 / t2_ns - 0.5 / t1_ns
    if not math.isfinite(rate):
        # a reciprocal overflowed; the equal form T2 / (1 - T2/(2*T1)) does not
        ratio = t2_ns / (2.0 * t1_ns)
        return t2_ns / (1.0 - ratio) if ratio < 1.0 else float("inf")
    if rate <= 0.0:
        return float("inf")
    return 1.0 / rate


@dataclass(frozen=True)
class DecoherenceStep:
    """Amplitude damping plus pure dephasing over a fixed duration."""

    duration_ns: float
    t1_ns: float
    t_phi_ns: float

    def __post_init__(self):
        if not self.duration_ns >= 0.0:
            raise DomainError("duration must be nonnegative")
        if not (self.t1_ns > 0.0 and self.t_phi_ns > 0.0):
            raise DomainError("decay times must be positive")

    @classmethod
    def for_device(cls, device: DeviceParams, duration_ns: float, echo: bool = True) -> "DecoherenceStep":
        """Build a step from device constants, choosing the echo or Ramsey
        dephasing time."""
        t2 = device.t2_echo_ns if echo else device.t2_ramsey_ns
        return cls(duration_ns, device.t1_ns, pure_dephasing_time(device.t1_ns, t2))

    @property
    def gamma(self) -> float:
        """Amplitude-damping parameter 1 - exp(-t/T1)."""
        return float(-np.expm1(-self.duration_ns / self.t1_ns))

    @property
    def lam(self) -> float:
        """Dephasing parameter 1 - exp(-t/T_phi)."""
        if np.isinf(self.t_phi_ns):
            return 0.0
        return float(-np.expm1(-self.duration_ns / self.t_phi_ns))


def amplitude_damping_kraus(gamma: float) -> KrausSet:
    """Relaxation toward |0>: K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma)|0><1|."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError("damping parameter must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausSet((k0, k1))


def dephasing_kraus(lam: float) -> KrausSet:
    """Phase flip with probability lam/2, shrinking coherences by 1 - lam."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError("dephasing parameter must lie in [0, 1]")
    k0 = np.sqrt(1.0 - lam / 2.0) * IDENTITY
    k1 = np.sqrt(lam / 2.0) * SIGMA_Z
    return KrausSet((k0, k1))


@functools.lru_cache(maxsize=64)
def decoherence_ops(d: DecoherenceStep | None) -> tuple:
    """Amplitude damping (event: a jump to |0>) then dephasing (event: a
    phase flip).  Both stay stochastic at zero rate, so every decohered step
    costs two draws; no decoherence (None) has no operations."""
    if d is None:
        return ()
    damping = amplitude_damping_kraus(d.gamma).operators
    dephasing = dephasing_kraus(d.lam).operators
    return (
        TransferOp(transfer_matrix(damping[:1]), transfer_matrix(damping[1:])),
        TransferOp(transfer_matrix(dephasing[:1]), transfer_matrix(dephasing[1:])),
    )


def apply_partial_null(q: QubitState, m: PartialMeasurement) -> tuple[QubitState, float]:
    """Null branch of the partial measurement.

    Returns the post-selected (still unnormalized) state together with the
    conditional probability of the null result.  The trace deficit it
    creates is exactly the discarded detection weight; ``escaped`` is left
    untouched because nothing was recorded.
    """
    if q.trace <= TRACE_FLOOR:
        raise UndefinedStateError("partial measurement of a vanished state")
    r = m.transfer().no_event @ q.pauli
    return QubitState.from_pauli(r, q.escaped), float(r[0]) / q.trace


def apply_partial_tunnel(q: QubitState, m: PartialMeasurement) -> tuple[QubitState, float]:
    """Detection branch of the partial measurement.

    The detected weight p*rho_11 moves from the well into ``escaped``; the
    in-well part of the returned state is the null-branch operator, which
    makes this the full ensemble update (trace + escaped is preserved).
    Returns the state and the conditional detection probability.
    """
    state, prob_null = apply_partial_null(q, m)
    prob = 1.0 - prob_null
    return QubitState(state.rho, q.escaped + q.trace * prob), prob


def apply_rotation(q: QubitState, r: RotationPulse) -> QubitState:
    """Conjugate the conditional operator by the pulse unitary."""
    return QubitState.from_pauli(r.transfer().no_event @ q.pauli, q.escaped)


def apply_decoherence(q: QubitState, d: DecoherenceStep) -> QubitState:
    """Amplitude damping followed by dephasing for the step duration.

    Both channels are trace preserving on the in-well operator; relaxation
    keeps population inside the well, so ``escaped`` is unchanged.
    """
    return QubitState.from_pauli(chain(decoherence_ops(d)) @ q.pauli, q.escaped)
