"""Single-qubit state algebra: density operators, Bloch vectors, fidelities.

Conventions, fixed once for the whole package:

* Basis order is (|0>, |1>) and the Bloch sphere is oriented so that |0>
  sits at z = +1.
* A pure state with polar angle theta0 and azimuth phi0 has amplitudes
  (cos(theta0/2), exp(-1j*phi0)*sin(theta0/2)).  With this sign choice
  phi0 = 0 lies on the +x axis and the Bloch vector is
  (sin(theta0)*cos(phi0), -sin(theta0)*sin(phi0), cos(theta0)), so the
  azimuth read back from a Bloch vector is atan2(-y, x).
* States are carried as a 2x2 conditional density operator for the
  population still inside the qubit well, plus a scalar ``escaped``
  holding the probability that a tunneling event has already been
  recorded.  Tunneled population never re-enters coherently, so a scalar
  loses nothing.  The operator may be unnormalized: its trace is the
  joint probability of reaching the current point of a sequence with no
  detection.
* The engines evolve the unnormalized Pauli vector
  r = (tr rho, tr(rho X), tr(rho Y), tr(rho Z)), so that
  rho = (r0*I + r1*X + r2*Y + r3*Z)/2 and every operation of the protocol
  is a real 4x4 matrix on r.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedStateError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
PAULI_BASIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)
# column j is the row-major vec of PAULI_BASIS[j]: vec(rho) = PAULI_VEC @ r / 2
PAULI_VEC = np.stack([s.reshape(4) for s in PAULI_BASIS], axis=1)

TWO_PI = 2.0 * np.pi

# Tolerance policy: 1e-12 for identities that hold in exact arithmetic,
# 1e-9 for quantities that accumulate roundoff across a sweep.
EXACT_TOL = 1e-12
ROUNDOFF_TOL = 1e-9

# Below this conditional trace a normalized state is considered undefined.
TRACE_FLOOR = 1e-12


@dataclass(frozen=True)
class PureState:
    """Pure qubit state parameterized by polar angle and azimuth, in radians.

    The azimuth is stored reduced to [0, 2*pi).  The polar angle must lie
    in [0, pi].
    """

    theta0: float
    phi0: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta0 <= np.pi + EXACT_TOL:
            raise DomainError(f"polar angle must lie in [0, pi], got {self.theta0}")
        if not math.isfinite(self.phi0):
            raise DomainError(f"azimuth must be finite, got {self.phi0}")
        object.__setattr__(self, "theta0", float(min(self.theta0, np.pi)))
        object.__setattr__(self, "phi0", float(self.phi0) % TWO_PI)

    def amplitudes(self) -> np.ndarray:
        """Amplitude pair (a0, a1); a1 carries the phase exp(-i*phi0)."""
        return np.array(
            [
                np.cos(self.theta0 / 2.0),
                np.exp(-1.0j * self.phi0) * np.sin(self.theta0 / 2.0),
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class BlochVector:
    """Cartesian Bloch components.

    Physical states satisfy ``x**2 + y**2 + z**2 <= 1`` with each component
    in [-1, 1]; call :meth:`validate` to enforce that.  Reconstruction from
    noisy counts may land slightly outside the unit ball, which is why the
    constructor itself does not reject such vectors.
    """

    x: float
    y: float
    z: float

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def norm(self) -> float:
        # hypot neither overflows nor underflows where the squares would
        return math.hypot(self.x, self.y, self.z)

    def validate(self) -> "BlochVector":
        """The one-row case of :func:`validate_bloch_rows`."""
        validate_bloch_rows(np.array([[self.x, self.y, self.z]]))
        return self


def validate_bloch_rows(vectors: np.ndarray) -> None:
    """Check that each row of a (k, 3) stack of Bloch vectors has its components
    in [-1, 1] and lies in the unit ball, up to roundoff.  The first failing row
    raises :class:`DomainError` for its first failing check."""
    x, y, z = vectors.T
    with np.errstate(over="ignore", invalid="ignore"):
        passed = np.column_stack((abs(vectors) <= 1.0 + ROUNDOFF_TOL,
                                  x**2 + y**2 + z**2 <= 1.0 + ROUNDOFF_TOL))
    if not passed.all():
        index = passed.all(axis=1).argmin()
        check, row = passed[index].argmin(), vectors[index].tolist()
        if check < 3:
            raise DomainError(f"Bloch component {'xyz'[check]}={row[check]} outside [-1, 1]")
        squared = math.hypot(*row) ** 2
        raise DomainError(f"Bloch vector of squared length {squared} leaves the unit ball")


def operators_from_pauli(r: np.ndarray) -> np.ndarray:
    """(k, 2, 2) operators (r0*I + r1*X + r2*Y + r3*Z)/2 of a (k, 4) stack
    of unnormalized Pauli vectors."""
    return (r @ PAULI_VEC.T).reshape(-1, 2, 2) / 2


def pauli_vectors(rho: np.ndarray) -> np.ndarray:
    """(k, 4) unnormalized Pauli vectors Re tr(rho s_j) of a (k, 2, 2) stack of
    operators, as tr(rho s) = vec(rho) . conj(vec(s)) for a Hermitian s."""
    return (rho.reshape(-1, 4) @ PAULI_VEC.conj()).real


def validate_states(rho: np.ndarray, escaped: np.ndarray, require_total: bool = True) -> None:
    """Check a (k, 2, 2) stack of conditional operators and their (k,)
    escaped probabilities: finiteness, hermiticity, positivity, and
    probability bookkeeping.

    ``require_total`` additionally demands trace(rho) + escaped == 1, which
    holds whenever detected weight is moved into ``escaped`` rather than
    silently discarded.  One ``eigvalsh`` covers the stack; the checks run
    in the order above, each over every member, and the first member that
    fails one names the error.
    """
    escaped = np.asarray(escaped)
    if not (np.isfinite(rho).all() and np.isfinite(escaped).all()):
        raise DomainError("conditional state or escaped probability is not finite")
    adjoint = rho.conj().swapaxes(-1, -2)
    if (abs(rho - adjoint).reshape(-1, 4).max(axis=1) > EXACT_TOL).any():
        raise DomainError("density operator is not Hermitian")
    eigs = np.linalg.eigvalsh((rho + adjoint) / 2.0)[:, 0]
    if (bad := eigs < -EXACT_TOL).any():
        raise DomainError(f"density operator has negative eigenvalue {eigs[bad.argmax()].item()}")
    traces = rho.trace(axis1=-2, axis2=-1).real
    if (bad := (traces < -EXACT_TOL) | (traces > 1.0 + EXACT_TOL)).any():
        raise DomainError(f"conditional trace {traces[bad.argmax()].item()} outside [0, 1]")
    if (bad := (escaped < -EXACT_TOL) | (escaped > 1.0 + EXACT_TOL)).any():
        raise DomainError(f"escaped probability {escaped[bad.argmax()].item()} outside [0, 1]")
    totals = traces + escaped
    if (bad := totals > 1.0 + EXACT_TOL).any():
        raise DomainError(f"trace + escaped = {totals[bad.argmax()].item()} exceeds 1")
    if require_total and (bad := totals < 1.0 - EXACT_TOL).any():
        raise DomainError(f"trace + escaped = {totals[bad.argmax()].item()} does not close to 1")


@dataclass(frozen=True)
class QubitState:
    """Unnormalized conditional density operator plus escaped probability."""

    rho: np.ndarray
    escaped: float = 0.0

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise DomainError(f"density operator must be 2x2, got shape {rho.shape}")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "escaped", float(self.escaped))

    @classmethod
    def from_pauli(cls, r, escaped: float = 0.0) -> "QubitState":
        """Operator (r0*I + r1*X + r2*Y + r3*Z)/2 of an unnormalized Pauli vector."""
        return cls(operators_from_pauli(np.array([r], dtype=float))[0], escaped)

    @property
    def pauli(self) -> np.ndarray:
        """Unnormalized Pauli vector (tr rho, <X>, <Y>, <Z>) of the operator."""
        return pauli_vectors(self.rho[None])[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    @property
    def purity(self) -> float:
        """tr(rho^2)/tr(rho)^2 of the normalized conditional state."""
        tr = self.trace
        if tr <= TRACE_FLOOR:
            raise UndefinedStateError("purity undefined: conditional trace is zero")
        return float(np.trace(self.rho @ self.rho).real / tr**2)

    def normalized(self) -> "QubitState":
        """Post-selected conditional state with unit trace and no escape record."""
        tr = self.trace
        if tr <= TRACE_FLOOR:
            raise UndefinedStateError("cannot normalize a vanished conditional state")
        return QubitState(self.rho / tr, 0.0)

    def validate(self, require_total: bool = True) -> "QubitState":
        """Check hermiticity, positivity, and probability bookkeeping: the
        one-member case of :func:`validate_states`."""
        validate_states(self.rho[None], np.array([self.escaped]), require_total)
        return self


@dataclass(frozen=True)
class DeviceParams:
    """Device constants: relaxation/dephasing times (ns) and readout
    visibility."""

    t1_ns: float
    t2_echo_ns: float
    t2_ramsey_ns: float
    visibility: float = 1.0

    def __post_init__(self):
        for name in ("t1_ns", "t2_echo_ns", "t2_ramsey_ns"):
            time = getattr(self, name)
            if not time > 0.0:
                raise DomainError(f"{name} must be positive")
            if math.isinf(1.0 / float(time)):   # each decay rate is a reciprocal
                raise DomainError(f"{name} {time} is too small: its reciprocal overflows")
        if self.t2_echo_ns > 2.0 * self.t1_ns * (1.0 + EXACT_TOL):
            raise DomainError("t2_echo_ns cannot exceed 2*t1_ns")
        if self.t2_ramsey_ns > self.t2_echo_ns * (1.0 + EXACT_TOL):
            raise DomainError("t2_ramsey_ns cannot exceed t2_echo_ns")
        # the reconstruction divides by the visibility
        if not 0.0 < self.visibility <= 1.0:
            raise DomainError("visibility must lie in (0, 1]")


def default_device(visibility: float = 1.0) -> DeviceParams:
    """Default device constants used throughout: T1 = 450 ns, echo T2 = 350 ns,
    Ramsey T2 = 120 ns.

    Visibility defaults to 1 so analytic identities hold exactly; pass 0.9
    to mimic a realistic readout.
    """
    return DeviceParams(
        t1_ns=450.0,
        t2_echo_ns=350.0,
        t2_ramsey_ns=120.0,
        visibility=visibility,
    )


def state_from_angles(s: PureState) -> QubitState:
    """Normalized density operator of the pure state (theta0, phi0)."""
    amps = s.amplitudes()
    return QubitState(np.outer(amps, amps.conj()), 0.0)


def bloch_from_state(q: QubitState) -> BlochVector:
    """Bloch vector of the normalized conditional state."""
    tr = q.trace
    if tr <= TRACE_FLOOR:
        raise UndefinedStateError("Bloch vector undefined: conditional trace is zero")
    return BlochVector(*(float(v) for v in q.pauli[1:] / tr))


def state_from_bloch(b: BlochVector) -> QubitState:
    """Density operator (1/2)(I + x*sx + y*sy + z*sz) for a physical vector."""
    b.validate()
    return QubitState.from_pauli((1.0, b.x, b.y, b.z))


def state_fidelity(a: QubitState, b: QubitState) -> float:
    """Fidelity of the normalized conditional states.

    Uses the 2x2 closed form F = tr(a b) + 2*sqrt(det(a) det(b)), which for
    a pure target reduces to <psi| b |psi>.
    """
    ra = a.normalized().rho
    rb = b.normalized().rho
    cross = float(np.trace(ra @ rb).real)
    # roundoff can push a tiny determinant just below zero
    da = max(float(np.linalg.det(ra).real), 0.0)
    db = max(float(np.linalg.det(rb).real), 0.0)
    return cross + 2.0 * np.sqrt(da * db)
