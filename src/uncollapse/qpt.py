"""Quantum process tomography in the Pauli basis by linear inversion.

A single-qubit process is expanded as

    rho_out = sum_{m,n} chi[m, n] * sigma_m rho_in sigma_n

over the fixed operator basis (I, X, Y, Z).  Four linearly independent
probe states determine chi uniquely; the probes used by the built-in
pipelines are |1>, (|0>-i|1>)/sqrt(2), (|0>+|1>)/sqrt(2), |0>.  Process
outputs are the normalized post-selected states, so a trace-preserving
reconstruction has tr(chi) = 1, and the fidelity of the reversal sequence
to its ideal pi rotation is Re chi[X, X].

Linear inversion of noisy data may leave the physical set.  That is
reported through :func:`cp_diagnostics`, never repaired.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SingularInversionError, StructuralError
from .montecarlo import estimate_probabilities
from .qubit import PAULI_BASIS, ROUNDOFF_TOL, PureState, operators_from_pauli, state_from_angles
from .protocol import ExperimentConfig
# bloch_reconstruct and exact_tomography_record are not called here; they stay
# importable here, where perfbench/tracer.py looks the per-probe calls up
from .tomography import (bloch_reconstruct, bloch_rows, exact_tomography_record,  # noqa: F401
                         exact_tomography_sweep)

PAULI_LABELS = ("I", "X", "Y", "Z")

PROBE_STATES = (
    PureState(np.pi, 0.0),            # |1>
    PureState(np.pi / 2.0, np.pi / 2.0),  # (|0> - i|1>)/sqrt(2)
    PureState(np.pi / 2.0, 0.0),      # (|0> + |1>)/sqrt(2)
    PureState(0.0, 0.0),              # |0>
)

_GRAM_FLOOR = 1e-6


@dataclass(frozen=True)
class ProbeSet:
    """Four probe inputs, each a :class:`PureState`, paired with their output
    Bloch vectors or (x, y, z) rows."""

    inputs: tuple
    outputs: tuple

    def __post_init__(self):
        if len(self.inputs) != 4 or len(self.outputs) != 4:
            raise StructuralError("process tomography needs exactly four probes")
        if not all(isinstance(probe, PureState) for probe in self.inputs):
            raise StructuralError("process tomography probes must be PureStates")
        _design_matrix(tuple(self.inputs))


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix in the (I, X, Y, Z) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise StructuralError(f"chi must be 4x4, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


@dataclass(frozen=True)
class CpReport:
    """Diagnostics for complete positivity of a reconstructed process."""

    eigenvalues: tuple
    min_eigenvalue: float
    hermiticity_residual: float
    trace_deviation: float
    is_cp: bool


def chi_apply(chi: ChiMatrix, rho: np.ndarray) -> np.ndarray:
    """Act with the process on a density operator."""
    return np.einsum("mn,mab,bc,ncd->ad", chi.matrix, PAULI_BASIS, rho, PAULI_BASIS)


@functools.lru_cache(maxsize=16)
def _design_matrix(inputs: tuple) -> np.ndarray:
    """The 16x16 map from chi onto the probe outputs of ``inputs``: row
    (i, a, d), column (m, n) is entry (a, d) of sigma_m rho_i sigma_n."""
    rhos = [state_from_angles(probe).rho for probe in inputs]
    # Gram matrix tr(rho_a rho_b) of the probes
    if abs(np.linalg.det(np.einsum("aij,bji->ab", rhos, rhos).real)) < _GRAM_FLOOR:
        raise SingularInversionError("probe states are not linearly independent")
    # pure probes past the Gram floor give cond(a) <= 3,080: the solve needs no guard
    a = np.einsum("mab,ibc,ncd->iadmn", PAULI_BASIS, rhos, PAULI_BASIS).reshape(16, 16)
    a.setflags(write=False)
    return a


def qpt_reconstruct(probes: ProbeSet) -> ChiMatrix:
    """Solve the 16x16 linear system mapping chi onto the probe outputs."""
    a = _design_matrix(tuple(probes.inputs))
    # noisy reconstructions may leave the unit ball; no validation here
    b = operators_from_pauli(np.array([(1.0, *v) for v in probes.outputs])).reshape(16)
    return ChiMatrix(np.linalg.solve(a, b).reshape(4, 4))


def process_fidelity(chi: ChiMatrix) -> float:
    """Overlap with the ideal pi rotation about X: Re chi[X, X]."""
    return float(chi.matrix[1, 1].real)


def cp_diagnostics(chi: ChiMatrix) -> CpReport:
    """Eigenvalue and hermiticity report; flags (but keeps) non-CP results."""
    herm = chi.hermiticity_residual()
    eigs = np.linalg.eigvalsh((chi.matrix + chi.matrix.conj().T) / 2.0)
    return CpReport(
        eigenvalues=tuple(float(v) for v in eigs),
        min_eigenvalue=float(eigs[0]),
        hermiticity_residual=herm,
        trace_deviation=float(abs(chi.trace - 1.0)),
        is_cp=bool(eigs[0] >= -ROUNDOFF_TOL and herm <= ROUNDOFF_TOL),
    )


def exact_uncollapse_chi(cfg: ExperimentConfig, outputs=None) -> ChiMatrix:
    """Process matrix of the reversal sequence from exact evolution, with the
    four probes run as one stack through one compiled sequence, or from
    ``outputs``, their four Bloch rows from either engine, without reading ``cfg``."""
    if outputs is None:
        table, _ = exact_tomography_sweep(cfg, None, initials=PROBE_STATES)
        outputs = bloch_rows(table, cfg.device.visibility)
    return qpt_reconstruct(ProbeSet(PROBE_STATES, outputs))


def montecarlo_uncollapse_chi(
    cfg: ExperimentConfig, n_shots: int, seed: int, stream_base: int = 0
) -> ChiMatrix:
    """Process matrix of the reversal sequence from sampled counts.

    The four probes run as one estimate of their four tomography records,
    whose (4, 4) table one :func:`bloch_rows` call inverts, unrepaired.  Probe
    ``i`` draws from streams ``stream_base + 3*i + j`` (setting j), so the
    result is reproducible and independent of how shots are batched; callers
    that need several matrices under one seed offset ``stream_base`` by 12.
    """
    records = estimate_probabilities(
        cfg, n_shots, seed, kind="uncollapse", stream_base=stream_base, initials=PROBE_STATES
    )
    table = np.array([[t.p_x, t.p_y, t.p_z, t.p_b] for t in records])
    outputs = bloch_rows(table, cfg.device.visibility, sampled=True)
    return qpt_reconstruct(ProbeSet(PROBE_STATES, outputs))
