"""Simulator and analysis toolkit for reversing a tunable-strength partial
measurement on a single qubit.

The package models the full experiment: state preparation, partial
measurements that detect only |1>, the echo-structured reversal sequence,
energy relaxation and dephasing, state tomography, process tomography, and
Monte Carlo sampling with reproducible counter-based randomness.
"""

from types import ModuleType as _ModuleType

from .channels import (
    TOMO_SETTINGS,
    DecoherenceStep,
    KrausSet,
    PartialMeasurement,
    RotationPulse,
    amplitude_damping_kraus,
    apply_decoherence,
    apply_kraus,
    apply_partial_null,
    apply_partial_tunnel,
    apply_rotation,
    dephasing_kraus,
    kraus_completeness_check,
    pure_dephasing_time,
    tomography_rotation,
)
from .errors import (
    DegenerateBackgroundError,
    DomainError,
    SimulationError,
    SingularInversionError,
    StructuralError,
    UndefinedDirectionError,
    UndefinedStateError,
)
from .montecarlo import ShotRecord, estimate_probabilities, sample_sequence
from .protocol import (
    ExperimentConfig,
    PulseSequence,
    PulseTiming,
    RunOutcome,
    SequenceStep,
    build_partial_collapse,
    build_uncollapse,
    run_exact,
    success_probability,
    theory_polar_angle,
)
from .qpt import (
    PROBE_STATES,
    ChiMatrix,
    CpReport,
    ProbeSet,
    chi_apply,
    cp_diagnostics,
    exact_uncollapse_chi,
    montecarlo_uncollapse_chi,
    process_fidelity,
    qpt_reconstruct,
)
from .qubit import (
    BlochVector,
    DeviceParams,
    PureState,
    QubitState,
    bloch_from_state,
    default_device,
    state_fidelity,
    state_from_angles,
    state_from_bloch,
)
from .tomography import (
    TomographyRecord,
    bloch_reconstruct,
    exact_tomography_record,
    polar_azimuth,
    tomo_probabilities,
    with_tomography,
)

__version__ = "0.1.0"

# the public names imported above, without the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
