"""Pulse sequences and exact conditional evolution.

Two sequences are built here:

* partial collapse: prepare, then a single tunable-strength measurement.
* reversal: prepare, measure with strength p, pi-pulse about X, measure
  again with the same strength and the same measurement phase.
  Conditioned on two null results the second null map exactly undoes the
  first one up to the pi rotation, the measurement phase cancels through
  the echo structure, and the overall success probability is 1 - p for
  every initial state.

:func:`compile_sequence` turns a sequence into the Pauli-transfer-matrix
operations that both engines run; it is the one place that reads step
kinds.  Within a step the instantaneous operation acts first and
decoherence then runs for the step's duration.  Exact execution
(:func:`fold`) folds the in-well maps onto a stack of strengths x inputs,
so the strengths of a sweep and the process-tomography probes share one
compiled program and one fold: the null branch of each measurement drops
the detected weight from the trace, so after the last step the trace is the
success probability and ``escaped`` = 1 - trace is the background
probability of a pre-analysis detection.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

# apply_* are not called here; they stay importable from this module, where
# perfbench/tracer.py looks the per-operation wrappers up
from .channels import (  # noqa: F401
    CLICK,
    ESCAPE,
    DecoherenceStep,
    PartialMeasurement,
    RotationPulse,
    TransferOp,
    apply_decoherence,
    apply_partial_tunnel,
    apply_rotation,
    decoherence_ops,
    measurement_maps,
)
from .errors import DomainError, StructuralError, UndefinedStateError
from .qubit import (
    DeviceParams,
    PureState,
    QubitState,
    default_device,
    operators_from_pauli,
    state_from_angles,
    validate_states,
)

PREPARE = "prepare"
ROTATE = "rotate"
PARTIAL_MEASURE = "partial_measure"
IDLE = "idle"
FULL_MEASURE = "full_measure"

# step kind -> the type of its payload
STEP_KINDS = {
    PREPARE: PureState,
    ROTATE: RotationPulse,
    PARTIAL_MEASURE: PartialMeasurement,
    IDLE: type(None),
    FULL_MEASURE: type(None),
}

# r of any unit-trace state; the prepare map sends it to the prepared state
_UNIT_TRACE = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class SequenceStep:
    """One entry of a pulse sequence: an operation and the time it takes.

    ``payload`` has the type ``STEP_KINDS`` gives for the kind: a PureState
    for prepare, a RotationPulse for rotate, a PartialMeasurement for
    partial_measure, and None for idle and full_measure.
    """

    kind: str
    duration_ns: float
    payload: Any = None

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise StructuralError(f"unknown step kind {self.kind!r}")
        if not isinstance(self.payload, STEP_KINDS[self.kind]):
            raise StructuralError(
                f"a {self.kind} step cannot carry a {type(self.payload).__name__} payload"
            )
        if not self.duration_ns >= 0.0:
            raise StructuralError("step duration must be nonnegative")


@dataclass(frozen=True)
class PulseSequence:
    """Steps that run back to back in order; a wait is an explicit idle step."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def total_duration_ns(self) -> float:
        return sum((step.duration_ns for step in self.steps), 0.0)


@dataclass(frozen=True)
class PulseTiming:
    """Step durations in ns.  The defaults total 44 ns for the reversal
    sequence including the analysis pulse."""

    prepare_ns: float = 10.0
    measure_ns: float = 3.0
    idle_ns: float = 8.0
    pi_pulse_ns: float = 10.0
    tomography_ns: float = 10.0

    def __post_init__(self):
        for name in ("prepare_ns", "measure_ns", "idle_ns", "pi_pulse_ns", "tomography_ns"):
            if not getattr(self, name) >= 0.0:
                raise DomainError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to build and run one sequence at one strength p.

    ``phi_m_model`` maps strength to accumulated measurement phase; when
    None the linear model phi_m = phi_m_rate * p is used.  Both
    measurements of the reversal sequence share the same strength and the
    same phase.  ``use_echo_t2`` selects the echo dephasing time for
    decoherence steps (the reversal sequence has echo structure); set it
    False to use the Ramsey time instead.

    ``p_error_fraction`` models a systematic calibration bias in the
    measurement strength: the pulses realize p * (1 + f) (clipped to 1)
    while the nominal dial value stays p.  Default 0.0 turns the bias
    off.  The multiplicative form was chosen so that p = 0 stays exact.
    """

    initial: PureState
    p: float
    pi_fraction: float = 1.0
    device: DeviceParams = field(default_factory=default_device)
    decoherence_enabled: bool = False
    phi_m_rate: float = 4.0 * math.pi
    phi_m_model: Callable[[float], float] | None = None
    timing: PulseTiming = field(default_factory=PulseTiming)
    use_echo_t2: bool = True
    p_error_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"measurement strength must lie in [0, 1], got {self.p}")
        if not 0.0 <= self.pi_fraction * math.pi < math.inf:
            raise DomainError("pi_fraction must be nonnegative and give a finite recovery angle")
        if not math.isfinite(self.phi_m_rate):
            raise DomainError("phi_m_rate must be finite")
        if not math.isfinite(self.p_error_fraction) or self.p_error_fraction <= -1.0:
            raise DomainError("p_error_fraction must be a finite value above -1")

    def measurement(self) -> PartialMeasurement:
        """The partial measurement the pulses realize at ``p``: its strength
        after calibration bias and its measurement phase."""
        (p_real,), (phi_m,) = self.grid_measurements([self.p])
        return PartialMeasurement(float(p_real), float(phi_m))

    def grid_measurements(self, p_grid) -> tuple[np.ndarray, np.ndarray]:
        """The strengths the pulses realize and the measurement phases of
        ``self.at_strength(p)`` for every p of ``p_grid``."""
        for p in p_grid:
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"measurement strength must lie in [0, 1], got {p}")
        p_real = np.minimum(np.array(p_grid, dtype=float) * (1.0 + self.p_error_fraction), 1.0)
        if self.phi_m_model is not None:  # a model's phase is checked as its measurement's
            phases = [PartialMeasurement(x, self.phi_m_model(x)).phi_m for x in p_real.tolist()]
            return p_real, np.array(phases)
        return p_real, self.phi_m_rate * p_real

    def decoherence_for(self, duration_ns: float) -> DecoherenceStep | None:
        """Decoherence over a step of ``duration_ns``; None when decoherence
        is off or the step takes no time."""
        if self.decoherence_enabled and duration_ns > 0.0:
            return DecoherenceStep.for_device(self.device, duration_ns, echo=self.use_echo_t2)
        return None

    def at_strength(self, p: float) -> "ExperimentConfig":
        return replace(self, p=p)


@dataclass(frozen=True)
class RunOutcome:
    """Result of exact conditional evolution.

    ``conditional`` is the unnormalized post-selected state; ``p_success``
    is its trace (probability that no detection occurred before analysis)
    and ``p_background`` the complementary detection probability.
    """

    conditional: QubitState
    p_background: float
    p_success: float


def build_partial_collapse(cfg: ExperimentConfig) -> PulseSequence:
    """Prepare, then one partial measurement."""
    t = cfg.timing
    return PulseSequence(
        (
            SequenceStep(PREPARE, t.prepare_ns, cfg.initial),
            SequenceStep(PARTIAL_MEASURE, t.measure_ns, cfg.measurement()),
        )
    )


def build_uncollapse(cfg: ExperimentConfig) -> PulseSequence:
    """The partial collapse, then idle, pi-pulse about X and its measure
    step again.

    ``pi_fraction`` scales the recovery pulse; 1.0 is the proper reversal
    sequence and other values model a deliberately wrong pulse.
    """
    t = cfg.timing
    collapse = build_partial_collapse(cfg).steps
    pulse = RotationPulse.about_x(cfg.pi_fraction * np.pi)
    return PulseSequence(
        collapse
        + (SequenceStep(IDLE, t.idle_ns), SequenceStep(ROTATE, t.pi_pulse_ns, pulse), collapse[-1])
    )


def build_sequence(kind: str, cfg: ExperimentConfig) -> PulseSequence:
    """The "collapse" or the "uncollapse" sequence for ``cfg``."""
    builders = {"collapse": build_partial_collapse, "uncollapse": build_uncollapse}
    if kind not in builders:
        raise DomainError(f"unknown sequence kind {kind!r}")
    return builders[kind](cfg)


# A sampled command compiles its three tomography settings once, at its config,
# and looks them up again on every pass; sequences and configs hash, so each
# pass reuses the programs.  A command needs a few keys, so a small LRU suffices.
@functools.lru_cache(maxsize=16)
def compile_sequence(seq: PulseSequence, cfg: ExperimentConfig) -> tuple:
    """The sequence as TransferOps in order, run from r = (1, 0, 0, 0).

    Prepare maps any unit-trace r to the prepared state, a partial
    measurement is stochastic (a detection escapes the well), pulses are
    deterministic, and the full measurement is the final readout (a
    detection is a click, with probability v * rho_11).  Decoherence adds a
    jump and a flip operation after every step of nonzero duration but the
    readout.
    """
    if not seq.steps:
        raise StructuralError("empty pulse sequence")
    if seq.steps[0].kind != PREPARE:
        raise StructuralError("sequence must begin with a prepare step")
    ops = []
    for index, step in enumerate(seq.steps):
        if step.kind == PREPARE:
            if index:
                raise StructuralError("sequence contains a second prepare step")
            ops.append(_prepare_op(step.payload))
        elif step.kind in (PARTIAL_MEASURE, ROTATE):
            ops.append(step.payload.transfer())
        elif step.kind == FULL_MEASURE:
            if index != len(seq.steps) - 1:
                raise StructuralError("full_measure must be the final step")
            ops.append(PartialMeasurement(cfg.device.visibility).transfer(CLICK))
            continue
        ops.extend(decoherence_ops(cfg.decoherence_for(step.duration_ns)))
    return tuple(ops)


@functools.lru_cache(maxsize=64)
def _prepare_op(initial: PureState) -> TransferOp:
    return TransferOp(np.outer(state_from_angles(initial).pauli, _UNIT_TRACE))


def fold(
    seq: PulseSequence, cfg: ExperimentConfig, initials: tuple | None = None, p_grid=None
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a sequence exactly over strengths x initial states, in one fold.

    The sequence compiles once.  ``initials`` (k PureStates) replace its
    prepared state and the n strengths of ``p_grid`` its partial
    measurements, which must all be ``cfg``'s own; None keeps the
    sequence's.  Member ``i*k + j`` is the sequence built at
    ``cfg.at_strength(p_grid[i])`` run from ``initials[j]``: the grid's
    (n, 1, 4, 4) null maps broadcast the (k, 4, 4) prepare maps to the
    (n, k, 4, 4) stack, and one validation covers it.  Returns the (n*k, 2, 2)
    conditional operators and the (n*k,) escaped probabilities.
    """
    ops = compile_sequence(seq, cfg)
    maps = [op.in_well for op in ops]
    if initials is not None:
        if not initials:
            raise StructuralError("need at least one initial state")
        maps[0] = np.stack([_prepare_op(initial).in_well for initial in initials])
    if p_grid is not None:
        own = cfg.measurement().transfer().no_event
        measured = [op.no_event for op in ops if op.effect == ESCAPE]
        if not measured or not all(np.array_equal(m, own) for m in measured):
            raise StructuralError(
                "a sweep needs partial measurements, all at the config's strength"
            )
        no_event = measurement_maps(*cfg.grid_measurements(p_grid))[0][:, None]
        maps = [no_event if op.effect == ESCAPE else m for op, m in zip(ops, maps)]
    acc = maps[0].reshape(-1, 4, 4)
    for m in maps[1:]:
        acc = m @ acc
    r = acc.reshape(-1, 4, 4) @ _UNIT_TRACE
    # roundoff can leave the trace an ulp above 1 when nothing escaped
    escaped = np.maximum(1.0 - r[:, 0], 0.0)
    rho = operators_from_pauli(r)
    validate_states(rho, escaped, require_total=True)
    return rho, escaped


def run_exact(seq: PulseSequence, cfg: ExperimentConfig) -> RunOutcome:
    """Evolve the conditional state through a sequence exactly: the
    one-member case of :func:`fold`.

    A full_measure step is allowed only as a terminal marker; detection
    statistics for it come from the analysis forward model, not from this
    routine.
    """
    rho, escaped = fold(seq, cfg)
    state = QubitState(rho[0], escaped[0])
    return RunOutcome(
        conditional=state,
        p_background=state.escaped,
        p_success=state.trace,
    )


def success_probability(cfg: ExperimentConfig) -> float:
    """Probability that the reversal sequence records two null results."""
    return run_exact(build_uncollapse(cfg), cfg).p_success


def theory_polar_angle(kind: str, theta0: float, p: float) -> float:
    """Closed-form polar angle after the named sequence, decoherence free.

    For a single partial measurement the null result pulls the polar angle
    to 2*atan(sqrt(1-p)*tan(theta0/2)); the reversal sequence lands at
    pi - theta0 independent of p.
    """
    if not 0.0 <= theta0 <= np.pi + 1e-12:
        raise DomainError("theta0 must lie in [0, pi]")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if kind == "collapse":
        s = np.sqrt(1.0 - p) * np.sin(theta0 / 2.0)
        c = np.cos(theta0 / 2.0)
        if np.hypot(s, c) < 1e-9:
            raise UndefinedStateError("state fully escapes: p = 1 with theta0 = pi")
        return float(2.0 * np.arctan2(s, c))
    if kind == "uncollapse":
        return float(np.pi - theta0)
    raise DomainError(f"unknown sequence kind {kind!r}")
