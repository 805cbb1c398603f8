"""Monte Carlo sampling of pulse sequences, shot by shot.

Each shot follows one stochastic trajectory through the operations of
:func:`protocol.compile_sequence`, the ones exact evolution runs, so the two
engines agree in expectation by construction.  A shot carries its
normalized Pauli vector r; at a stochastic operation it takes the event
when its uniform falls below (A1 r)[0] and goes on from the branch it took.

Randomness is counter based.  Shot ``k`` of stream ``j`` draws its
uniforms from Philox4x64-10 keyed by the master seed with counter block
(j, k), so results are bit-identical no matter how shots are batched or
distributed across workers.  Stream indices 0, 1, 2 belong to the x, y, z
tomography settings; pipelines that need several independent batches
(several probes, several sweep points) offset the stream index.
"""

from dataclasses import dataclass

import numpy as np

from .channels import CLICK, ESCAPE
from .errors import DomainError, StructuralError
from .protocol import (
    ExperimentConfig,
    PulseSequence,
    build_sequence,
    compile_sequence,
)
from .tomography import TOMO_SETTINGS, TomographyRecord, with_tomography

# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11), as numpy's Philox
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_DOUBLE_SHIFT = np.uint64(11)
_WORD = 1 << 64
# shots sampled per pass of estimate_probabilities; the counter streams make
# the result independent of it, and it bounds the memory a setting takes
_SHOT_CHUNK = 1 << 16


@dataclass(frozen=True)
class ShotRecord:
    """Trajectory summary for one shot.

    ``outcomes`` holds one detection flag per partial measurement in
    sequence order; ``final_detected`` is the full-measurement click.
    ``rng_seed`` is the (master_seed, stream_index, shot_index) triple that
    reproduces the shot.
    """

    rng_seed: tuple
    outcomes: tuple
    final_detected: bool

    @property
    def escaped(self) -> bool:
        return any(self.outcomes)


@dataclass(frozen=True)
class EstimateSet:
    """Sampled tomography probabilities with their standard errors."""

    record: TomographyRecord


def _draw_count(seq: PulseSequence, cfg: ExperimentConfig) -> int:
    """Uniform draws one shot consumes: one per stochastic operation, that
    is one per measurement and two per decohered step."""
    return sum(op.event is not None for op in compile_sequence(seq, cfg))


def _mulhilo(m: np.uint64, x):
    """High and low 64-bit words of the 128-bit product ``m * x``, from
    32-bit halves so that no partial product overflows."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    low_low = m_lo * x_lo
    cross = m_hi * x_lo + (low_low >> _SHIFT32)
    carry = m_lo * x_hi + (cross & _LOW32)
    high = m_hi * x_hi + (cross >> _SHIFT32) + (carry >> _SHIFT32)
    return high, m * x


def _philox4x64(c0, c1, c2, c3, k0: np.uint64, k1: np.uint64):
    """Ten Philox rounds on broadcastable uint64 counter words."""
    with np.errstate(over="ignore"):
        for _ in range(_PHILOX_ROUNDS):
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
    return c0, c1, c2, c3


def _shot_uniforms(
    master_seed: int,
    stream_index: int,
    shot_start: int,
    n_shots: int,
    n_draws: int,
) -> np.ndarray:
    """Per-shot uniform variates from counter-based streams.

    Row ``i`` equals ``Generator(Philox(key=master_seed, counter=[0, 0,
    stream_index, shot_start + i])).random(n_draws)``: block ``b = 1, 2, ...``
    of a shot is Philox4x64-10 of the counter (b, 0, stream, shot) under
    the key (seed mod 2**64, seed >> 64), its four words are used in order,
    and a word ``w`` becomes the double ``(w >> 11) * 2**-53``.  Every shot
    and every block of the call is computed in one pass.
    """
    if not 0 <= master_seed < 2**128:
        raise DomainError(f"seed {master_seed} outside [0, 2**128)")
    if not 0 <= stream_index < _WORD:
        raise DomainError(f"stream index {stream_index} outside [0, 2**64)")
    if shot_start < 0 or n_shots < 0 or shot_start + n_shots > _WORD:
        raise DomainError("shot indices must lie in [0, 2**64)")
    if n_draws < 0:
        raise DomainError("the number of draws cannot be negative")
    n_blocks = -(-n_draws // 4)
    blocks = np.arange(1, n_blocks + 1, dtype=np.uint64)[None, :]
    shots = (np.uint64(shot_start) + np.arange(n_shots, dtype=np.uint64))[:, None]
    words = _philox4x64(
        blocks,
        np.uint64(0),
        np.uint64(stream_index),
        shots,
        np.uint64(master_seed & (_WORD - 1)),
        np.uint64(master_seed >> 64),
    )
    stacked = np.stack(words, axis=-1).reshape(n_shots, 4 * n_blocks)[:, :n_draws]
    return (stacked >> _DOUBLE_SHIFT).astype(np.float64) * 2.0**-53


def _run_batch(seq: PulseSequence, cfg: ExperimentConfig, uniforms: np.ndarray):
    """Vectorized trajectory evolution for a batch of shots.

    Returns (outcomes, detected) where ``outcomes`` has shape
    (n_shots, n_partial_measurements).
    """
    ops = compile_sequence(seq, cfg)
    if uniforms.shape[1] != sum(op.event is not None for op in ops):
        raise StructuralError("uniform draw layout out of sync with the sequence")
    n = uniforms.shape[0]
    r = np.zeros((n, 4))
    r[:, 0] = 1.0
    alive = np.ones(n, dtype=bool)
    detected = np.zeros(n, dtype=bool)
    outcomes = []
    draws = iter(uniforms.T)
    for op in ops:
        if op.event is None:
            r = r @ op.no_event.T
            continue
        event = next(draws) < r @ op.event[0]
        # shots that left the well keep valid states too, which only
        # masking by ``alive`` keeps out of the record
        r = np.where(event[:, None], r @ op.event.T, r @ op.no_event.T)
        r = r / r[:, :1]
        if op.effect == ESCAPE:
            outcomes.append(alive & event)
            alive &= ~event
        elif op.effect == CLICK:
            detected = alive & event
    outcome_matrix = (
        np.stack(outcomes, axis=1) if outcomes else np.zeros((n, 0), dtype=bool)
    )
    return outcome_matrix, detected


def sample_sequence(
    seq: PulseSequence,
    cfg: ExperimentConfig,
    seed: int,
    stream_index: int = 0,
    shot_index: int = 0,
) -> ShotRecord:
    """Sample a single trajectory through ``seq``."""
    n_draws = _draw_count(seq, cfg)
    uniforms = _shot_uniforms(seed, stream_index, shot_index, 1, n_draws)
    outcomes, detected = _run_batch(seq, cfg, uniforms)
    return ShotRecord(
        rng_seed=(seed, stream_index, shot_index),
        outcomes=tuple(bool(v) for v in outcomes[0]),
        final_detected=bool(detected[0]),
    )


def estimate_probabilities(
    cfg: ExperimentConfig,
    n_shots: int,
    seed: int,
    kind: str = "uncollapse",
    stream_base: int = 0,
) -> EstimateSet:
    """Estimate the tomography record from ``n_shots`` per setting.

    A detection at any point of a shot counts toward that setting's
    probability, matching what a threshold detector reports; the background
    is estimated from pre-analysis detections pooled over the three
    settings.  Standard errors are sqrt(P(1-P)/n).  Shots are sampled in
    chunks of at most ``_SHOT_CHUNK``, with the same result for any chunk
    size.
    """
    if n_shots < 1:
        raise DomainError("need at least one shot per setting")
    base = build_sequence(kind, cfg)
    probs = {}
    errors = {}
    escape_total = 0
    for j, setting in enumerate(TOMO_SETTINGS):
        seq = with_tomography(base, setting, cfg.timing)
        n_draws = _draw_count(seq, cfg)
        clicks = 0
        for start in range(0, n_shots, _SHOT_CHUNK):
            count = min(_SHOT_CHUNK, n_shots - start)
            uniforms = _shot_uniforms(seed, stream_base + j, start, count, n_draws)
            outcomes, detected = _run_batch(seq, cfg, uniforms)
            escaped = outcomes.any(axis=1)
            clicks += int(np.count_nonzero(escaped | detected))
            escape_total += int(np.count_nonzero(escaped))
        p_hat = clicks / n_shots
        probs[setting] = p_hat
        errors[setting] = float(np.sqrt(p_hat * (1.0 - p_hat) / n_shots))
    pooled = 3 * n_shots
    p_b = escape_total / pooled
    record = TomographyRecord(
        p_x=probs["x"],
        p_y=probs["y"],
        p_z=probs["z"],
        p_b=p_b,
        shots=n_shots,
        stderr=(errors["x"], errors["y"], errors["z"]),
        stderr_b=float(np.sqrt(p_b * (1.0 - p_b) / pooled)),
    )
    return EstimateSet(record=record)
