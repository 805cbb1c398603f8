"""Monte Carlo sampling of pulse sequences, shot by shot.

Each shot follows one stochastic trajectory through the operations of
:func:`protocol.compile_sequence`, the ones exact evolution runs, so the two
engines agree in expectation by construction.  A shot's state is the
normalized Pauli vector r of its branch history, held once per distinct
history in classes that are only appended; at a stochastic operation the
shot takes the event when its uniform falls below (A1 r)[0] and goes on
from the branch it took.  Initials and strengths share one compile per setting.

Randomness is counter based.  Stream ``j`` is numpy's Philox4x64-10 keyed
by the master seed with counter (0, 0, j, 0), and shot ``k`` of a stream
that takes ``B`` blocks per shot reads its blocks ``k*B + 1 ... k*B + B``,
so results are bit-identical no matter how shots are batched or
distributed across workers.  Stream indices 0, 1, 2 belong to the x, y, z
tomography settings; pipelines that need several independent batches
(several probes, several sweep points) offset the stream index.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .channels import CLICK, ESCAPE, TOMO_SETTINGS, TransferOp, measurement_maps
from .errors import DomainError, StructuralError
from .protocol import (
    _UNIT_TRACE,
    ExperimentConfig,
    PulseSequence,
    _prepare_op,
    build_sequence,
    compile_sequence,
)
from .tomography import TomographyRecord, with_tomography

_WORD = 1 << 64
# shots per stream in one pass of estimate_probabilities, which samples a
# row's streams (12 for a qpt row: about 3 MB of uniforms) into one buffer; the
# counter streams make the result independent of it, and it bounds memory
_SHOT_CHUNK = 1 << 11


@dataclass(frozen=True)
class ShotRecord:
    """Trajectory summary for one shot.

    ``outcomes`` holds one detection flag per partial measurement in
    sequence order; ``final_detected`` is the full-measurement click.
    """

    outcomes: tuple
    final_detected: bool

    @property
    def escaped(self) -> bool:
        return any(self.outcomes)


def _draw_count(seq: PulseSequence, cfg: ExperimentConfig) -> int:
    """Uniform draws one shot consumes: one per stochastic operation, that
    is one per measurement and two per decohered step."""
    return sum(op.event is not None for op in compile_sequence(seq, cfg))


def _shot_uniforms(
    master_seed: int,
    stream_index,
    shot_start: int,
    n_shots: int,
    n_draws: int,
) -> np.ndarray:
    """Per-shot uniform variates from counter-based streams.

    With ``B = ceil(n_draws / 4)``, the rows of a stream are
    ``Generator(Philox(key=master_seed, counter=shot_start * B +
    (stream_index << 128))).random((n_shots, 4 * B))[:, :n_draws]``: shot
    ``k`` of stream ``j`` reads Philox4x64-10 blocks ``k*B + 1 ... k*B + B``
    of the counter (word 0, word 1, j, 0) under the key (seed mod 2**64,
    seed >> 64), its four words in order, each word ``w`` as the double
    ``(w >> 11) * 2**-53``.  Any split of the shots gives the same rows.
    ``stream_index`` may also be a tuple of stream indices; the ``n_shots``
    rows of each stream then follow one another in the tuple's order.  The
    result is the first ``n_draws`` columns of one buffer of ``4 * B``
    columns, a view that is not contiguous when ``n_draws % 4``.
    """
    streams = stream_index if isinstance(stream_index, tuple) else (stream_index,)
    # numpy integers become Python ints, whose shifts and products cannot wrap
    master_seed, shot_start, n_shots, n_draws, *streams = map(
        operator.index, (master_seed, shot_start, n_shots, n_draws, *streams)
    )
    if not 0 <= master_seed < 2**128:
        raise DomainError(f"seed {master_seed} outside [0, 2**128)")
    for stream in streams:
        if not 0 <= stream < _WORD:
            raise DomainError(f"stream index {stream} outside [0, 2**64)")
    if shot_start < 0 or n_shots < 0 or shot_start + n_shots > _WORD:
        raise DomainError("shot indices must lie in [0, 2**64)")
    if n_draws < 0:
        raise DomainError("the number of draws cannot be negative")
    # imported at first use: the exact engine never loads numpy.random
    from numpy.random import Generator, Philox

    n_blocks = -(-n_draws // 4)
    rows = np.empty((len(streams), n_shots, 4 * n_blocks))
    for stream, out in zip(streams, rows):
        counter = shot_start * n_blocks + (stream << 128)
        Generator(Philox(key=master_seed, counter=counter)).random(out=out)
    # both dimensions spelled out: reshape(-1, 0) cannot infer the rows
    return rows.reshape(len(streams) * n_shots, 4 * n_blocks)[:, :n_draws]


def _apply(r, member, ops, pick):
    """``r @ pick(op)`` with each class row under its own member's op;
    ``ops`` holds one op when every member shares it."""
    if len(ops) == 1:
        return r @ pick(ops[0])
    out = np.empty(r.shape[:1] + pick(ops[0]).shape[1:])
    for m, op in enumerate(ops):
        rows = member == m
        out[rows] = r[rows] @ pick(op)
    return out


def _run_batch(seq, cfg: ExperimentConfig, uniforms: np.ndarray, initials=None, measurement=None):
    """Vectorized trajectory evolution for a batch of shots.

    ``seq`` is a PulseSequence, or a tuple of sequences that share one step
    structure (the tomography settings of one sequence).  ``initials``
    (PureStates) replace the prepared state, member ``len(seq)*i + j`` being
    initial i under sequence j.  The uniform rows split evenly among the
    members in order.  Shots with the same branch history share one
    normalized Pauli vector, their class's.  Classes are only appended: at a
    stochastic operation a shot takes the event when its uniform falls below
    its class's event probability, every class moves to its no-event branch
    in place, the shots that escape join class 0, and the shots that take a
    jump or a flip move to one new class per class they left.  Class 0
    never takes the event and holds r = (1, 0, 0, 0), which no map empties.
    ``measurement`` (a TransferOp; every estimate passes its row's) replaces
    every ESCAPE op; None keeps them, for :func:`sample_sequence` and tests.

    Returns (outcomes, detected) where ``outcomes`` has shape
    (n_shots, n_partial_measurements), rows in the order of ``uniforms``.
    """
    seqs = seq if isinstance(seq, tuple) else (seq,)
    programs = [compile_sequence(s, cfg) for s in seqs]
    shapes = [[(op.event is None, op.effect) for op in ops] for ops in programs]
    if not seqs or any(shape != shapes[0] for shape in shapes):
        raise StructuralError("stacked sequences must share one step structure")
    if initials is not None:
        if not initials:
            raise StructuralError("need at least one initial state")
        programs = [(_prepare_op(s),) + ops[1:] for s in initials for ops in programs]
    if measurement is not None:  # every partial measurement at one other strength
        programs = [tuple(measurement if op.effect == ESCAPE else op for op in ops) for ops in programs]
    # compiled maps are cached, so a shared op is one object (ops compare by identity)
    steps = [ops[:1] if ops.count(ops[0]) == len(ops) else ops for ops in zip(*programs)]
    if uniforms.shape[1] != sum(ops[0].event is not None for ops in steps):
        raise StructuralError("uniform draw layout out of sync with the sequence")
    if uniforms.shape[0] % len(programs):
        raise StructuralError("uniform rows do not split evenly over the stacked sequences")
    # class 1 + m starts the shots of member m
    member = np.arange(-1, len(programs)).clip(0)
    r = np.tile(_UNIT_TRACE, (len(member), 1))
    shot_class = np.arange(1, len(member)).repeat(uniforms.shape[0] // len(programs))
    detected = np.zeros(len(shot_class), dtype=bool)
    outcomes = []
    draws = iter(uniforms.T)
    for ops in steps:
        if ops[0].event is None:
            r = _apply(r, member, ops, lambda op: op.no_event.T)
            continue
        r[0] = _UNIT_TRACE
        prob = _apply(r, member, ops, lambda op: op.event[0])
        prob[0] = 0.0
        event = next(draws) < prob[shot_class]
        if ops[0].effect == CLICK:  # compile puts the readout last
            detected = event
            continue
        # a certain event leaves no shot in the no-event branch, whose trace
        # is then 0 or roundoff: the class takes the unit trace instead
        stay = _apply(r, member, ops, lambda op: op.no_event.T)
        stay[~((prob < 1.0) & (stay[:, 0] > 0.0))] = _UNIT_TRACE
        hit = event.nonzero()[0]
        if ops[0].effect == ESCAPE:
            outcomes.append(event)
            shot_class[hit] = 0
        else:
            # each class a shot left gets one new class, numbered in order
            left = shot_class[hit]
            moved = np.zeros(len(r), dtype=np.intp)
            moved[left] = 1
            sources = moved.nonzero()[0]
            shot_class[hit] = len(r) - 1 + moved.cumsum()[left]
            jumped = _apply(r[sources], member[sources], ops, lambda op: op.event.T)
            stay = np.concatenate((stay, jumped))
            member = np.concatenate((member, member[sources]))
        r = stay / stay[:, :1]
    # a (shots, measurements) view of a (measurements, shots) stack: rows are contiguous
    outcome_matrix = np.stack(outcomes).T if outcomes else np.zeros((len(detected), 0), dtype=bool)
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
        outcomes=tuple(bool(v) for v in outcomes[0]),
        final_detected=bool(detected[0]),
    )


def estimate_probabilities(
    cfg: ExperimentConfig,
    n_shots: int,
    seed: int,
    kind: str = "uncollapse",
    stream_base: int = 0,
    initials=None,
    p_grid=None,
):
    """The TomographyRecord estimated from ``n_shots`` per setting.

    A detection at any point of a shot counts toward that setting's
    probability, matching what a threshold detector reports; the background
    is estimated from pre-analysis detections pooled over the three
    settings.  One array pass turns the counts into every record's
    (P_X, P_Y, P_Z, P_B) and standard errors sqrt(P(1-P)/n), n being
    ``3 * n_shots`` for P_B.  With ``initials`` (k PureStates; ``cfg.initial``
    alone without them) and ``p_grid`` (strengths; ``cfg.p`` alone without),
    record ``r*k + i`` is initial i at ``cfg.at_strength(p_grid[r])``, whose
    setting j draws stream ``stream_base + 3*k*r + 3*i + j``.  The result is
    the tuple of records, or its one record when both are None.  The three
    settings are built and compiled once, at ``cfg``, and one
    :func:`measurement_maps` call gives every strength's measurement op,
    ``cfg.p``'s alone included.  Each pass of at most ``_SHOT_CHUNK`` shots
    per stream samples one row's 3k members as one stack, one
    ``_shot_uniforms`` buffer (a column slice of it) and one ``_run_batch``
    call, with the same result for any chunk size.
    """
    if n_shots < 1:
        raise DomainError("need at least one shot per setting")
    base = build_sequence(kind, cfg)
    seqs = tuple(with_tomography(base, s, cfg.timing) for s in TOMO_SETTINGS)
    members = len(seqs) * (1 if initials is None else len(initials))
    n_draws = _draw_count(seqs[0], cfg)
    grid = [cfg.p] if p_grid is None else p_grid
    rows = [TransferOp(*maps, ESCAPE) for maps in zip(*measurement_maps(*cfg.grid_measurements(grid)))]
    clicks, escapes = np.zeros((2, len(rows), members), dtype=np.intp)
    for r, measurement in enumerate(rows):
        streams = tuple(range(stream_base + members * r, stream_base + members * (r + 1)))
        for start in range(0, n_shots, _SHOT_CHUNK):
            count = min(_SHOT_CHUNK, n_shots - start)
            uniforms = _shot_uniforms(seed, streams, start, count, n_draws)
            outcomes, detected = _run_batch(seqs, cfg, uniforms, initials, measurement)
            escaped = outcomes.any(axis=1)
            clicks[r] += np.count_nonzero((escaped | detected).reshape(members, count), axis=1)
            escapes[r] += np.count_nonzero(escaped.reshape(members, count), axis=1)
            # freed before the next pass draws: a fill beside a live buffer is slower
            del uniforms, outcomes, detected, escaped
    # counts and shots stay below 2**53, so each quotient is the Python ints' quotient
    n = np.array([1.0, 1.0, 1.0, 3.0]) * float(n_shots)
    rates = np.column_stack((clicks.reshape(-1, 3), escapes.reshape(-1, 3).sum(axis=1))) / n
    errors = np.sqrt(rates * (1.0 - rates) / n)
    records = tuple(TomographyRecord(*rate, shots=n_shots, stderr=tuple(err[:3]), stderr_b=err[3])
                    for rate, err in zip(rates.tolist(), errors.tolist()))
    return records[0] if initials is None and p_grid is None else records
