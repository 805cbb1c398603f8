"""Shot sampling: convergence to the exact engine and seeding contract."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from uncollapse import (
    PROBE_STATES,
    DeviceParams,
    DomainError,
    ExperimentConfig,
    PartialMeasurement,
    PulseSequence,
    PulseTiming,
    PureState,
    RotationPulse,
    SequenceStep,
    StructuralError,
    TomographyRecord,
    build_uncollapse,
    default_device,
    estimate_probabilities,
    exact_tomography_record,
    montecarlo_uncollapse_chi,
    exact_uncollapse_chi,
    process_fidelity,
    sample_sequence,
    tomography_rotation,
)
from uncollapse.channels import CLICK, ESCAPE, STAY
from uncollapse.montecarlo import _draw_count, _run_batch, _shot_uniforms
from uncollapse.protocol import (
    PARTIAL_MEASURE,
    PREPARE,
    ROTATE,
    build_sequence,
    compile_sequence,
)
from uncollapse.tomography import TOMO_SETTINGS, exact_tomography_sweep, with_tomography


def _cfg(theta0=np.pi / 2, **kw):
    return ExperimentConfig(initial=PureState(theta0, 0.0), **kw)


def test_zero_strength_never_tunnels_before_analysis():
    cfg = _cfg(p=0.0)
    est = estimate_probabilities(cfg, 500, seed=1, kind="uncollapse")
    assert est.p_b == 0.0


def test_excited_state_at_full_strength_always_tunnels():
    cfg = ExperimentConfig(PureState(np.pi, 0.0), p=1.0)
    est = estimate_probabilities(cfg, 300, seed=2, kind="collapse")
    assert est.p_b == 1.0
    assert est.p_x == est.p_y == est.p_z == 1.0


def test_single_shot_probabilities_are_zero_or_one():
    est = estimate_probabilities(_cfg(p=0.4), 1, seed=3, kind="uncollapse")
    for value in (est.p_x, est.p_y, est.p_z):
        assert value in (0.0, 1.0)


def test_same_seed_is_bit_identical():
    a = estimate_probabilities(_cfg(p=0.35), 2000, seed=77, kind="uncollapse")
    b = estimate_probabilities(_cfg(p=0.35), 2000, seed=77, kind="uncollapse")
    assert a == b


@pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
def test_partitioning_shots_does_not_change_outcomes(seed):
    # the per-shot counter blocks make any worker split reassemble exactly
    cfg = _cfg(p=0.3)
    seq = with_tomography(build_uncollapse(cfg), "x", cfg.timing)
    n_draws = _draw_count(seq, cfg)
    full = _shot_uniforms(seed, 0, 0, 1000, n_draws)
    split = np.vstack(
        [_shot_uniforms(seed, 0, 0, 400, n_draws), _shot_uniforms(seed, 0, 400, 600, n_draws)]
    )
    assert np.array_equal(full, split)
    out_full = _run_batch(seq, cfg, full)
    out_split = _run_batch(seq, cfg, split)
    assert np.array_equal(out_full[0], out_split[0])
    assert np.array_equal(out_full[1], out_split[1])


def _dense_run_batch(seq, cfg, uniforms):
    """The per-shot kernel the branch-class kernel replaced, kept as the
    reference: every shot carries its own Pauli vector."""
    outcome_matrix, detected, _ = _dense_run(compile_sequence(seq, cfg), uniforms)
    return outcome_matrix, detected


def _dense_run(ops, uniforms):
    """:func:`_dense_run_batch` on compiled ``ops``, plus one flag array per
    stochastic operation: the shots still in the well that take its event."""
    n = uniforms.shape[0]
    r = np.zeros((n, 4))
    r[:, 0] = 1.0
    alive = np.ones(n, dtype=bool)
    detected = np.zeros(n, dtype=bool)
    outcomes, taken = [], []
    draws = iter(uniforms.T)
    for op in ops:
        if op.event is None:
            r = r @ op.no_event.T
            continue
        event = next(draws) < r @ op.event[0]
        taken.append(alive & event)
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
    return outcome_matrix, detected, taken


def _assert_same_decisions(seqs, cfg, uniforms):
    # the call, with one sequence or a stack, against the reference run
    # member by member on its rows
    got = _run_batch(seqs, cfg, uniforms)
    members = seqs if isinstance(seqs, tuple) else (seqs,)
    rows = np.split(uniforms, len(members))
    want = [_dense_run_batch(seq, cfg, part) for seq, part in zip(members, rows)]
    assert np.array_equal(got[0], np.vstack([w[0] for w in want]))
    assert np.array_equal(got[1], np.concatenate([w[1] for w in want]))


def _random_config(rng, i):
    # strengths 0 and 1 on 12 of the 60 configs, decoherence on half
    p = {0: 0.0, 1: 1.0, 2: 0.0, 3: 1.0}.get(i % 10, rng.uniform(0.0, 1.0))
    return ExperimentConfig(
        PureState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
        p=p,
        decoherence_enabled=i % 4 >= 2,
        use_echo_t2=bool(rng.integers(2)),
        pi_fraction=rng.choice([1.0, rng.uniform(0.8, 1.1)]),
        device=default_device(rng.choice([1.0, rng.uniform(0.5, 1.0)])),
        phi_m_rate=rng.uniform(0.0, 20.0),
        p_error_fraction=rng.choice([0.0, rng.uniform(-0.1, 0.1)]),
        timing=PulseTiming(idle_ns=rng.uniform(0, 30), tomography_ns=rng.uniform(0, 15)),
    )


@pytest.mark.parametrize("stacked", [False, True, "probes"])
def test_class_kernel_takes_every_decision_of_the_per_shot_kernel(stacked):
    # 60 random configs x collapse/uncollapse x x/y/z x 4,000 shots, as one
    # call per setting, one stacked call per sequence kind, or ("probes") one
    # call per kind that stacks the 4 qpt probes x 3 settings, as a qpt row
    rng = np.random.default_rng(2010)
    for i in range(60):
        cfg = _random_config(rng, i)
        probes = PROBE_STATES if stacked == "probes" else (cfg.initial,)
        for kind in ("collapse", "uncollapse"):
            bases = [build_sequence(kind, replace(cfg, initial=probe)) for probe in probes]
            seqs = tuple(with_tomography(b, s, cfg.timing) for b in bases for s in TOMO_SETTINGS)
            n_draws = _draw_count(seqs[0], cfg)
            streams = tuple(int(j) for j in rng.integers(0, 2**63, len(seqs)))
            uniforms = _shot_uniforms(i, streams, 0, 4000, n_draws)
            if stacked:
                _assert_same_decisions(seqs, cfg, uniforms)
            else:
                for seq, rows in zip(seqs, np.split(uniforms, 3)):
                    _assert_same_decisions(seq, cfg, rows)


def _settings(cfg, kind="uncollapse"):
    base = build_sequence(kind, cfg)
    return tuple(with_tomography(base, s, cfg.timing) for s in TOMO_SETTINGS)


def _exact_events(ops):
    # a shot in the well takes the event of a stochastic operation with
    # probability (A1 r)[0] of the unnormalized in-well r the operations
    # before it leave
    r = np.array([1.0, 0.0, 0.0, 0.0])
    events = []
    for op in ops:
        if op.event is not None:
            events.append((op.event @ r)[0])
        r = op.in_well @ r
    return np.array(events)


def _exact_escapes(seq, cfg):
    ops = compile_sequence(seq, cfg)
    return _exact_events(ops)[[op.effect == ESCAPE for op in ops if op.event is not None]]


@pytest.mark.parametrize("probes", [False, True])
def test_escapes_at_each_measurement_match_the_exact_engine(probes):
    # every escape column of the class kernel, 20 random configs x
    # collapse/uncollapse x 4,000 shots a member, within 5 sigma of its exact
    # probability; with probes, as the 12-member stack of a qpt row.  Totals
    # alone would pass escapes booked to the wrong measurement.
    rng = np.random.default_rng(2011)
    n = 4000
    for i in range(20):
        cfg = _random_config(rng, i)
        initials = PROBE_STATES if probes else None
        for kind in ("collapse", "uncollapse"):
            settings = _settings(cfg, kind)
            streams = tuple(range(len(settings) * len(initials or (cfg.initial,))))
            uniforms = _shot_uniforms(i, streams, 0, n, _draw_count(settings[0], cfg))
            outcomes, _ = _run_batch(settings, cfg, uniforms, initials)
            members = [
                seq
                for probe in initials or (cfg.initial,)
                for seq in _settings(replace(cfg, initial=probe), kind)
            ]
            for seq, rows in zip(members, np.split(outcomes, len(members)), strict=True):
                exact = _exact_escapes(seq, cfg)
                assert rows.shape[1] == len(exact) == (2 if kind == "uncollapse" else 1)
                sigma = np.sqrt(np.clip(exact * (1.0 - exact), 0.0, None) / n)
                assert np.all(np.abs(rows.mean(axis=0) - exact) <= 5.0 * sigma + 1e-12), (i, kind)


# the one-sided tail of a normal deviation beyond 5 sigma
_FIVE_SIGMA_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))


def _binomial_tail(count, n, p):
    # P(X >= count) for a count above n p, else P(X <= count), with X ~
    # binomial(n, p): the exact law of an event count over n independent
    # shots, which the normal approximation misses at a few expected events
    if not 0.0 < p < 1.0:
        return float(count == (0 if p <= 0.0 else n))
    k = np.arange(n + 1)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    log_choose = log_factorial[n] - log_factorial - log_factorial[::-1]
    log_pmf = log_choose + k * np.log(p) + (n - k) * np.log1p(-p)
    return float(np.exp(log_pmf[k >= count if count > n * p else k <= count]).sum())


def _event_tails(ops, run_ops, uniforms):
    # each stochastic op's count of in-well shots that take its event, run
    # through ``run_ops`` by the per-shot reference, as the binomial tail of
    # that count at the op's exact fraction
    counts = [int(flags.sum()) for flags in _dense_run(run_ops, uniforms)[2]]
    return np.array([_binomial_tail(c, len(uniforms), p) for c, p in zip(counts, _exact_events(ops))])


def _decohered_settings(rng, i, kind):
    cfg = replace(_random_config(rng, i), decoherence_enabled=True)
    return cfg, [compile_sequence(seq, cfg) for seq in _settings(cfg, kind)]


def test_every_event_of_the_per_shot_kernel_matches_the_exact_engine():
    # every stochastic op (measurement, relaxation jump, dephasing flip,
    # readout) of 12 random decohered configs x collapse/uncollapse x x/y/z,
    # 4,000 shots each: its event count no further out than a 5 sigma normal
    # deviation is likely to be.  The decision tests tie _run_batch to this
    # reference shot by shot.
    rng = np.random.default_rng(2030)
    effects = set()
    for i in range(12):
        for kind in ("collapse", "uncollapse"):
            cfg, programs = _decohered_settings(rng, i, kind)
            for stream, ops in enumerate(programs):
                uniforms = _shot_uniforms(i, stream, 0, 4000, sum(op.event is not None for op in ops))
                assert _event_tails(ops, ops, uniforms).min() >= _FIVE_SIGMA_TAIL, (i, kind)
                effects.update(op.effect for op in ops if op.event is not None)
    assert effects == {ESCAPE, STAY, CLICK}


def _swap_jump_and_flip_events(ops):
    # decoherence_ops puts each step's jump right before its flip
    swapped = list(ops)
    decohered = [k for k, op in enumerate(ops) if op.event is not None and op.effect == STAY]
    for jump, flip in zip(decohered[::2], decohered[1::2]):
        swapped[jump] = replace(ops[jump], event=ops[flip].event)
        swapped[flip] = replace(ops[flip], event=ops[jump].event)
    return swapped


def test_the_event_check_sees_jump_and_flip_events_swapped():
    cfg = _cfg(p=0.4, decoherence_enabled=True)
    ops = compile_sequence(_settings(cfg)[0], cfg)
    uniforms = _shot_uniforms(4, 0, 0, 20_000, sum(op.event is not None for op in ops))
    assert _event_tails(ops, ops, uniforms).min() >= _FIVE_SIGMA_TAIL
    assert _event_tails(ops, _swap_jump_and_flip_events(ops), uniforms).min() < _FIVE_SIGMA_TAIL


def test_class_kernel_keeps_escape_flags_past_64_measurements():
    # 72 weak measurements: a fixed-width history of escape flags would wrap
    cfg = _cfg(p=0.02, decoherence_enabled=True)
    measure = SequenceStep(PARTIAL_MEASURE, 3.0, PartialMeasurement(0.02, 0.3))
    turn = SequenceStep(ROTATE, 5.0, RotationPulse.about_x(0.4))
    base = PulseSequence((SequenceStep(PREPARE, 10.0, cfg.initial),) + (measure, turn) * 72)
    seqs = tuple(with_tomography(base, s, cfg.timing) for s in TOMO_SETTINGS)
    uniforms = _shot_uniforms(70, (0, 1, 2), 0, 2000, _draw_count(seqs[0], cfg))
    outcomes, _ = _run_batch(seqs, cfg, uniforms)
    assert outcomes.shape == (6000, 72)
    assert outcomes[:, 64:].any()
    _assert_same_decisions(seqs, cfg, uniforms)
    _assert_same_decisions(seqs[0], cfg, uniforms[:2000])


def _assert_probe_stack_decides_as_its_members(settings, cfg, uniforms):
    # member 3 i + j of the stack is setting j with probe i as its prepared state
    members = tuple(
        PulseSequence((replace(seq.steps[0], payload=probe),) + seq.steps[1:])
        for probe in PROBE_STATES
        for seq in settings
    )
    got = _run_batch(settings, cfg, uniforms, PROBE_STATES)
    want = _run_batch(members, cfg, uniforms)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    _assert_same_decisions(members, cfg, uniforms)


@pytest.mark.parametrize("decoherence", [False, True])
def test_initials_stack_equals_the_stack_of_its_member_sequences(decoherence):
    cfg = _cfg(p=0.47, decoherence_enabled=decoherence)
    settings = _settings(cfg)
    uniforms = _shot_uniforms(3, tuple(range(12)), 0, 500, _draw_count(settings[0], cfg))
    _assert_probe_stack_decides_as_its_members(settings, cfg, uniforms)


def test_initials_stack_checks_its_shape():
    cfg = _cfg(p=0.47, decoherence_enabled=True)
    settings = _settings(cfg)
    n_draws = _draw_count(settings[0], cfg)
    with pytest.raises(StructuralError):
        _run_batch(settings, cfg, _shot_uniforms(3, (0, 1, 2), 0, 4, n_draws), ())
    # 30 rows split over the 3 settings but not over 4 initials x 3 settings
    uniforms = _shot_uniforms(3, (0, 1, 2), 0, 10, n_draws)
    with pytest.raises(StructuralError):
        _run_batch(settings, cfg, uniforms, PROBE_STATES)
    _run_batch(settings, cfg, uniforms, PROBE_STATES[:1])


# an event of probability exactly 1: a detection at p = 1 on |1>, escaping,
# and a relaxation jump with T1 = 0.01 ns (gamma == 1.0 over a 10 ns step),
# staying, from |1> right after the prepare step and after the pi pulse
_CERTAIN = {
    "escape": ExperimentConfig(PureState(np.pi, 0.0), p=1.0),
    "stay": ExperimentConfig(
        PureState(np.pi, 0.0),
        p=0.3,
        decoherence_enabled=True,
        use_echo_t2=False,
        device=DeviceParams(t1_ns=0.01, t2_echo_ns=0.02, t2_ramsey_ns=0.01),
    ),
}


@pytest.mark.parametrize("case", sorted(_CERTAIN))
def test_certain_events_take_every_decision_of_the_per_shot_kernel(case):
    cfg = _CERTAIN[case]
    # the first stochastic operation, on the prepared |1>, is certain
    ops = compile_sequence(build_uncollapse(cfg), cfg)
    first = next(op for op in ops if op.event is not None)
    assert first.effect == (ESCAPE if case == "escape" else STAY)
    assert first.event[0] @ ops[0].no_event[:, 0] == 1.0
    settings = _settings(cfg)
    n_draws = _draw_count(settings[0], cfg)
    for seq in settings:
        _assert_same_decisions(seq, cfg, _shot_uniforms(11, 0, 0, 300, n_draws))
    uniforms = _shot_uniforms(11, tuple(range(12)), 0, 300, n_draws)
    _assert_probe_stack_decides_as_its_members(settings, cfg, uniforms)


@pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
def test_stacked_streams_equal_the_per_stream_rows(seed):
    for streams in ((0, 1, 2), (65,), (2**64 - 1, 7, 2**64 - 1)):
        for shot_start, n_shots, n_draws in ((0, 5, 15), (10**6, 3, 4), (2**64 - 4, 4, 1), (0, 0, 3)):
            got = _shot_uniforms(seed, streams, shot_start, n_shots, n_draws)
            want = [_shot_uniforms(seed, j, shot_start, n_shots, n_draws) for j in streams]
            assert np.array_equal(got, np.vstack(want))


def test_chunked_estimates_are_bit_identical(monkeypatch):
    import uncollapse.montecarlo as montecarlo

    cfg = _cfg(p=0.3, decoherence_enabled=True)
    whole = estimate_probabilities(cfg, 50, seed=9, stream_base=6)
    passes = []
    shot_uniforms = montecarlo._shot_uniforms
    monkeypatch.setattr(montecarlo, "_SHOT_CHUNK", 7)
    monkeypatch.setattr(
        montecarlo, "_shot_uniforms", lambda *a: passes.append(a[1:4]) or shot_uniforms(*a)
    )
    assert estimate_probabilities(cfg, 50, seed=9, stream_base=6) == whole
    # each pass samples the three settings' streams as one stack
    assert passes == [((6, 7, 8), start, 7) for start in range(0, 49, 7)] + [((6, 7, 8), 49, 1)]


def _reference_estimate(clicks: list, escape_total: int, n_shots: int) -> TomographyRecord:
    # the reference: one initial's counts turned into its record in Python ints and floats
    probs = {setting: hits / n_shots for setting, hits in zip(TOMO_SETTINGS, clicks)}
    errors = {setting: float(np.sqrt(p * (1.0 - p) / n_shots)) for setting, p in probs.items()}
    pooled = 3 * n_shots
    p_b = escape_total / pooled
    return TomographyRecord(
        p_x=probs["x"],
        p_y=probs["y"],
        p_z=probs["z"],
        p_b=p_b,
        shots=n_shots,
        stderr=(errors["x"], errors["y"], errors["z"]),
        stderr_b=float(np.sqrt(p_b * (1.0 - p_b) / pooled)),
    )


@pytest.mark.parametrize("n_shots", [1, 300, 2049])
@pytest.mark.parametrize("initials", [None, PROBE_STATES])
def test_estimate_reduces_its_counts_as_the_per_initial_reference(initials, n_shots):
    # the counts come from one unchunked kernel call; 2,049 shots take two passes
    rng = np.random.default_rng(n_shots)
    for i in range(2, 7):
        cfg, kind = _random_config(rng, i), ("collapse", "uncollapse")[i % 2]
        seqs = _settings(cfg, kind)
        members = 3 * (1 if initials is None else len(initials))
        streams = tuple(range(5, 5 + members))
        uniforms = _shot_uniforms(17, streams, 0, n_shots, _draw_count(seqs[0], cfg))
        outcomes, detected = _run_batch(seqs, cfg, uniforms, initials)
        escaped = outcomes.any(axis=1).reshape(-1, 3, n_shots)
        clicked = (escaped | detected.reshape(-1, 3, n_shots)).sum(axis=2)
        want = [_reference_estimate(hits, pooled, n_shots)
                for hits, pooled in zip(clicked.tolist(), escaped.sum(axis=(1, 2)).tolist())]
        got = estimate_probabilities(cfg, n_shots, 17, kind, stream_base=5, initials=initials)
        got = [got] if initials is None else list(got)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert [getattr(g, f.name) for f in fields(g)] == [getattr(w, f.name) for f in fields(w)]


@pytest.mark.parametrize("n_shots", [300, 2049])
@pytest.mark.parametrize("visibility", [1.0, 0.9])
@pytest.mark.parametrize("decoherence", [False, True])
@pytest.mark.parametrize("kind", ["collapse", "uncollapse"])
def test_a_one_initial_stack_equals_the_unstacked_call(kind, decoherence, visibility, n_shots):
    # a CLI sweep runs its one initial as a stack of one in either engine;
    # 2,049 shots take two passes
    rng = np.random.default_rng([n_shots, decoherence, int(10 * visibility), len(kind)])
    cfg = ExperimentConfig(
        PureState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
        p=rng.uniform(0.0, 0.95),
        decoherence_enabled=decoherence,
        use_echo_t2=bool(rng.integers(2)),
        pi_fraction=rng.uniform(0.8, 1.1),
        device=default_device(visibility),
        phi_m_rate=rng.uniform(0.0, 20.0),
    )
    seed = int(rng.integers(2**63))
    [stacked] = estimate_probabilities(cfg, n_shots, seed, kind, 3, initials=(cfg.initial,))
    assert stacked == estimate_probabilities(cfg, n_shots, seed, kind, 3)
    grid = np.sort(rng.uniform(0.0, 0.95, 6))
    table, p_success = exact_tomography_sweep(cfg, grid, kind, (cfg.initial,))
    want_table, want_success = exact_tomography_sweep(cfg, grid, kind, initials=None)
    assert (table == want_table).all() and (p_success == want_success).all()


def test_estimate_compiles_each_setting_once(monkeypatch):
    import uncollapse.montecarlo as montecarlo

    monkeypatch.setattr(montecarlo, "_SHOT_CHUNK", 7)
    compile_sequence.cache_clear()
    estimate_probabilities(_cfg(p=0.3, decoherence_enabled=True), 15, seed=9)
    # three passes of the three settings, one compile per setting
    assert compile_sequence.cache_info().misses == 3


def _one_estimate_per_strength(cfg, shots, seed, kind, base, initials, grid):
    # the reference: row r as its own estimate at stream base base + 3 k r
    k = 1 if initials is None else len(initials)
    rows = [estimate_probabilities(cfg.at_strength(p), shots, seed, kind, base + 3 * k * r, initials)
            for r, p in enumerate(grid)]
    return tuple(t for row in rows for t in ((row,) if initials is None else row))


# (decoherence, kind, initials, shots, p_error_fraction, visibility); at a
# bias of 0.05 the grid's 0.96 realizes strength 1, a certain escape
_GRID_CASES = [
    (False, "collapse", None, 1, 0.0, 1.0),
    (False, "uncollapse", None, 2047, 0.05, 0.9),
    (True, "collapse", None, 4500, 0.0, 1.0),
    (True, "uncollapse", None, 1, 0.05, 1.0),
    (False, "collapse", "own", 2049, 0.05, 1.0),
    (False, "uncollapse", "own", 4500, 0.0, 0.9),
    (True, "collapse", "own", 1, 0.05, 0.9),
    (True, "uncollapse", "own", 2047, 0.0, 1.0),
    (False, "collapse", PROBE_STATES, 2047, 0.0, 1.0),
    (False, "uncollapse", PROBE_STATES, 1, 0.05, 1.0),
    (True, "collapse", PROBE_STATES, 2049, 0.05, 1.0),
    (True, "uncollapse", PROBE_STATES, 4500, 0.05, 0.9),
]


@pytest.mark.parametrize("case", range(len(_GRID_CASES)))
def test_one_estimate_over_a_grid_equals_one_estimate_per_strength(case):
    decoherence, kind, initials, shots, bias, visibility = _GRID_CASES[case]
    rng = np.random.default_rng(case)
    cfg = ExperimentConfig(PureState(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)),
                           p=0.0, decoherence_enabled=decoherence, p_error_fraction=bias,
                           device=replace(default_device(), visibility=visibility))
    initials = (cfg.initial,) if initials == "own" else initials
    grid = [0.0, round(rng.uniform(0.05, 0.9), 4), 0.96]
    seed, base = int(rng.integers(2**63)), int(rng.integers(100))
    got = estimate_probabilities(cfg, shots, seed, kind, base, initials, grid)
    assert got == _one_estimate_per_strength(cfg, shots, seed, kind, base, initials, grid)
    assert (cfg.grid_measurements(grid)[0][-1] == 1.0) == (bias > 0.0)


def _own_measurement_estimate(cfg, shots, seed, kind, base, initials):
    # the reference: one unchunked pass in which every program keeps its own
    # compiled measurement (no measurement op handed to _run_batch), reduced
    # as the per-initial reference reduces
    seqs = _settings(cfg, kind)
    streams = tuple(range(base, base + 3 * (1 if initials is None else len(initials))))
    uniforms = _shot_uniforms(seed, streams, 0, shots, _draw_count(seqs[0], cfg))
    outcomes, detected = _run_batch(seqs, cfg, uniforms, initials, None)
    escaped = outcomes.any(axis=1).reshape(-1, 3, shots)
    clicked = (escaped | detected.reshape(-1, 3, shots)).sum(axis=2)
    records = tuple(_reference_estimate(hits, pooled, shots)
                    for hits, pooled in zip(clicked.tolist(), escaped.sum(axis=(1, 2)).tolist()))
    return records[0] if initials is None else records


# (decoherence, kind, initials, shots, p, p_error_fraction, phase model); at
# a bias of 0.05 the strength 0.96 realizes 1, a certain escape
_ONE_STRENGTH_CASES = [
    (False, "collapse", None, 1, 0.3, 0.0, None),
    (True, "uncollapse", None, 2047, 0.96, 0.05, None),
    (False, "collapse", None, 2049, 0.55, 0.0, np.sin),
    (True, "uncollapse", None, 4500, 0.7, -0.05, None),
    (True, "uncollapse", PROBE_STATES, 1, 0.47, 0.0, np.cos),
    (False, "collapse", PROBE_STATES, 2047, 0.96, 0.05, None),
    (True, "uncollapse", PROBE_STATES, 2049, 0.2, 0.05, None),
    (False, "collapse", PROBE_STATES, 4500, 0.8, 0.05, np.sin),
]


@pytest.mark.parametrize("case", range(len(_ONE_STRENGTH_CASES)))
def test_a_one_strength_estimate_is_its_grid_of_one_and_the_own_measurement_run(case):
    decoherence, kind, initials, shots, p, bias, model = _ONE_STRENGTH_CASES[case]
    rng = np.random.default_rng([30, case])
    cfg = ExperimentConfig(PureState(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)), p=p,
                           decoherence_enabled=decoherence, p_error_fraction=bias, phi_m_model=model,
                           device=replace(default_device(), visibility=rng.uniform(0.6, 1.0)))
    seed, base = int(rng.integers(2**63)), int(rng.integers(100))
    got = estimate_probabilities(cfg, shots, seed, kind, base, initials)
    grid = estimate_probabilities(cfg, shots, seed, kind, base, initials, [p])
    assert (got if initials else (got,)) == grid
    assert got == _own_measurement_estimate(cfg, shots, seed, kind, base, initials)
    assert (cfg.measurement().p == 1.0) == (p == 0.96)


def test_a_grid_strength_whose_model_phase_is_not_finite_fails_as_it_fails_alone():
    from uncollapse.protocol import fold

    cfg = _cfg(p=0.0, phi_m_model=lambda p: np.inf if p > 0.5 else 0.0)
    with pytest.raises(DomainError) as alone:
        estimate_probabilities(cfg.at_strength(0.7), 5, seed=1, kind="collapse")
    for run in (lambda: estimate_probabilities(cfg, 5, 1, "collapse", 0, None, [0.2, 0.7]),
                lambda: fold(build_sequence("collapse", cfg), cfg, None, [0.2, 0.7])):
        with pytest.raises(DomainError) as grid:
            run()
        assert str(grid.value) == str(alone.value) == "measurement phase must be finite, got inf"


@pytest.mark.parametrize("decoherence", [False, True])
def test_the_settings_of_an_estimate_share_every_op_but_the_analysis_pulse(monkeypatch,
                                                                           decoherence):
    # _run_batch runs an op once for the whole stack only when every
    # setting's program holds that very object at that position
    import uncollapse.montecarlo as montecarlo

    calls, run = [], montecarlo._run_batch
    monkeypatch.setattr(montecarlo, "_run_batch",
                        lambda seqs, *a: calls.append(seqs) or run(seqs, *a))
    cfg = _cfg(p=0.3, decoherence_enabled=decoherence)
    estimate_probabilities(cfg, 5, seed=9, initials=PROBE_STATES)
    [seqs] = calls
    programs = [compile_sequence(seq, cfg) for seq in seqs]
    differing = [ops for ops in zip(*programs, strict=True) if any(op is not ops[0] for op in ops)]
    assert differing == [tuple(tomography_rotation(s).transfer() for s in TOMO_SETTINGS)]


def _numpy_shot(seed, stream, shot, n_draws):
    # shot k of stream j as its own numpy Philox4x64-10 generator: with B
    # blocks per shot, counter words (k*B mod 2**64, k*B >> 64, j, 0); numpy
    # turns a list counter holding a word >= 2**63 into floats, so the
    # 256-bit counter is passed as one integer
    n_blocks = -(-n_draws // 4)
    bits = Philox(key=seed, counter=shot * n_blocks + (stream << 128))
    return Generator(bits).random(4 * n_blocks)[:n_draws]


@pytest.mark.parametrize("stream", [0, 65])
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1, 2**64 + 5, 2**128 - 1])
def test_shot_uniforms_match_numpy_philox_streams(seed, stream):
    # the reference is numpy's own Philox4x64-10, one generator per shot
    for shot_start in (0, 10**6):
        for n_shots in (1, 257):
            for n_draws in (0, 1, 3, 4, 5, 15, 16):
                got = _shot_uniforms(seed, stream, shot_start, n_shots, n_draws)
                assert got.shape == (n_shots, n_draws)
                assert got.dtype == np.float64
                for i in sorted({0, 1, 128, n_shots - 1} & set(range(n_shots))):
                    want = _numpy_shot(seed, stream, shot_start + i, n_draws)
                    assert np.array_equal(got[i], want), (shot_start, n_shots, n_draws, i)


@pytest.mark.parametrize("seed", [0, 12345, 2**64 + 5, 2**128 - 1])
def test_shot_uniforms_are_the_philox_raw_words(seed):
    # numpy keeps bit-generator streams stable (NEP 19) but not the doubles
    # Generator.random makes of them: layout v2 is pinned to the raw words,
    # each word w read as (w >> 11) * 2**-53
    n_shots = 3
    for streams in (0, 7, 2**64 - 1, (7, 0, 2**64 - 1)):
        for shot_start in (0, 5, 2**40 + 3):
            for n_draws in (1, 3, 4, 15, 16, 17):
                n_blocks = -(-n_draws // 4)
                want = []
                for stream in streams if isinstance(streams, tuple) else (streams,):
                    bits = Philox(key=seed, counter=shot_start * n_blocks + (stream << 128))
                    words = bits.random_raw(n_shots * 4 * n_blocks)
                    want.append(((words >> 11) * 2**-53).reshape(n_shots, 4 * n_blocks))
                got = _shot_uniforms(seed, streams, shot_start, n_shots, n_draws)
                assert np.array_equal(got, np.vstack(want)[:, :n_draws])


def test_shot_uniforms_just_inside_every_limit():
    # the largest seed, stream and shot index, where the first block k*B of
    # a shot carries into counter word 1; and a shot whose two blocks
    # straddle word 0's wrap, 2**64 - 1 then 2**64
    seed, stream = 2**128 - 1, 2**64 - 1
    for first in (2**64 - 2, 2**63 - 1):
        got = _shot_uniforms(seed, stream, first, 2, 5)
        for i in range(2):
            assert np.array_equal(got[i], _numpy_shot(seed, stream, first + i, 5))


# Independence of streams, checked from outside the layout: the checks read
# only the rows _shot_uniforms returns, so they hold for any counter scheme.
_N_INDEPENDENT = 100_000


def _shared_rows(*blocks):
    """The rows, compared as bytes, that occur in more than one block."""
    owners = {}
    for index, block in enumerate(blocks):
        for row in block:
            owners.setdefault(row.tobytes(), set()).add(index)
    return [row for row, found in owners.items() if len(found) > 1]


def _correlation_sigmas(a, b):
    """|Pearson correlation| of paired values, in units of sigma = 1/sqrt(N)."""
    a, b = np.ravel(a).astype(float), np.ravel(b).astype(float)
    return abs(np.corrcoef(a, b)[0, 1]) * np.sqrt(a.size)


def _clicks(uniforms):
    """Each shot's click indicator in one setting of a sampled estimate,
    about half of them set."""
    cfg = _cfg(theta0=1.2, p=0.1)
    outcomes, detected = _run_batch(with_tomography(build_uncollapse(cfg), "y", cfg.timing), cfg,
                                    uniforms)
    return outcomes.any(axis=1) | detected


def test_no_two_seed_and_stream_pairs_share_a_row():
    seeds = [0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**128 - 1]
    streams = [0, 1, 2**64 - 1]
    # a window at the first shot and one that ends at the last; five draws
    # take two blocks a shot, so the last window carries into counter word 1
    blocks = [np.vstack([_shot_uniforms(seed, stream, start, 32, 5) for start in (0, 2**64 - 32)])
              for seed in seeds for stream in streams]
    assert _shared_rows(*blocks) == []


@pytest.mark.parametrize(
    "first, second",
    [
        ((12345, 0), (12346, 0)),
        ((12345, 0), (12345 + 2**64, 0)),
        ((12345, 0), (12345, 1)),
        ((2**64 - 1, 2**64 - 2), (2**64, 2**64 - 2)),
        ((2**64 - 1, 2**64 - 2), (2**65 - 1, 2**64 - 2)),
        ((2**64 - 1, 2**64 - 2), (2**64 - 1, 2**64 - 1)),
    ],
)
def test_neighbouring_seeds_and_streams_are_uncorrelated(first, second):
    # seeds s and s + 1, s and s + 2**64, streams j and j + 1
    a, b = (_shot_uniforms(seed, stream, 0, _N_INDEPENDENT, 3) for seed, stream in (first, second))
    assert _correlation_sigmas(a, b) < 5.0
    assert _correlation_sigmas(_clicks(a), _clicks(b)) < 5.0


def test_the_stream_checks_see_a_stream_paired_with_itself_or_shifted_by_one_shot():
    rows = _shot_uniforms(12345, 0, 0, _N_INDEPENDENT + 1, 3)
    same, shifted = rows[:-1], rows[1:]
    assert _correlation_sigmas(same, same) > 5.0
    assert _correlation_sigmas(_clicks(same), _clicks(same)) > 5.0
    assert len(_shared_rows(same[:64], same[:64])) == 64
    # shots are independent of one another, so only the shared rows show the shift
    assert len(_shared_rows(same[:64], shifted[:64])) == 63


@pytest.mark.parametrize(
    "args",
    [
        (-1, 0, 0, 1, 3),
        (1, (0, 2**64), 0, 1, 3),
        (1, (-1, 0), 0, 1, 3),
        (2**128, 0, 0, 1, 3),
        (1, -1, 0, 1, 3),
        (1, 2**64, 0, 1, 3),
        (1, 0, -1, 1, 3),
        (1, 0, 2**64 - 1, 2, 3),
        (1, 0, 0, -1, 3),
        (1, 0, 0, 1, -1),
    ],
)
def test_shot_uniforms_reject_out_of_range_counters(args):
    with pytest.raises(DomainError):
        _shot_uniforms(*args)


def test_numpy_integers_draw_the_rows_of_the_python_ints_they_equal():
    # numpy scalars once wrapped in the stream shift, drawing stream 0 for 1
    cfg = _cfg(p=0.45)
    seq = with_tomography(build_uncollapse(cfg), "y", cfg.timing)
    want = [sample_sequence(seq, cfg, 7, stream_index=1, shot_index=k) for k in range(32)]
    for kind in (np.int64, np.uint64):
        got = [sample_sequence(seq, cfg, kind(7), kind(1), kind(k)) for k in range(32)]
        assert [(g.outcomes, g.final_detected) for g in got] == [
            (w.outcomes, w.final_detected) for w in want
        ]
        assert np.array_equal(
            _shot_uniforms(kind(7), kind(1), kind(0), kind(3), kind(5)),
            _shot_uniforms(7, 1, 0, 3, 5),
        )
        # a shot index near 2**63 once overflowed the counter product
        assert np.array_equal(
            _shot_uniforms(kind(2), (kind(0), kind(65)), kind(2**62), kind(4), kind(7)),
            _shot_uniforms(2, (0, 65), 2**62, 4, 7),
        )
    for args in ((7.0, 0, 0, 1, 3), (7, (0, 1.0), 0, 1, 3), (7, 0, 0, 1, 3.0)):
        with pytest.raises(TypeError):
            _shot_uniforms(*args)


def test_single_shot_api_matches_batch_sampling():
    cfg = _cfg(p=0.45)
    seq = with_tomography(build_uncollapse(cfg), "y", cfg.timing)
    uniforms = _shot_uniforms(55, 1, 0, 64, _draw_count(seq, cfg))
    outcomes, detected = _run_batch(seq, cfg, uniforms)
    for i in (0, 13, 63):
        shot = sample_sequence(seq, cfg, seed=55, stream_index=1, shot_index=i)
        assert shot.outcomes == tuple(bool(v) for v in outcomes[i])
        assert shot.final_detected == bool(detected[i])
        assert shot.escaped == bool(outcomes[i].any())


def test_background_rate_converges_to_strength():
    cfg = _cfg(p=0.5)
    est = estimate_probabilities(cfg, 100_000, seed=11, kind="uncollapse")
    stderr = est.stderr_b
    assert abs(est.p_b - 0.5) < 5 * stderr


def test_estimates_converge_to_exact_engine():
    cfg = _cfg(p=0.4)
    est = estimate_probabilities(cfg, 40_000, seed=19, kind="collapse")
    exact, _ = exact_tomography_record(cfg, "collapse")
    for got, want, err in (
        (est.p_x, exact.p_x, est.stderr[0]),
        (est.p_y, exact.p_y, est.stderr[1]),
        (est.p_z, exact.p_z, est.stderr[2]),
        (est.p_b, exact.p_b, est.stderr_b),
    ):
        assert abs(got - want) < 5 * max(err, 1e-4)


def test_decohered_estimates_converge_to_exact_engine():
    # jump/no-jump unraveling shares the exact mode's Kraus decomposition
    cfg = _cfg(p=0.3, decoherence_enabled=True)
    est = estimate_probabilities(cfg, 40_000, seed=23, kind="uncollapse")
    exact, _ = exact_tomography_record(cfg, "uncollapse")
    for got, want, err in (
        (est.p_x, exact.p_x, est.stderr[0]),
        (est.p_y, exact.p_y, est.stderr[1]),
        (est.p_z, exact.p_z, est.stderr[2]),
        (est.p_b, exact.p_b, est.stderr_b),
    ):
        assert abs(got - want) < 5 * max(err, 1e-4)


def test_stderr_formula():
    est = estimate_probabilities(_cfg(p=0.5), 1000, seed=31, kind="uncollapse")
    p_hat = est.p_x
    assert est.stderr[0] == pytest.approx(np.sqrt(p_hat * (1 - p_hat) / 1000))
    assert est.shots == 1000


def test_escaped_shots_feed_background_not_conditional_statistics():
    cfg = _cfg(p=0.6)
    n = 5000
    seq = with_tomography(build_uncollapse(cfg), "z", cfg.timing)
    uniforms = _shot_uniforms(9, 2, 0, n, _draw_count(seq, cfg))
    outcomes, detected = _run_batch(seq, cfg, uniforms)
    escaped = outcomes.any(axis=1)
    # every escaped shot reports a click regardless of the analysis draw
    est = estimate_probabilities(cfg, n, seed=9)
    clicked = escaped | detected
    assert est.p_z == np.count_nonzero(clicked) / n


def test_shot_count_validation():
    with pytest.raises(DomainError):
        estimate_probabilities(_cfg(p=0.1), 0, seed=1)
    with pytest.raises(DomainError):
        estimate_probabilities(_cfg(p=0.1), 10, seed=1, kind="spiral")


def test_process_fidelity_from_sampling_matches_exact():
    cfg = _cfg(p=0.47, decoherence_enabled=True)
    exact_f = process_fidelity(exact_uncollapse_chi(cfg))
    sampled_f = process_fidelity(montecarlo_uncollapse_chi(cfg, 100_000, seed=6))
    assert abs(sampled_f - exact_f) < 0.02
