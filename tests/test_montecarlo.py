"""Shot sampling: convergence to the exact engine and seeding contract."""

import numpy as np
import pytest
from numpy.random import Generator, Philox

from uncollapse import (
    DomainError,
    ExperimentConfig,
    PureState,
    build_uncollapse,
    estimate_probabilities,
    exact_tomography_record,
    montecarlo_uncollapse_chi,
    exact_uncollapse_chi,
    process_fidelity,
    sample_sequence,
)
from uncollapse.montecarlo import _draw_count, _run_batch, _shot_uniforms
from uncollapse.tomography import TOMO_SETTINGS, with_tomography


def _cfg(theta0=np.pi / 2, **kw):
    return ExperimentConfig(initial=PureState(theta0, 0.0), **kw)


def test_zero_strength_never_tunnels_before_analysis():
    cfg = _cfg(p=0.0)
    est = estimate_probabilities(cfg, 500, seed=1, kind="uncollapse")
    assert est.record.p_b == 0.0


def test_excited_state_at_full_strength_always_tunnels():
    cfg = ExperimentConfig(PureState(np.pi, 0.0), p=1.0)
    est = estimate_probabilities(cfg, 300, seed=2, kind="collapse")
    assert est.record.p_b == 1.0
    assert est.record.p_x == est.record.p_y == est.record.p_z == 1.0


def test_single_shot_probabilities_are_zero_or_one():
    est = estimate_probabilities(_cfg(p=0.4), 1, seed=3, kind="uncollapse")
    for value in (est.record.p_x, est.record.p_y, est.record.p_z):
        assert value in (0.0, 1.0)


def test_same_seed_is_bit_identical():
    a = estimate_probabilities(_cfg(p=0.35), 2000, seed=77, kind="uncollapse")
    b = estimate_probabilities(_cfg(p=0.35), 2000, seed=77, kind="uncollapse")
    assert a == b


def test_partitioning_shots_does_not_change_outcomes():
    # the per-shot counter streams make any worker split reassemble exactly
    cfg = _cfg(p=0.3)
    seq = with_tomography(build_uncollapse(cfg), "x", cfg.timing)
    n_draws = _draw_count(seq, cfg)
    full = _shot_uniforms(123, 0, 0, 1000, n_draws)
    split = np.vstack(
        [_shot_uniforms(123, 0, 0, 400, n_draws), _shot_uniforms(123, 0, 400, 600, n_draws)]
    )
    assert np.array_equal(full, split)
    out_full = _run_batch(seq, cfg, full)
    out_split = _run_batch(seq, cfg, split)
    assert np.array_equal(out_full[0], out_split[0])
    assert np.array_equal(out_full[1], out_split[1])


def test_chunked_estimates_are_bit_identical(monkeypatch):
    import uncollapse.montecarlo as montecarlo

    cfg = _cfg(p=0.3, decoherence_enabled=True)
    whole = estimate_probabilities(cfg, 50, seed=9, stream_base=6)
    sizes = []
    shot_uniforms = montecarlo._shot_uniforms
    monkeypatch.setattr(montecarlo, "_SHOT_CHUNK", 7)
    monkeypatch.setattr(
        montecarlo, "_shot_uniforms", lambda *a: sizes.append(a[3]) or shot_uniforms(*a)
    )
    assert estimate_probabilities(cfg, 50, seed=9, stream_base=6) == whole
    assert sizes == 3 * ([7] * 7 + [1])


@pytest.mark.parametrize("stream", [0, 65])
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1, 2**64 + 5, 2**128 - 1])
def test_shot_uniforms_match_numpy_philox_streams(seed, stream):
    # the reference is numpy's own Philox4x64-10 stream, one generator per shot
    for shot_start in (0, 10**6):
        for n_shots in (1, 257):
            for n_draws in (0, 1, 3, 4, 5, 15, 16):
                got = _shot_uniforms(seed, stream, shot_start, n_shots, n_draws)
                assert got.shape == (n_shots, n_draws)
                assert got.dtype == np.float64
                for i in sorted({0, 1, 128, n_shots - 1} & set(range(n_shots))):
                    bits = Philox(key=seed, counter=[0, 0, stream, shot_start + i])
                    want = Generator(bits).random(max(n_draws, 1))[:n_draws]
                    assert np.array_equal(got[i], want), (shot_start, n_shots, n_draws, i)


def test_shot_uniforms_just_inside_every_limit():
    # the largest seed, stream and shot index; numpy turns a list counter
    # holding a word >= 2**63 into floats, so the reference takes the 256-bit
    # counter as one integer: words (0, 0, j, k)
    seed, stream, first = 2**128 - 1, 2**64 - 1, 2**64 - 2
    got = _shot_uniforms(seed, stream, first, 2, 5)
    for i in range(2):
        counter = (stream << 128) | ((first + i) << 192)
        assert np.array_equal(got[i], Generator(Philox(key=seed, counter=counter)).random(5))


@pytest.mark.parametrize(
    "args",
    [
        (-1, 0, 0, 1, 3),
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
    stderr = est.record.stderr_b
    assert abs(est.record.p_b - 0.5) < 5 * stderr


def test_estimates_converge_to_exact_engine():
    cfg = _cfg(p=0.4)
    est = estimate_probabilities(cfg, 40_000, seed=19, kind="collapse")
    exact, _ = exact_tomography_record(cfg, "collapse")
    for got, want, err in (
        (est.record.p_x, exact.p_x, est.record.stderr[0]),
        (est.record.p_y, exact.p_y, est.record.stderr[1]),
        (est.record.p_z, exact.p_z, est.record.stderr[2]),
        (est.record.p_b, exact.p_b, est.record.stderr_b),
    ):
        assert abs(got - want) < 5 * max(err, 1e-4)


def test_decohered_estimates_converge_to_exact_engine():
    # jump/no-jump unraveling shares the exact mode's Kraus decomposition
    cfg = _cfg(p=0.3, decoherence_enabled=True)
    est = estimate_probabilities(cfg, 40_000, seed=23, kind="uncollapse")
    exact, _ = exact_tomography_record(cfg, "uncollapse")
    for got, want, err in (
        (est.record.p_x, exact.p_x, est.record.stderr[0]),
        (est.record.p_y, exact.p_y, est.record.stderr[1]),
        (est.record.p_z, exact.p_z, est.record.stderr[2]),
        (est.record.p_b, exact.p_b, est.record.stderr_b),
    ):
        assert abs(got - want) < 5 * max(err, 1e-4)


def test_stderr_formula():
    est = estimate_probabilities(_cfg(p=0.5), 1000, seed=31, kind="uncollapse")
    p_hat = est.record.p_x
    assert est.record.stderr[0] == pytest.approx(np.sqrt(p_hat * (1 - p_hat) / 1000))
    assert est.record.shots == 1000


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
    assert est.record.p_z == np.count_nonzero(clicked) / n


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
