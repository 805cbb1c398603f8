"""Process-matrix reconstruction by linear inversion."""

import numpy as np
import pytest

from uncollapse import (
    PROBE_STATES,
    ChiMatrix,
    ExperimentConfig,
    ProbeSet,
    PureState,
    QubitState,
    RotationPulse,
    SingularInversionError,
    StructuralError,
    bloch_from_state,
    chi_apply,
    cp_diagnostics,
    estimate_probabilities,
    exact_uncollapse_chi,
    montecarlo_uncollapse_chi,
    process_fidelity,
    qpt_reconstruct,
    state_from_angles,
)
from uncollapse.channels import chain
from uncollapse.protocol import PulseTiming, build_uncollapse, compile_sequence
from uncollapse.qubit import default_device
from uncollapse.tomography import (
    bloch_reconstruct,
    bloch_rows,
    exact_tomography_record,
    exact_tomography_sweep,
)

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _probe_outputs(unitary):
    outputs = []
    for probe in PROBE_STATES:
        rho = state_from_angles(probe).rho
        out = unitary @ rho @ unitary.conj().T
        outputs.append(bloch_from_state(QubitState(out, 0.0)))
    return tuple(outputs)


def test_identity_process_reconstruction():
    chi = qpt_reconstruct(ProbeSet(PROBE_STATES, _probe_outputs(np.eye(2))))
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(chi.matrix, want, atol=1e-12)
    assert process_fidelity(chi) < 1e-12


def test_x_pi_rotation_reconstruction():
    u = RotationPulse.about_x(np.pi).unitary()
    chi = qpt_reconstruct(ProbeSet(PROBE_STATES, _probe_outputs(u)))
    want = np.zeros((4, 4))
    want[1, 1] = 1.0
    assert np.allclose(chi.matrix, want, atol=1e-12)
    assert abs(process_fidelity(chi) - 1.0) < 1e-12


def test_reconstruction_predicts_unseen_inputs():
    # linearity: the chi fit on four probes must transport any other state
    rng = np.random.default_rng(97)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    u = RotationPulse(tuple(axis), 1.23).unitary()
    chi = qpt_reconstruct(ProbeSet(PROBE_STATES, _probe_outputs(u)))
    for _ in range(20):
        s = PureState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        rho = state_from_angles(s).rho
        predicted = chi_apply(chi, rho)
        assert np.max(np.abs(predicted - u @ rho @ u.conj().T)) < 1e-9


def test_chi_apply_matches_the_double_sum():
    # reference: sum_{m,n} chi[m, n] sigma_m rho sigma_n term by term
    rng = np.random.default_rng(13)
    for _ in range(10):
        chi = ChiMatrix(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        want = sum(
            chi.matrix[m, n] * (SIGMA[m] @ rho @ SIGMA[n]) for m in range(4) for n in range(4)
        )
        assert np.max(np.abs(chi_apply(chi, rho) - want)) < 1e-12


def test_compiled_reversal_map_matches_its_process_matrix():
    # without decoherence the post-selected reversal is linear: the compiled
    # in-well map after preparation, over the success probability 1 - p, is
    # the transfer matrix of the four-probe chi
    for p in (0.0, 0.35, 0.8):
        cfg = ExperimentConfig(PureState(0.0), p=p, phi_m_rate=2.0)
        compiled = chain(compile_sequence(build_uncollapse(cfg), cfg)[1:]) / (1.0 - p)
        chi = exact_uncollapse_chi(cfg)
        from_chi = np.array(
            [[0.5 * np.trace(SIGMA[i] @ chi_apply(chi, SIGMA[j])).real for j in range(4)]
             for i in range(4)]
        )
        assert np.max(np.abs(from_chi - compiled)) < 1e-10


def test_ideal_reversal_has_unit_fidelity_for_all_strengths():
    for p in np.linspace(0.0, 0.99, 12):
        cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p)
        chi = exact_uncollapse_chi(cfg)
        assert abs(process_fidelity(chi) - 1.0) < 1e-10
        assert chi.hermiticity_residual() < 1e-10
        assert abs(chi.trace - 1.0) < 1e-10


def test_global_phase_leaves_chi_unchanged():
    u = RotationPulse.about_x(np.pi).unitary()
    chi_a = qpt_reconstruct(ProbeSet(PROBE_STATES, _probe_outputs(u)))
    chi_b = qpt_reconstruct(ProbeSet(PROBE_STATES, _probe_outputs(np.exp(1.7j) * u)))
    assert np.max(np.abs(chi_a.matrix - chi_b.matrix)) < 1e-12


def test_probe_set_structural_checks():
    with pytest.raises(StructuralError):
        ProbeSet(PROBE_STATES[:3], _probe_outputs(np.eye(2))[:3])
    degenerate = (PureState(0.0), PureState(0.0), PureState(0.0), PureState(0.0))
    outs = tuple(bloch_from_state(state_from_angles(s)) for s in degenerate)
    with pytest.raises(SingularInversionError):
        ProbeSet(degenerate, outs)


def test_chi_matrix_shape_check():
    with pytest.raises(StructuralError):
        ChiMatrix(np.eye(3))


def _fifth_input_residual(cfg):
    # how well the four-probe chi transports an unseen input
    from uncollapse import bloch_reconstruct, exact_tomography_record
    from dataclasses import replace

    chi = exact_uncollapse_chi(cfg)
    extra = PureState(1.0, 2.0)
    record, _ = exact_tomography_record(replace(cfg, initial=extra), "uncollapse")
    b = bloch_reconstruct(record)
    rho_out = 0.5 * (SIGMA[0] + b.x * SIGMA[1] + b.y * SIGMA[2] + b.z * SIGMA[3])
    predicted = chi_apply(chi, state_from_angles(extra).rho)
    return float(np.max(np.abs(predicted - rho_out)))


def test_four_probes_suffice_for_the_ideal_reversal():
    # without decoherence the post-selected map is exactly linear, so the
    # four-probe fit transports any fifth input
    for p in (0.0, 0.47, 0.9):
        cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=p)
        assert _fifth_input_residual(cfg) < 1e-9


def test_decohered_fidelity_at_the_reference_strength():
    cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=0.47, decoherence_enabled=True)
    f = process_fidelity(exact_uncollapse_chi(cfg))
    assert 0.70 < f < 1.0
    # post-selection makes the decohered map mildly nonlinear: the success
    # probability acquires a weak state dependence through relaxation, so a
    # fifth input is transported only approximately
    residual = _fifth_input_residual(cfg)
    assert 1e-9 < residual < 5e-3


def test_cp_diagnostics_reports_without_repair():
    u = RotationPulse.about_x(np.pi).unitary()
    ideal = qpt_reconstruct(ProbeSet(PROBE_STATES, _probe_outputs(u)))
    report = cp_diagnostics(ideal)
    assert report.is_cp
    assert abs(report.min_eigenvalue) < 1e-12
    assert abs(max(report.eigenvalues) - 1.0) < 1e-12
    assert report.trace_deviation < 1e-12

    identity = qpt_reconstruct(ProbeSet(PROBE_STATES, _probe_outputs(np.eye(2))))
    r2 = cp_diagnostics(identity)
    assert sorted(np.round(r2.eigenvalues, 9)) == sorted(np.round(report.eigenvalues, 9))

    # finite statistics can leave the physical set; report, never repair
    cfg = ExperimentConfig(PureState(np.pi / 2, 0.0), p=0.47, decoherence_enabled=True)
    noisy = montecarlo_uncollapse_chi(cfg, n_shots=10_000, seed=2024)
    r3 = cp_diagnostics(noisy)
    assert r3.min_eigenvalue >= -0.05
    assert r3.hermiticity_residual < 1e-10   # inversion of real data stays Hermitian


def _per_probe_chi(cfg):
    # the reference: one exact record per probe, each from its own sequence
    from dataclasses import replace

    records = [exact_tomography_record(replace(cfg, initial=probe))[0] for probe in PROBE_STATES]
    outputs = tuple(bloch_reconstruct(r, cfg.device.visibility) for r in records)
    return records, outputs, qpt_reconstruct(ProbeSet(PROBE_STATES, outputs))


def _random_configs(rng, count):
    # every decoherence / echo-T2 combination, the rest drawn at random
    for i in range(count):
        yield dict(
            decoherence_enabled=bool(i % 2),
            use_echo_t2=bool(i // 2 % 2),
            pi_fraction=rng.choice([1.0, rng.uniform(0.8, 1.1)]),
            device=default_device(rng.choice([1.0, rng.uniform(0.5, 1.0)])),
            phi_m_rate=rng.uniform(0.0, 20.0),
            p_error_fraction=rng.uniform(-0.05, 0.05),
            timing=PulseTiming(idle_ns=rng.uniform(0, 30), tomography_ns=rng.uniform(0, 15)),
        )


def test_stacked_chi_equals_the_per_probe_reference():
    # exactly equal, not close: the stack runs the same arithmetic per probe
    rng = np.random.default_rng(505)
    grid = [round(0.05 * i, 10) for i in range(20)]
    for options in _random_configs(rng, 12):
        for p in grid:
            initial = PureState(rng.uniform(0, np.pi), rng.uniform(0, 6))
            cfg = ExperimentConfig(initial, p, **options)
            records, outputs, reference = _per_probe_chi(cfg)
            table, _ = exact_tomography_sweep(cfg, None, initials=PROBE_STATES)
            assert table.tolist() == [[r.p_x, r.p_y, r.p_z, r.p_b] for r in records]
            rows = bloch_rows(table, cfg.device.visibility)
            assert rows.tolist() == [[v.x, v.y, v.z] for v in outputs]
            assert np.array_equal(exact_uncollapse_chi(cfg).matrix, reference.matrix)


def test_stacked_exact_qpt_writes_what_one_fold_per_row_writes(monkeypatch):
    # exactly equal, not close: each row's probe outputs come from one fold
    # and one reconstruction over every row, and must give the chi of that
    # row's own fold.  The rows are handed the command's config, so the
    # strength of each call is the next of p_grid + chi_p.
    import uncollapse.cli as cli

    rng = np.random.default_rng(1717)
    grid = tuple(sorted(rng.uniform(0.0, 0.95, 22)))
    for options in _random_configs(rng, 8):
        base = ExperimentConfig(PureState(1.0, 0.5), 0.0, **options)
        sweep = cli.SweepSpec(grid, "exact", 1, 0, (0.47, grid[5]))
        strengths = iter(sweep.p_grid + sweep.chi_p)

        def per_row(cfg, outputs):
            alone = exact_uncollapse_chi(cfg.at_strength(next(strengths)))
            assert np.array_equal(exact_uncollapse_chi(cfg, outputs).matrix, alone.matrix)
            return alone

        stacked = cli.cmd_qpt(sweep, base)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "exact_uncollapse_chi", per_row)
            assert cli.cmd_qpt(sweep, base) == stacked
        assert next(strengths, None) is None


def test_exact_chi_compiles_once_and_checks_positivity_once(monkeypatch):
    import uncollapse.protocol as protocol

    eigvalsh_calls, compile_calls = [], []
    eigvalsh, compile_sequence = np.linalg.eigvalsh, protocol.compile_sequence
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh_calls.append(1) or eigvalsh(a))
    monkeypatch.setattr(
        protocol, "compile_sequence", lambda *a: compile_calls.append(1) or compile_sequence(*a)
    )
    for decoherence in (False, True):
        cfg = ExperimentConfig(PureState(1.0, 0.5), p=0.47, decoherence_enabled=decoherence)
        eigvalsh_calls.clear()
        compile_calls.clear()
        exact_uncollapse_chi(cfg)
        assert len(eigvalsh_calls) == 1 and len(compile_calls) == 1


def test_sampled_chi_runs_each_pass_of_a_row_as_one_twelve_member_stack(monkeypatch):
    import uncollapse.montecarlo as montecarlo
    from dataclasses import replace

    cfg = ExperimentConfig(PureState(1.0, 0.5), p=0.47, decoherence_enabled=True)
    base = 36
    # the reference: four one-probe estimates, probe i at stream_base b + 3 i
    singles = tuple(
        estimate_probabilities(replace(cfg, initial=probe), 15, seed=5, stream_base=base + 3 * i)
        for i, probe in enumerate(PROBE_STATES)
    )
    outputs = tuple(bloch_reconstruct(e, cfg.device.visibility) for e in singles)
    reference = qpt_reconstruct(ProbeSet(PROBE_STATES, outputs))
    passes, kernels = [], []
    shot_uniforms, run_batch = montecarlo._shot_uniforms, montecarlo._run_batch
    monkeypatch.setattr(montecarlo, "_SHOT_CHUNK", 7)
    monkeypatch.setattr(
        montecarlo, "_shot_uniforms", lambda *a: passes.append(a[1:4]) or shot_uniforms(*a)
    )
    # a kernel call's members: its uniform rows over the pass's shots per stream
    monkeypatch.setattr(
        montecarlo,
        "_run_batch",
        lambda *a: kernels.append((len(a[2]), a[3] == PROBE_STATES)) or run_batch(*a),
    )
    compile_sequence.cache_clear()
    chi = montecarlo_uncollapse_chi(cfg, 15, seed=5, stream_base=base)
    streams = tuple(range(base, base + 12))
    assert passes == [(streams, 0, 7), (streams, 7, 7), (streams, 14, 1)]
    assert kernels == [(12 * 7, True), (12 * 7, True), (12 * 1, True)]
    # the row builds its sequence's three tomography settings and compiles each once
    assert compile_sequence.cache_info().misses == 3
    assert (chi.matrix == reference.matrix).all()
    stacked = estimate_probabilities(cfg, 15, seed=5, stream_base=base, initials=PROBE_STATES)
    assert stacked == singles
    with pytest.raises(StructuralError):
        estimate_probabilities(cfg, 15, seed=5, initials=())


def test_sampled_chi_inverts_one_table_as_each_probe_record_alone():
    from dataclasses import replace

    rng = np.random.default_rng(23)
    outside = 0
    for case in range(8):
        device = replace(default_device(), visibility=(1.0, 0.9)[case >> 1 & 1])
        cfg = ExperimentConfig(PureState(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)),
                               p=rng.uniform(0.0, 0.9), device=device,
                               decoherence_enabled=bool(case & 1))
        shots, seed, base = (300, 2049)[case >> 2], int(rng.integers(2**63)), 12 * case
        chi = montecarlo_uncollapse_chi(cfg, shots, seed, stream_base=base)
        records = estimate_probabilities(cfg, shots, seed, stream_base=base, initials=PROBE_STATES)
        outputs = tuple(bloch_reconstruct(r, device.visibility) for r in records)
        assert (chi.matrix == qpt_reconstruct(ProbeSet(PROBE_STATES, outputs)).matrix).all()
        outside += sum(vec.norm > 1.0 for vec in outputs)
    assert outside > 0


def test_design_and_probe_checks_still_run_for_every_probe_tuple():
    degenerate = (PureState(0.0), PureState(0.0), PureState(0.0), PureState(0.0))
    outs = tuple(bloch_from_state(state_from_angles(s)) for s in degenerate)
    for _ in range(2):  # a failed check is not remembered as a pass
        with pytest.raises(SingularInversionError):
            ProbeSet(degenerate, outs)
    from uncollapse.qpt import _design_matrix

    for _ in range(2):
        with pytest.raises(SingularInversionError):
            _design_matrix(degenerate)


def test_every_probe_set_that_passes_the_gram_check_is_well_conditioned():
    # the design matrix's condition number is sqrt(cond(Gram)); the Gram
    # matrix of four pure probes has trace 4 and determinant at least the
    # floor, so its condition number is at most 4 (4/3)**3 / floor.  The
    # numerically-singular and LinAlgError raises of qpt.py are therefore
    # guards that no probe set of PureStates reaches.
    from uncollapse.qpt import _GRAM_FLOOR, _design_matrix

    bound = np.sqrt(4.0 * (4.0 / 3.0) ** 3 / _GRAM_FLOOR)
    rng = np.random.default_rng(2024)
    passed = 0
    for _ in range(1000):
        theta, phi = rng.uniform(0.0, np.pi, 4), rng.uniform(0.0, 2.0 * np.pi, 4)
        # the fourth probe lies near the first, down to far below the floor
        spread = 10.0 ** rng.uniform(-4.0, 0.0)
        theta[3] = np.clip(theta[0] + spread * rng.normal(), 0.0, np.pi)
        phi[3] = phi[0] + spread * rng.normal()
        probes = tuple(PureState(t, f) for t, f in zip(theta, phi))
        try:
            design = _design_matrix(probes)
        except SingularInversionError as exc:
            assert str(exc) == "probe states are not linearly independent"
            continue
        passed += 1
        assert np.linalg.cond(design) <= bound
    assert 0 < passed < 1000


def test_both_engines_refuse_an_empty_stack_of_initial_states():
    cfg = ExperimentConfig(PureState(1.0), p=0.3, decoherence_enabled=True)
    with pytest.raises(StructuralError, match="need at least one initial state"):
        exact_tomography_sweep(cfg, None, initials=())
    with pytest.raises(StructuralError, match="need at least one initial state"):
        estimate_probabilities(cfg, 10, 0, initials=())
