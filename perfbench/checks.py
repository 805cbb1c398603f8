"""Correctness checks on the CLI's output files.

They run in the benchmark's parent process, after a pass and outside its
timed region.  Each check factory computes its reference values once from the
package's exact engine and returns a function that takes the output directory
and returns a list of problems (empty when the output is correct).

* Sampled sweep rows: P_X, P_Y, P_Z and P_B within 5 sigma of the exact
  record, sigma = sqrt(P(1-P)/n) with n the shots behind the estimate
  (3 * shots for the pooled background).
* Sampled process fidelity: within 5 sigma of the exact fidelity, sigma
  propagated from the shot count (see ``fidelity_tolerance``); the
  tolerances are recorded in the report.
* Exact decoherence-free sweeps: theta equals the closed-form polar angle,
  p_success equals 1 - p, and P_B equals p sin^2(theta0/2) for collapse and p
  for uncollapse, all to 1e-9.
* Exact decohered process fidelities lie in [0.6, 1].
* Every chi JSON parses and holds a 4x4 matrix.
"""

import json
import math
from dataclasses import replace

from uncollapse import (
    PROBE_STATES,
    ExperimentConfig,
    ProbeSet,
    PureState,
    TomographyRecord,
    bloch_reconstruct,
    exact_tomography_record,
    process_fidelity,
    qpt_reconstruct,
    theory_polar_angle,
)

SIGMAS = 5.0
EXACT_TOL = 1e-9
DECOHERED_FIDELITY_RANGE = (0.6, 1.0)
# The README freezes these headers, so they are spelled out here rather than
# read from the CLI module.
SWEEP_HEADERS = {
    "collapse": ["p", "P_X", "P_Y", "P_Z", "P_B", "X", "Y", "Z", "theta"],
    "uncollapse": ["p", "P_X", "P_Y", "P_Z", "P_B", "X", "Y", "Z", "theta", "p_success"],
}
QPT_HEADER = ["p", "fidelity"]


def reference_config(theta0, phi0, decoherence):
    """The run config the CLI builds from a benchmark config file."""
    return ExperimentConfig(
        initial=PureState(theta0, phi0), p=0.0, decoherence_enabled=decoherence
    )


class OutputError(Exception):
    """An output file is missing or malformed."""


def read_csv(path, header, p_grid):
    """Rows of a CSV written by the CLI, as dicts of floats."""
    lines = path.read_text().split("\n")
    if lines[-1] != "" or lines[0].split(",") != header:
        raise OutputError(f"{path.name}: bad header or missing final newline")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:-1]]
    if len(rows) != len(p_grid):
        raise OutputError(f"{path.name}: {len(rows)} rows for {len(p_grid)} grid points")
    for row, p in zip(rows, p_grid):
        if abs(row["p"] - p) > 1e-12:
            raise OutputError(f"{path.name}: row p={row['p']} where the grid has {p}")
    return rows


def run_check(check, out_dir):
    """Problems found by ``check``, with unreadable output as one problem."""
    try:
        return check(out_dir)
    except (OutputError, OSError, ValueError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def _sigma(prob, n):
    return math.sqrt(max(prob * (1.0 - prob), 0.0) / n)


def mc_sweep_check(out_name, kind, theta0, phi0, p_grid, shots):
    """Sampled sweep rows against the exact forward model."""
    cfg = reference_config(theta0, phi0, decoherence=False)
    expected = []
    for p in p_grid:
        record, _ = exact_tomography_record(cfg.at_strength(p), kind)
        expected.append(
            {
                "P_X": (record.p_x, _sigma(record.p_x, shots)),
                "P_Y": (record.p_y, _sigma(record.p_y, shots)),
                "P_Z": (record.p_z, _sigma(record.p_z, shots)),
                "P_B": (record.p_b, _sigma(record.p_b, 3 * shots)),
            }
        )

    def check(out_dir):
        rows = read_csv(out_dir / out_name, SWEEP_HEADERS[kind], p_grid)
        problems = []
        for row, want in zip(rows, expected):
            for column, (value, sigma) in want.items():
                if abs(row[column] - value) > SIGMAS * sigma + 1e-12:
                    problems.append(
                        f"{out_name} p={row['p']}: {column}={row[column]} vs exact {value}"
                        f" (5 sigma = {SIGMAS * sigma:.3g})"
                    )
        return problems

    return check


def exact_sweep_check(out_name, kind, theta0, p_grid):
    """Decoherence-free exact sweep rows against the closed forms."""

    def check(out_dir):
        rows = read_csv(out_dir / out_name, SWEEP_HEADERS[kind], p_grid)
        problems = []
        for row, p in zip(rows, p_grid):
            want = {"theta": theory_polar_angle(kind, theta0, p)}
            if kind == "collapse":
                want["P_B"] = p * math.sin(theta0 / 2.0) ** 2
            else:
                want["P_B"] = p
                want["p_success"] = 1.0 - p
            for column, value in want.items():
                if abs(row[column] - value) > EXACT_TOL:
                    problems.append(f"{out_name} p={p}: {column}={row[column]}, expected {value}")
        return problems

    return check


def _fidelity_from(values, shots):
    """Process fidelity from per-probe (P_x, P_y, P_z, P_b) values.

    The records carry unit standard errors so that nudged values pass the
    record's own background-consistency check."""
    outputs = tuple(
        bloch_reconstruct(
            TomographyRecord(*v, shots=shots, stderr=(1.0, 1.0, 1.0), stderr_b=1.0)
        )
        for v in values
    )
    return process_fidelity(qpt_reconstruct(ProbeSet(PROBE_STATES, outputs)))


def fidelity_tolerance(cfg, shots, step=1e-6):
    """Exact fidelity and the 5-sigma tolerance of its sampled estimate.

    Delta method through the reconstruction.  Per probe, P_x, P_y and P_z come
    from independent batches of ``shots`` draws, and the background p_b pools
    the escapes of all three, so Var(P_s) = P_s(1-P_s)/n,
    Var(p_b) = p_b(1-p_b)/3n and Cov(P_s, p_b) = p_b(1-P_s)/3n (a shot that
    escapes also counts as a click).  Probes use separate streams.
    """
    values = []
    for probe in PROBE_STATES:
        record, _ = exact_tomography_record(replace(cfg, initial=probe), "uncollapse")
        values.append([record.p_x, record.p_y, record.p_z, record.p_b])
    exact = _fidelity_from(values, shots)
    variance = 0.0
    for i, probe_values in enumerate(values):
        grad = []
        for j, x in enumerate(probe_values):
            h = step if x + step <= 1.0 else -step
            nudged = [list(v) for v in values]
            nudged[i][j] = x + h
            grad.append((_fidelity_from(nudged, shots) - exact) / h)
        *settings, p_b = probe_values
        for j, p_s in enumerate(settings):
            variance += grad[j] ** 2 * p_s * (1.0 - p_s) / shots
            variance += 2.0 * grad[j] * grad[3] * p_b * (1.0 - p_s) / (3 * shots)
        variance += grad[3] ** 2 * p_b * (1.0 - p_b) / (3 * shots)
    return exact, SIGMAS * math.sqrt(max(variance, 0.0)) + 1e-9


def read_chi_fidelities(out_dir, stem, chi_p):
    """Fidelity of each chi JSON keyed by its p, after checking it is 4x4."""
    paths = sorted(out_dir.glob(f"{stem}_chi_p*.json"))
    if len(paths) != len(chi_p):
        raise OutputError(f"{len(paths)} chi files for chi_p={list(chi_p)}")
    fidelities = {}
    for path in paths:
        try:
            payload = json.loads(path.read_text())
            matrices = [payload["chi_real"], payload["chi_imag"]]
            if any(len(m) != 4 or any(len(row) != 4 for row in m) for m in matrices):
                raise OutputError("chi is not 4x4")
            fidelities[float(payload["p"])] = float(payload["fidelity"])
        except (ValueError, KeyError, TypeError, OutputError) as exc:
            raise OutputError(f"{path.name}: {type(exc).__name__}: {exc}") from exc
    for p in chi_p:
        if not any(abs(p - q) < 1e-12 for q in fidelities):
            raise OutputError(f"no chi file for p={p}")
    return fidelities


def read_fidelities(out_dir, out_name, p_grid, chi_p):
    """(p, fidelity, source) for every qpt row and chi file."""
    rows = read_csv(out_dir / out_name, QPT_HEADER, p_grid)
    chi = read_chi_fidelities(out_dir, out_name.rsplit(".", 1)[0], chi_p)
    return [(row["p"], row["fidelity"], out_name) for row in rows] + [
        (p, fidelity, f"chi p={p}") for p, fidelity in chi.items()
    ]


def exact_qpt_check(out_name, p_grid, chi_p):
    """Exact decohered process fidelities in [0.6, 1] and well-formed chi files."""
    low, high = DECOHERED_FIDELITY_RANGE

    def check(out_dir):
        return [
            f"{source} p={p}: fidelity {f} outside [{low}, {high}]"
            for p, f, source in read_fidelities(out_dir, out_name, p_grid, chi_p)
            if not low - EXACT_TOL <= f <= high + EXACT_TOL
        ]

    return check


def mc_qpt_check(out_name, theta0, phi0, p_grid, chi_p, shots):
    """Sampled process fidelities against the exact engine.

    Returns the check and its table {p: (exact fidelity, tolerance)}."""
    cfg = reference_config(theta0, phi0, decoherence=True)
    table = {p: fidelity_tolerance(cfg.at_strength(p), shots) for p in (*p_grid, *chi_p)}

    def check(out_dir):
        problems = []
        for p, f, source in read_fidelities(out_dir, out_name, p_grid, chi_p):
            exact, tol = next(v for q, v in table.items() if abs(q - p) < 1e-12)
            if abs(f - exact) > tol:
                problems.append(f"{source} p={p}: fidelity {f} vs exact {exact} (tolerance {tol:.3g})")
        return problems

    return check, table
