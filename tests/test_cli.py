"""Command-line front end: schemas, determinism, and exit codes."""

import contextlib
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uncollapse
from uncollapse import theory_polar_angle
from uncollapse.cli import (
    COLLAPSE_HEADER,
    DEFAULT_P_GRID,
    QPT_HEADER,
    UNCOLLAPSE_HEADER,
    main,
)


def _write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def _read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""                      # trailing newline
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def test_collapse_default_sweep(tmp_path):
    out = tmp_path / "collapse.csv"
    assert main(["collapse", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == COLLAPSE_HEADER
    assert len(rows) == len(DEFAULT_P_GRID)
    first = dict(zip(header, map(float, rows[0])))
    # p = 0 row reproduces the prepared state on the equator
    assert first["p"] == 0.0
    assert abs(first["X"] - 1.0) < 1e-11
    assert abs(first["theta"] - math.pi / 2) < 1e-11
    for row in rows:
        values = dict(zip(header, map(float, row)))
        assert abs(values["P_B"] - values["p"] / 2.0) < 1e-11
        want = theory_polar_angle("collapse", math.pi / 2, values["p"])
        assert abs(values["theta"] - want) < 1e-10


def test_uncollapse_columns_are_flat_and_success_is_linear(tmp_path):
    out = tmp_path / "reversal.csv"
    assert main(["uncollapse", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == UNCOLLAPSE_HEADER
    xs, ys, zs = set(), set(), set()
    for row in rows:
        values = dict(zip(header, map(float, row)))
        xs.add(round(values["X"], 9))
        ys.add(round(values["Y"], 9))
        zs.add(round(values["Z"], 9))
        assert abs(values["p_success"] - (1.0 - values["p"])) < 1e-11
        assert abs(values["P_B"] - values["p"]) < 1e-11
    assert len(xs) == 1 and len(ys) == 1 and len(zs) == 1


def test_wrong_pulse_breaks_flatness(tmp_path):
    out = tmp_path / "wrong.csv"
    assert main(["uncollapse", "--out", str(out), "--pi-fraction", "0.9"]) == 0
    header, rows = _read_csv(out)
    column = [float(r[header.index("Z")]) for r in rows]
    assert max(column) - min(column) > 1e-3
    diffs = np.sign(np.diff([float(r[header.index("Y")]) for r in rows]))
    assert np.any(diffs > 0) and np.any(diffs < 0)


def test_qpt_ideal_fidelity_column(tmp_path):
    out = tmp_path / "qpt.csv"
    assert main(["qpt", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == QPT_HEADER
    for row in rows:
        assert abs(float(row[1]) - 1.0) < 1e-10
    chi_path = tmp_path / "qpt_chi_p0.47.json"
    assert chi_path.exists()
    payload = json.loads(chi_path.read_text())
    assert payload["basis"] == ["I", "X", "Y", "Z"]
    assert abs(payload["p"] - 0.47) < 1e-15
    chi_real = np.array(payload["chi_real"])
    chi_imag = np.array(payload["chi_imag"])
    assert chi_real.shape == (4, 4) and chi_imag.shape == (4, 4)
    assert abs(payload["fidelity"] - chi_real[1, 1]) < 1e-12
    assert abs(np.trace(chi_real) - 1.0) < 1e-9


def test_qpt_with_decoherence_stays_above_threshold(tmp_path):
    cfg = _write_config(tmp_path, decoherence=True)
    out = tmp_path / "qpt_dec.csv"
    assert main(["qpt", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    for row in rows:
        p, fid = float(row[0]), float(row[1])
        if p <= 0.6:
            assert fid > 0.70
        assert fid < 1.0


def test_flags_override_config(tmp_path):
    cfg = _write_config(tmp_path, decoherence=True, p_grid=[0.0, 0.2])
    out = tmp_path / "o.csv"
    assert main(["uncollapse", "--config", cfg, "--out", str(out), "--no-decoherence"]) == 0
    header, rows = _read_csv(out)
    values = dict(zip(header, map(float, rows[1])))
    assert abs(values["p_success"] - 0.8) < 1e-12   # exact only without decoherence


def test_montecarlo_mode_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, p_grid=[0.1, 0.5], shots=400)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(["uncollapse", "--config", cfg, "--out", str(out_a), "--mode", "mc", "--seed", "5"])
    code_b = main(["uncollapse", "--config", cfg, "--out", str(out_b), "--mode", "mc", "--seed", "5"])
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    out_c = tmp_path / "c.csv"
    main(["uncollapse", "--config", cfg, "--out", str(out_c), "--mode", "mc", "--seed", "6"])
    assert out_a.read_bytes() != out_c.read_bytes()


def test_exact_mode_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["collapse", "--out", str(out_a)])
    main(["collapse", "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()
    text = out_a.read_text()
    assert "\r" not in text
    assert "-0," not in text and ",-0\n" not in text   # negative zero folded


def test_montecarlo_tracks_exact_within_noise(tmp_path):
    cfg = _write_config(tmp_path, p_grid=[0.3], shots=20_000)
    exact_out = tmp_path / "exact.csv"
    mc_out = tmp_path / "mc.csv"
    main(["uncollapse", "--config", cfg, "--out", str(exact_out)])
    main(["uncollapse", "--config", cfg, "--out", str(mc_out), "--mode", "mc"])
    header, exact_rows = _read_csv(exact_out)
    _, mc_rows = _read_csv(mc_out)
    exact_v = dict(zip(header, map(float, exact_rows[0])))
    mc_v = dict(zip(header, map(float, mc_rows[0])))
    for column in ("P_X", "P_Y", "P_Z", "P_B"):
        assert abs(exact_v[column] - mc_v[column]) < 0.02


def test_calibration_bias_config_key(tmp_path):
    cfg = _write_config(tmp_path, p_grid=[0.4], p_error_fraction=0.05)
    out = tmp_path / "bias.csv"
    assert main(["uncollapse", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    values = dict(zip(header, map(float, rows[0])))
    assert abs(values["P_B"] - 0.42) < 1e-12
    assert abs(values["p_success"] - 0.58) < 1e-12


def test_bad_configs_exit_2(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["collapse", "--config", str(bad_json), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["collapse", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    unknown = _write_config(tmp_path, "unknown.json", warp_factor=9)
    assert main(["collapse", "--config", unknown, "--out", str(tmp_path / "x.csv")]) == 2
    unsorted_grid = _write_config(tmp_path, "grid.json", p_grid=[0.5, 0.1])
    assert main(["collapse", "--config", unsorted_grid, "--out", str(tmp_path / "x.csv")]) == 2
    out_of_range = _write_config(tmp_path, "range.json", p_grid=[0.5, 1.0])
    assert main(["collapse", "--config", out_of_range, "--out", str(tmp_path / "x.csv")]) == 2
    bad_mode = _write_config(tmp_path, "mode.json", mode="analog")
    assert main(["collapse", "--config", bad_mode, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "overrides, flags",
    [
        ({"theta0_rad": "abc"}, []),
        ({"p_grid": "0.1"}, []),
        ({"p_grid": "0"}, []),
        ({"chi_p": 0.47}, []),
        ({"shots": 2.7}, []),
        ({"shots": True}, []),
        ({"shots": "20"}, []),
        ({"seed": 1.5}, []),
        ({"seed": False}, []),
        ({"seed": -1}, []),
        ({"seed": 2**128}, []),
        ({}, ["--seed", "-1"]),
        ({}, ["--seed", str(2**128)]),
        ({}, ["--seed", "-1", "--mode", "mc"]),
        ({}, ["--seed", str(2**128), "--mode", "mc"]),
        ({"device": {"e10_ghz": 6.75}}, []),
        ({"device": {"visibility": 0.0}}, []),
        ({"phi0_rad": float("nan")}, []),
        ({"device": {"t1_ns": float("inf")}}, []),
        ({"decoherence": "false"}, []),
        ({"use_echo_t2": 1}, []),
        ({"shots": 2**64 + 1}, []),
        ({}, ["--shots", str(2**64 + 1), "--mode", "mc"]),
        # strings and booleans are not numbers, in any slot
        ({"p_grid": [False, "0.5"]}, []),
        ({"theta0_rad": "1.0"}, []),
        ({"pi_fraction": True}, []),
        ({"device": {"t1_ns": "450"}}, []),
        ({"timing_ns": {"idle": False}}, []),
        ({"chi_p": [True]}, []),
        ({"p_error_fraction": None}, []),
        ({"phi_m_rate_rad": "1e999"}, []),
        # flags pass the same checks as the file
        ({}, ["--pi-fraction", "nan"]),
        ({}, ["--pi-fraction", "inf"]),
        ({}, ["--pi-fraction", "1e999"]),
        # integers beyond the float range
        ({"theta0_rad": 10**400}, []),
        ({"p_grid": [10**400]}, []),
        # raw file bytes: a literal json.dumps cannot write, and unreadable files
        pytest.param(b'{"theta0_rad": 1e999}', [], id="literal-1e999"),
        pytest.param(b'{"theta0_rad": "\xff"}', [], id="not-utf8"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, [], id="nested-200000-deep"),
        pytest.param(b'{"seed": 1' + b"0" * 5000 + b"}", [], id="integer-5001-digits"),
    ],
)
@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_malformed_values_exit_2_with_one_error_line(tmp_path, capsys, command, overrides, flags):
    if isinstance(overrides, bytes):
        cfg = tmp_path / "raw.json"
        cfg.write_bytes(overrides)
    else:
        cfg = _write_config(tmp_path, **overrides)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x.csv"), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


_SMALL_RUN = {"p_grid": [0.2], "chi_p": [0.4], "shots": 8}
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2**64, 2**128, -(2**70)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
# a grid is at most three points and a shot count at most 40, so every run
# that gets past the config check stays small
_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(st.one_of(st.floats(-0.5, 1.5), _JSON_SCALARS), max_size=3),
    st.dictionaries(st.sampled_from(["t1_ns", "visibility", "prepare", "x"]), _JSON_SCALARS,
                    max_size=2),
)
_NON_NUMBERS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["0.5", "1e999", "nan"]),
    st.lists(_JSON_SCALARS, max_size=2),
    st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2),
)
_TOP_KEYS = ["theta0_rad", "phi0_rad", "p_grid", "pi_fraction", "phi_m_rate_rad", "decoherence",
             "use_echo_t2", "p_error_fraction", "mode", "seed", "chi_p", "device", "timing_ns",
             "warp"]
_FIELDS = {
    "device": ["t1_ns", "t2_echo_ns", "t2_ramsey_ns", "visibility"],
    "timing_ns": ["prepare", "measure", "idle", "pi_pulse", "tomography"],
}
_NESTED = dict(_FIELDS, device=[*_FIELDS["device"], "e10_ghz"])
_STRENGTH_LISTS = ["p_grid", "chi_p"]
_NUMBER_KEYS = ["theta0_rad", "phi0_rad", "pi_fraction", "phi_m_rate_rad", "p_error_fraction",
                "seed", "shots", *_STRENGTH_LISTS, *_FIELDS]


@st.composite
def _malformed_configs(draw):
    config = dict(_SMALL_RUN, mode=draw(st.sampled_from(["exact", "mc"])))
    if draw(st.booleans()):
        # one string, bool, null, list or object where a number belongs, in a
        # config that runs without it
        key, junk = draw(st.sampled_from(_NUMBER_KEYS)), draw(_NON_NUMBERS)
        if key in _FIELDS:
            config[key] = {draw(st.sampled_from(_FIELDS[key])): junk}
        elif key in _STRENGTH_LISTS:
            config[key] = draw(st.permutations([0.1, junk]))
        else:
            config[key] = junk
        return config
    for key in draw(st.lists(st.sampled_from(_TOP_KEYS), max_size=3, unique=True)):
        if key in _NESTED and draw(st.booleans()):
            fields = st.sampled_from(_NESTED[key])
            config[key] = draw(st.dictionaries(fields, _VALUES, min_size=1, max_size=2))
        else:
            config[key] = draw(_VALUES)
    config["shots"] = draw(st.one_of(st.integers(-2, 40), st.sampled_from([2.5, "8", True, None])))
    return config


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _holds_a_non_number(config):
    """True when a slot that takes a number holds anything else."""
    for key, value in config.items():
        if key in _FIELDS and isinstance(value, dict):
            slots = list(value.values())
        elif key in _STRENGTH_LISTS and isinstance(value, list):
            slots = value
        elif key in _NUMBER_KEYS:
            slots = [value]
        else:
            continue
        if not all(map(_is_number, slots)):
            return True
    return False


@settings(max_examples=120, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["collapse", "uncollapse", "qpt"]), config=_malformed_configs())
def test_malformed_configs_never_raise_a_traceback(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "x.csv")])
        written = (Path(tmp) / "x.csv").read_text() if code == 0 else ""
    assert code in (0, 2, 3)
    if _holds_a_non_number(config):
        assert code == 2
    assert "nan" not in written and "inf" not in written
    text = err.getvalue()
    assert "Traceback" not in text
    assert text.count("error:") == (code != 0)
    assert text.count("\n") == (code != 0)


def test_seeds_at_the_range_limits_and_integral_floats_run(tmp_path):
    def run(name, **overrides):
        cfg = _write_config(tmp_path, f"{name}.json", p_grid=[0.3], mode="mc", **overrides)
        out = tmp_path / f"{name}.csv"
        assert main(["uncollapse", "--config", cfg, "--out", str(out)]) == 0
        return out.read_bytes()

    run("lowest", seed=0, shots=50)
    run("highest", seed=2**128 - 1, shots=50)
    assert run("floats", seed=7.0, shots=50.0) == run("ints", seed=7, shots=50)


def _qpt_mc_streams(tmp_path, monkeypatch, seed):
    import uncollapse.montecarlo as montecarlo

    drawn = []
    original = montecarlo._shot_uniforms

    def recording(master_seed, stream_index, *rest):
        drawn.append((master_seed, stream_index))
        return original(master_seed, stream_index, *rest)

    cfg = _write_config(tmp_path, f"qpt{seed}.json", p_grid=[0.1, 0.5], chi_p=[0.3], shots=5)
    argv = ["qpt", "--config", cfg, "--out", str(tmp_path / f"qpt{seed}.csv"), "--mode", "mc"]
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_shot_uniforms", recording)
        assert main(argv + ["--seed", str(seed)]) == 0
    return drawn


def test_qpt_mc_neighbouring_seeds_draw_disjoint_streams(tmp_path, monkeypatch):
    # row r, probe i, setting j draws stream 12 r + 3 i + j under the fixed seed
    seven = _qpt_mc_streams(tmp_path, monkeypatch, 7)
    eight = _qpt_mc_streams(tmp_path, monkeypatch, 8)
    assert seven == [(7, stream) for stream in range(36)]
    assert len(set(eight)) == len(eight) == 36
    assert not set(seven) & set(eight)


def test_qpt_mc_runs_at_the_largest_seed(tmp_path):
    cfg = _write_config(tmp_path, p_grid=[0.1, 0.5])
    argv = ["qpt", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--mode", "mc",
            "--shots", "20", "--seed", str(2**128 - 1)]
    assert main(argv) == 0


def test_numeric_failure_exits_3(tmp_path):
    # a strength this close to 1 saturates the reversal background and the
    # reconstruction cannot be carried out
    cfg = _write_config(tmp_path, p_grid=[1.0 - 1e-13])
    assert main(["uncollapse", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3


def _declared_console_scripts():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        return tomllib.load(handle)["project"].get("scripts", {})


def _is_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _run_python(args, tmp_path):
    # the package as imported here, so a source checkout needs no install
    package_root = str(Path(uncollapse.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_console_entry_point_is_installed(tmp_path):
    # The declared `uncollapse` script resolves to the CLI and runs it the way
    # an installer's generated wrapper does, whether or not the tree is installed.
    target = _declared_console_scripts().get("uncollapse")
    assert target == "uncollapse.cli:main"
    entry = importlib.metadata.EntryPoint(name="uncollapse", value=target, group="console_scripts")
    assert entry.load() is main
    wrapper = f"import sys; from {entry.module} import {entry.attr}; sys.exit({entry.attr}())"

    script = _run_python(["-c", wrapper, "collapse", "--out", "script.csv"], tmp_path)
    assert script.returncode == 0, script.stderr
    header, _ = _read_csv(tmp_path / "script.csv")
    assert header == COLLAPSE_HEADER
    module = _run_python(["-m", "uncollapse.cli", "collapse", "--out", "module.csv"], tmp_path)
    assert module.returncode == 0, module.stderr
    assert (tmp_path / "script.csv").read_bytes() == (tmp_path / "module.csv").read_bytes()

    unknown = _write_config(tmp_path, "unknown.json", warp_factor=9)
    rejected = _run_python(["-c", wrapper, "collapse", "--config", unknown, "--out", "x.csv"],
                           tmp_path)
    assert rejected.returncode == 2
    assert "Traceback" not in rejected.stderr
    lines = rejected.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.skipif(not _is_installed("uncollapse"),
                    reason="distribution 'uncollapse' is not installed (PackageNotFoundError)")
def test_console_script_on_path_when_installed():
    installed = importlib.metadata.distribution("uncollapse").entry_points
    scripts = {ep.name: ep.value for ep in installed if ep.group == "console_scripts"}
    assert scripts.get("uncollapse") == _declared_console_scripts()["uncollapse"]
    search = sysconfig.get_path("scripts") + os.pathsep + os.environ.get("PATH", "")
    assert shutil.which("uncollapse", path=search) is not None
