"""Command-line front end: schemas, determinism, and exit codes."""

import contextlib
import errno
import importlib.metadata
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uncollapse
from uncollapse import SimulationError, theory_polar_angle
from uncollapse.cli import (
    COLLAPSE_HEADER,
    DEFAULT_P_GRID,
    QPT_HEADER,
    UNCOLLAPSE_HEADER,
    _csv,
    _fmt,
    build_parser,
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
        ({}, ["--mode", "foo"]),
        ({}, ["--mode", "MC"]),
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
        # a finite fraction whose recovery angle overflows
        ({"pi_fraction": 1e308}, []),
        ({}, ["--pi-fraction", "1e308"]),
        # flag text that is no number, or not an integer
        ({}, ["--shots", "abc"]),
        ({}, ["--seed", "1.5"]),
        # two chi_p strengths that print alike would write one chi file
        ({"chi_p": [0.47, 0.470000000000001]}, ["--mode", "mc"]),
        # an empty grid, and a config that is JSON but not an object
        ({"p_grid": []}, []),
        pytest.param(b"[0.2, 0.4]", [], id="json-array"),
        pytest.param(b"7", [], id="bare-number"),
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


@pytest.mark.parametrize("alike", [[0.47, 0.470000000000001], [0.3, 0.3]])
@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_chi_p_strengths_that_print_alike_exit_2_naming_both(tmp_path, capsys, command, alike):
    # they would name one chi file, so the config is refused for every command
    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=[0.1, *alike])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    first, second = alike
    assert capsys.readouterr().err == (
        f"error: chi_p strengths {first} and {second} print alike: {_fmt(second)}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_collapse_checks_4000_chi_p_strengths_in_one_pass(tmp_path):
    # a pairwise scan of 4,000 chi paths took 2.3 s on a 2 vCPU Xeon; one
    # pass over the printed strengths takes milliseconds
    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=[round(0.0002 * i, 10) for i in range(4000)])
    start = time.perf_counter()
    assert main(["collapse", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("out", ["missing/x.csv", ".", "", "/"])
@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, command, out):
    # a path in a directory that does not exist, and paths that are
    # directories, as typed: "" means the working directory, as "." does
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=[0.4])
    assert main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]
    assert not Path("/_chi_p0.4.json").exists()


@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_a_write_that_fails_after_the_checks_exits_2_with_one_error_line(tmp_path, monkeypatch,
                                                                         capsys, command):
    def no_space(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=[0.4])
    monkeypatch.setattr(Path, "write_text", no_space)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: cannot write output: ")


@pytest.mark.parametrize("failing, named", [(1, "x.csv"), (2, "x_chi_p0.4.json")])
def test_a_failed_write_leaves_no_new_file_and_keeps_the_old_ones(tmp_path, monkeypatch, capsys,
                                                                  failing, named):
    real_write = Path.write_text
    calls = []

    def fills_the_disk(path, text, *args, **kwargs):
        calls.append(path)
        if len(calls) < failing:
            return real_write(path, text, *args, **kwargs)
        real_write(path, text[:len(text) // 2], *args, **kwargs)  # part of it lands
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=[0.4])
    old = tmp_path / "x.csv"
    old.write_bytes(b"p,fidelity\n0.2,0.5\n")
    monkeypatch.setattr(Path, "write_text", fills_the_disk)
    assert main(["qpt", "--config", cfg, "--out", str(old)]) == 2
    assert len(calls) == failing
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "x.csv"]
    assert old.read_bytes() == b"p,fidelity\n0.2,0.5\n"
    # the message names the output, not the temporary file written beside it
    assert capsys.readouterr().err == (f"error: cannot write output: [Errno {errno.ENOSPC}] "
                                       f"{os.strerror(errno.ENOSPC)}: '{tmp_path / named}'\n")


def test_a_failed_move_names_its_output_once_and_leaves_no_temporary(tmp_path, monkeypatch,
                                                                       capsys):
    real_replace = os.replace
    moved = []

    def fails_second(source, target):
        if moved:
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(source), None, str(target))
        moved.append(target)
        real_replace(source, target)

    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=[0.4])
    monkeypatch.setattr(os, "replace", fails_second)
    assert main(["qpt", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    chi = tmp_path / "x_chi_p0.4.json"
    assert capsys.readouterr().err == (f"error: cannot write output: [Errno {errno.EIO}] "
                                       f"{os.strerror(errno.EIO)}: '{chi}'\n")
    # the moves are the last step: the CSV moved before the failed one stays
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "x.csv"]


def test_outputs_keep_their_symlinks_hard_links_and_modes(tmp_path):
    cfg = _write_config(tmp_path, p_grid=[0.2, 0.5])
    assert main(["collapse", "--config", cfg, "--out", str(tmp_path / "plain.csv")]) == 0
    expected = (tmp_path / "plain.csv").read_bytes()
    (tmp_path / "sub").mkdir()
    real = tmp_path / "sub" / "real.csv"
    real.write_bytes(b"old\n")
    real.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    hard = tmp_path / "hard.csv"
    hard.write_bytes(b"old\n")
    twin = tmp_path / "twin.csv"
    os.link(hard, twin)
    for out in (link, hard):
        assert main(["collapse", "--config", cfg, "--out", str(out)]) == 0
    assert link.is_symlink() and real.read_bytes() == expected
    assert real.stat().st_mode & 0o777 == 0o600
    # a hard-linked output is written in place, so every name reads the new bytes
    assert hard.read_bytes() == twin.read_bytes() == expected
    assert hard.stat().st_ino == twin.stat().st_ino
    assert sorted(path.name for path in (tmp_path / "sub").iterdir()) == ["real.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "cfg.json", "hard.csv", "link.csv", "plain.csv", "sub", "twin.csv"]


def _snapshot(directory):
    # every name with its link target or bytes, so that a created or changed file shows
    return {path.name: os.readlink(path) if path.is_symlink() else path.read_bytes()
            for path in directory.iterdir()}


@pytest.mark.parametrize("link", ["hard", "symlink", "dangling"])
def test_outputs_that_are_one_file_exit_2_before_the_run(tmp_path, capsys, link):
    # written one after the other, the chi JSON would replace the CSV it is linked to
    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=[0.47])
    csv, chi = tmp_path / "x.csv", tmp_path / "x_chi_p0.47.json"
    if link == "dangling":  # two symlinks to one file that does not exist yet
        csv.symlink_to("new.csv")
        chi.symlink_to("new.csv")
    elif link == "hard":
        csv.write_bytes(b"old\n")
        os.link(csv, chi)
    else:
        csv.write_bytes(b"old\n")
        chi.symlink_to(csv)
    before = _snapshot(tmp_path)
    for mode in ("exact", "mc"):
        assert main(["qpt", "--config", cfg, "--out", str(csv), "--mode", mode]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write output: {csv} and {chi} are one file\n")
        assert _snapshot(tmp_path) == before
    # a sweep writes the CSV alone, so the same names are no collision
    assert main(["collapse", "--config", cfg, "--out", str(csv)]) == 0


@pytest.mark.parametrize("command", ["collapse", "qpt"])
def test_an_output_in_a_symlink_loop_exits_2_before_the_run(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=[0.47])
    (tmp_path / "a.csv").symlink_to("b.csv")
    (tmp_path / "b.csv").symlink_to("a.csv")
    before = _snapshot(tmp_path)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot write output: ")
    assert _snapshot(tmp_path) == before


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs named pipes and /dev/stdout")
def test_an_output_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    cfg = _write_config(tmp_path, p_grid=[0.2, 0.5])
    assert main(["collapse", "--config", cfg, "--out", str(tmp_path / "plain.csv")]) == 0
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    # a reader opened first lets the write go through without blocking
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["collapse", "--config", cfg, "--out", str(pipe)]) == 0
        assert stat.S_ISFIFO(pipe.lstat().st_mode)
        assert os.read(reader, 1 << 16) == (tmp_path / "plain.csv").read_bytes()
    finally:
        os.close(reader)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "pipe.csv",
                                                                "plain.csv"]
    # standard output captured through a pipe: /dev/stdout links to no file
    piped = _run_python(["-m", "uncollapse.cli", "collapse", "--config", cfg, "--out",
                         "/dev/stdout"], tmp_path)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == (tmp_path / "plain.csv").read_text()


def _per_value_csv(header, rows):
    """The CSV text as one format call per value writes it."""
    def text(value):
        value = float(value)
        return format(0.0 if value == 0.0 else value, ".12g")

    return "".join(f"{line}\n" for line in [",".join(header)] +
                   [",".join(text(v) for v in row) for row in rows])


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
                -sys.float_info.max, math.inf, -math.inf, math.nan, 0.1234567890125,
                0.12345678901250001, 1.0000000000005, 999999999999.5, 1e16, 1e-5, 123456789012.0]


_CSV_VALUES = st.one_of(st.floats(allow_subnormal=True, allow_infinity=True),
                        st.sampled_from(_EDGE_VALUES))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.lists(_CSV_VALUES, min_size=3, max_size=3), min_size=1, max_size=8))
def test_each_csv_row_prints_every_value_as_one_format_call_would(rows):
    header = ["a", "b", "c"]
    assert _csv(header, rows) == _csv(header, np.array(rows)) == _per_value_csv(header, rows)
    assert [_fmt(v) for row in rows for v in row] == [
        text for line in _per_value_csv(header, rows).split("\n")[1:-1] for text in line.split(",")]


def test_the_csv_edge_values_print_as_one_format_call_would():
    rows = np.reshape(_EDGE_VALUES[:15], (5, 3))
    assert _csv(["a", "b", "c"], rows) == _per_value_csv(["a", "b", "c"], rows)
    assert [_fmt(v) for v in _EDGE_VALUES] == [
        format(0.0 if v == 0.0 else v, ".12g") for v in _EDGE_VALUES]
    assert _fmt(-0.0) == "0" and _fmt(math.nan) == "nan" and _fmt(-math.inf) == "-inf"


def test_the_parser_is_built_once_and_keeps_nothing_between_runs(tmp_path, capsys):
    cfg = _write_config(tmp_path, p_grid=[0.1, 0.6], chi_p=[0.3])
    collapse = ["collapse", "--config", cfg, "--out", str(tmp_path / "first.csv")]
    assert main(collapse) == 0
    with pytest.raises(SystemExit) as bad_flag:
        main(["collapse", "--config", cfg, "--out", str(tmp_path / "bad.csv"), "--bogus"])
    assert bad_flag.value.code == 2
    qpt = ["qpt", "--config", cfg, "--out", str(tmp_path / "qpt.csv"), "--mode", "mc",
           "--shots", "40", "--seed", "3", "--pi-fraction", "0.9", "--no-decoherence"]
    assert main(qpt) == 0
    assert main(collapse[:-1] + [str(tmp_path / "second.csv")]) == 0
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    assert not (tmp_path / "bad.csv").exists()
    assert build_parser() is build_parser()
    capsys.readouterr()


def test_unwritable_out_fails_before_any_sampling(tmp_path, monkeypatch, capsys):
    import uncollapse.montecarlo as montecarlo

    calls = []
    monkeypatch.setattr(montecarlo, "_shot_uniforms", lambda *a: calls.append(a))
    argv = ["qpt", "--mode", "mc", "--out", str(tmp_path / "missing" / "x.csv")]
    assert main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize(
    "chi_p, blocker, code",
    [
        # a chi JSON path that is a directory is found before the run
        ([0.4], "x_chi_p0.4.json", 2),
        # a numeric failure in a chi row comes after the fidelity rows
        ([1.0 - 1e-13], None, 3),
    ],
)
def test_qpt_writes_no_file_unless_every_output_is_ready(tmp_path, chi_p, blocker, code):
    cfg = _write_config(tmp_path, p_grid=[0.2], chi_p=chi_p)
    if blocker:
        (tmp_path / blocker).mkdir()
    assert main(["qpt", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == code
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("decoherence", [False, True])
@pytest.mark.parametrize("command", ["collapse", "uncollapse"])
def test_exact_sweep_compiles_once_and_checks_positivity_once(tmp_path, monkeypatch, command,
                                                              decoherence):
    import uncollapse.protocol as protocol

    eigvalsh_calls, compile_calls = [], []
    eigvalsh, compile_sequence = np.linalg.eigvalsh, protocol.compile_sequence
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh_calls.append(1) or eigvalsh(a))
    monkeypatch.setattr(
        protocol, "compile_sequence", lambda *a: compile_calls.append(1) or compile_sequence(*a)
    )
    cfg = _write_config(tmp_path, p_grid=[0.019 * i for i in range(50)], decoherence=decoherence)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    assert len(eigvalsh_calls) == 1 and len(compile_calls) == 1


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_a_sampled_command_compiles_three_programs_whatever_its_rows(tmp_path, monkeypatch,
                                                                     command, rows):
    import uncollapse.montecarlo as montecarlo

    keys, compile_sequence = set(), montecarlo.compile_sequence
    monkeypatch.setattr(montecarlo, "compile_sequence",
                        lambda *a: keys.add(a) or compile_sequence(*a))
    cfg = _write_config(tmp_path, p_grid=[0.15 * i for i in range(rows)], chi_p=[0.47],
                        decoherence=True, mode="mc", shots=4)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    assert len(keys) == 3


@pytest.mark.parametrize("shots, passes", [(2048, 1), (2049, 2)])
@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_every_sampled_pass_draws_and_runs_through_the_traced_names(tmp_path, monkeypatch,
                                                                    command, shots, passes):
    # a tracer that wraps these module attributes sees one estimate per
    # command and one uniform fill and one kernel call per pass: one row at
    # up to 2,048 shots per stream
    import uncollapse.cli as cli
    import uncollapse.montecarlo as montecarlo

    calls = {"estimate": 0, "uniforms": 0, "kernel": 0}

    def counted(name, fn):
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or fn(*a)

    monkeypatch.setattr(cli, "estimate_probabilities",
                        counted("estimate", cli.estimate_probabilities))
    monkeypatch.setattr(montecarlo, "_shot_uniforms", counted("uniforms", montecarlo._shot_uniforms))
    monkeypatch.setattr(montecarlo, "_run_batch", counted("kernel", montecarlo._run_batch))
    p_grid, chi_p = [0.1, 0.5], [0.47]
    cfg = _write_config(tmp_path, p_grid=p_grid, chi_p=chi_p, mode="mc", shots=shots)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    rows = len(p_grid) + (len(chi_p) if command == "qpt" else 0)
    assert calls == {"estimate": 1, "uniforms": rows * passes, "kernel": rows * passes}


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


def test_number_flags_are_read_as_numbers_and_checked_like_the_file(tmp_path):
    cfg = _write_config(tmp_path, "grid.json", p_grid=[0.3], mode="mc")
    flag_out, file_out = tmp_path / "flag.csv", tmp_path / "file.csv"
    assert main(["uncollapse", "--config", cfg, "--out", str(flag_out), "--shots", "7.0"]) == 0
    shots = _write_config(tmp_path, "shots.json", p_grid=[0.3], mode="mc", shots=7.0)
    assert main(["uncollapse", "--config", shots, "--out", str(file_out)]) == 0
    assert flag_out.read_bytes() == file_out.read_bytes()
    for flags in (["--pi-fraction", ".5"], ["--seed", str(2**128 - 1), "--shots", "5"],
                  ["--pi-fraction", "1e300"], ["--shots", "5.", "--seed", "-0"]):
        assert main(["uncollapse", "--config", cfg, "--out", str(tmp_path / "x.csv"), *flags]) == 0
    # leading zeros are decimal, and an exponent may spell an integer
    assert main(["uncollapse", "--config", cfg, "--out", str(file_out), "--shots", "007"]) == 0
    assert flag_out.read_bytes() == file_out.read_bytes()
    assert main(["uncollapse", "--config", cfg, "--out", str(file_out), "--shots", "0.07E2"]) == 0
    assert flag_out.read_bytes() == file_out.read_bytes()


@pytest.mark.parametrize("flag, text", [
    ("--shots", "1_000"), ("--shots", "\u0663"), ("--shots", "+5"), ("--shots", " 5"),
    ("--shots", "5\n"), ("--shots", "\uff15"), ("--seed", "0x10"), ("--seed", ""),
    ("--pi-fraction", "."), ("--pi-fraction", "1.e"), ("--pi-fraction", "1e+"),
    ("--pi-fraction", "nan"), ("--pi-fraction", "Infinity"), ("--pi-fraction", "\u0661.\u0665"),
])
def test_number_flags_outside_the_ascii_grammar_exit_2_naming_their_key(tmp_path, capsys, flag,
                                                                        text):
    # none is a number of the flag grammar, though Python's int or float reads
    # most of them; a config file has no spelling for them either
    key = flag.removeprefix("--").replace("-", "_")
    cfg = _write_config(tmp_path, p_grid=[0.3], mode="mc")
    assert main(["uncollapse", "--config", cfg, "--out", str(tmp_path / "x.csv"), flag, text]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.endswith(f"got {text!r}\n")
    assert err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def _mc_streams(tmp_path, monkeypatch, seed, command="qpt"):
    import uncollapse.montecarlo as montecarlo

    drawn = []
    original = montecarlo._shot_uniforms

    def recording(master_seed, streams, *rest):
        # each pass samples a row's streams as one stack: twelve for qpt
        # (probes x settings), three for a sweep
        drawn.extend((master_seed, stream) for stream in streams)
        return original(master_seed, streams, *rest)

    name = f"{command}{seed}"
    cfg = _write_config(tmp_path, f"{name}.json", p_grid=[0.1, 0.5], chi_p=[0.3], shots=5)
    argv = [command, "--config", cfg, "--out", str(tmp_path / f"{name}.csv"), "--mode", "mc"]
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_shot_uniforms", recording)
        assert main(argv + ["--seed", str(seed)]) == 0
    return drawn


def test_qpt_mc_neighbouring_seeds_draw_disjoint_streams(tmp_path, monkeypatch):
    # row r, probe i, setting j draws stream 12 r + 3 i + j under the fixed seed
    seven = _mc_streams(tmp_path, monkeypatch, 7)
    eight = _mc_streams(tmp_path, monkeypatch, 8)
    assert seven == [(7, stream) for stream in range(36)]
    assert len(set(eight)) == len(eight) == 36
    assert not set(seven) & set(eight)


def test_sampled_uncollapse_row_r_draws_streams_3r_to_3r_plus_2(tmp_path, monkeypatch):
    # row r, setting j draws stream 3 r + j under the fixed seed
    assert _mc_streams(tmp_path, monkeypatch, 7, "uncollapse") == [(7, s) for s in range(6)]


def test_qpt_mc_runs_at_the_largest_seed(tmp_path):
    cfg = _write_config(tmp_path, p_grid=[0.1, 0.5])
    argv = ["qpt", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--mode", "mc",
            "--shots", "20", "--seed", str(2**128 - 1)]
    assert main(argv) == 0


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_relaxation_limited_device_runs_a_decohered_qpt(tmp_path, mode):
    # T2 = 2*T1 leaves no pure dephasing: T_phi is infinite
    device = {"t1_ns": 450.0, "t2_echo_ns": 900.0, "t2_ramsey_ns": 900.0}
    cfg = _write_config(tmp_path, decoherence=True, device=device, p_grid=[0.2], chi_p=[0.4],
                        shots=200)
    assert main(["qpt", "--config", cfg, "--mode", mode, "--out", str(tmp_path / "x.csv")]) == 0
    _, rows = _read_csv(tmp_path / "x.csv")
    assert 0.0 < float(rows[0][1]) <= 1.0


@pytest.mark.parametrize("device, key", [
    ({"t2_echo_ns": 1e-310, "t2_ramsey_ns": 1e-310}, "t2_echo_ns"),
    ({"t1_ns": 1e-310, "t2_echo_ns": 1e-310, "t2_ramsey_ns": 1e-310}, "t1_ns"),
])
@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_a_decay_time_whose_reciprocal_overflows_exits_2_naming_its_key(tmp_path, capsys,
                                                                       command, device, key):
    # it once exited 3 with "decay times must be positive"
    cfg = _write_config(tmp_path, decoherence=True, device=device)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {key} 1e-310 is too small: its reciprocal overflows\n"
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_numeric_failure_exits_3(tmp_path):
    # a strength this close to 1 saturates the reversal background and the
    # reconstruction cannot be carried out
    cfg = _write_config(tmp_path, p_grid=[1.0 - 1e-13])
    assert main(["uncollapse", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3


@pytest.mark.parametrize("visibility", [1e-15, 5e-324])
@pytest.mark.parametrize("command", ["uncollapse", "qpt"])
def test_exact_roundoff_past_the_unit_ball_exits_3(tmp_path, capsys, command, visibility):
    # background subtraction over a tiny visibility amplifies float64 roundoff
    # into a non-physical state, which an exact row must not print
    cfg = _write_config(tmp_path, device={"visibility": visibility}, p_grid=[0.0, 0.9])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("command", ["uncollapse", "qpt"])
def test_sampled_reconstruction_that_is_not_finite_exits_3(tmp_path, capsys, command):
    # sampled points may leave the unit ball, but over a visibility this
    # small background subtraction overflows to infinite components
    cfg = _write_config(tmp_path, device={"visibility": 5e-324}, p_grid=[0.0, 0.9])
    argv = [command, "--config", cfg, "--out", str(tmp_path / "x.csv"), "--mode", "mc",
            "--shots", "200"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_sampled_reconstruction_that_is_huge_but_finite_writes_finite_numbers(tmp_path, capsys,
                                                                              command):
    # over visibility 1e-300 the sampled components reach about 1e299:
    # finite, too large to square in float64, and still with a direction
    out = tmp_path / "out"
    out.mkdir()
    cfg = _write_config(tmp_path, device={"visibility": 1e-300}, p_grid=[0.0, 0.9])
    argv = [command, "--config", cfg, "--out", str(out / "x.csv"), "--mode", "mc",
            "--shots", "200"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(out / "x.csv")
    values = [float(v) for row in rows for v in row]
    for chi in out.glob("x_chi_p*.json"):
        payload = json.loads(chi.read_text(), parse_constant=lambda name: math.nan)
        values += [v for key in ("chi_real", "chi_imag") for row in payload[key] for v in row]
    assert len(list(out.iterdir())) == (2 if command == "qpt" else 1)
    assert all(map(math.isfinite, values)) and max(map(abs, values)) > 1e290


def test_exact_qpt_stack_failing_in_its_chi_row_writes_nothing(tmp_path, capsys):
    # the whole p_grid + chi_p runs as one stack; only the chi_p row fails
    out = tmp_path / "out"
    out.mkdir()
    cfg = _write_config(tmp_path, device={"visibility": 1e-15}, p_grid=[0.0], chi_p=[0.9])
    assert main(["qpt", "--config", cfg, "--out", str(out / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert list(out.iterdir()) == []
    grid_only = _write_config(tmp_path, "grid.json", device={"visibility": 1e-15}, p_grid=[0.0],
                              chi_p=[])
    assert main(["qpt", "--config", grid_only, "--out", str(out / "x.csv")]) == 0


def test_exact_qpt_compiles_and_folds_once_for_every_row(tmp_path, monkeypatch):
    import uncollapse.cli as cli
    import uncollapse.protocol as protocol
    import uncollapse.tomography as tomography

    folds, chis = [], []
    fold, chi = tomography.fold, cli.exact_uncollapse_chi
    monkeypatch.setattr(tomography, "fold", lambda *a: folds.append(1) or fold(*a))
    monkeypatch.setattr(cli, "exact_uncollapse_chi", lambda *a: chis.append(1) or chi(*a))
    cfg = _write_config(tmp_path, p_grid=[0.04 * i for i in range(20)], chi_p=[0.47],
                        decoherence=True)
    protocol.compile_sequence.cache_clear()
    assert main(["qpt", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    assert protocol.compile_sequence.cache_info().misses == 1
    assert len(folds) == 1 and len(chis) == 21


@pytest.mark.parametrize("decoherence", [False, True])
@pytest.mark.parametrize("command", ["collapse", "uncollapse", "qpt"])
def test_exact_commands_build_no_record_and_reconstruct_no_member_alone(tmp_path, monkeypatch,
                                                                        command, decoherence):
    # the exact engine carries one checked table per stack and both engines
    # invert tables: a per-member record or reconstruction coming back would
    # show up here
    import uncollapse.cli as cli
    import uncollapse.qpt as qpt
    import uncollapse.tomography as tomography

    calls = []
    for module in (cli, qpt, tomography):
        for name in ("bloch_reconstruct", "bloch_rows", "polar_azimuth"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, f=original, **k:
                                    calls.append(f.__name__) or f(*a, **k))
    post_init = tomography.TomographyRecord.__post_init__
    monkeypatch.setattr(tomography.TomographyRecord, "__post_init__",
                        lambda self: calls.append("record") or post_init(self))
    p_grid, chi_p = [0.04 * i for i in range(20)], [0.47, 0.9]
    cfg = _write_config(tmp_path, p_grid=p_grid, chi_p=chi_p, decoherence=decoherence)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    assert calls == ["bloch_rows"]
    # sampled mode still builds a record per row (and per probe for qpt), and
    # inverts one table per command
    calls.clear()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv"), "--mode", "mc",
                 "--shots", "20"]) == 0
    records = 4 * (len(p_grid) + len(chi_p)) if command == "qpt" else len(p_grid)
    assert sorted(calls) == ["bloch_rows"] + ["record"] * records


def _sampled_rows(tmp_path, command, config, shots, seed):
    """The sweep's config and the reference Bloch vector of each sampled
    row: its own record, reconstructed alone."""
    from uncollapse.cli import assemble
    from uncollapse.montecarlo import estimate_probabilities
    from uncollapse.tomography import bloch_reconstruct

    cfg = _write_config(tmp_path, f"{command}{seed}.json", mode="mc", shots=shots, seed=seed,
                        **config)
    sweep, base = assemble(config, build_parser().parse_args([command, "--out", "x.csv"]))
    records = [estimate_probabilities(base.at_strength(p), shots, seed, kind=command,
                                      stream_base=3 * r) for r, p in enumerate(sweep.p_grid)]
    return cfg, records, lambda t: bloch_reconstruct(t, base.device.visibility)


@pytest.mark.parametrize("command", ["collapse", "uncollapse"])
def test_sampled_sweeps_invert_one_table_as_each_record_alone(tmp_path, monkeypatch, command):
    import uncollapse.cli as cli

    tables = []
    bloch_rows = cli.bloch_rows
    monkeypatch.setattr(cli, "bloch_rows",
                        lambda *a, **k: tables.append(bloch_rows(*a, **k)) or tables[-1])
    rng = np.random.default_rng(23)
    outside = 0
    for case in range(8):
        config = {
            "theta0_rad": float(rng.uniform(0.0, math.pi)),
            "phi0_rad": float(rng.uniform(0.0, 2.0 * math.pi)),
            "p_grid": [0.0, *sorted(np.round(rng.uniform(0.01, 0.9, 3), 4).tolist())],
            "decoherence": bool(case & 1),
            "device": {"visibility": (1.0, 0.9)[case >> 1 & 1]},
        }
        seed = int(rng.integers(2**63))
        cfg, records, reconstruct = _sampled_rows(tmp_path, command, config,
                                                  (300, 2049)[case >> 2], seed)
        out = tmp_path / f"{command}{seed}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        reference = np.array([[*reconstruct(t)] for t in records])
        assert (tables.pop() == reference).all()
        # each row prints its vector as it is, outside the unit ball or not
        _, rows = _read_csv(out)
        assert [row[5:8] for row in rows] == [[_fmt(v) for v in vec] for vec in reference]
        outside += int((np.linalg.norm(reference, axis=1) > 1.0).sum())
    assert outside > 0


@pytest.mark.parametrize("command, seed", [("collapse", 11), ("uncollapse", 0)])
def test_a_sampled_sweep_fails_at_its_first_saturated_row(tmp_path, capsys, command, seed):
    # one shot per setting: under this seed row 0 reconstructs and row 1 sees
    # a detection before analysis in all three settings, so its P_B is 1
    config = {"p_grid": [0.5, 0.99]}
    cfg, records, reconstruct = _sampled_rows(tmp_path, command, config, 1, seed)
    assert 0.0 < records[0].p_b < 1.0 and records[1].p_b == 1.0
    reconstruct(records[0])
    with pytest.raises(SimulationError) as failure:
        reconstruct(records[1])
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out / "x.csv")]) == 3
    assert capsys.readouterr().err == f"error: {failure.value}\n"
    assert list(out.iterdir()) == []


def test_a_sampled_qpt_fails_at_its_first_saturated_row(tmp_path, capsys):
    # one shot per setting: under seed 0 every probe of row 0 reconstructs and
    # the |1> probe of row 1 sees a detection before analysis in all three
    # settings, so its P_B is 1; every row is estimated before any is inverted
    from uncollapse.cli import assemble

    config = {"p_grid": [0.5, 0.99], "chi_p": [0.47], "mode": "mc", "shots": 1, "seed": 0}
    cfg = _write_config(tmp_path, **config)
    _, base = assemble(config, build_parser().parse_args(["qpt", "--out", "x.csv"]))
    [one, *_] = uncollapse.estimate_probabilities(base.at_strength(0.99), 1, 0, "uncollapse", 12,
                                                  uncollapse.PROBE_STATES)
    assert one.p_b == 1.0
    uncollapse.montecarlo_uncollapse_chi(base.at_strength(0.5), 1, 0, 0)
    with pytest.raises(SimulationError) as failure:
        uncollapse.montecarlo_uncollapse_chi(base.at_strength(0.99), 1, 0, 12)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["qpt", "--config", cfg, "--out", str(out / "x.csv")]) == 3
    assert capsys.readouterr().err == f"error: {failure.value}\n"
    assert list(out.iterdir()) == []


def test_sampled_qpt_rows_equal_the_public_sampled_chi(tmp_path, monkeypatch):
    # the command inverts one table for all its rows and ends in the exact
    # engine's chi tail; row r still equals montecarlo_uncollapse_chi at
    # stream base 12 r, in its chi matrix, its CSV fidelity and its chi file
    import uncollapse.cli as cli

    chis = []
    chi = cli.exact_uncollapse_chi
    monkeypatch.setattr(cli, "exact_uncollapse_chi", lambda *a: chis.append(chi(*a)) or chis[-1])
    rng = np.random.default_rng(26)
    for case in range(8):
        config = {
            "theta0_rad": float(rng.uniform(0.0, math.pi)),
            "p_grid": sorted(np.round(rng.uniform(0.0, 0.9, 3), 4).tolist()),
            "chi_p": [0.47, float(np.round(rng.uniform(0.0, 0.9), 4))],
            "pi_fraction": float(rng.uniform(0.8, 1.1)),
            "decoherence": bool(case & 1),
            "device": {"visibility": (1.0, 0.9)[case >> 1 & 1]},
            "mode": "mc",
            "shots": (200, 2049)[case >> 2],
            "seed": int(rng.integers(2**63)),
        }
        cfg = _write_config(tmp_path, f"qpt{case}.json", **config)
        sweep, base = cli.assemble(config, build_parser().parse_args(["qpt", "--out", "x.csv"]))
        out = tmp_path / f"qpt{case}.csv"
        assert main(["qpt", "--config", cfg, "--out", str(out)]) == 0
        want = [uncollapse.montecarlo_uncollapse_chi(base.at_strength(p), sweep.shots, sweep.seed,
                                                     12 * r)
                for r, p in enumerate(sweep.p_grid + sweep.chi_p)]
        assert len(chis) == len(want)
        assert all((got.matrix == ref.matrix).all() for got, ref in zip(chis, want))
        chis.clear()
        _, rows = _read_csv(out)
        fidelities = [_fmt(uncollapse.process_fidelity(ref)) for ref in want]
        assert rows == [[_fmt(p), f] for p, f in zip(sweep.p_grid, fidelities)]
        for p, ref in zip(sweep.chi_p, want[len(sweep.p_grid):]):
            payload = json.loads((tmp_path / f"qpt{case}_chi_p{_fmt(p)}.json").read_text())
            assert payload["chi_real"] == [[float(_fmt(v)) for v in row] for row in ref.matrix.real]
            assert payload["chi_imag"] == [[float(_fmt(v)) for v in row] for row in ref.matrix.imag]
            assert payload["fidelity"] == float(_fmt(uncollapse.process_fidelity(ref)))


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("command", ["collapse", "uncollapse"])
def test_sweeps_read_every_polar_angle_in_one_pass(tmp_path, monkeypatch, command, mode):
    # both engines hand one row tail their (k, 3) Bloch rows: an angle read
    # row by row coming back would show up here
    import uncollapse.cli as cli
    import uncollapse.tomography as tomography

    calls = []
    for module in (cli, tomography):
        for name in ("polar_angles", "polar_azimuth"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *a, f=original: calls.append(f.__name__) or f(*a))
    cfg = _write_config(tmp_path, p_grid=[0.04 * i for i in range(20)], decoherence=True)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv"), "--mode", mode,
                 "--shots", "20"]) == 0
    assert calls == ["polar_angles"]


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


def test_exact_commands_never_load_numpy_random(tmp_path):
    # the Monte Carlo imports numpy.random at its first draw, so exact runs
    # start without loading it
    script = (
        "import sys\n"
        "from uncollapse.cli import main\n"
        "for command in ('collapse', 'uncollapse', 'qpt'):\n"
        "    assert main([command, '--out', command + '.csv']) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'an exact run loaded numpy.random'\n"
    )
    run = _run_python(["-c", script], tmp_path)
    assert run.returncode == 0, run.stderr


@pytest.mark.skipif(not _is_installed("uncollapse"),
                    reason="distribution 'uncollapse' is not installed (PackageNotFoundError)")
def test_console_script_on_path_when_installed():
    installed = importlib.metadata.distribution("uncollapse").entry_points
    scripts = {ep.name: ep.value for ep in installed if ep.group == "console_scripts"}
    assert scripts.get("uncollapse") == _declared_console_scripts()["uncollapse"]
    search = sysconfig.get_path("scripts") + os.pathsep + os.environ.get("PATH", "")
    assert shutil.which("uncollapse", path=search) is not None
