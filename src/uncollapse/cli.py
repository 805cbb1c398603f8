"""Command line interface: strength sweeps to CSV and process matrices to JSON.

Three subcommands share one JSON config format:

* ``collapse``    sweep of the single-measurement sequence
* ``uncollapse``  sweep of the reversal sequence (adds a p_success column)
* ``qpt``         process-fidelity sweep plus full chi matrices

All numeric output is serialized with 12 significant digits and LF line
endings, so identical configs and seeds produce byte-identical files.
Exit codes: 2 for a bad config or an output that cannot be written, 3 for a
numeric failure during the run.
"""

import argparse
import functools
import json
import math
import os
import re
import reprlib
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import SimulationError
from .montecarlo import estimate_probabilities
from .protocol import ExperimentConfig, PulseTiming
# montecarlo_uncollapse_chi, bloch_reconstruct and exact_tomography_record are not called
# here; they stay importable here, where perfbench/tracer.py looks the per-row calls up
from .qpt import (PAULI_LABELS, PROBE_STATES, exact_uncollapse_chi,  # noqa: F401
                  montecarlo_uncollapse_chi, process_fidelity)
from .qubit import DeviceParams, PureState, default_device
from .tomography import (bloch_reconstruct, bloch_rows, exact_tomography_record,  # noqa: F401
                         exact_tomography_sweep, polar_angles)

COLLAPSE_HEADER = ["p", "P_X", "P_Y", "P_Z", "P_B", "X", "Y", "Z", "theta"]
UNCOLLAPSE_HEADER = COLLAPSE_HEADER + ["p_success"]
QPT_HEADER = ["p", "fidelity"]

DEFAULT_P_GRID = [round(0.05 * i, 10) for i in range(20)]   # 0.00 .. 0.95

# the config schema: a key takes the type of its default (see _typed)
DEFAULT_CONFIG = {
    "theta0_rad": math.pi / 2.0,
    "phi0_rad": 0.0,
    "p_grid": DEFAULT_P_GRID,
    "pi_fraction": 1.0,
    "phi_m_rate_rad": 4.0 * math.pi,
    "decoherence": False,
    "use_echo_t2": True,
    "p_error_fraction": 0.0,
    "mode": "exact",
    "shots": 20000,
    "seed": 12345,
    "chi_p": [0.47],
    # the device and timing keys are the DeviceParams and PulseTiming fields
    "device": asdict(default_device()),
    "timing_ns": {name.removesuffix("_ns"): v for name, v in asdict(PulseTiming()).items()},
}


class ConfigError(Exception):
    """The run configuration cannot be used."""


@dataclass(frozen=True)
class SweepSpec:
    """Sweep plan extracted from the config and command line."""

    p_grid: tuple
    mode: str
    shots: int
    seed: int
    chi_p: tuple

    def __post_init__(self):
        if self.mode not in ("exact", "mc"):
            raise ConfigError(f"mode must be 'exact' or 'mc', got {self.mode!r}")
        if not self.p_grid:
            raise ConfigError("p_grid must not be empty")
        for value in self.p_grid + self.chi_p:
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"strength {value} outside [0, 1)")
        if any(b <= a for a, b in zip(self.p_grid, self.p_grid[1:])):
            raise ConfigError("p_grid must be strictly increasing")
        # a qpt command names each chi file by its strength as _fmt prints it
        printed = {}
        for count, value in enumerate(self.chi_p, 1):
            first = printed.setdefault(_fmt(value), value)
            if len(printed) < count:
                raise ConfigError(f"chi_p strengths {first} and {value} print alike: {_fmt(value)}")
        # a shot index is a 64-bit word: a stream holds 2**64 shots
        if not 1 <= self.shots <= 2**64:
            raise ConfigError(f"shots {self.shots} outside [1, 2**64]")
        if not 0 <= self.seed < 2**128:
            raise ConfigError(f"seed {self.seed} outside [0, 2**128)")


_KINDS = {dict: "an object", list: "a list", bool: "true or false", str: "a string",
          int: "an integer", float: "a finite number"}


def _typed(default, value, key: str):
    """``value`` checked against the type of its ``default``, which it replaces.

    Objects merge over their defaults key by key and list items take the type
    of the default's items.  Numbers are JSON numbers, never bools or strings;
    an int key takes integral numbers and keeps them exact (a seed may need all
    128 bits).  Ranges are checked where the values are used.
    """
    kind = type(default)
    if kind is dict and type(value) is dict:
        prefix = f"{key}." if key else ""
        for name in value:
            if name not in default:
                raise ConfigError(f"unknown config key {prefix}{name!r}")
        return {name: _typed(item, value.get(name, item), prefix + name)
                for name, item in default.items()}
    if kind is list and type(value) is list:
        if type(default[0]) is float:  # one pass; the per-item call below only raises
            floats = [float(v) for v in value if type(v) in (int, float) and abs(v) <= sys.float_info.max]
            if len(floats) == len(value):
                return floats
        return [_typed(default[0], item, key) for item in value]
    # the bound also rejects NaN and integers too large for a float
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is int and (type(value) is int or type(value) is float and value.is_integer()):
        return int(value)
    if kind in (bool, str) and type(value) is kind:
        return value
    raise ConfigError(f"{key} must be {_KINDS[kind]}, got {reprlib.repr(value)}")


def load_config(path: str | None) -> dict:
    """Read a config file as a JSON object; no file reads as ``{}``."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, nested too deep, or an integer over the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


# a number flag: ASCII digits, a leading minus, a point and an exponent at most
_NUMBER = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _number(text: str):
    """The int or float a number flag spells in the grammar of ``_NUMBER``,
    else its text for _typed to reject."""
    if not _NUMBER.fullmatch(text):
        return text
    return int(text) if text.lstrip("-").isdigit() else float(text)


def assemble(raw: dict, args: argparse.Namespace) -> tuple[SweepSpec, ExperimentConfig]:
    """Merge the config and the flag overrides over the defaults, check them
    against ``DEFAULT_CONFIG`` and build the run inputs."""
    raw = dict(raw)
    for key in ("mode", "shots", "seed", "pi_fraction"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value if key == "mode" else _number(value)
    if args.no_decoherence:
        raw["decoherence"] = False
    config = _typed(DEFAULT_CONFIG, raw, "")
    try:
        sweep = SweepSpec(
            p_grid=tuple(config["p_grid"]),
            mode=config["mode"],
            shots=config["shots"],
            seed=config["seed"],
            chi_p=tuple(config["chi_p"]),
        )
        base = ExperimentConfig(
            initial=PureState(config["theta0_rad"], config["phi0_rad"]),
            p=0.0,
            pi_fraction=config["pi_fraction"],
            device=DeviceParams(**config["device"]),
            decoherence_enabled=config["decoherence"],
            phi_m_rate=config["phi_m_rate_rad"],
            timing=PulseTiming(**{f"{key}_ns": v for key, v in config["timing_ns"].items()}),
            use_echo_t2=config["use_echo_t2"],
            p_error_fraction=config["p_error_fraction"],
        )
    except SimulationError as exc:
        raise ConfigError(str(exc)) from exc
    return sweep, base


def _fmt(value: float) -> str:
    return "%.12g" % (float(value) + 0.0)


def _csv(header: list, rows) -> str:
    # each value as _fmt prints it: %.12g, with + 0.0 folding negative zero
    table = (np.asarray(rows, dtype=float) + 0.0).tolist()
    line = ",".join(["%.12g"] * len(header))
    return "\n".join([",".join(header), *(line % tuple(row) for row in table)]) + "\n"


def _table(sweep: SweepSpec, base: ExperimentConfig, kind: str, strengths, initials) -> tuple:
    """The (k, 4) table, the success probabilities and the Bloch rows of
    ``strengths`` x ``initials`` from either engine, row r*len(initials) + i from
    strength r and initial i.  Sampled row r draws streams from 3*len(initials)*r;
    one estimate samples every row before any is reconstructed, unrepaired."""
    if sweep.mode == "exact":
        table, p_success = exact_tomography_sweep(base, strengths, kind, initials)
    else:
        records = estimate_probabilities(base, sweep.shots, sweep.seed, kind, 0, initials, strengths)
        table = np.array([[t.p_x, t.p_y, t.p_z, t.p_b] for t in records])
        p_success = 1.0 - table[:, 3]
    return table, p_success, bloch_rows(table, base.device.visibility, sampled=sweep.mode == "mc")


def cmd_sweep(sweep: SweepSpec, base: ExperimentConfig, kind: str) -> list:
    table, p_success, vectors = _table(sweep, base, kind, sweep.p_grid, (base.initial,))
    rows = np.column_stack((sweep.p_grid, table, vectors, polar_angles(vectors), p_success))
    header = UNCOLLAPSE_HEADER if kind == "uncollapse" else COLLAPSE_HEADER
    return [_csv(header, rows[:, :len(header)])]


def _output_paths(command: str, sweep: SweepSpec, out: str) -> list:
    """Every file ``command`` writes, in the order its texts come (the CSV,
    then for qpt one chi JSON per ``chi_p`` strength, distinct by SweepSpec),
    each checked before the run to be a file path in an existing directory
    and to be no other output's file, by a symlink or a hard link."""
    stem = Path(out)
    chi_p = sweep.chi_p if command == "qpt" else ()
    paths = [stem] + [stem.parent / f"{stem.stem}_chi_p{_fmt(p)}.json" for p in chi_p]
    files = {}
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"cannot write output: {path} is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write output: {path.parent} is not a directory")
        try:
            keys = [path.resolve()]
            if path.exists():
                keys.append((path.stat().st_dev, path.stat().st_ino))
        except (OSError, RuntimeError) as exc:  # a symlink loop, or a path stat cannot read
            raise ConfigError(f"cannot write output: {exc}") from exc
        for key in keys:
            if files.setdefault(key, path) != path:
                raise ConfigError(f"cannot write output: {files[key]} and {path} are one file")
    return paths


def cmd_qpt(sweep: SweepSpec, base: ExperimentConfig) -> list:
    # one table for every row: row r holds probes 4r ... 4r+3
    _, _, vectors = _table(sweep, base, "uncollapse", sweep.p_grid + sweep.chi_p, PROBE_STATES)
    outputs = vectors.tolist()
    chis = [exact_uncollapse_chi(base, outputs[i:i + 4]) for i in range(0, len(outputs), 4)]
    rows = [[p, process_fidelity(chi)] for p, chi in zip(sweep.p_grid, chis)]
    texts = [_csv(QPT_HEADER, rows)]
    for p, chi in zip(sweep.chi_p, chis[len(sweep.p_grid):]):
        payload = {
            "p": float(_fmt(p)),
            "basis": list(PAULI_LABELS),
            "chi_real": [[float(_fmt(v)) for v in row] for row in chi.matrix.real],
            "chi_imag": [[float(_fmt(v)) for v in row] for row in chi.matrix.imag],
            "fidelity": float(_fmt(process_fidelity(chi))),
        }
        texts.append(json.dumps(payload, indent=2) + "\n")
    return texts


@functools.cache  # one shared parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncollapse",
        description="Simulate partial-measurement collapse and its reversal on a single qubit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("collapse", "sweep the single-measurement sequence"),
        ("uncollapse", "sweep the measurement-reversal sequence"),
        ("qpt", "process tomography of the reversal sequence"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config path (defaults apply when omitted)")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--mode", help="override config mode: exact or mc")
        cmd.add_argument("--shots", help="override shots per setting")
        cmd.add_argument("--seed", help="override master seed")
        cmd.add_argument("--pi-fraction", dest="pi_fraction",
                         help="override recovery pulse fraction")
        cmd.add_argument("--no-decoherence", action="store_true",
                         help="force decoherence off regardless of config")
    return parser


def _write_all(paths: list, texts: list) -> None:
    """Write each text to its path.  A new file, or a regular file with one
    link in a writable directory (symlinks followed), is staged in a
    temporary sibling, moved into place with the old file's mode once every
    text is written; anything else (/dev/null, a pipe) is written in place."""
    targets = [path.resolve() for path in paths]
    temps = [t.with_name(f".{t.name}.{os.getpid()}.tmp") if not p.exists() or (p.is_file() and
             p.stat().st_nlink == 1 and os.access(t.parent, os.W_OK)) else None
             for p, t in zip(paths, targets)]
    try:
        for path, temp, text in zip(paths, temps, texts, strict=True):
            (temp or path).write_text(text, newline="\n")
        for temp, target in zip(temps, targets):
            if temp and target.exists():
                os.chmod(temp, target.stat().st_mode & 0o7777)
            if temp:
                os.replace(temp, target)
    except OSError as exc:
        for temp in filter(None, temps):
            temp.unlink(missing_ok=True)
        names = {str(temp): str(path) for temp, path in zip(temps, paths) if temp}
        if exc.filename in names:  # name the output alone, not its temporary
            exc.filename = names[exc.filename]
            del exc.filename2
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        sweep, base = assemble(config, args)
        paths = _output_paths(args.command, sweep, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # every output is rendered before the first file is written
        texts = (cmd_qpt(sweep, base) if args.command == "qpt"
                 else cmd_sweep(sweep, base, args.command))
        _write_all(paths, texts)
    except (SimulationError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
