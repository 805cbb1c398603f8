"""Command line interface: strength sweeps to CSV and process matrices to JSON.

Three subcommands share one JSON config format:

* ``collapse``    sweep of the single-measurement sequence
* ``uncollapse``  sweep of the reversal sequence (adds a p_success column)
* ``qpt``         process-fidelity sweep plus full chi matrices

All numeric output is serialized with 12 significant digits and LF line
endings, so identical configs and seeds produce byte-identical files.
Exit codes: 2 for a bad config, 3 for a numeric failure during the run.
"""

import argparse
import json
import math
import reprlib
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import SimulationError
from .montecarlo import estimate_probabilities
from .protocol import ExperimentConfig, PulseTiming
from .qpt import exact_uncollapse_chi, montecarlo_uncollapse_chi, process_fidelity
from .qubit import DeviceParams, PureState, default_device
from .tomography import bloch_reconstruct, exact_tomography_record, polar_azimuth

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
        previous = -1.0
        for value in self.p_grid + self.chi_p:
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"strength {value} outside [0, 1)")
        for value in self.p_grid:
            if value <= previous:
                raise ConfigError("p_grid must be strictly increasing")
            previous = value
        # a shot index must fit the 64-bit counter word of its stream
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


def assemble(raw: dict, args: argparse.Namespace) -> tuple[SweepSpec, ExperimentConfig]:
    """Merge the config and the flag overrides over the defaults, check them
    against ``DEFAULT_CONFIG`` and build the run inputs."""
    raw = dict(raw)
    for key in ("mode", "shots", "seed", "pi_fraction"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
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
    value = float(value)
    if value == 0.0:
        value = 0.0  # fold negative zero
    return format(value, ".12g")


def _write_rows(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _sweep_rows(sweep: SweepSpec, base: ExperimentConfig, kind: str) -> list:
    rows = []
    for row_index, p in enumerate(sweep.p_grid):
        cfg = base.at_strength(p)
        if sweep.mode == "exact":
            record, outcome = exact_tomography_record(cfg, kind)
            p_success = outcome.p_success
        else:
            estimate = estimate_probabilities(
                cfg, sweep.shots, sweep.seed, kind=kind, stream_base=3 * row_index
            )
            record = estimate.record
            p_success = 1.0 - record.p_b
        vec = bloch_reconstruct(record, cfg.device.visibility)
        theta, _ = polar_azimuth(vec)
        row = [p, record.p_x, record.p_y, record.p_z, record.p_b, vec.x, vec.y, vec.z, theta]
        if kind == "uncollapse":
            row.append(p_success)
        rows.append(row)
    return rows


def cmd_collapse(sweep: SweepSpec, base: ExperimentConfig, out: str) -> None:
    _write_rows(out, COLLAPSE_HEADER, _sweep_rows(sweep, base, "collapse"))


def cmd_uncollapse(sweep: SweepSpec, base: ExperimentConfig, out: str) -> None:
    _write_rows(out, UNCOLLAPSE_HEADER, _sweep_rows(sweep, base, "uncollapse"))


def _chi_path(out: str, p: float) -> Path:
    stem = Path(out)
    return stem.with_name(f"{stem.stem}_chi_p{_fmt(p)}.json")


def cmd_qpt(sweep: SweepSpec, base: ExperimentConfig, out: str) -> None:
    def chi_at(p: float, row_index: int):
        cfg = base.at_strength(p)
        if sweep.mode == "exact":
            return exact_uncollapse_chi(cfg)
        return montecarlo_uncollapse_chi(cfg, sweep.shots, sweep.seed, stream_base=12 * row_index)

    rows = []
    for row_index, p in enumerate(sweep.p_grid):
        rows.append([p, process_fidelity(chi_at(p, row_index))])
    _write_rows(out, QPT_HEADER, rows)
    for extra_index, p in enumerate(sweep.chi_p):
        chi = chi_at(p, len(sweep.p_grid) + extra_index)
        payload = {
            "p": float(_fmt(p)),
            "basis": ["I", "X", "Y", "Z"],
            "chi_real": [[float(_fmt(v)) for v in row] for row in chi.matrix.real],
            "chi_imag": [[float(_fmt(v)) for v in row] for row in chi.matrix.imag],
            "fidelity": float(_fmt(process_fidelity(chi))),
        }
        _chi_path(out, p).write_text(json.dumps(payload, indent=2) + "\n", newline="\n")


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
        cmd.add_argument("--mode", choices=["exact", "mc"], help="override config mode")
        cmd.add_argument("--shots", type=int, help="override shots per setting")
        cmd.add_argument("--seed", type=int, help="override master seed")
        cmd.add_argument("--pi-fraction", type=float, dest="pi_fraction",
                         help="override recovery pulse fraction")
        cmd.add_argument("--no-decoherence", action="store_true",
                         help="force decoherence off regardless of config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        sweep, base = assemble(config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = {"collapse": cmd_collapse, "uncollapse": cmd_uncollapse, "qpt": cmd_qpt}
    try:
        handler[args.command](sweep, base, args.out)
    except (SimulationError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
