#!/usr/bin/env python3
"""Benchmark of the uncollapse command line, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  A run starts one fresh
interpreter per pass (``perfbench/worker.py``), one after another, and each
pass calls ``uncollapse.cli.main`` for every CLI invocation of the workload.
No threads, no process pool.  The workload seed generates the CLI config
(``--seed`` and the initial state theta0, phi0); the program sees only that
config.  Passes repeat while another one fits in ``--seconds``.  Wall time is
the mean over the run's passes, and the throughputs are the work of all
passes over their summed wall time: on a shared 2-vCPU host the CPU speed
drifts by tens of percent over seconds to minutes (user CPU time drifts with
wall time, so it is contention, not waiting), and the mean, which uses every
measured second, spread less from run to run than the median or the fastest
pass.  The report line keeps the fastest pass, median and quartiles too.
Set-up time and memory are medians over passes.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics; the traced passes wrap each module's functions from
outside (``perfbench/tracer.py``).

After every pass, outside its timed region, the parent checks the outputs
(``perfbench/checks.py``) and records their SHA-256.  A CLI invocation that
exits nonzero, writes an output that fails its check, or writes bytes that
differ from the first pass of the run (or from an earlier run of the same
workload, seed and source tree in this checkout) counts as failed.

The last line of standard output is the JSON result; the line before it
holds the full report, provenance included.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"
PASS_TIMEOUT_S = 120

# Why each workload exists:
# * mc_sweep: the sampled reversal sweep on the default 20-point grid with
#   large batches and 3 uniforms per shot; nearly all of its time is the
#   per-shot counter-based uniforms and the trajectory kernel.
# * mc_qpt_decohered: sampled process tomography with decoherence on; small
#   batches over many points x 4 probes x 3 settings (over 100 kernel calls),
#   15 uniforms per shot and every jump/flip branch, so fixed per-call cost
#   shows here and not in mc_sweep.
# * exact_grid: the exact engine on a fine grid (collapse and uncollapse
#   without decoherence, then qpt with it); it never enters montecarlo, so a
#   Monte Carlo optimisation should leave it unchanged.
WORKLOADS = ("mc_sweep", "mc_qpt_decohered", "exact_grid")

# full size, and the tiny size the self-tests use
SIZES = {
    False: {"sweep_shots": 2000, "qpt_shots": 600, "qpt_points": 10, "exact_points": 500},
    True: {"sweep_shots": 40, "qpt_shots": 40, "qpt_points": 3, "exact_points": 12},
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "points_per_s": "1/s",
    "shots_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "montecarlo.uniforms.calls": "count",
    "montecarlo.uniforms.shots": "count",
    "montecarlo.uniforms.draws": "count",
    "montecarlo.uniforms.busy_s": "s",
    "montecarlo.uniforms.self_s": "s",
    "montecarlo.uniforms.ns_per_shot": "ns/shot",
    "montecarlo.trajectory.calls": "count",
    "montecarlo.trajectory.shots": "count",
    "montecarlo.trajectory.busy_s": "s",
    "montecarlo.trajectory.self_s": "s",
    "montecarlo.trajectory.ns_per_shot": "ns/shot",
    "montecarlo.estimate.calls": "count",
    "montecarlo.estimate.self_s": "s",
    "montecarlo.postselected_ratio": "ratio",
    "montecarlo.kernel_share": "ratio",
    "protocol.run_exact.calls": "count",
    "protocol.run_exact.busy_s": "s",
    "protocol.run_exact.self_s": "s",
    "protocol.run_exact.us_per_call": "us/call",
    "channels.ops.calls": "count",
    "channels.ops.busy_s": "s",
    "qubit.validate.calls": "count",
    "qubit.validate.busy_s": "s",
    "tomography.forward.calls": "count",
    "tomography.forward.self_s": "s",
    "tomography.exact_record.calls": "count",
    "tomography.exact_record.self_s": "s",
    "tomography.reconstruct.calls": "count",
    "tomography.reconstruct.busy_s": "s",
    "qpt.reconstruct.calls": "count",
    "qpt.reconstruct.busy_s": "s",
    "qpt.reconstruct.us_per_call": "us/call",
    "qpt.chi.calls": "count",
    "qpt.chi.self_s": "s",
    "cli.write.calls": "count",
    "cli.write.busy_s": "s",
    "cli.write.bytes": "B",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.absent_targets": "count",
}


def clock():
    """System-wide monotonic clock, comparable between parent and worker."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Command:
    argv: list  # CLI arguments after the config and output paths
    out_name: str
    check: object  # function(out_dir) -> list of problems


@dataclass
class Plan:
    workload: str
    config: dict
    commands: list
    points: int  # CSV rows plus chi files per pass
    shot_settings: int  # points x probes x 3 settings x shots (exact: shots = 1)
    tolerances: dict = field(default_factory=dict)

    def argvs(self, config_path, out_dir):
        return [
            [c.argv[0], "--config", str(config_path), "--out", str(out_dir / c.out_name), *c.argv[1:]]
            for c in self.commands
        ]


def make_plan(workload, seed, smoke):
    """Generate the workload's CLI config and its checks from the seed."""
    import checks

    size = SIZES[smoke]
    rng = random.Random(f"{workload}:{seed}")
    theta0 = rng.uniform(0.15 * math.pi, 0.85 * math.pi)
    phi0 = rng.uniform(0.0, 2.0 * math.pi)
    cli_seed = str(rng.randrange(2**31))
    config = {"theta0_rad": theta0, "phi0_rad": phi0}

    if workload == "mc_sweep":
        p_grid = [round(0.05 * i, 10) for i in range(20)]
        shots = size["sweep_shots"]
        config.update(p_grid=p_grid, decoherence=False)
        flags = ["--mode", "mc", "--shots", str(shots), "--seed", cli_seed, "--no-decoherence"]
        check = checks.mc_sweep_check("mc_sweep.csv", "uncollapse", theta0, phi0, p_grid, shots)
        return Plan(
            workload,
            config,
            [Command(["uncollapse", *flags], "mc_sweep.csv", check)],
            points=len(p_grid),
            shot_settings=len(p_grid) * 3 * shots,
        )

    if workload == "mc_qpt_decohered":
        p_grid = [round(0.1 * i, 10) for i in range(size["qpt_points"])]
        chi_p = [0.47]
        shots = size["qpt_shots"]
        config.update(p_grid=p_grid, decoherence=True, chi_p=chi_p)
        flags = ["--mode", "mc", "--shots", str(shots), "--seed", cli_seed]
        check, table = checks.mc_qpt_check("mc_qpt.csv", theta0, phi0, p_grid, chi_p, shots)
        n = len(p_grid) + len(chi_p)
        return Plan(
            workload,
            config,
            [Command(["qpt", *flags], "mc_qpt.csv", check)],
            points=n,
            shot_settings=n * 4 * 3 * shots,
            tolerances={str(p): {"exact": f, "tolerance": tol} for p, (f, tol) in table.items()},
        )

    if workload == "exact_grid":
        n = size["exact_points"]
        # the paper's strength range; decohered fidelity stays above 0.6 there
        p_grid = [round(0.95 * i / n, 12) for i in range(n)]
        chi_p = [0.47]
        config.update(p_grid=p_grid, decoherence=True, chi_p=chi_p)
        flags = ["--mode", "exact", "--seed", cli_seed]
        commands = [
            Command(
                [kind, *flags, "--no-decoherence"],
                f"exact_{kind}.csv",
                checks.exact_sweep_check(f"exact_{kind}.csv", kind, theta0, p_grid),
            )
            for kind in ("collapse", "uncollapse")
        ]
        commands.append(
            Command(["qpt", *flags], "exact_qpt.csv", checks.exact_qpt_check("exact_qpt.csv", p_grid, chi_p))
        )
        return Plan(
            workload,
            config,
            commands,
            points=3 * n + len(chi_p),
            shot_settings=2 * 3 * n + (n + len(chi_p)) * 4 * 3,
        )

    raise ValueError(f"unknown workload {workload!r}")


def spawn_worker(commands, traced):
    """Run one pass in a fresh interpreter; returns (worker result or None, spawn time, error)."""
    spec = json.dumps({"commands": commands, "trace": traced})
    started = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(SRC), spec],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, started, f"worker timed out after {PASS_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, started, f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(lines[-1]), started, ""


def digest_dir(out_dir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def run_pass(plan, config_path, out_dir, traced):
    """One pass: run the worker, then check and digest its outputs."""
    import checks

    out_dir.mkdir(parents=True)
    result, started, error = spawn_worker(plan.argvs(config_path, out_dir), traced)
    n = len(plan.commands)
    if result is None:
        return {"traced": traced, "codes": [None] * n, "problems": [[error]] * n, "digests": {}}
    problems = [
        ([result["errors"][i] or f"exit code {code}"] if code != 0 else [])
        + checks.run_check(command.check, out_dir)
        for i, (command, code) in enumerate(zip(plan.commands, result["codes"]))
    ]
    entry = {
        "traced": traced,
        "setup_s": result["ready"] - started,
        "wall_s": result["wall_s"],
        "rss_mb": result["rss_mb"],
        "codes": result["codes"],
        "problems": problems,
        "digests": digest_dir(out_dir),
        "trace": result["trace"],
        "unrestored": result["unrestored"],
    }
    shutil.rmtree(out_dir)
    return entry


def source_digest():
    """SHA-256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if head.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(seed, source_sha):
    import numpy

    commit, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_sha,
        "workload_seed": seed,
    }


def check_determinism(plan, passes, key):
    """Compare every pass's output digests with the reference for this
    workload, seed and source tree: an earlier run's, else the first pass's.
    Adds a problem to each command whose bytes differ."""
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    completed = [p for p in passes if p["digests"]]
    if not completed:
        return {"reference": None, "mismatches": []}
    reference = store.get(key)
    source = "earlier run"
    if reference is None:
        reference, source = completed[0]["digests"], "first pass"
        store[key] = reference
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)
    mismatches = []
    for index, entry in enumerate(passes):
        if not entry["digests"]:
            continue
        for name in sorted(set(reference) | set(entry["digests"])):
            if reference.get(name) == entry["digests"].get(name):
                continue
            mismatches.append({"pass": index, "file": name})
            for command, problems in zip(plan.commands, entry["problems"]):
                if name.startswith(command.out_name.rsplit(".", 1)[0]):
                    problems.append(f"{name}: bytes differ from the {source}")
    return {"reference": source, "files": reference, "mismatches": mismatches}


def end_to_end_metrics(plan, passes):
    wall = statistics.fmean(p["wall_s"] for p in passes)
    per_second = 1.0 / max(wall, 1e-9)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "points_per_s": plan.points * per_second,
        "shots_per_s": plan.shot_settings * per_second,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(entry):
    """Per-layer metrics of one traced pass."""
    summary, wall = entry["trace"], entry["wall_s"]
    layers, counts = summary["layers"], summary["counts"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in layers.get(layer, {}):
            out[name] = layers[layer][stat]
        elif name in counts:
            out[name] = counts[name]
    for layer in ("montecarlo.uniforms", "montecarlo.trajectory"):
        out[f"{layer}.ns_per_shot"] = _ratio(out[f"{layer}.busy_s"], out[f"{layer}.shots"], 1e9)
    out["montecarlo.postselected_ratio"] = _ratio(
        counts.get("montecarlo.trajectory.kept", 0), out["montecarlo.trajectory.shots"]
    )
    out["montecarlo.kernel_share"] = _ratio(
        out["montecarlo.uniforms.self_s"] + out["montecarlo.trajectory.self_s"], wall
    )
    for layer in ("protocol.run_exact", "qpt.reconstruct"):
        out[f"{layer}.us_per_call"] = _ratio(out[f"{layer}.busy_s"], out[f"{layer}.calls"], 1e6)
    out["trace.wall_s"] = wall
    out["trace.spans"] = summary["spans"]
    out["trace.absent_targets"] = len(summary["absent"])
    return out


def per_layer_metrics(passes):
    traced = [layer_metrics(p) for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    if not traced or not untraced:
        return {}
    out = {name: statistics.median(m[name] for m in traced) for name in PER_LAYER}
    out["trace.untraced_wall_s"] = statistics.median(untraced)
    out["trace.overhead_ratio"] = _ratio(out["trace.wall_s"], out["trace.untraced_wall_s"])
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="how long to keep starting passes")
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes and the fewest passes (self-tests)"
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "uncollapse" / "cli.py").is_file():
        print(f"error: no uncollapse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    plan = make_plan(args.workload, args.seed, args.smoke)
    source_sha = source_digest()
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(plan.config))
    passes = []
    try:
        if not args.smoke:
            # warm the page cache and bytecode cache; not measured
            spawn_worker([], False)
        min_passes = 2 if args.trace else 1
        deadline = clock() + args.seconds
        durations = []
        while len(passes) < min_passes or (
            not args.smoke and clock() + statistics.median(durations) < deadline
        ):
            traced = bool(args.trace) and len(passes) % 2 == 1
            started = clock()
            passes.append(run_pass(plan, config_path, run_dir / f"pass-{len(passes)}", traced))
            durations.append(clock() - started)
            if "wall_s" not in passes[-1]:
                break  # the worker crashed or timed out; more passes would too
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    key = f"{args.workload}|{args.seed}|{'smoke' if args.smoke else 'full'}|{source_sha}"
    determinism = check_determinism(plan, passes, key)
    attempted = sum(len(p["problems"]) for p in passes)
    failed = sum(bool(problems) for p in passes for problems in p["problems"])
    unrestored = sum(p.get("unrestored", 0) for p in passes)
    timed = [p for p in passes if "wall_s" in p]
    walls = [p["wall_s"] for p in timed if not p["traced"]]
    if args.trace:
        metrics = per_layer_metrics(timed)
    else:
        metrics = end_to_end_metrics(plan, timed) if timed else {}
    measured = bool(metrics)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: metrics.get(name, 0.0) for name in units}

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} CLI invocations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<36} {_ratio(failed, attempted):>16.6g} ({failed}/{attempted})")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "config": plan.config,
        "commands": plan.argvs("CONFIG", Path("OUT")),
        "points_per_pass": plan.points,
        "shot_settings_per_pass": plan.shot_settings,
        "provenance": provenance(args.seed, source_sha),
        "error_rate": _ratio(failed, attempted),
        "problems": [msg for p in passes for problems in p["problems"] for msg in problems][:20],
        "fidelity_tolerances": plan.tolerances,
        "determinism": determinism,
        "absent_targets": sorted({a for p in timed if p.get("trace") for a in p["trace"]["absent"]}),
        "unrestored_patches": unrestored,
        "wall_s_fastest": min(walls, default=None),
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "passes": [
            {k: p.get(k) for k in ("traced", "setup_s", "wall_s", "rss_mb", "codes")} for p in passes
        ],
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": measured and failed == 0 and unrestored == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
