"""Fast self-tests of the benchmark: tiny sizes, a few seconds in all."""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        assert any(metric["name"] in line and line.endswith(metric["unit"]) for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.absent_targets"] == 0
    assert metrics["trace.overhead_ratio"] > 0
    monte_carlo = [v for name, v in metrics.items() if name.startswith("montecarlo.")]
    if workload == "exact_grid":
        assert not any(monte_carlo)
    else:
        assert metrics["montecarlo.uniforms.calls"] > 0
        assert 0 < metrics["montecarlo.postselected_ratio"] <= 1


def test_every_trace_target_resolves():
    missing = [f"{m}:{p}" for m, p, _, _ in tracer.TARGETS if tracer.resolve(m, p) is None]
    assert missing == []


def test_tracer_restores_every_original(tmp_path):
    import uncollapse.cli

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p_grid": [0.0, 0.5]}))
    out = tmp_path / "out.csv"
    before = [tracer.resolve(m, p)[2] for m, p, _, _ in tracer.TARGETS]
    t = tracer.Tracer()
    t.install()
    try:
        patched = [tracer.resolve(m, p)[2] for m, p, _, _ in tracer.TARGETS]
        assert all(a is not b for a, b in zip(before, patched))
        assert uncollapse.cli.main(["qpt", "--config", str(config), "--out", str(out)]) == 0
    finally:
        assert t.restore() == 0
    after = [tracer.resolve(m, p)[2] for m, p, _, _ in tracer.TARGETS]
    assert all(a is b for a, b in zip(before, after))
    layers = t.summary()["layers"]
    assert layers["cli.main"]["calls"] == 1
    assert layers["cli.write"]["calls"] == 2  # CSV and one chi JSON
    assert layers["qpt.chi"]["calls"] == 3


def test_self_time_excludes_child_spans(monkeypatch):
    module = types.ModuleType("perfbench_fake_layers")

    def inner():
        return 1

    def outer():
        return module.inner() + 1

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    ticks = iter(range(100))
    t = tracer.Tracer(
        targets=(
            (module.__name__, "outer", "outer", None),
            (module.__name__, "inner", "inner", None),
            (module.__name__, "gone", "gone", None),
        ),
        clock=lambda: next(ticks),
    )
    t.install()
    assert module.outer() == 2
    assert t.restore() == 0
    assert module.outer is outer and module.inner is inner
    summary = t.summary()
    # outer spans ticks 0..3 and inner 1..2
    assert summary["layers"]["outer"] == {"calls": 1, "busy_s": 3, "self_s": 2}
    assert summary["layers"]["inner"] == {"calls": 1, "busy_s": 1, "self_s": 1}
    assert summary["absent"] == [f"{module.__name__}:gone"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("exact_grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
