"""README drift: the library quick start runs and prints what it promises, and
the config schema shows the defaults."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs_and_prints_its_documented_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no python block under 'Library quick start'"
    inherited = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
    run = subprocess.run([sys.executable, "-c", block.group(1)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # p_success and p_background at p = 0.5, then the ideal process fidelity
    assert run.stdout.splitlines()[:3] == ["0.5", "0.5", "1.0"]


def test_the_package_exports_its_public_names_and_the_quick_start_imports_them():
    import types

    import uncollapse

    public = [name for name, value in vars(uncollapse).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert uncollapse.__all__ == sorted(public)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    imported = re.search(r"from uncollapse import \((.*?)\)", readme, re.S).group(1)
    names = [name for name in re.split(r"[\s,]+", imported) if name]
    assert len(names) == 10
    namespace = {}
    exec("from uncollapse import *", namespace)
    assert set(names) <= set(namespace)


def test_the_readme_config_schema_shows_the_default_config():
    from uncollapse.cli import DEFAULT_CONFIG, DEFAULT_P_GRID

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config schema\n.*?```json\n(.*?)```", readme, re.S)
    assert block is not None, "README has no json block under 'Config schema'"
    # the README shortens the default grid to its first five values
    assert json.loads(block.group(1)) == dict(DEFAULT_CONFIG, p_grid=DEFAULT_P_GRID[:5])
