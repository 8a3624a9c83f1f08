"""The package's public names and imports: ``from multinav import *`` must import
cleanly, and importing the package needs numpy alone."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import multinav


def test_all_is_sorted_and_every_name_resolves():
    assert multinav.__all__ == sorted(multinav.__all__)
    assert [name for name in multinav.__all__ if not hasattr(multinav, name)] == []
    namespace: dict = {}
    exec("from multinav import *", namespace)
    assert set(multinav.__all__) <= set(namespace)


def test_importing_the_package_and_cli_loads_no_scipy():
    """The package runs on numpy alone; scipy is a test-only dependency."""
    code = (
        "import sys, multinav, multinav.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(multinav.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_every_module_parses_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10; the grammar is checked
    here, since a 3.10 interpreter with numpy may not be at hand."""
    modules = sorted(Path(multinav.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
