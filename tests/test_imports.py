"""Every subpackage imports on its own in a fresh interpreter.

The suite's own imports run in one process, so an import cycle that only
bites when a given module is imported *first* stays hidden there.  Each
check below starts a new interpreter that imports exactly one module.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SUBPACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)

#: Modules the README's "Adding a repair strategy" starts from.
ENTRY_MODULES = ["repro.tuning.graph", "repro.tuning.strategies"]


def test_discovers_the_subpackages():
    assert {"repro", "repro.core", "repro.tuning"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("module", SUBPACKAGES + ENTRY_MODULES)
def test_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
