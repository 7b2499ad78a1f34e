"""The package root exports nothing: each name comes from its own module."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import phaseless

SRC = Path(phaseless.__file__).resolve().parents[1]
MODULES = sorted(
    "phaseless" if p.stem == "__init__" else f"phaseless.{p.stem}"
    for p in (SRC / "phaseless").glob("*.py")
)

# imports each named module into an interpreter that holds no phaseless
# module, and prints the phaseless modules that import loaded
IMPORT_ALONE = (
    "import importlib, json, sys\n"
    "loaded = {}\n"
    "for name in sys.argv[1:]:\n"
    "    for m in [m for m in sys.modules if m.split('.')[0] == 'phaseless']:\n"
    "        del sys.modules[m]\n"
    "    importlib.import_module(name)\n"
    "    loaded[name] = sorted(m for m in sys.modules if m.split('.')[0] == 'phaseless')\n"
    "print(json.dumps(loaded))\n"
)


@pytest.fixture(scope="module")
def loaded_alone():
    """Each package module imported on its own under -W error: {module: phaseless modules loaded}."""
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", IMPORT_ALONE, *MODULES],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_reconstruct_module_is_not_shadowed():
    import phaseless.reconstruct as m

    assert isinstance(m, types.ModuleType)
    assert m.__name__ == "phaseless.reconstruct"


def test_every_module_imports_alone_without_a_warning(loaded_alone):
    # a module that only imports after another one (a hidden cycle) or
    # warns on import fails the subprocess
    assert sorted(loaded_alone) == MODULES


def test_grids_loads_only_its_dependencies(loaded_alone):
    assert loaded_alone["phaseless.grids"] == [
        "phaseless", "phaseless.exceptions", "phaseless.grids", "phaseless.jsonread"
    ]
