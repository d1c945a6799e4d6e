"""The package binds its modules and nothing else.

Every name is imported from the module that defines it, such as
``circlegather.sim.run``; ``circlegather/__init__.py`` re-exports none of
them. It imports the library modules, so ``import circlegather`` is enough
to reach ``circlegather.sim.run``.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import circlegather

MODULES = {"analysis", "angles", "configuration", "errors", "oracle", "protocol", "render", "sim"}


def test_every_public_attribute_of_the_package_is_one_of_its_modules():
    for name, value in vars(circlegather).items():
        if not name.startswith("_"):
            assert isinstance(value, ModuleType), name
            assert value.__name__ == f"circlegather.{name}", name


def test_importing_the_package_binds_its_modules():
    # In a fresh interpreter: here, any test that imports a module, such as
    # ``circlegather.cli``, binds it on the package too.
    src = str(Path(circlegather.__file__).resolve().parents[1])
    code = "import circlegather; print(*vars(circlegather))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert MODULES <= set(out.split())
