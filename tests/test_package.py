"""The package binds its modules and nothing else.

Every name is imported from the module that defines it, such as
``circlegather.sim.run``; ``circlegather/__init__.py`` re-exports none of
them. It imports the library modules, so ``import circlegather`` is enough
to reach ``circlegather.sim.run``, and loads neither ``dataclasses`` nor
``inspect`` to do so.
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


def fresh_import(code: str) -> set:
    """The words ``code`` prints after ``import circlegather`` in a fresh interpreter.

    Not in this one: here any test that imports a module, such as
    ``circlegather.cli``, binds it on the package too, and the standard
    library's modules are already loaded.
    """
    src = str(Path(circlegather.__file__).resolve().parents[1])
    head = "import sys; before = set(sys.modules); import circlegather; "
    out = subprocess.run(
        [sys.executable, "-c", head + code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_importing_the_package_binds_its_modules():
    assert MODULES <= fresh_import("print(*vars(circlegather))")


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """The records are NamedTuples and ``__slots__`` classes, so the import runs no
    dataclass machinery. Only modules the import adds count, not those of start-up."""
    loaded = fresh_import("print(*set(sys.modules) - before)")
    assert {f"circlegather.{name}" for name in MODULES} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
