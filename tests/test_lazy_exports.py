"""Every package re-exports through one ``{module: names}`` table read by
``repro._exports`` (PEP 562): a name's module is imported on first use.

Each case runs in a fresh interpreter, since what matters is what a
name resolves to when nothing has been imported yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: every package whose ``__init__`` is only its export table
PACKAGES = (
    "repro", "repro.baselines", "repro.core", "repro.data", "repro.engines",
    "repro.engines.policies", "repro.experiments", "repro.ft", "repro.metrics",
    "repro.nas", "repro.nn", "repro.obs", "repro.partition", "repro.service",
    "repro.serving", "repro.sim", "repro.supernet",
)

#: run in a fresh interpreter with the package name as argv[1]; the table
#: is read back from the package's source, so nothing here restates it
_CHECK_PACKAGE = """
import ast, importlib, sys

name = sys.argv[1]
package = importlib.import_module(name)
assert set(package.__all__) <= set(dir(package)), set(package.__all__) - set(dir(package))

namespace = {}
exec(f"from {name} import *", namespace)
missing = set(package.__all__) - set(namespace)
assert not missing, missing

call = next(
    node for node in ast.walk(ast.parse(open(package.__file__).read()))
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_exports"
)
table = ast.literal_eval(call.args[1])
assert [n for names in table.values() for n in names] == [
    n for n in package.__all__ if n != "__version__"
]
for module, names in table.items():
    for export in names:
        if module == name:  # an exported submodule
            held = importlib.import_module(f"{name}.{export}")
        else:
            held = getattr(importlib.import_module(module), export)
        assert getattr(package, export) is held, (module, export)
        assert namespace[export] is held, (module, export)

try:
    package.no_such_name
except AttributeError as error:
    assert str(error) == f"module {name!r} has no attribute 'no_such_name'", error
else:
    raise AssertionError("an unknown name resolved")
"""


def _fresh(code: str, *argv: str) -> None:
    subprocess.run(
        [sys.executable, "-c", code, *argv],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package):
    _fresh(_CHECK_PACKAGE, package)


def test_a_submodule_still_imports_from_its_package():
    _fresh(
        "from repro import obs, errors\n"
        "import repro.obs.summary\n"
        "assert obs is repro.obs and errors.ConfigError.__module__ == 'repro.errors'"
    )


@pytest.mark.parametrize("first", ["repro.obs.critical_path", "repro.obs.summary"])
def test_obs_critical_path_is_the_function_whichever_module_loads_first(first):
    """``critical_path`` names both a submodule and the function it
    exports; importing the submodule must not shadow the function."""
    _fresh(
        f"import {first}\n"
        "import repro.obs, types\n"
        "from repro.obs import critical_path\n"
        "assert isinstance(repro.obs.critical_path, types.FunctionType)\n"
        "assert critical_path is repro.obs.critical_path\n"
        "assert critical_path.__module__ == 'repro.obs.critical_path'"
    )
