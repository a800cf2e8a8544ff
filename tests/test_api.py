"""The package namespace: ``qwss`` re-exports each module's ``__all__``."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import qwss

MODULES = ("errors", "filters", "linalg", "measure", "quantum", "sampling", "serialize")


def test_all_joins_the_module_lists():
    joined = [name for m in MODULES for name in importlib.import_module(f"qwss.{m}").__all__]
    assert qwss.__all__ == joined + ["__version__"]
    assert len(set(qwss.__all__)) == len(qwss.__all__) == 81


def test_every_name_is_the_module_object():
    for m in MODULES:
        module = importlib.import_module(f"qwss.{m}")
        for name in module.__all__:
            assert getattr(qwss, name) is getattr(module, name), (m, name)


def test_import_loads_the_seven_modules_and_their_imports_only():
    # Import what the seven modules import, then qwss: the package itself
    # must add its own modules and nothing else (no cli, no scipy).
    pkg = Path(qwss.__file__).parent
    deps = set()
    for m in MODULES:
        for node in ast.walk(ast.parse((pkg / f"{m}.py").read_text())):
            if isinstance(node, ast.Import):
                deps.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                deps.add(node.module)
    code = (
        "import importlib, sys\n"
        f"for name in {sorted(deps)!r}:\n"
        "    importlib.import_module(name)\n"
        "before = set(sys.modules)\n"
        "import qwss\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=pkg.parent,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["qwss"] + [f"qwss.{m}" for m in MODULES]
