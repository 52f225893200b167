"""The scheduling core is plain Python.

Every per-leaf and per-link fact of ``repro.core``, ``repro.topology``
and ``repro.sched`` lives in a plain list, and the allocators' searches
are bitmask walks over small ints.  numpy stays where it defines the
trace and fault random streams (``repro.traces``, ``repro.util.rng``);
this test keeps it out of the three core packages.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CORE_PACKAGES = ("core", "topology", "sched")


def _numpy_imports(path: Path):
    """``(line, statement)`` for each import of numpy in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("package", CORE_PACKAGES)
def test_core_package_imports_no_numpy(package):
    files = sorted((SRC / package).rglob("*.py"))
    assert files, f"no modules found under {SRC / package}"
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in files
        if (hits := _numpy_imports(path))
    }
    assert offenders == {}
