"""The benchmark and the tools import only names that fls has.

The test run collects ``tests/`` alone, so deleting a name that
``bench/`` or ``tools/`` still imports would not fail it.  This reads
every ``from fls... import ...`` in their scripts with ``ast``, nested
ones included, and resolves each name on its module.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def fls_imports(path):
    """(module, name) of every absolute ``from fls... import name`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "fls":
                yield from ((node.module, alias.name) for alias in node.names)


def test_bench_and_tools_imports_resolve():
    imports = [(path, *pair) for path in SCRIPTS for pair in fls_imports(path)]
    missing = [
        f"{path.relative_to(ROOT)}: {module}.{name}"
        for path, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert imports, "no fls import found under bench/ or tools/"
    assert not missing, f"names fls no longer has: {missing}"
