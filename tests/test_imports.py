"""The import graph.

The benchmark and the tools import only names that fls has: the test run
collects ``tests/`` alone, so deleting a name that ``bench/`` or
``tools/`` still imports would not fail it.  This reads every
``from fls... import ...`` in their scripts with ``ast``, nested ones
included, and resolves each name on its module.

Two fresh interpreters pin what loads what: the CLI's parser loads no
numpy (``--threads`` sets the BLAS pools through environment variables
before numpy is first imported), and the pipeline loads no SciPy (only
``evaluation`` scores, with one assignment solve).
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from test_cli import subprocess_env

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


def loaded_modules(code):
    """Names in sys.modules after ``code`` runs in a fresh interpreter."""
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_parser_loads_no_numpy():
    names = loaded_modules("import fls, fls.cli\nfls.cli._build_parser()")
    assert "fls.cli" in names
    assert not [n for n in names if n.split(".")[0] == "numpy"]


def test_pipeline_loads_no_scipy():
    modules = ("linalg", "datagen", "kernels", "landmarks", "cluster")
    names = loaded_modules("".join(f"import fls.{m}\n" for m in modules))
    assert "fls.cluster" in names
    assert not [n for n in names if n.split(".")[0] == "scipy"]
