"""The import graph.

The benchmark and the tools import only names that fls has, and call
them only in ways their signatures accept: the test run collects
``tests/`` alone, so deleting a name or a parameter that ``bench/`` or
``tools/`` still uses would not fail it.  This reads every
``from fls... import ...`` in their scripts with ``ast``, nested ones
included, resolves each name on its module, and binds each call of an
imported name (its positional count and keywords) to its signature.

Two fresh interpreters pin what loads what: the CLI's parser loads no
numpy (``--threads`` sets the BLAS pools through environment variables
before numpy is first imported), and no module of the package loads
SciPy, not even to score a ``fls bench`` run (``evaluation`` solves its
assignments in numpy); the tests keep SciPy as an oracle.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

from test_cli import subprocess_env

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def fls_imports(tree):
    """(module, name, local name) of every absolute ``from fls... import``
    in the parsed script ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "fls":
                for alias in node.names:
                    yield node.module, alias.name, alias.asname or alias.name


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_bench_and_tools_imports_resolve():
    imports = [(path, *found) for path in SCRIPTS for found in fls_imports(parse(path))]
    missing = [
        f"{path.relative_to(ROOT)}: {module}.{name}"
        for path, module, name, _ in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert imports, "no fls import found under bench/ or tools/"
    assert not missing, f"names fls no longer has: {missing}"


def test_bench_and_tools_calls_bind():
    # a *args or **kwargs entry is left out: what it holds is known only at run time
    checked, unbound = 0, []
    for path in SCRIPTS:
        tree = parse(path)
        imported = {
            local: getattr(importlib.import_module(module), name)
            for module, name, local in fls_imports(tree)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            fn = imported.get(node.func.id)
            if fn is None:
                continue
            args = [None for arg in node.args if not isinstance(arg, ast.Starred)]
            kwargs = {kw.arg: None for kw in node.keywords if kw.arg is not None}
            checked += 1
            try:
                inspect.signature(fn).bind_partial(*args, **kwargs)
            except TypeError as exc:
                unbound.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.func.id}: {exc}")
    assert checked, "no call of an fls name found under bench/ or tools/"
    assert not unbound, f"calls fls no longer accepts: {unbound}"


def loaded_modules(code):
    """Names in sys.modules after ``code`` runs in a fresh interpreter."""
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_parser_loads_no_numpy():
    # the options resolve before --threads is applied: a default read from
    # a numpy module would load numpy first and void the thread cap
    names = loaded_modules(
        "import fls, fls.cli\n"
        "parser = fls.cli._build_parser()\n"
        "for argv in (['cluster', '--in', 'x.csv', '--k', '2', '--d', '1'], ['bench']):\n"
        "    fls.cli._resolve_options(parser.parse_args(argv))"
    )
    assert "fls.cli" in names
    assert not [n for n in names if n.split(".")[0] == "numpy"]


def test_pipeline_loads_no_scipy():
    # every module of the package, then a scored benchmark run
    modules = sorted(f"fls.{path.stem}" for path in (ROOT / "src" / "fls").glob("[!_]*.py"))
    names = loaded_modules(
        "".join(f"import {m}\n" for m in modules)
        + "fls.cli.main(['bench', '--suite', 'synthetic5', '--trials', '1', '--landmarks', '20'])\n"
    )
    assert "fls.cli" in modules and set(modules) <= set(names)
    assert not [n for n in names if n.split(".")[0] == "scipy"]
