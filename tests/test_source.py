"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mukai_entropy"


def test_no_bare_assert_in_src():
    # python -O strips assert statements, so every exactness check in the
    # package, and every self-check of the test oracles in helpers.py (pytest
    # rewrites asserts in test modules only), has to raise explicitly to stay
    # alive there
    files = sorted(SRC.glob("*.py"))
    assert files
    files.append(Path(__file__).with_name("helpers.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_import_in_src():
    # every name a module-level import binds is read somewhere in the module;
    # __init__.py is skipped, its imports are the public re-exports
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _module_body_imports(node):
    """Modules imported by statements that run at import time."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.module:
            yield child.module
        yield from _module_body_imports(child)


def test_no_module_imports_numpy_at_import_time():
    # numpy seeds spectral_radius only; it is imported there, on first use
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}: {name}"
        for path in files
        for name in _module_body_imports(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if name.split(".")[0] == "numpy"
    ]
    assert found == []


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules after running code in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    )
    return set(done.stdout.split())


def test_package_and_cli_calls_do_not_load_numpy():
    modules = _modules_after(
        "import io, contextlib\n"
        "import mukai_entropy, mukai_entropy.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (\n"
        "        ['char-poly', '--matrix', '[[2,1],[1,1]]'],\n"
        "        ['gy-gap', '--d-min', '5', '--d-max', '7'],\n"
        "        ['complement-search', '--lattice',\n"
        "         '{\"picard_rank\":1,\"ns_gram\":[[4]]}',\n"
        "         '--s', '{\"r\":1,\"c\":[0],\"m\":1}', '--bound', '2'],\n"
        "    ):\n"
        "        assert cli.main(argv) == 0, argv\n"
    )
    assert "mukai_entropy.cli" in modules
    assert "numpy" not in modules


def test_spectral_radius_still_takes_the_float_seed():
    modules = _modules_after(
        "from mukai_entropy import spectral_radius\n"
        "spectral_radius([[2, 1], [1, 1]])\n"
    )
    assert "numpy" in modules
