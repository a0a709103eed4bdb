"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mukai_entropy

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
    # every name a module-level import binds is read somewhere in the module
    files = sorted(SRC.glob("*.py"))
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


def test_no_module_imports_dataclasses():
    # the value types derive from _record.Record: importing dataclasses pulls
    # in inspect, ast, dis and tokenize, and processing the classes execs
    # every generated method, about 30 ms of every process start together
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _is_int_check(node) -> bool:
    """Whether node is isinstance(x, int) or isinstance(x, (..., int, ...))."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1]
    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(isinstance(n, ast.Name) and n.id == "int" for n in names)


def test_only_linalg_refuses_non_integers():
    # an integer argument is checked by _linalg.to_int, whose message names
    # the argument, the kind of integer and the bad value; no other module
    # spells not isinstance(..., int)
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files if path.name != "_linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
        and _is_int_check(node.operand)
    ]
    assert found == []


def _stdout_of(code: str) -> str:
    """What code prints when run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return done.stdout


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules after running code in a fresh interpreter."""
    return set(_stdout_of(
        code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    ).split())


CLI_CALLS = (
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


def test_only_the_record_base_builds_values_without_init():
    # values are stored by the base __init__, by one __dict__.update in a
    # checking __init__, or by Record._of: nothing else calls object.__new__
    # or object.__setattr__
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"
                    and node.attr in ("__new__", "__setattr__")
                    and path.name != "_record.py"):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert found == []


def test_package_and_cli_calls_do_not_load_numpy():
    modules = _modules_after(CLI_CALLS)
    assert "mukai_entropy.cli" in modules
    assert "numpy" not in modules


def test_package_and_cli_calls_do_not_load_dataclasses_or_inspect():
    # only modules past a bare start count: site-packages .pth files may
    # load some stdlib modules (typing, re) before any code runs
    loaded = _modules_after(CLI_CALLS) - _modules_after("")
    assert "mukai_entropy.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()


def test_spectral_radius_still_takes_the_float_seed():
    modules = _modules_after(
        "from mukai_entropy import spectral_radius\n"
        "spectral_radius([[2, 1], [1, 1]])\n"
    )
    assert "numpy" in modules


# The public names, by home module, that the package exported when its
# __init__.py imported every submodule eagerly.
PUBLIC = {
    "errors": [
        "CertificationError", "InvarianceError", "LatticeInputError",
        "SearchExhaustedError",
    ],
    "lattice": [
        "K3LatticeModel", "MukaiVector", "Signature",
        "doubled_square_is_nonsquare", "euler_pairing", "is_spherical_class",
        "line_bundle_vector", "model_from_dict", "model_to_dict",
        "mukai_pairing", "orthogonal_complement_basis", "pairing_matrix",
        "rank_one_model", "signature_of", "square", "structure_sheaf_vector",
        "vector_from_dict", "vector_to_dict",
    ],
    "isometries": [
        "Isometry", "compose", "fixes_pointwise", "identity_action",
        "inverse", "isometry_from_dict", "isometry_to_dict",
        "polarized_sublattice_basis", "power", "restrict_to_sublattice",
        "shift_action", "spherical_twist_action", "tensor_line_bundle_action",
        "twist_tensor_action",
    ],
    "spectral": [
        "CertifiedRadius", "CharPoly", "QuadraticSurd", "char_poly",
        "radius_closed_form", "spectral_radius",
    ],
    "entropy": [
        "EntropyCurve", "ExtRecursionTable", "GapReport",
        "entropy_lower_bound_from_radius", "ext_recursion_table",
        "ext_top_dim", "gy_gap", "h0_line_bundle", "hom_growth_lower_bound",
        "iterated_chi", "reference_growth_bound", "twist_entropy_curve",
    ],
    "orthosearch": [
        "Rank2Form", "SignatureReport", "find_positive_orthogonal",
        "rank2_form", "rank2_isotropy_free", "search_report",
        "signature_report",
    ],
}
PUBLIC_NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 61
    assert sorted(mukai_entropy.__all__) == PUBLIC_NAMES
    assert mukai_entropy.__version__ == "0.1.0"
    assert set(PUBLIC_NAMES) | set(PUBLIC) <= set(dir(mukai_entropy))


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_public_names_are_their_home_objects(home):
    module = importlib.import_module(f"mukai_entropy.{home}")
    for name in PUBLIC[home]:
        assert getattr(mukai_entropy, name) is getattr(module, name), name


def test_star_import_and_submodules_resolve_in_a_fresh_interpreter():
    out = json.loads(_stdout_of(
        "import json, mukai_entropy\n"
        "spectral = mukai_entropy.spectral\n"
        "ns = {}\n"
        "exec('from mukai_entropy import *', ns)\n"
        "print(json.dumps({'star': sorted(set(ns) - {'__builtins__'}),\n"
        "                  'spectral': spectral.__name__}))\n"
    ))
    assert out == {"star": PUBLIC_NAMES, "spectral": "mukai_entropy.spectral"}


@pytest.mark.parametrize("name", ["no_such_name", "charpoly_to_dict", "cli"])
def test_unknown_name_raises_attribute_error(name):
    # charpoly_to_dict lives in spectral but is not a public name; cli is a
    # submodule that is reached only by importing it
    code = (
        "import mukai_entropy\n"
        "try:\n"
        f"    mukai_entropy.{name}\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    assert _stdout_of(code) == "AttributeError\n"


def _package_modules(modules: set[str]) -> set[str]:
    return {m.removeprefix("mukai_entropy.") for m in modules
            if m.startswith("mukai_entropy.")}


def test_plain_import_loads_no_submodule():
    assert _package_modules(_modules_after("import mukai_entropy")) == set()


MODEL = '{"picard_rank":1,"ns_gram":[[4]]}'
SPHERE = '{"r":1,"c":[0],"m":1}'
# modules each subcommand loads besides the package, cli, errors, _linalg and
# _record
SUBCOMMAND_MODULES = [
    (["lattice-check", MODEL], {"lattice"}),
    (["pair", "--lattice", MODEL, "--v", SPHERE, "--w", SPHERE], {"lattice"}),
    (["twist", "--lattice", MODEL, "--s", SPHERE], {"lattice", "isometries"}),
    (["phi-h", "--d", "2"], {"lattice", "isometries"}),
    (["char-poly", "--matrix", "[[2,1],[1,1]]"], {"spectral"}),
    (["spectral-radius", "--matrix", "[[2,1],[1,1]]"], {"spectral"}),
    (["gy-gap", "--d-min", "3", "--d-max", "6"], {"entropy"}),
    (["entropy-curve", "--spherical-dim", "2", "--complement", "yes",
      "--t-min", "-1", "--t-max", "1", "--step", "1"], {"entropy"}),
    (["ext-recursion", "--d", "2", "--i", "1", "--k", "1", "--n-max", "3"],
     {"entropy"}),
    (["complement-search", "--lattice", MODEL, "--s", SPHERE,
      "--bound", "2"], {"lattice", "orthosearch"}),
]


@pytest.mark.parametrize("argv, expected", SUBCOMMAND_MODULES,
                         ids=[argv[0] for argv, _ in SUBCOMMAND_MODULES])
def test_subcommand_loads_only_its_modules(argv, expected):
    code = (
        "import io, contextlib\n"
        "import mukai_entropy.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "if code != 0:\n"
        "    raise SystemExit(f'exit code {code}')\n"
    )
    modules = _modules_after(code)
    assert _package_modules(modules) == \
        {"cli", "errors", "_linalg", "_record"} | expected
    # only the subcommands that read or print rationals need fractions
    # (which brings decimal and numbers): the CLI imports it in
    # _parse_fraction, and entropy and spectral at their top
    if not expected & {"entropy", "spectral"}:
        assert not modules & {"fractions", "decimal", "numbers"}
