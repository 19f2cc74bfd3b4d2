"""Every module under ``src/repro`` is reachable from the command line.

The walk reads only source text.  It parses each module with :mod:`ast`,
takes an edge for every ``import`` and ``from`` statement at any depth
(``repro.__main__`` imports most subcommands' modules inside their
functions) and walks from ``repro.__main__``.  A ``from pkg import name``
reaches ``pkg.name`` when that is a module, and otherwise the submodule that
``pkg/__init__.py`` re-exports ``name`` from.  Package ``__init__`` modules
are not walked: they import every submodule, so walking them would reach
everything.

A module that no command reaches needs a consumer or has to go.  The
allowlist names the ones kept on purpose, each with its reason.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules no command imports, kept on purpose: the file that uses each
#: one, and the reason.
KEPT_UNREACHED = {
    "repro.ecc.parity": (
        "tests/ecc/test_parity.py",
        "it pins Section III's argument that parity protects data at rest "
        "but cannot cover computation errors",
    ),
    "repro.ecc.berger": (
        "tests/ecc/test_berger.py",
        "it pins Section III's argument that Berger check symbols cannot be "
        "carried through in-array NOR computation",
    ),
    "repro.workloads.datasets": (
        "examples/mnist_inference.py",
        "CI runs it, and it draws its synthetic images and quantised "
        "activations from the module",
    ),
}


@lru_cache(maxsize=None)
def _modules():
    """``{dotted name: (syntax tree, is package)}`` of every module."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        modules[name] = (ast.parse(path.read_text(encoding="utf-8")), is_package)
    return modules


def _resolve(modules, package, name):
    """The module that ``from package import name`` reaches."""
    if f"{package}.{name}" in modules:
        return f"{package}.{name}"
    tree, is_package = modules.get(package, (None, False))
    if not is_package:
        return package
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(modules, node.module, alias.name)
    return None  # defined in the package's __init__ itself


def _imports(modules, module, tree=None):
    """Every module that ``module`` (or the given syntax tree) imports, at any
    depth."""
    for node in ast.walk(modules[module][0] if tree is None else tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{module}: the walk resolves absolute imports only"
            yield from (_resolve(modules, node.module, alias.name) for alias in node.names)


def _reached(modules, root):
    reached, stack = set(), [root]
    while stack:
        module = stack.pop()
        if module in reached or module not in modules or modules[module][1]:
            continue
        reached.add(module)
        stack.extend(_imports(modules, module))
    return reached


def test_only_the_kept_modules_are_unreached_from_the_cli():
    modules = _modules()
    reached = _reached(modules, "repro.__main__")
    unreached = {name for name, (_, is_package) in modules.items() if not is_package} - reached
    assert unreached == set(KEPT_UNREACHED)



@pytest.mark.parametrize("module", sorted(KEPT_UNREACHED))
def test_each_kept_module_still_has_its_user(module):
    # Once the file that justifies keeping a module stops importing it, the
    # module has no user left and goes too.
    user = ROOT / KEPT_UNREACHED[module][0]
    tree = ast.parse(user.read_text(encoding="utf-8"))
    assert module in set(_imports(_modules(), user.name, tree))
