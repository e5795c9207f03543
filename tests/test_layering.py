"""The package modules form one import order, and every import sits at
module level.

Each module may import only the modules before it in LAYERS, so no import
cycle can form; an import inside a function would hide a cycle until the
function runs, so there is none.  The rules are read from the package
source with ``ast``.
"""

import ast
from pathlib import Path

import beltrami_growth

PACKAGE = Path(beltrami_growth.__file__).parent
LAYERS = ("errors", "complex_polar", "mappings", "dilatation", "growth", "verify", "cli")


def package_imports(tree):
    """(imported package module, line) of every import of a module of this
    package: ``from .x import ...``, ``from . import x`` and the absolute
    ``beltrami_growth.x`` forms."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("beltrami_growth"):
                module = node.module.split(".")[1:2]
            elif node.level > 0:
                module = [node.module.split(".")[0]] if node.module else []
            else:
                continue
            # "from . import x" and "from beltrami_growth import x" name modules
            names = module or [alias.name for alias in node.names]
            for name in names:
                yield name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "beltrami_growth" and len(parts) > 1:
                    yield parts[1], node.lineno


def function_imports(tree):
    """Line of every import statement inside a function body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner.lineno


def sources():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def layering_violations(name, tree):
    rank = LAYERS.index(name)
    return [
        f"{name}.py:{line} imports {target}"
        for target, line in package_imports(tree)
        if target not in LAYERS[:rank]
    ]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(modules) == sorted(LAYERS)


def test_modules_import_only_lower_layers():
    stray = [
        violation
        for path, tree in sources()
        if path.stem in LAYERS
        for violation in layering_violations(path.stem, tree)
    ]
    assert stray == []


def test_no_function_level_import():
    stray = [f"{path.name}:{line}" for path, tree in sources() for line in function_imports(tree)]
    assert stray == []


def test_walkers_see_every_import_form():
    source = (
        "from .errors import DomainError\n"
        "from . import mappings\n"
        "import beltrami_growth.verify\n"
        "from beltrami_growth.growth import ladder_integrals\n"
        "import numpy as np\n"
        "def area(mapping):\n"
        "    from .growth import image_area\n"
        "    return image_area(mapping)\n"
    )
    tree = ast.parse(source)
    assert sorted(package_imports(tree)) == [
        ("errors", 1),
        ("growth", 4),
        ("growth", 7),
        ("mappings", 2),
        ("verify", 3),
    ]
    assert list(function_imports(tree)) == [7]
    assert layering_violations("dilatation", tree) == [
        "dilatation.py:3 imports verify",
        "dilatation.py:4 imports growth",
        "dilatation.py:7 imports growth",
    ]
