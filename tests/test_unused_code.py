"""Guard against package code that only the tests use.

Every module-level function, class and constant in ``src/stgnn`` must be
referenced by the package itself, by the benchmark harness in
``perfbench/``, or by a console script in ``pyproject.toml``. Methods are
out of scope. A reference is a loaded name, an attribute, an import (so
re-exports in ``__init__.py`` count) or a string equal to the name (the
benchmark tracer patches functions by name). An attribute of a name that
an import from outside the package binds (``np.exp``, ``os.path``) is not
a reference: it names something of that other module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def module_level_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def foreign_import_names(tree: ast.AST) -> set[str]:
    """Names bound by imports of modules outside the stgnn package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names
                         if alias.name.split(".")[0] != "stgnn")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] != "stgnn":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    foreign = foreign_import_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def console_script_targets(pyproject: str) -> set[str]:
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    if section is None:
        return set()
    return set(re.findall(r":\s*([A-Za-z_]\w*)\s*\"", section.group(1)))


def unreferenced(definitions: dict[str, set[str]], references: set[str]) -> list[str]:
    return sorted(f"{module}.{name}" for module, names in definitions.items()
                  for name in names - references)


def test_scanner_flags_a_definition_nothing_references():
    tree = ast.parse("LIMIT = 3\n\ndef used():\n    return LIMIT\n\n"
                     "def orphan():\n    pass\n\nclass Kept:\n    def method(self):\n        pass\n")
    user = ast.parse("from stgnn import m\nm.used()\n'Kept'\n")
    refs = referenced_names(tree) | referenced_names(user)
    assert unreferenced({"m": module_level_definitions(tree)}, refs) == ["m.orphan"]


def test_scanner_ignores_attributes_of_modules_outside_the_package():
    tree = ast.parse("def exp():\n    pass\n\ndef log():\n    pass\n\ndef sqrt():\n    pass\n")
    user = ast.parse("import numpy as np\nfrom os import path\nfrom stgnn import m\n"
                     "np.exp(0)\npath.log\nm.sqrt(np.e)\n")
    assert unreferenced({"m": module_level_definitions(tree)}, referenced_names(user)) \
        == ["m.exp", "m.log"]


def test_console_script_targets_are_read_from_pyproject():
    text = '[project]\nname = "x"\n\n[project.scripts]\nx = "x.cli:main"\n\n[tool.y]\nz = "a:b"\n'
    assert console_script_targets(text) == {"main"}


def test_every_package_definition_is_used_outside_the_tests():
    sources = sorted((ROOT / "src" / "stgnn").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    references = set()
    for tree in trees.values():
        references |= referenced_names(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        references |= referenced_names(ast.parse(path.read_text(), filename=str(path)))
    references |= console_script_targets((ROOT / "pyproject.toml").read_text())
    definitions = {module: module_level_definitions(tree) for module, tree in trees.items()}
    assert unreferenced(definitions, references) == []
