"""Every import in the package is at module level, and used, and every
module-level definition is referenced.

An import inside a function runs on each call, and hides a module's
dependencies from a reader of its header.  A function or class that
neither the package nor the tests name is dead code.
"""

import ast
from pathlib import Path

import quasicat

PACKAGE = Path(quasicat.__file__).parent
TESTS = Path(__file__).resolve().parent


def test_no_function_level_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert not found, found


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, unused


def test_every_module_level_definition_is_referenced():
    referenced = set()
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name not in referenced:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, dead
