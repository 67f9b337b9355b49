"""Every import in the package is at module level, every import of the
package and of its tests is used, and every module-level definition is
reached by the system itself.

An import inside a function runs on each call, and hides a module's
dependencies from a reader of its header.  A function or class that only
tests name is dead code, unless `KEPT` gives the paper's reason to keep it.
"""

import ast
from pathlib import Path

import quasicat

PACKAGE = Path(quasicat.__file__).parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

# Definitions kept although only tests reach them, each with its reason.
KEPT = {
    "functor_category": "C^P, the paper's functor category; the criterion-9 oracle compares against it",
    "iso_functor_groupoid": "the complete Iso(C^P), the paper's system of groupoids",
    "homotopy_to_nat_transformation": "homotopies as natural transformations, as in the paper",
    "has_left_homotopy": "the paper's left homotopy relation; agrees with the right one on quasi-categories",
    "has_right_homotopy": "the paper's right homotopy relation; agrees with the left one on quasi-categories",
    "product_comparison": "a span target of perfbench/spans.py, which names it as a string",
    "truncate": "test fixture: skeleta of corpus complexes",
    "identity_functor": "test fixture: the identity functors of the equivalence tests",
    "corpus_nerves": "test fixture: the corpus nerves at a chosen dimension",
    "functor_to_json": "writes the *.fun.json that nerve-equiv reads",
    "category_iso": "test oracle: isomorphism of finite categories",
}


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
    # the package re-exports its API from __init__; tests import nothing
    # they do not read
    unused = []
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
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


def _names_by_statement(tree: ast.Module) -> list[tuple[ast.stmt, set[str]]]:
    """The names each top-level statement reads.  An attribute counts only
    when read off an imported module, so `"".join` does not name a `join`."""
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    out = []
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        out.append((stmt, names))
    return out


def test_every_module_level_definition_is_referenced():
    # reached: named by another top-level statement of a package module
    # other than __init__, or by the benchmark's code; tests do not count
    statements = {
        path: _names_by_statement(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    benchmark = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for _, names in _names_by_statement(ast.parse(path.read_text(), filename=str(path))):
            benchmark |= names
    unreached, stale, defined = [], [], set()
    for path, stmts in statements.items():
        for node, _ in stmts:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            reached = node.name in benchmark or any(
                node.name in names for ss in statements.values() for stmt, names in ss if stmt is not node
            )
            if reached and node.name in KEPT:
                stale.append(f"{path.name}:{node.lineno} {node.name}")
            elif not reached and node.name not in KEPT:
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreached, unreached
    assert not stale, f"reached anyway, drop from KEPT: {stale}"
    assert not KEPT.keys() - defined, f"KEPT names no definition: {sorted(KEPT.keys() - defined)}"
