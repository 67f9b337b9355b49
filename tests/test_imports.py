"""Every import in the package is at module level, every import of the
package and of its tests is used, and every function, class and method of
the package is reached by the system itself.

An import inside a function runs on each call, and hides a module's
dependencies from a reader of its header.  A function, class or method that
only tests reach is dead code, unless `KEPT` gives the paper's reason to
keep it.
"""

import ast
from pathlib import Path

import quasicat

PACKAGE = Path(quasicat.__file__).parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

# Definitions kept although only tests reach them, each with its reason.
KEPT = {
    "functor_to_json": "writes the *.fun.json that nerve-equiv reads",
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


def test_records_are_namedtuples():
    # a record's field getters and pickling come from collections.namedtuple
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__getnewargs__":
                    found.append(f"{path.name}:{node.lineno} {cls.name}.__getnewargs__")
                elif isinstance(node, ast.Assign) and called(node.value, "property") and node.value.args and called(node.value.args[0], "itemgetter"):
                    found.append(f"{path.name}:{node.lineno} {cls.name} property(itemgetter(...))")
    assert not found, found


def called(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def reachability(package: Path, perfbench: Path, kept) -> tuple[list, list, list]:
    """(unreached, stale, undefined) for the functions, classes and methods
    of the package's modules other than `__init__`, whose exports are not
    roots.

    The roots are the module-level statements of those modules other than
    definitions and imports (`RUNNERS`, the `__main__` guard), every name
    in the benchmark's code, its strings included (the span targets are
    strings), and `kept`.  A definition reaches the names it
    reads: a bare name resolves through its module's definitions and
    imports, and a method reference `x.m` resolves to the enclosing class
    for `self.m`, to `Cls` for `Cls.m` and `Cls(...).m`, and otherwise to
    the one class defining `m`, or, when several do, to those the referring
    module defines or imports.  A reached class reaches its bases, its body
    outside methods and its dunder methods.  `stale` lists the `kept`
    entries reached without `kept`, and `undefined` those naming nothing.
    """
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    defs, methods, where = {}, {}, {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
                where[mod, node.name] = f"{mod}.py:{node.lineno} {node.name}"
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[mod, node.name, m.name] = m
                        where[mod, node.name, m.name] = f"{mod}.py:{m.lineno} {node.name}.{m.name}"
    # the package definitions each module can name: its own and its imports
    bound = {}
    for mod, tree in trees.items():
        names = {name: (m, name) for m, name in defs if m == mod}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if (node.module, alias.name) in defs:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        bound[mod] = names
    owners = {}
    for key in methods:
        owners.setdefault(key[2], []).append(key)

    def reads(mod: str, cls: str | None, roots) -> set:
        names, out = bound[mod], set()
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Name) and node.id in names:
                    out.add(names[node.id])
                elif isinstance(node, ast.Attribute):
                    v = node.value.func if isinstance(node.value, ast.Call) else node.value
                    if isinstance(v, ast.Name) and v.id == "self" and cls is not None:
                        owner = (mod, cls)
                    elif isinstance(v, ast.Name) and isinstance(defs.get(names.get(v.id)), ast.ClassDef):
                        owner = names[v.id]
                    else:
                        found = owners.get(node.attr, [])
                        if len(found) > 1:
                            found = [k for k in found if names.get(k[1]) == k[:2]]
                        out.update(found)
                        continue
                    if (*owner, node.attr) in methods:
                        out.add((*owner, node.attr))
        return out

    def edges(key) -> set:
        if key in methods:
            return reads(key[0], key[1], [methods[key]])
        mod, name = key
        node = defs[key]
        if not isinstance(node, ast.ClassDef):
            return reads(mod, None, [node])
        body = [s for s in node.body if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
        out = reads(mod, name, [*node.bases, *node.keywords, *node.decorator_list, *body])
        out.update(k for k in methods if k[:2] == key and k[2].startswith("__") and k[2].endswith("__"))
        return out

    def walk(roots) -> set:
        seen, stack = set(), list(roots)
        while stack:
            key = stack.pop()
            if key not in seen:
                seen.add(key)
                stack.extend(edges(key) - seen)
        return seen

    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    roots = set()
    for mod, tree in trees.items():
        roots |= reads(mod, None, [s for s in tree.body if not isinstance(s, skip)])
    benchmark = set()
    for path in sorted(perfbench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                benchmark.add(node.id)
            elif isinstance(node, ast.Attribute):
                benchmark.add(node.attr)
            elif isinstance(node, ast.alias):
                benchmark.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                benchmark.add(node.value)
    roots |= {key for key in [*defs, *methods] if key[-1] in benchmark}
    kept_keys = {key for key in defs if key[1] in kept}
    reached = walk(roots)
    stale = sorted(where[key] for key in kept_keys & reached)
    reached |= walk(kept_keys)
    unreached = sorted(where[key] for key in [*defs, *methods] if key not in reached)
    undefined = sorted(set(kept) - {name for _mod, name in defs})
    return unreached, stale, undefined


def test_every_definition_is_reached():
    # tests do not count as reaching anything
    unreached, stale, undefined = reachability(PACKAGE, PERFBENCH, KEPT)
    assert not unreached, unreached
    assert not stale, f"reached anyway, drop from KEPT: {stale}"
    assert not undefined, f"KEPT names no definition: {undefined}"


def test_reachability_sees_methods_chains_and_stale_entries(tmp_path):
    package, benchmark = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    benchmark.mkdir()
    (package / "a.py").write_text(
        "class A:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "\n"
        "    def helper(self):\n"
        "        return 1\n"
        "\n"
        "    def only_tests(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        "def head():\n"
        "    return tail()\n"
        "\n"
        "\n"
        "def tail():\n"
        "    return A().used()\n"
        "\n"
        "\n"
        "ROOTS = [A]\n"
    )
    (benchmark / "spans.py").write_text('TARGETS = [("pkg.a", "head")]\n')
    # head, named as a string by the benchmark, reaches tail and two methods
    unreached, stale, undefined = reachability(package, benchmark, {"head": "", "gone": ""})
    assert unreached == ["a.py:8 A.only_tests"]
    assert stale == ["a.py:12 head"]
    assert undefined == ["gone"]
    # without that root the whole chain is unreached, though each link
    # names the next; the class itself stays reached through ROOTS
    (benchmark / "spans.py").write_text("TARGETS = []\n")
    unreached, _, _ = reachability(package, benchmark, {})
    assert unreached == ["a.py:12 head", "a.py:16 tail", "a.py:2 A.used", "a.py:5 A.helper", "a.py:8 A.only_tests"]
