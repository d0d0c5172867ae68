"""Every import in the package is used, and every function is referenced."""

import ast
from pathlib import Path

import solweights

PACKAGE = Path(solweights.__file__).parent
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(path: Path) -> list[str]:
    """Names bound by an import and never read in the import's scope (the
    module, or the function that holds a local import)."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = parents[node]
        while not isinstance(scope, SCOPES):
            scope = parents[scope]
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in unused_imports(path)]
    assert found == []


def unused_locals(path: Path) -> list[str]:
    """Names a function stores and never reads, in its body or in the
    functions nested in it (``_`` and global/nonlocal names are exempt)."""
    tree = ast.parse(path.read_text())
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        read = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
        shared = {name for n in ast.walk(func) if isinstance(n, (ast.Global, ast.Nonlocal))
                  for name in n.names}
        for n in names:
            if isinstance(n.ctx, ast.Store) and n.id not in read | shared | {"_"}:
                unused.append(f"{path.name}:{n.lineno} {n.id}")
    return unused


def test_no_unused_locals():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in unused_locals(path)]
    assert found == []


# entry points called only by the tests, the benchmark or the acceptance suite
UNREFERENCED_OK = {"bound_check", "choice_invariance", "constant_functor", "cycle_type",
                   "two_complement_shortcut", "centralizer"}


def test_every_function_is_referenced():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert sorted(defined - referenced - UNREFERENCED_OK) == []
