"""Every import in the package and its tests is used, package modules other
than the CLI import at module level only, and every function, module-level
constant, class, method and dataclass field is read somewhere in the
package."""

import ast
from pathlib import Path

import solweights

PACKAGE = Path(solweights.__file__).parent
TESTS = Path(__file__).parent
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
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = [entry for path in paths for entry in unused_imports(path)]
    assert found == []


def function_imports(path: Path) -> list[str]:
    """Imports inside a function body."""
    tree = ast.parse(path.read_text())
    return [f"{path.name}:{node.lineno}" for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_imports_at_module_level():
    """Package modules import at module level; only the CLI imports inside
    its subcommands, so a run loads just what its subcommand needs."""
    found = [entry for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for entry in function_imports(path)]
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
                   "two_complement_shortcut", "centralizer", "n_shape", "all_equal"}


def package_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]


def read_names(trees: list[ast.Module]) -> set[str]:
    """Every name some module reads: loaded names, attributes and imports."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def attribute_names(trees: list[ast.Module]) -> set[str]:
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def module_functions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def module_constants_and_classes(tree: ast.Module) -> set[str]:
    """Classes and assigned names at module level, dunder names excepted."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def class_methods(tree: ast.Module) -> set[str]:
    """Methods and properties of module-level classes, dunders excepted."""
    return {node.name for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def dataclass_fields(tree: ast.Module) -> set[str]:
    """Annotated fields of module-level dataclasses."""
    return {node.target.id for cls in tree.body
            if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
            for node in cls.body if isinstance(node, ast.AnnAssign)}


def test_every_function_is_referenced():
    trees = package_trees()
    defined = set().union(*map(module_functions, trees))
    assert sorted(defined - read_names(trees) - UNREFERENCED_OK) == []


def test_every_module_constant_and_class_is_read():
    trees = package_trees()
    defined = set().union(*map(module_constants_and_classes, trees))
    assert sorted(defined - read_names(trees) - UNREFERENCED_OK) == []


def test_every_method_is_read():
    """A method is read only as an attribute, so a local variable of the
    same name does not count."""
    trees = package_trees()
    defined = set().union(*map(class_methods, trees))
    assert sorted(defined - attribute_names(trees) - UNREFERENCED_OK) == []


# fields read only through asdict (``path``), by the tests (``raw_counts``) or
# by the benchmark (``runs``)
UNREAD_FIELDS_OK = {"path", "raw_counts", "runs"}


def test_every_dataclass_field_is_read():
    """A field counts only as an attribute, so the keyword that sets it in a
    constructor call does not."""
    trees = package_trees()
    defined = set().union(*map(dataclass_fields, trees))
    assert sorted(defined - attribute_names(trees) - UNREAD_FIELDS_OK) == []
    assert sorted(UNREAD_FIELDS_OK - defined) == []


def test_unreferenced_allowlist_is_current():
    trees = package_trees()
    defined = set().union(*map(module_functions, trees), *map(module_constants_and_classes, trees),
                          *map(class_methods, trees))
    assert sorted(UNREFERENCED_OK - defined) == []
