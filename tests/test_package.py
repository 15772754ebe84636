"""The package's public names, and no import or private name left unused."""

import ast
from pathlib import Path

import patchbias

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves_and_is_listed_once():
    names = patchbias.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(patchbias, n)] == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; `__future__` imports do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted((ROOT / "src" / "patchbias").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    # the package root imports names only to re-export them
    modules = [m for m in modules if m != ROOT / "src" / "patchbias" / "__init__.py"]
    assert modules
    assert [unused for m in modules for unused in _unused_imports(m)] == []


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each private module-level function, class or variable; dunders do not count."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in found if name.startswith("_") and not name.startswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads, reads as an attribute, or imports from elsewhere."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_name_is_used_in_the_package():
    modules = sorted((ROOT / "src" / "patchbias").glob("*.py"))
    trees = {m: ast.parse(m.read_text(encoding="utf-8")) for m in modules}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    unused = [
        f"{m.relative_to(ROOT)}:{line} {name}"
        for m, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in referenced
    ]
    assert unused == []
