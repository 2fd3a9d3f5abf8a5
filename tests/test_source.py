"""Source-level checks on the package itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jcmagnus"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level private names of a module (functions, classes, assignments), each with its defining statement."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = stmt
    return found


def test_every_private_name_is_used_in_the_package():
    # a top-level private helper that nothing in src/ reads outside its own
    # definition is dead code, kept alive at most by the tests
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            inside = {id(node) for node in ast.walk(definition)}
            used = any(
                id(node) not in inside
                and (
                    isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                )
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not used:
                unused.append(f"{module}:{name}")
    assert unused == []


def test_readme_private_names_exist():
    # every backticked private name in the README, such as `_gather(...)`,
    # is defined somewhere in src/jcmagnus, so the prose cannot outlive a rename
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`(_[A-Za-z]\w*)", readme))
    defined = {
        node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else node.id
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert named and sorted(named - defined) == []
