"""Source-level checks on the package itself."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import jcmagnus

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


def test_readme_removed_names_are_gone():
    # every `module.name` or `Class.attribute` that the README's "Removed
    # public names" paragraph backticks is absent from the package namespace
    # and from that module or class, so the paragraph cannot list a live name
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Removed public names:") :].split("\n\n", 1)[0]
    named = re.findall(r"`(\w+)\.(\w+)`", paragraph)
    modules = {path.stem for path in SRC.glob("*.py")}
    present = []
    for owner, name in named:
        home = importlib.import_module(f"jcmagnus.{owner}") if owner in modules else getattr(jcmagnus, owner)
        attributes = {f.name for f in dataclasses.fields(home)} if dataclasses.is_dataclass(home) else set()
        if hasattr(jcmagnus, name) or hasattr(home, name) or name in attributes:
            present.append(f"{owner}.{name}")
    assert len(named) >= 10 and present == []


def test_cross_module_private_imports():
    # every private name one module imports from another, as (importer,
    # source, name); a new one means a visible edit here
    imported = {
        (path.stem, (node.module or "").rpartition(".")[2], alias.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("jcmagnus"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    }
    assert imported == {
        ("cli", "jc_model", "_bch_residuals"),
        ("cli", "jc_model", "_rotation_chain"),
        ("cli", "magnus", "_omega1_blocks"),
        ("cli", "magnus", "_omega2_blocks"),
        ("cli", "magnus", "_omega2_from_integrals"),
        ("cli", "observables", "_bs_phase"),
        ("cli", "propagator", "_DISTANCE_PAIRS"),
        ("cli", "propagator", "_bundles"),
        ("cli", "propagator", "_gather"),
        ("jc_model", "hilbert", "_assemble"),
        ("jc_model", "hilbert", "_banded"),
        ("jc_model", "hilbert", "_block_layout"),
        ("magnus", "hilbert", "_assemble"),
        ("magnus", "hilbert", "_banded"),
        ("magnus", "hilbert", "_block_layout"),
        ("magnus", "jc_model", "_links"),
        ("observables", "magnus", "_omega2_blocks"),
        ("propagator", "hilbert", "_assemble"),
        ("propagator", "hilbert", "_block_layout"),
        ("propagator", "hilbert", "_hermitian_norm"),
        ("propagator", "jc_model", "_hamiltonian_blocks"),
        ("propagator", "magnus", "_omega1_blocks"),
        ("propagator", "magnus", "_omega2_blocks"),
    }


def test_module_all_lists_public_definitions():
    # each module's __all__ is exactly the public functions, classes and
    # UPPERCASE constants it defines, and the package re-exports only those
    listed = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined, exported = set(), None
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {target.id for target in targets if isinstance(target, ast.Name)}
                if "__all__" in names:
                    exported = ast.literal_eval(stmt.value)
                defined |= {name for name in names if name.isupper()}
        public = {name for name in defined if not name.startswith("_")}
        assert exported is not None and sorted(exported) == sorted(public), path.stem
        listed[path.stem] = set(exported)
    package = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    (package_all,) = [
        ast.literal_eval(stmt.value)
        for stmt in package.body
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
    ]
    assert sorted(set(package_all) - set().union(*listed.values())) == []
