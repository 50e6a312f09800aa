"""Every ``src/repro`` module is reached from an entry point of the tree.

Entry points are derived, not listed: each ``__main__.py``, each module
with an ``if __name__ == "__main__":`` block, ``repro/__init__.py``, and
every file under ``examples/`` and ``perfbench/``.  Imports are followed
with ``ast``.  ``from pkg import Name`` resolves through
``pkg/__init__.py`` to the submodule that defines ``Name``.  A subpackage
``__init__`` only re-exports, so its own imports reach nothing: a module
that only its package's ``__init__`` (or a test) imports is dead code.

Inside every ``src/repro`` module, every function, class and method (dunder
methods aside) must be named somewhere in ``src/``, ``tests/``,
``examples/`` or ``perfbench/`` outside its own definition: as a name,
an attribute, an imported name or an identifier-shaped string.  The
match is by bare identifier, so this catches only code that nothing
mentions at all.
"""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in SRC.joinpath("repro").rglob("*.py")}


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@cache
def _imports(path: Path, name: str | None) -> tuple:
    """``(module, names)`` for every import statement in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg = name.split(".")
                if not _is_package(name):
                    pkg.pop()
                pkg = pkg[: len(pkg) - node.level + 1] + [base] * bool(base)
                base = ".".join(pkg)
            out.append((base, tuple(alias.name for alias in node.names)))
    return tuple(out)


def _resolve(module: str, names: tuple = ()) -> set:
    """The src modules that importing ``names`` from ``module`` runs."""
    if module not in MODULES:
        return set()
    parts = module.split(".")
    out = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    for name in names:
        if f"{module}.{name}" in MODULES:
            out |= _resolve(f"{module}.{name}")
        elif _is_package(module):
            out |= next((_resolve(src, (name,))
                         for src, defined in _imports(MODULES[module], module)
                         if name in defined), set())
    return out


def _has_main_block(path: Path) -> bool:
    return any(isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
               and getattr(node.test.left, "id", None) == "__name__"
               for node in ast.parse(path.read_text()).body)


def entry_points() -> list:
    entries = [(name, path) for name, path in MODULES.items()
               if name == "repro" or path.name == "__main__.py"
               or _has_main_block(path)]
    for folder in ("examples", "perfbench"):
        entries += [(None, p) for p in sorted(ROOT.joinpath(folder).rglob("*.py"))]
    return entries


def reached() -> set:
    stack = entry_points()
    seen = {name for name, _ in stack if name}
    while stack:
        name, path = stack.pop()
        for module, names in _imports(path, name):
            for dep in _resolve(module, names) - seen:
                seen.add(dep)
                if not _is_package(dep):
                    stack.append((dep, MODULES[dep]))
    return seen


def test_every_src_module_is_reached_from_an_entry_point():
    seen = reached()
    dead = sorted(name for name in MODULES
                  if not _is_package(name) and name not in seen)
    assert not dead, f"no entry point reaches these modules: {dead}"


def _defined_names(tree: ast.AST) -> list:
    """``(name, first_line, last_line)`` of every function, class and
    method in ``tree``, dunder methods excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node.lineno, node.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _referenced_names(tree: ast.AST) -> list:
    """``(name, line)`` of every name, attribute, imported name and
    identifier-shaped string constant in ``tree``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((part, node.lineno) for alias in node.names
                       for part in alias.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.append((node.value, node.lineno))
    return out


def test_every_src_name_is_referenced_outside_its_definition():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in ("src", "tests", "examples", "perfbench")
             for path in sorted(ROOT.joinpath(folder).rglob("*.py"))}
    uses: dict = {}
    for path, tree in trees.items():
        for name, line in _referenced_names(tree):
            uses.setdefault(name, []).append((path, line))
    orphans = sorted(
        f"{_module_name(path)}.{name} (l.{first})"
        for path in MODULES.values()
        for name, first, last in _defined_names(trees[path])
        if all(where == path and first <= line <= last
               for where, line in uses.get(name, ()))
    )
    assert not orphans, f"nothing outside their definition reads: {orphans}"
