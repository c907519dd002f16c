"""Every imported name is read, and every public definition is used: checks from the standard library.

Each .py file under src/xanfis and tests/ is parsed with ast.  An imported
name counts as used when the module reads it, alone or as the base of an
attribute, or lists it in __all__; `from __future__ import ...` always counts.
A public (no leading underscore) module-level function or class of
src/xanfis counts as used when a module of src/xanfis other than
__init__.py, its own included, reads its name alone or as an attribute;
re-exporting it from __init__.py does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "xanfis").rglob("*.py"))
FILES = sorted([*SRC, *(ROOT / "tests").rglob("*.py")])


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(path):
    """(line, name) of each name the module at path imports and never reads."""
    nodes = list(ast.walk(parse(path)))
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for n in nodes:
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["__all__"]:
            read.update(ast.literal_eval(n.value))
    for n in nodes:
        if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__":
            for alias in n.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield n.lineno, name


def unused_public_definitions():
    """(path, line, name) of each public module-level function or class of src/xanfis no module reads."""
    trees = {path: parse(path) for path in SRC}
    read = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            for n in ast.walk(tree):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    read.add(n.attr)
    for path, tree in trees.items():
        for n in tree.body:
            public = isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
            if public and n.name not in read:
                yield path, n.lineno, n.name


def test_every_import_is_read():
    unused = [f"{p.relative_to(ROOT)}:{line} {name}" for p in FILES for line, name in unused_imports(p)]
    assert not unused, "imported and never read:\n" + "\n".join(unused)


def test_every_public_definition_is_read_in_src():
    unused = [f"{p.relative_to(ROOT)}:{line} {name}" for p, line, name in unused_public_definitions()]
    assert not unused, "public and read by no module of src/xanfis:\n" + "\n".join(unused)
