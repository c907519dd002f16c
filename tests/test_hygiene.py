"""Every imported name is read: an unused-import check from the standard library.

Each .py file under src/xanfis and tests/ is parsed with ast.  An imported
name counts as used when the module reads it, alone or as the base of an
attribute, or lists it in __all__; `from __future__ import ...` always counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "xanfis").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def unused_imports(path):
    """(line, name) of each name the module at path imports and never reads."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
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


def test_every_import_is_read():
    unused = [f"{p.relative_to(ROOT)}:{line} {name}" for p in FILES for line, name in unused_imports(p)]
    assert not unused, "imported and never read:\n" + "\n".join(unused)
