"""Every public name ``geninv`` exports is used: by the library outside ``__init__.py``, by the
benchmark, or by the README. A name that only tests call does not belong in the package."""

import ast
import re
import types
from pathlib import Path

import geninv

ROOT = Path(__file__).resolve().parents[1]


def _references(path: Path) -> set[str]:
    """The names a file reads as an ``ast.Name`` or an ``ast.Attribute``, each outside the def or
    class that defines it."""
    found = set()

    def visit(node, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_exported_name_is_used_outside_the_tests():
    library = [p for p in (ROOT / "src" / "geninv").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_references, [*library, *(ROOT / "bench").rglob("*.py")]))
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    used |= {word for span in re.findall(r"`([^`]+)`", readme) for word in re.findall(r"\w+", span)}
    public = {name for name, value in vars(geninv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - used) == []
