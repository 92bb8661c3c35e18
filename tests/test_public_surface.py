"""Every public name ``geninv`` exports is read by a program: by a library module other than
``__init__.py``, or by a benchmark module. A read is the bare name imported from ``geninv`` or
from the module that defines it (or written in that module), ``gi.<name>`` with ``gi`` bound to
``geninv``, or ``<module>.<name>`` with the module bound to the defining one. A read inside the
top-level def or class of an export counts once that export is read (never inside its own). An
attribute of another object (``np.linalg.svd``) or a mention in prose is no read, and a name that
only tests call does not belong in the package. ``PAPER_API`` keeps the exports no program reads
that state a result of the paper, each with that result."""

import ast
import types
from pathlib import Path

import geninv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geninv"

PAPER_API = {
    "outer_derivative": "the paper's derivative formula for an outer inverse with prescribed "
                        "range and null space: x (-P_S)' (I - a x) + (I - x a) (P_T)' x - x a' x",
}


def _defining_modules() -> dict[str, str]:
    """Each name ``__init__.py`` imports -> the module it imports it from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: f"geninv.{node.module}" for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def _reads(path: Path, defining: dict[str, str]) -> set[tuple[str, str | None]]:
    """(name, owner) of each read of a public name in ``path``: owner is the export whose top-level
    def or class holds the read, None outside any."""
    tree = ast.parse(path.read_text())
    own = f"geninv.{path.stem}" if path.parent == PACKAGE else None
    modules, bare = {}, {}  # local name -> module; local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # import a.b binds a; import a.b as c binds c to a.b
                top = alias.name.split(".")[0]
                modules[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # relative: geninv's own modules within the library
                source = ("geninv." + source).rstrip(".") if own else "bench"
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "geninv" and isinstance(getattr(geninv, alias.name, None),
                                                     types.ModuleType):
                    modules[local] = f"geninv.{alias.name}"
                else:
                    bare[local] = (source, alias.name)
    found = set()
    for statement in tree.body:
        owner = getattr(statement, "name", None)
        owner = owner if own and defining.get(owner) == own else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                source, name = bare.get(node.id, (own, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                source, name = modules.get(node.value.id), node.attr
            else:
                continue
            if name in defining and name != owner and source in ("geninv", defining[name]):
                found.add((name, owner))
    return found


def _public() -> set[str]:
    return {name for name, value in vars(geninv).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def _read_by_programs(kept: set[str]) -> set[str]:
    """The public names the programs read, a read inside an export counting once that export is
    read or ``kept``."""
    defining = _defining_modules()
    programs = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    reads = set().union(*(_reads(p, defining) for p in [*programs, *ROOT.glob("bench/**/*.py")]))
    read: set = set()
    while new := {name for name, owner in reads if owner is None or owner in read | kept} - read:
        read |= new
    return read


def test_every_exported_name_is_used_outside_the_tests():
    assert _public() <= set(_defining_modules())
    assert sorted(_public() - _read_by_programs(set(PAPER_API)) - set(PAPER_API)) == []


def test_the_paper_allow_list_holds_only_unread_exports_with_their_result():
    assert set(PAPER_API) <= _public()
    assert not set(PAPER_API) & _read_by_programs(set(PAPER_API))
    assert all("paper" in result and len(result.split()) > 5 for result in PAPER_API.values())
