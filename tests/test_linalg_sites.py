"""Direct numpy.linalg factorizations outside kernel.py: a list that can only shrink.

kernel.py owns the library's factorizations. Every other direct call to a
numpy.linalg factorization in src/geninv is listed here by module and entry
point: a new call fails this test, and so does a removed one until the list
is shortened with it.
"""

import ast
from collections import Counter
from pathlib import Path

import geninv

FACTORIZATIONS = ("qr", "svd", "inv", "solve", "lstsq", "cholesky", "pinv", "det")
SITES = Counter({
    ("families", "qr"): 4,
    ("families", "inv"): 1,
    ("perturb", "solve"): 1,
    ("perturb", "inv"): 1,
})


def _factorization(node) -> str | None:
    """The entry point of an ``np.linalg.<name>(...)`` or ``numpy.linalg.<name>(...)`` call."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    name, owner = node.func.attr, node.func.value
    if not (name in FACTORIZATIONS or name.startswith("eig")):
        return None
    if isinstance(owner, ast.Attribute) and owner.attr == "linalg" and isinstance(
            owner.value, ast.Name) and owner.value.id in ("np", "numpy"):
        return name
    return None


def test_direct_linalg_factorizations_outside_the_kernel_are_the_listed_ones():
    found, imports = Counter(), []
    for path in sorted(Path(geninv.__file__).parent.glob("*.py")):
        if path.stem == "kernel":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = _factorization(node)
            if name:
                found[path.stem, name] += 1
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                imports.append(path.stem)
    assert imports == []  # a factorization imported by name would escape the count
    assert found == SITES
    assert sum(SITES.values()) == 7
