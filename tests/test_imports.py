"""Every name a module of the package imports is one it uses: no module
re-exports another's names.  ``__init__.py``, the public API, is the one
module that imports names only to export them."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sdepth"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module's imports bind that nothing in it reads.  A
    name read only in a string annotation counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [getattr(node, field) for node in ast.walk(tree)
                   for field in ("annotation", "returns") if getattr(node, field, None)]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                read |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_the_package_has_modules_to_check():
    assert {"core.py", "poset.py", "taylor.py", "verifier.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .core import Exponents, Monomial, compress as squeeze\n"
        "def f(x: 'Exponents') -> Monomial:\n"
        "    return 'squeeze'\n"
    )
    assert unused_imports(source) == ["os", "squeeze"]
