"""The modules of ``supercoh`` share no private names, and only ``gflin``
knows how a matrix is eliminated."""

import ast
from pathlib import Path

import supercoh

SRC = Path(supercoh.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    """A name beginning with ``_`` belongs to its module: no ``from .x
    import _y`` (or ``from supercoh.x import _y``) anywhere in the
    package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("supercoh")):
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found


def test_only_gflin_names_the_eliminator():
    """Every other module eliminates through ``RowReduction``, ``Subspace``
    or the functions that read them (``nullspace``, ``image``, ``solve``,
    ``rref``): no other module imports or mentions ``Eliminator``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "gflin.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n == "Eliminator"]
    assert not found
