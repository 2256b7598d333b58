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


def test_only_cohomology_resolves_lie_cochain_coordinates():
    """The Lie complex owns its cochain layout: only ``cohomology`` names
    ``lie_eval_sign``, which turns an argument tuple into a coordinate and
    a sign, and ``sixterm`` and ``extensions`` read no ``index`` or
    ``items`` of a cochain basis.  Those are attributes of the basis, so
    any ``.index`` or ``.items`` that is not called is one; the methods
    ``list.index`` and ``dict.items`` are called, and pass."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            if path.name != "cohomology.py" and "lie_eval_sign" in names:
                found.append(f"{path.name}:{node.lineno} names lie_eval_sign")
            if (path.name in ("sixterm.py", "extensions.py")
                    and isinstance(node, ast.Attribute)
                    and node.attr in ("index", "items")
                    and id(node) not in called):
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not found
