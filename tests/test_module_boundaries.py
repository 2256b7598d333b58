"""The modules of ``supercoh`` share no private names, the lower layers
import nothing from the upper ones, and only ``gflin`` knows how a matrix
is eliminated."""

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


def _class_privates(tree):
    """The private names the classes of a module define: their methods and
    class attributes, ``__slots__`` entries and the attributes their
    methods set on ``self`` or ``cls``; dunder names are public."""
    names = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store) and isinstance(node.value, ast.Name) \
                    and node.value.id in ("self", "cls"):
                names.add(node.attr)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                        if target.id == "__slots__":
                            names |= {c.value for c in ast.walk(node.value)
                                      if isinstance(c, ast.Constant)}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_no_module_reads_a_private_attribute_of_another():
    """A private attribute belongs to the module whose classes define it:
    no module reads ``obj._x`` where ``_x`` is defined by another module's
    classes and not by its own (a subclass that overrides ``_x`` defines
    it).  So no module but ``gflin`` reads a ``Subspace``'s residue route,
    a ``MatGF``'s products or a ``RowReduction``'s inverse, and no module
    but ``cohomology`` reads a cochain complex's layout or store."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    own = {name: _class_privates(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        foreign = set().union(*(v for k, v in own.items() if k != name)) - own[name]
        found += [f"{name}:{node.lineno} reads .{node.attr}"
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and node.attr in foreign]
    assert {"_mv", "_vm", "_row_sums", "_lazy", "_inverse"} <= own["gflin.py"]
    assert not found


def test_lower_layers_import_no_upper_layer():
    """``gflin``, ``superalg``, ``envelope`` and ``cohomology`` import
    nothing from ``sixterm``, ``extensions``, ``catalog`` or ``cli``, at
    module level or inside a function: the pair complex and its fills
    (``cohomology.PairComplex``, ``cohomology.pair_fill``) live in
    ``cohomology``, next to the matrices they are read off."""
    upper = {"sixterm", "extensions", "catalog", "cli"}
    found = []
    for name in ("gflin", "superalg", "envelope", "cohomology"):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{name}.py:{node.lineno} imports {m}" for m in mods
                      if upper & set(m.split("."))]
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
    """The Lie complex owns its cochain layout, and ``eval_lie_cochain`` is
    the one route from an argument tuple to a coordinate and a sign: only
    ``cohomology`` names ``lie_eval_sign``, and inside ``cohomology`` only
    ``eval_lie_cochain`` calls it or reads the ``index`` of a cochain basis
    (the Lie differential reads the layout built from it).  ``sixterm`` and
    ``extensions`` read no ``index`` or ``items`` of a cochain basis.
    Those are attributes of the basis, so any ``.index`` or ``.items``
    that is not called is one; the methods ``list.index`` and
    ``dict.items`` are called, and pass."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        inside_eval = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef)
                       and fn.name == "eval_lie_cochain"
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            if path.name != "cohomology.py" and "lie_eval_sign" in names:
                found.append(f"{path.name}:{node.lineno} names lie_eval_sign")
            uncalled = (isinstance(node, ast.Attribute)
                        and id(node) not in called)
            if (path.name in ("sixterm.py", "extensions.py") and uncalled
                    and node.attr in ("index", "items")):
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            if path.name == "cohomology.py" and id(node) not in inside_eval:
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "lie_eval_sign"):
                    found.append(f"cohomology.py:{node.lineno} calls "
                                 f"lie_eval_sign outside eval_lie_cochain")
                if uncalled and node.attr == "index":
                    found.append(f"cohomology.py:{node.lineno} reads .index "
                                 f"outside eval_lie_cochain")
    assert not found


def test_only_fg_reaches_extensions_from_sixterm():
    """A report builds no extension algebra but the universal twist of fg:
    in ``sixterm``, every import from ``extensions`` sits inside
    ``SixTermContext._fg_cocycles``, and every name it binds is read only
    there.  H^2_*'s classes are filled from the pair complex's
    (f, w) cocycles (``cohomology.pair_fill``), with no E_f."""
    tree = ast.parse((SRC / "sixterm.py").read_text(encoding="utf-8"))
    fg = next(fn for cls in tree.body if isinstance(cls, ast.ClassDef)
              and cls.name == "SixTermContext" for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "_fg_cocycles")
    inside = {id(node) for node in ast.walk(fg)}
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] == "extensions"]
    assert imports
    bound = {a.asname or a.name for node in imports for a in node.names}
    found = [f"sixterm.py:{node.lineno}" for node in imports
             if id(node) not in inside]
    found += [f"sixterm.py:{node.lineno} reads {node.id}"
              for node in ast.walk(tree) if isinstance(node, ast.Name)
              and node.id in bound and id(node) not in inside]
    assert not found


def test_the_pair_complex_evaluates_no_unit_cochains():
    """``cohomology.PairComplex._differential``, which builds the
    differentials that ``d`` keeps, reads D1's Psi-bar rows and D2's
    obstruction rows off ``lie_psi_bar_matrix`` and
    ``lie_obstruction_matrix``, both built from the Lie layout, and the w
    rows off the Lie d0: it calls no ``cochain_array``, ``cochain_vector``,
    ``psi_bar_on_cocycle``, ``obstruction_cocycle`` or ``np.eye``, so no
    stack of unit cochains is evaluated and read back."""
    tree = ast.parse((SRC / "cohomology.py").read_text(encoding="utf-8"))
    d = next(fn for cls in tree.body if isinstance(cls, ast.ClassDef)
             and cls.name == "PairComplex" for fn in cls.body
             if isinstance(fn, ast.FunctionDef) and fn.name == "_differential")
    banned = {"cochain_array", "cochain_vector", "psi_bar_on_cocycle",
              "obstruction_cocycle", "eye"}
    found = []
    for node in ast.walk(d):
        func = node.func if isinstance(node, ast.Call) else None
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in banned:
            found.append(f"cohomology.py:{node.lineno} calls {name}")
    assert not found
