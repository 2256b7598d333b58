"""Parsing of the JSON algebra/module description format.

The concrete syntax::

    {
      "p": 3,
      "even": ["h", "x"],
      "odd": [],
      "brackets": {"[h,x]": {"x": 1}},
      "pmap": {"h": {"h": 1}},
      "modules": {
        "k": {"even": ["m"], "odd": [], "action": {}},
        "adjoint": {"even": ["H","X"], "odd": [],
                    "action": {"h": [[0,0],[0,1]], "x": [[0,-1],[0,0]]}}
      }
    }

Bracket keys are written once per unordered pair; the parser fills in the
super-skew partner.  Unspecified brackets, p-map entries and actions are
zero.  Coefficients are integers, reduced mod p.  A module named "trivial"
is always available even when the file defines no modules.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .errors import ParseError, UsageError, ValidationError
from .gflin import check_modulus
from .superalg import (
    LieSuperAlgebra, Representation, SuperSpace, trivial_module,
    validate_lie_super, validate_module, validate_pmap,
)

_BRACKET_KEY = re.compile(r"^\[([^,\[\]]+),([^,\[\]]+)\]$")


def parse_algebra(text, p_override=None):
    """Parse JSON text into (LieSuperAlgebra, {name: Representation}, warnings).

    Raises ParseError on malformed input and ValidationError (with the full
    violation report) when the described structure breaks an axiom.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    return parse_algebra_dict(obj, p_override=p_override)


def parse_algebra_dict(obj, p_override=None):
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    warnings = []
    p = obj.get("p")
    if p is None:
        if p_override is None:
            raise ParseError("missing field 'p' (and no override given)")
        p = p_override
    elif p_override is not None and p_override != p:
        raise ParseError(f"file pins p={p}; refusing override p={p_override}")
    try:
        check_modulus(p)
    except UsageError as exc:
        raise ParseError(str(exc)) from exc

    even = _name_list(obj.get("even", []), "even")
    odd = _name_list(obj.get("odd", []), "odd")
    try:
        space = SuperSpace(tuple(even), tuple(odd))
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    n = space.dim
    index = {s: i for i, s in enumerate(space.names)}

    brackets = np.zeros((n, n, n), dtype=np.int64)
    seen_pairs = {}
    for key, coeffs in _dict_field(obj, "brackets").items():
        m = _BRACKET_KEY.match(key)
        if m is None:
            raise ParseError(f"bracket key {key!r} is not of the form '[a,b]'")
        a, b = m.group(1).strip(), m.group(2).strip()
        for nm in (a, b):
            if nm not in index:
                raise ParseError(f"bracket key {key!r} uses unknown name {nm!r}")
        i, j = index[a], index[b]
        pair = frozenset((i, j)) if i != j else frozenset((i,))
        if pair in seen_pairs:
            raise ParseError(
                f"brackets {seen_pairs[pair]!r} and {key!r} describe the same "
                f"unordered pair; list each pair once")
        seen_pairs[pair] = key
        vec = _coeff_vector(coeffs, index, n, p, f"brackets.{key}")
        if i == j and space.parity(i) == 0:
            if any(vec):
                raise ParseError(f"bracket {key!r}: [x,x] = 0 for even x")
            continue
        brackets[i, j] = vec
        if i != j:
            sign = -1 if (space.parity(i) and space.parity(j)) else 1
            brackets[j, i] = (-sign * vec) % p

    pmap = {}
    for nm, coeffs in _dict_field(obj, "pmap").items():
        if nm not in index:
            raise ParseError(f"pmap key {nm!r} is not a basis name")
        i = index[nm]
        if space.parity(i) != 0:
            raise ParseError(f"pmap key {nm!r} names an odd element")
        pmap[i] = _coeff_vector(coeffs, index, n, p, f"pmap.{nm}")

    try:
        g = LieSuperAlgebra(space, p, brackets, pmap)
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    rep1 = validate_lie_super(g)
    rep2 = validate_pmap(g)
    if not (rep1.ok and rep2.ok):
        raise ValidationError("\n".join(r.summary() for r in (rep1, rep2) if not r.ok),
                              (rep1, rep2))

    modules = {}
    for mname, mobj in _dict_field(obj, "modules").items():
        modules[mname] = _parse_module(g, mname, mobj, index, p, warnings)
    if "trivial" not in modules:
        modules["trivial"] = trivial_module(g)
    return g, modules, warnings


def _parse_module(g, mname, mobj, gindex, p, warnings):
    if not isinstance(mobj, dict):
        raise ParseError(f"module {mname!r} must be an object")
    if any(any(v.values()) if isinstance(v, dict) else False
           for v in _dict_field(mobj, "pmap").values()):
        warnings.append(
            f"module {mname!r} supplies a nonzero p-map; coefficients are "
            f"treated as strongly abelian and the p-map is ignored")
    even = _name_list(mobj.get("even", []), f"modules.{mname}.even")
    odd = _name_list(mobj.get("odd", []), f"modules.{mname}.odd")
    try:
        mspace = SuperSpace(tuple(even), tuple(odd))
    except Exception as exc:
        raise ParseError(f"module {mname!r}: {exc}") from exc
    d = mspace.dim
    mats = [np.zeros((d, d), dtype=np.int64) for _ in range(g.dim)]
    for nm, rows in _dict_field(mobj, "action").items():
        if nm not in gindex:
            raise ParseError(f"module {mname!r}: action key {nm!r} unknown")
        where = f"module {mname!r}: action of {nm!r}"
        if not (isinstance(rows, list) and len(rows) == d and all(
                isinstance(r, list) and len(r) == d for r in rows)):
            raise ParseError(f"{where} must be a {d}x{d} matrix")
        mats[gindex[nm]] = np.array(
            [[_residue(c, p, f"{where}: entry") for c in r] for r in rows],
            dtype=np.int64).reshape(d, d)
    rep = Representation(g, mspace, mats)
    report = validate_module(g, rep, restricted=True)
    if not report.ok:
        raise ValidationError(f"module {mname!r}: " + report.summary(), report)
    return rep


def _name_list(val, where):
    if not isinstance(val, list) or not all(isinstance(s, str) for s in val):
        raise ParseError(f"{where} must be a list of strings")
    return val


def _dict_field(obj, key):
    val = obj.get(key, {})
    if not isinstance(val, dict):
        raise ParseError(f"{key} must be an object")
    return val


def _coeff_vector(coeffs, index, n, p, where):
    if not isinstance(coeffs, dict):
        raise ParseError(f"{where}: coefficients must be an object")
    vec = np.zeros(n, dtype=np.int64)
    for nm, c in coeffs.items():
        if nm not in index:
            raise ParseError(f"{where}: unknown name {nm!r}")
        vec[index[nm]] = _residue(c, p, f"{where}: coefficient of {nm!r}")
    return vec


def _residue(c, p, where):
    """c mod p, for c a JSON integer; a bool, float or string is refused."""
    if not isinstance(c, int) or isinstance(c, bool):
        raise ParseError(f"{where} must be an integer, got {c!r}")
    return c % p
