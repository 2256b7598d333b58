"""Direct sums of algebra input dicts, and the graded Kunneth formula for
the cohomology of a direct sum with trivial coefficients.

Cochains are even maps, so a class of odd total parity is seen only by the
trivial odd module Pi k: with e_n = dim H^n(., k), o_n = dim H^n(., Pi k),
e_0 = 1 and o_0 = 0,

    e_n(g + h) = sum_{i+j=n} e_i(g) e_j(h) + o_i(g) o_j(h),
    o_n(g + h) = sum_{i+j=n} e_i(g) o_j(h) + o_i(g) e_j(h),

for the ordinary and for the restricted cohomology (u(g + h) is
u(g) (x) u(h) as super algebras; Cartan-Eilenberg, Homological Algebra,
1956, ch. XI, and May, J. Algebra 1966)."""

from supercoh.algfile import parse_algebra_dict
from supercoh.cohomology import (
    CochainComplex, PairComplex, lie_cohomology, restricted_cohomology,
)


def trivial_lines():
    """The modules k and Pi k (``Pk``): one even, one odd basis vector, zero
    action."""
    return {"k": {"even": ["m"], "odd": [], "action": {}},
            "Pk": {"even": [], "odd": ["m"], "action": {}}}


def with_trivial_lines(data):
    """The input dict ``data`` with k and Pi k as its modules."""
    return {**data, "modules": trivial_lines()}


def direct_sum(a, b):
    """The input dict of g + h from the input dicts a of g and b of h, over
    one p: the generators of g are renamed ``a.<name>`` and those of h
    ``b.<name>``, brackets and p-maps are carried over under the new names,
    the brackets between g and h are zero, and the modules are k and
    Pi k."""
    if a["p"] != b["p"]:
        raise ValueError(f"summands over p = {a['p']} and p = {b['p']}")
    out = {"p": a["p"], "even": [], "odd": [], "brackets": {}, "pmap": {},
           "modules": trivial_lines()}
    for tag, data in (("a.", a), ("b.", b)):
        def renamed(coeffs):
            return {tag + name: c for name, c in coeffs.items()}
        out["even"] += [tag + name for name in data.get("even", [])]
        out["odd"] += [tag + name for name in data.get("odd", [])]
        for key, coeffs in data.get("brackets", {}).items():
            x, y = (name.strip() for name in key[1:-1].split(","))
            out["brackets"][f"[{tag}{x},{tag}{y}]"] = renamed(coeffs)
        for x, coeffs in data.get("pmap", {}).items():
            out["pmap"][tag + x] = renamed(coeffs)
    return out


def restricted_dims(lie):
    """dim H^n_*, n = 0, 1, 2, from the pair complex on ``lie``."""
    pair = PairComplex(lie)
    return tuple(restricted_cohomology(pair, n).dim_h for n in range(3))


def ordinary_dims(lie):
    """dim H^n, n = 0, 1, 2, of the Lie complex ``lie``."""
    return tuple(lie_cohomology(lie, n).dim_h for n in range(3))


def graded_dims(data, dims):
    """((e_0, e_1, e_2), (o_0, o_1, o_2)) of the algebra of ``data``, whose
    modules must include k and Pi k, read by ``dims`` (``restricted_dims``
    or ``ordinary_dims``) off its Lie complexes."""
    g, modules, _ = parse_algebra_dict(data)
    return tuple(dims(CochainComplex(g, modules[m], "lie")) for m in ("k", "Pk"))


def kunneth(x, y):
    """The graded Kunneth prediction of ``graded_dims`` of g + h from those
    of g (x) and of h (y)."""
    (e, o), (e2, o2) = x, y
    return (tuple(sum(e[i] * e2[n - i] + o[i] * o2[n - i] for i in range(n + 1))
                  for n in range(3)),
            tuple(sum(e[i] * o2[n - i] + o[i] * e2[n - i] for i in range(n + 1))
                  for n in range(3)))
