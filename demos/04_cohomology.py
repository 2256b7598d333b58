"""Ordinary vs restricted cohomology in degrees 0..2.

Ordinary cohomology H^n comes from the Lie-type complex on the super
exterior algebra; restricted cohomology H^n_* comes from the bar complex
on the augmentation ideal of u(g).  The two theories agree in degree 0,
are connected by an injection in degree 1, and genuinely diverge in
degree 2 - the six-term sequence (demo 06) measures the failure exactly.

The restricted theory can also be computed on the Lie side alone, by the
(f, w) pair complex ``bar.pair()`` (``cohomology.PairComplex``): its
degree-1 cocycles are the ordinary 1-cocycles that satisfy the p-th power
condition, and the last table compares its H^1_* with the bar complex's.
The bar H^2_* itself is spanned from the coboundaries and the bar cocycles
filled from the pair complex's classes, so no bar d2 is built.
"""

from supercoh import catalog
from supercoh.algfile import parse_algebra_dict
from supercoh.cohomology import (
    CochainComplex, lie_cohomology, restricted_cohomology,
)

# one Lie and one bar complex per entry, shared by every space read off them
complexes = []
print(f"{'entry':24s} {'H^0':>4} {'H^1':>4} {'H^2':>4}   {'H^0*':>4} {'H^1*':>4} {'H^2*':>4}")
for entry in catalog.ENTRIES:
    g, modules, _ = parse_algebra_dict(entry.data)
    rep = modules[entry.module_name]
    lie, bar = CochainComplex(g, rep, "lie"), CochainComplex(g, rep, "bar")
    complexes.append((entry, lie, bar))
    h = [lie_cohomology(lie, n).dim_h for n in (0, 1, 2)]
    hs = [restricted_cohomology(bar, n).dim_h for n in (0, 1, 2)]
    print(f"{entry.entry_id:24s} {h[0]:>4} {h[1]:>4} {h[2]:>4}   "
          f"{hs[0]:>4} {hs[1]:>4} {hs[2]:>4}")

print("""
H^1_* can also be carved out of the Lie side: it is the space of ordinary
1-cocycles satisfying the p-th power condition rho(x)^{p-1} f(x) = f(x^[p]),
modulo coboundaries.  Both computations must agree:
""")
for entry, _, bar in complexes[:5]:
    via_condition = restricted_cohomology(bar.pair(), 1).dim_h
    via_bar = restricted_cohomology(bar, 1).dim_h
    print(f"  {entry.entry_id:24s} condition: {via_condition}   bar: {via_bar}")
