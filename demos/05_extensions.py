"""Extensions as executable constructions.

Three correspondences run in both directions here:

* 1-cocycles valued in Hom(N, K)  <->  module extensions 0 -> K -> E -> N -> 0;
* Lie 2-cocycles                  <->  algebra extensions 0 -> M -> E -> g -> 0;
* bar 2-cocycles on u(g)^+        <->  restricted extensions (strongly
  abelian kernel), via the enveloping algebra of the total space.

Every constructed object is revalidated against the axioms, and the
round trips land exactly (cocycle level) or in the same class (bar level).
"""

from supercoh import (
    SemiLinearMap, adjoint_module, are_equivalent_restricted, hom_module,
    restricted_cohomology, semidirect_extension, trivial_module, twist_pmap,
)
from supercoh.algfile import parse_algebra_dict
from supercoh.catalog import get_entry
from supercoh.cohomology import CochainComplex
from supercoh.extensions import (
    assoc_2cocycle_from_restricted_ext, cocycle_from_module_ext,
    module_ext_from_1cocycle, restricted_ext_from_assoc_2cocycle,
)
from supercoh.gflin import nullspace

g, modules, _ = parse_algebra_dict(get_entry("a4-borel").data)
k = modules["k"]

# --- module extensions --------------------------------------------------
K, N = adjoint_module(g), trivial_module(g, name="n")
M = hom_module(g, N, K)
Z1 = nullspace(CochainComplex(g, M, "lie").d(1))
print(f"Hom(N, K) has {Z1.dim} independent 1-cocycles")
f = Z1.basis_rows[0]
ext = module_ext_from_1cocycle(g, K, N, f, hom=M)
print("extension built; recovered cocycle equals the input:",
      cocycle_from_module_ext(ext) == tuple(f))

# --- restricted extensions and p-map twisting ----------------------------
s0 = semidirect_extension(g, k)
print("\ntrivial restricted extension s0 = g |x k built and validated")
# one bar and one Lie complex of (g, k): their bases and differentials are
# built once and shared by the cohomology and every extension below
bar = CochainComplex(g, k, "bar")
lie = CochainComplex(g, k, "lie")
h2s = restricted_cohomology(bar, 2)
c = assoc_2cocycle_from_restricted_ext(s0, bar)


def class_of(cocycle):
    """The H^2_* class coordinates of a bar 2-cocycle, ``class_coords``'s
    int64 array, as a tuple of ints."""
    return tuple(h2s.class_coords(cocycle).tolist())


print("its bar 2-cocycle class:", class_of(c), "(zero, as it must be)")

# h -> m is the p-th-power defect of the cocycle -h*, so this twist is
# invisible: the class stays zero and the extensions stay equivalent
inert = SemiLinearMap(g, 1, ((1,), (0,)))
tw0 = twist_pmap(s0, inert)
print("twist by (h -> m, x -> 0): class",
      class_of(assoc_2cocycle_from_restricted_ext(tw0, bar)),
      "; equivalent to s0?", are_equivalent_restricted(s0, tw0, lie))

# x -> m is not such a defect: it produces a genuinely new equivalence class
active = SemiLinearMap(g, 1, ((0,), (1,)))
tw1 = twist_pmap(s0, active)
print("twist by (h -> 0, x -> m): class",
      class_of(assoc_2cocycle_from_restricted_ext(tw1, bar)),
      "; equivalent to s0?", are_equivalent_restricted(s0, tw1, lie))

# --- and back: a bar cocycle to a restricted extension -------------------
c0 = h2s.representatives[0]
ext2 = restricted_ext_from_assoc_2cocycle(bar, lie, c0)
e_h = ext2.layout.g_to_e(0)
print("\nextension rebuilt from the H^2_* generator; its p-map on (h, 0):",
      [int(c) for c in ext2.E.pmap_basis(e_h)])
c1 = assoc_2cocycle_from_restricted_ext(ext2, bar)
print("extract-again lands in the same class:",
      class_of(c0) == class_of(c1))
