"""Executable extension constructions.

Module extensions correspond to 1-cocycles valued in Hom(N, K); algebra
extensions of an abelian module M by g correspond to Lie 2-cocycles; and
restricted extensions with strongly abelian kernel correspond to bar-type
2-cocycles on u(g)^+.  Every constructor revalidates the produced object,
and every extractor uses the canonical coordinate section x -> (x, 0), so
round trips are exact on the nose, not merely up to cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import CochainComplex, comparison_matrix, is_bar_2cocycle
from .envelope import UAlgebra, gamma_map, linear_section_extend
from .errors import (
    DifferentUnderlyingError, NoSolutionError, NotACocycleError, UsageError,
    ValidationError, ValueNotInvariantError,
)
from .gflin import MatGF, RowReduction
from .sixterm import obstruction_cocycle, psi_bar_on_cocycle
from .superalg import (
    LieSuperAlgebra, Representation, SemiLinearMap, SumLayout,
    hom_module, hom_module_units, pmap_apply, semidirect,
    validate_lie_super, validate_module, validate_pmap,
)

__all__ = [
    "ModuleExtension", "AlgebraExtension", "RestrictedExtension",
    "module_ext_from_1cocycle", "cocycle_from_module_ext",
    "algebra_ext_from_2cocycle", "cocycle_from_algebra_ext",
    "semidirect_extension", "twist_pmap", "strongly_abelianize",
    "restricted_structure_from_lie_2cocycle",
    "restricted_ext_from_assoc_2cocycle", "assoc_2cocycle_from_restricted_ext",
    "automorphism_from_1cocycle", "are_equivalent_restricted", "psi_image",
]


# ---------------------------------------------------------------------------
# extensions of modules by modules (degree 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModuleExtension:
    """0 -> K -> E -> N -> 0 of g-modules.

    E's coordinates are those of ``layout``, the ``SumLayout`` of K and N:
    evens of K, evens of N, odds of K, odds of N.
    """

    g: object
    K: Representation
    N: Representation
    E: Representation
    hom: Representation  # Hom(N, K) with its module structure
    layout: SumLayout


def module_ext_from_1cocycle(g, K, N, fvec, hom=None):
    """E_f = K (+) N with x.(c+d) = x.c + x.d + f(x)(d), for f a 1-cocycle
    with values in Hom(N, K)."""
    p = g.p
    hom = hom if hom is not None else hom_module(g, N, K)
    lie = CochainComplex(g, hom, "lie")
    if len(fvec) != lie.basis(1).dim:
        raise UsageError("cochain coordinate length mismatch")
    if any(lie.d(1).matvec(fvec)):
        raise NotACocycleError("not a 1-cocycle in Hom(N, K)")
    layout = SumLayout(K.space, N.space)
    kpos, npos = layout.positions()
    mats = np.zeros((g.dim, layout.dim, layout.dim), dtype=np.int64)
    xs = range(g.dim)
    mats[np.ix_(xs, kpos, kpos)] = np.reshape(K.mats, (g.dim, K.dim, K.dim))
    mats[np.ix_(xs, npos, npos)] = np.reshape(N.mats, (g.dim, N.dim, N.dim))
    # f(x_i) in the K x N block: unit t of Hom(N, K) is the matrix unit (k, j)
    ks, js = np.array(hom_module_units(N, K), dtype=np.int64).reshape(-1, 2).T
    mats[:, kpos[ks], npos[js]] = lie.cochain_array(fvec, 1)
    E = Representation(g, layout.space(), list(mats % p))
    report = validate_module(g, E, restricted=False)
    if not report.ok:
        raise ValidationError(report.summary(), report)
    return ModuleExtension(g, K, N, E, hom, layout)


def cocycle_from_module_ext(ext):
    """Recover the 1-cocycle via the coordinate section d -> (0, d):
    f(x)(a) = x.(0, a) - (0, x.a), read in the K block."""
    g, K, N, p = ext.g, ext.K, ext.N, ext.g.p
    kpos, npos = ext.layout.positions()
    mats = np.array(ext.E.mats, dtype=np.int64).reshape(g.dim, ext.E.dim,
                                                        ext.E.dim) % p
    if (mats[np.ix_(range(g.dim), npos, npos)]
            != np.reshape(N.mats, (g.dim, N.dim, N.dim)) % p).any():
        raise UsageError("projection to N is not a module map")
    ks, js = np.array(hom_module_units(N, K), dtype=np.int64).reshape(-1, 2).T
    lie = CochainComplex(g, ext.hom, "lie")
    return tuple(lie.cochain_vector(mats[:, kpos[ks], npos[js]], 1).tolist())


# ---------------------------------------------------------------------------
# extensions of an abelian algebra M by g (degree 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraExtension:
    """0 -> M -> E -> g -> 0 with abelian kernel, E on SumLayout coordinates."""

    g: object
    rep: Representation
    E: LieSuperAlgebra
    layout: SumLayout

    @property
    def p(self):
        return self.g.p

    def phi(self, evec):
        return self.layout.project_g(evec)

    def section(self, gvec):
        return self.layout.embed_g(gvec)

    def embed(self, mvec):
        return self.layout.embed_m(mvec)


@dataclass(frozen=True)
class RestrictedExtension(AlgebraExtension):
    """An algebra extension whose total space carries a validated p-map."""

    @property
    def strongly_abelian(self):
        """Whether M is an abelian ideal of E with p-map zero on M_0."""
        E, layout = self.E, self.layout
        gs, ms = layout.positions()
        return not (E.brackets[np.ix_(range(E.dim), ms, gs)].any()
                    or E.brackets[np.ix_(ms, ms)].any()
                    or any(E.pmap_basis(ms[j]).any()
                           for j in self.rep.space.even_indices()))


def algebra_ext_from_2cocycle(lie, fvec):
    """E_f = g (+) M for a 2-cocycle f of the Lie complex ``lie`` of (g, M),
    with bracket
    [(x1,m1),(x2,m2)] = ([x1,x2], x1.m2 - (-1)^{|x1||x2|} x2.m1 + f(x1,x2)).
    f must be killed by ``lie.cocycle_rows(2)``, d2 with the p = 3
    odd-cube rows, else NotACocycleError."""
    lie.require("lie")
    g, rep, p = lie.g, lie.rep, lie.g.p
    if len(fvec) != lie.basis(2).dim:
        raise UsageError("cochain coordinate length mismatch")
    if any(lie.cocycle_rows(2).matvec(fvec)):
        raise NotACocycleError("not a Lie 2-cocycle")
    E0, layout = semidirect(g, rep)
    brk = E0.brackets.copy()
    gs, ms = layout.positions()
    brk[np.ix_(gs, gs, ms)] += lie.cochain_array(fvec, 2)
    E = LieSuperAlgebra(E0.space, p, brk)
    report = validate_lie_super(E)
    if not report.ok:
        raise ValidationError(report.summary(), report)
    return AlgebraExtension(g, rep, E, layout)


def cocycle_from_algebra_ext(ext, lie):
    """f(x1,x2) = M-part of [section(x1), section(x2)] minus section([x1,x2]),
    in the 2-cochain coordinates of the Lie complex ``lie`` of (g, M).  The
    section has no M-part, so f is the M-part of the bracket of E on g x g,
    read off E's structure constants in one slice."""
    lie.require("lie", ext)
    gs, ms = ext.layout.positions()
    f = ext.E.brackets[np.ix_(gs, gs, ms)]
    return tuple(lie.cochain_vector(f, 2).tolist())


def semidirect_extension(g, rep):
    """The trivial restricted extension s_0 = g |x M, M strongly abelian."""
    E, layout = semidirect(g, rep)
    return RestrictedExtension(g, rep, E, layout)


def _with_pmap(ext, pmap):
    E2 = LieSuperAlgebra(ext.E.space, ext.p, ext.E.brackets, pmap)
    report = validate_pmap(E2)
    if not report.ok:
        raise ValidationError(report.summary(), report)
    return RestrictedExtension(ext.g, ext.rep, E2, ext.layout)


def _with_pmap_on_g(ext, r):
    """``ext`` with (x, 0)^[p] = (x^[p], r[x]) on the even basis of g and
    p-map zero on the module generators."""
    layout = ext.layout
    pmap = {}
    for e in ext.E.space.even_indices():
        kind, idx = layout.e_source(e)
        if kind == "m":
            pmap[e] = np.zeros(ext.E.dim, dtype=np.int64)
        else:
            pmap[e] = (layout.embed_g(ext.g.pmap_basis(idx))
                       + layout.embed_m(r[idx])) % ext.p
    return _with_pmap(ext, pmap)


def twist_pmap(ext, gmap):
    """Shift the p-map by a semilinear map into the invariants:
    e^(p) = e^[p] - gmap(phi(e)).  The underlying algebra is unchanged."""
    if not isinstance(gmap, SemiLinearMap) or gmap.g is not ext.g:
        raise UsageError("gmap must be a semilinear map on g's even part")
    if gmap.target_dim != ext.rep.dim:
        raise UsageError("gmap must take values in M")
    p = ext.p
    odd = list(ext.rep.space.odd_indices())
    for t in range(ext.g.space.n_even):
        v = np.asarray(gmap.value_on_basis(t), dtype=np.int64) % p
        if v[odd].any() or any(((mat @ v) % p).any() for mat in ext.rep.mats):
            raise ValueNotInvariantError(
                f"twist value on even basis slot {t} is not g-invariant even")
    pmap = {}
    for e in ext.E.space.even_indices():
        vec = np.array(ext.E.pmap_basis(e), dtype=np.int64)
        kind, idx = ext.layout.e_source(e)
        if kind == "g":
            t = ext.g.space.even_indices().index(idx)
            shift = ext.layout.embed_m(gmap.value_on_basis(t))
            vec = (vec - shift) % p
        pmap[e] = vec
    return _with_pmap(ext, pmap)


def strongly_abelianize(ext):
    """Cancel the p-map on M by subtracting its semilinear extension
    (zero on the coordinate complement of M_0); similar to the input."""
    p = ext.p
    pmap = {}
    for e in ext.E.space.even_indices():
        vec = np.array(ext.E.pmap_basis(e), dtype=np.int64)
        kind, _ = ext.layout.e_source(e)
        if kind == "m":
            vec = np.zeros_like(vec)
        pmap[e] = vec
    return _with_pmap(ext, pmap)


def restricted_structure_from_lie_2cocycle(lie, fvec):
    """Equip E_f, for a 2-cocycle f of the Lie complex ``lie`` of (g, M),
    with a p-map: per even basis x solve

        x1 . r(x) = -(k_x + f_{x^[p]})(x1)   for all x1,

    and set (x, 0)^[p] = (x^[p], r(x)); module generators get p-map zero, so
    the additivity rule yields (x, m)^[p] = (x^[p], r(x) + x^{p-1}.m).
    The other restricted structures on E_f are ``twist_pmap`` of this one
    by semilinear maps into the invariants.  Raises NoSolutionError when no
    p-map exists over E_f (an obstruction witness).
    """
    g, rep, p = lie.g, lie.rep, lie.g.p
    ext = algebra_ext_from_2cocycle(lie, fvec)
    # x1 . r = -k(x1) for all basis x1, stacked x1-major; one reduction
    # of the stack serves every even basis element
    stacked = RowReduction(MatGF.from_dense(np.vstack(rep.mats), p))
    r = {}
    for idx in g.space.even_indices():
        k = lie.cochain_array(obstruction_cocycle(lie, fvec, idx), 1)
        sol = stacked.solve(-k.ravel() % p)
        if sol is None:
            raise NoSolutionError(
                f"no restricted structure: obstruction at even basis {idx}")
        r[idx] = np.asarray(sol, dtype=np.int64)
    return _with_pmap_on_g(ext, r)


# ---------------------------------------------------------------------------
# the correspondence with bar-type 2-cocycles
# ---------------------------------------------------------------------------

def restricted_ext_from_assoc_2cocycle(bar, lie, cvec):
    """Restricted extension from a 2-cocycle c of the bar complex ``bar``,
    built on the Lie complex ``lie`` of the same (g, M):

    bracket twisted by the antisymmetrization of c on g, and
    (x, 0)^[p] = (x^[p], c(x^{p-1}, x)) on even basis elements.
    """
    bar.require("bar")
    lie.require("lie", bar)
    # also rejects a cvec of the wrong length
    if not is_bar_2cocycle(bar, cvec):
        raise NotACocycleError("not a bar 2-cocycle")
    ext = algebra_ext_from_2cocycle(
        lie, comparison_matrix(bar, lie, 2).matvec(cvec))
    r = {idx: bar.cochain_at(cvec, bar.aug_power(idx, bar.g.p - 1),
                             bar.aug_power(idx, 1))
         for idx in bar.g.space.even_indices()}
    return _with_pmap_on_g(ext, r)


def psi_image(ext, perturbation=None):
    """Images in E of the canonical section x -> (x, 0), optionally perturbed
    by an even linear map theta: g -> M, x -> (x, theta(x))."""
    g = ext.g
    out = []
    for i in range(g.dim):
        vec = ext.section(g.basis_vector(i))
        if perturbation is not None:
            vec = (vec + ext.embed(perturbation[:, i])) % ext.p
        out.append(vec)
    return out


def assoc_2cocycle_from_restricted_ext(ext, bar, section=None):
    """Bar 2-cocycle, in the bar complex ``bar`` of (g, M), of a restricted
    extension of g by M with strongly abelian kernel:

        c(u, v) = gamma(psi'(u) psi'(v) - psi'(uv))

    where psi' extends the section x -> X_x monomial-by-monomial into u(E),
    phi' is the induced projection u(E) -> u(g), and gamma collapses u(E)M
    onto M by xi m -> phi'(xi).m, killing M-degree >= 2.  Two identities
    hold for xi in u(E)M and a generator y:

        gamma(X_y xi) = y.gamma(xi), since phi' is multiplicative;
        gamma(xi X_y) = 0, since m X_y = (-1)^{|m||y|}(X_y m - y.m) and
        gamma(X_y m) = y.m.

    Only the seed entries go through gamma: c(x, y) for generators x after
    y, the M-part of [X_x, X_y] - X_{[x,y]}; c(x, x) for odd x, half that
    of [X_x, X_x] - X_{[x,x]}; and c(x, x^{p-1}) for even x, that of
    X_x^p - X_{x^[p]}.  That is g.dim (g.dim + 1) / 2 products in u(E).
    Every other generator-row entry c(x, v), with v = y v' on the nose and
    y the first generator of v, follows from P, the aug x aug product
    table of u(g), and c(., 1) = 0 (``CochainComplex.cocycle_from_seeds``):

        x before y, or x = y even with exponent below p - 1 in v:
            c(x, v) = 0, as x v is a PBW monomial;
        x after y:
            c(x, v) = (-1)^{|x||y|} (y.c(x, v') + sum_w P[x v' -> w] c(y, w))
                      + sum_z [x, y]_z c(z, v');
        x = y odd:
            c(x, v) = 1/2 sum_z [x, x]_z c(z, v');
        x = y even, v = x^{p-1} v'':
            c(x, v) = sum_z (x^[p])_z c(z, v'').

    Each comes from rewriting X_x X_y psi'(v') in u(E) by the bracket
    (resp. X_x^p by the p-map): the defect m of that bracket leaves
    gamma(m psi'(v')) = 0 by the second identity, and X_y acts on a
    correction by the first.  The rows of the other aug monomials follow
    from the cocycle identity.  The result is checked to be a cocycle
    (``is_bar_2cocycle``) and to read back the extension through the
    section, from E's bracket and ``pmap_apply``, a route independent of
    the seeds: its antisymmetrization on g is the M-part of
    [psi x_i, psi x_j] - psi [x_i, x_j], and c(x^{p-1}, x) that of
    psi(x)^[p] - psi(x^[p]) for even basis x.
    """
    g, rep = ext.g, ext.rep
    p = ext.p
    if not ext.strongly_abelian:
        raise UsageError("kernel must be strongly abelian")
    bar.require("bar", ext)
    ualg = bar.ualg
    layout = ext.layout
    uE = UAlgebra(ext.E, restricted=True,
                  gen_order=np.concatenate(layout.positions()).tolist())
    section_vectors = psi_image(ext) if section is None else section
    psi_images = [uE.from_vector(v) for v in section_vectors]
    aug = ualg.aug_basis()
    # a seed (x, v) reads psi' on v and on the terms of x v, of degree <= 2
    vs = {aug[iv] for _, iv in bar.seed_positions()}
    psi = linear_section_extend(
        ualg, uE, psi_images,
        [m for m in ualg.pbw_basis() if sum(m) <= 2 or m in vs]).images
    seeds = []
    for ix, iv in bar.seed_positions():
        elt = uE.multiply(psi[aug[ix]], psi[aug[iv]])
        for mono, cw in ualg.monomial_product(aug[ix], aug[iv]).items():
            elt = elt - psi[mono].scaled(cw)  # psi'(x v)
        seeds.append(gamma_map(uE, ualg, layout, rep, elt))
    cvec = bar.cocycle_from_seeds(
        np.array(seeds, dtype=np.int64).reshape(-1, rep.dim))
    if not is_bar_2cocycle(bar, cvec):
        raise NotACocycleError("extracted cochain is not a bar 2-cocycle")
    sec = np.array(section_vectors, dtype=np.int64) % p

    def defect(e_vec, g_vec):
        # M-part of e_vec - psi(g_vec)
        return layout.project_m((e_vec - np.asarray(g_vec) @ sec) % p)
    bracket = [[defect(ext.E.bracket(sec[i], sec[j]), g.brackets[i, j])
                for j in range(g.dim)] for i in range(g.dim)]
    pmap = [defect(pmap_apply(ext.E, sec[idx]), g.pmap_basis(idx))
            for idx in g.space.even_indices()]
    bar.check_readback(cvec, np.array(bracket), np.reshape(pmap, (-1, rep.dim)),
                       "extracted cochain")
    return tuple(cvec.tolist())


# ---------------------------------------------------------------------------
# automorphisms and equivalence
# ---------------------------------------------------------------------------

def automorphism_from_1cocycle(ext, lie, hvec):
    """alpha(x, m) = (x, m + h(x)) for a 1-cocycle h: g -> M of the Lie
    complex ``lie`` of (g, M); verified to be an algebra automorphism fixing
    M with phi . alpha = phi."""
    lie.require("lie", ext)
    p = ext.p
    if any(lie.d(1).matvec(hvec)):
        raise NotACocycleError("not a Lie 1-cocycle")
    n = ext.E.dim
    alpha = np.eye(n, dtype=np.int64)
    gs, ms = ext.layout.positions()
    alpha[np.ix_(ms, gs)] = lie.cochain_array(hvec, 1).T
    for i in range(n):
        for j in range(n):
            lhs = (alpha @ ext.E.bracket(np.eye(n, dtype=np.int64)[i],
                                         np.eye(n, dtype=np.int64)[j])) % p
            rhs = ext.E.bracket(alpha[:, i], alpha[:, j])
            if not np.array_equal(lhs % p, rhs % p):
                raise NotACocycleError("bracket compatibility fails")
    return alpha % p


def restricted_pmap_difference(e1, e2):
    """The semilinear map g_0 -> M by which two p-maps on one algebra differ."""
    if not np.array_equal(e1.E.brackets, e2.E.brackets):
        raise DifferentUnderlyingError("extensions have different brackets")
    p = e1.p
    vals = []
    for idx in e1.g.space.even_indices():
        e = e1.layout.g_to_e(idx)
        d = (np.array(e1.E.pmap_basis(e)) - np.array(e2.E.pmap_basis(e))) % p
        if any(e1.layout.project_g(d)):
            raise DifferentUnderlyingError("p-maps differ outside the kernel")
        vals.append(tuple(int(v) for v in e1.layout.project_m(d)))
    for j in e1.rep.space.even_indices():
        e = e1.layout.m_to_e(j)
        d = (np.array(e1.E.pmap_basis(e)) - np.array(e2.E.pmap_basis(e))) % p
        if d.any():
            raise DifferentUnderlyingError("p-maps differ on the kernel")
    return SemiLinearMap(e1.g, e1.rep.dim, tuple(vals))


def psi_twist_of_cocycle(ext, lie, hvec):
    """Psi(h): x -> x^{p-1}.h(x) + h(x)^[p] - h(x^[p]) for a 1-cocycle h of
    the Lie complex ``lie`` of (g, M): Psi-bar(h) plus the middle term,
    computed through E's p-map on the embedded value, which vanishes
    exactly when the kernel is strongly abelian.
    """
    g = ext.g
    lie.require("lie", ext)
    h = lie.cochain_array(hvec, 1)
    middle = np.array([ext.layout.project_m(pmap_apply(ext.E, ext.embed(h[i])))
                       for i in g.space.even_indices()], dtype=np.int64)
    return SemiLinearMap(g, ext.rep.dim, psi_bar_on_cocycle(lie, hvec)
                         + middle.reshape(-1, ext.rep.dim))


def are_equivalent_restricted(e1, e2, lie):
    """Two restricted structures on one underlying extension are equivalent
    iff their p-map difference lies in the image of Psi on Z^1(g, M), the
    1-cocycles of the Lie complex ``lie`` of (g, M)."""
    lie.require("lie", e1)
    diff = restricted_pmap_difference(e1, e2)
    g, rep = e1.g, e1.rep
    cols = []
    for row in lie.kernel(1).basis_rows:
        smap = psi_twist_of_cocycle(e1, lie, row)
        cols.append([v for t in range(g.space.n_even)
                     for v in smap.value_on_basis(t)])
    mat = MatGF.from_columns(cols, g.space.n_even * rep.dim, e1.p)
    dvec = [v for t in range(g.space.n_even) for v in diff.value_on_basis(t)]
    return RowReduction(mat).solve(dvec) is not None
