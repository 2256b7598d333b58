"""Cochain complexes and cohomology in degrees 0..2.

Two complexes are built for a restricted Lie superalgebra g and a module M:

* the Lie-type complex C^n(g, M) on Lambda(g_0) (x) S(g_1), whose
  cohomology is the ordinary H^n(g, M);
* the bar-type complex of even multilinear maps on the augmentation ideal
  u(g)^+, whose cohomology is the restricted H^n_*(g, M);
* the (f, w) pair complex (``PairComplex``), whose H^1 and H^2 are H^1_*
  and H^2_*; the bar H^2_* is spanned from its fills (``pair_fill``).

All cochains are even maps, so a basis functional pairs an argument tuple
with a value coordinate of matching parity.  Degree-3 cochain spaces are
materialized only as differential targets: the Lie differential lists the
degree-3 basis, the bar differential numbers its cochains by integer keys.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import types
from dataclasses import dataclass, replace

import numpy as np

from .envelope import UAlgebra
from .errors import InvariantViolationError, NotACocycleError, UsageError
from .gflin import (
    MatGF, RowReduction, Subspace, extend, index_runs, matpow,
    quotient_representatives,
)
from .superalg import EVEN, ODD, basis_torus

__all__ = [
    "LieCochainBasis", "AssocCochainBasis", "CochainComplex", "PairComplex",
    "CohomologyResult", "lie_cochain_basis", "lie_eval_sign",
    "lie_differential_matrix", "lie_odd_cube_matrix", "lie_psi_bar_matrix",
    "lie_obstruction_matrix", "lie_cohomology", "assoc_cochain_basis",
    "assoc_differential_matrix", "restricted_cohomology", "pair_fill",
    "is_bar_2cocycle", "sgn_marked", "comparison_matrix", "eval_lie_cochain",
]


# rows of d2 that ``is_bar_2cocycle`` evaluates in one block
_BLOCK_ROWS = 1 << 13


def _kept(build):
    """Keep what ``build(cx, *args)`` returns in the store of the complex cx,
    keyed by build's name and args: each object a complex derives is built
    on its first use and read back after.  ``functools.wraps`` keeps
    build's name and module on the wrapper."""
    name = build.__name__

    @functools.wraps(build)
    def kept(cx, *args):
        key = (name, *args)
        try:
            return cx._store[key]
        except KeyError:
            out = cx._store[key] = build(cx, *args)
            return out
    return kept


# ---------------------------------------------------------------------------
# canonicalization of argument tuples
# ---------------------------------------------------------------------------

def lie_eval_sign(g, idxs):
    """Sort basis indices into (evens | odds, each ascending) with the
    Koszul sign: swapping adjacent arguments u, v costs -(-1)^{|u||v|}.
    Returns (evens, odds, sign) or None when a repeated even index kills
    the term."""
    par = g.space.parities()
    seq = list(idxs)
    sign = 1
    # insertion sort by (parity, index), counting signed adjacent swaps
    for a in range(1, len(seq)):
        b = a
        while b > 0 and (par[seq[b - 1]], seq[b - 1]) > (par[seq[b]], seq[b]):
            if not (par[seq[b - 1]] and par[seq[b]]):  # odd past odd: +1
                sign = -sign
            seq[b - 1], seq[b] = seq[b], seq[b - 1]
            b -= 1
    evens = tuple(i for i in seq if par[i] == EVEN)
    odds = tuple(i for i in seq if par[i] == ODD)
    if len(set(evens)) != len(evens):
        return None
    return evens, odds, sign


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieCochainBasis:
    """Basis of C^n(g, M): ((evens), (odds), m-coordinate) with the value
    parity equal to the argument parity sum (cochains are even maps)."""

    g: object
    mspace: object
    n: int
    items: tuple
    index: dict

    @property
    def dim(self):
        return len(self.items)


def lie_cochain_basis(g, mspace, n):
    items = []
    evens = g.space.even_indices()
    odds = g.space.odd_indices()
    for n1 in range(n + 1):
        n0 = n - n1
        if n0 > len(evens):
            continue
        for ev in itertools.combinations(evens, n0):
            for od in itertools.combinations_with_replacement(odds, n1):
                for m in range(mspace.dim):
                    if mspace.parity(m) == n1 % 2:
                        items.append((ev, od, m))
    items = tuple(items)
    return LieCochainBasis(g, mspace, n, items,
                           {it: k for k, it in enumerate(items)})


@dataclass(frozen=True)
class AssocCochainBasis:
    """Basis of the bar n-cochains: (tuple of aug-ideal monomial indices,
    m-coordinate) with matching total parity."""

    ualg: object
    mspace: object
    n: int
    items: tuple
    index: dict
    aug: tuple
    aug_index: dict

    @property
    def dim(self):
        return len(self.items)


def assoc_cochain_basis(ualg, mspace, n):
    aug, aug_index = ualg.aug_basis(), ualg.aug_index()
    pars = [ualg.parity(m) for m in aug]
    items = []
    for tup in itertools.product(range(len(aug)), repeat=n):
        tpar = sum(pars[s] for s in tup) % 2
        for m in range(mspace.dim):
            if mspace.parity(m) == tpar:
                items.append((tup, m))
    items = tuple(items)
    return AssocCochainBasis(ualg, mspace, n, items,
                             {it: k for k, it in enumerate(items)},
                             aug, aug_index)


# ---------------------------------------------------------------------------
# Lie-type differential
# ---------------------------------------------------------------------------

def lie_differential_matrix(lie, n):
    """Matrix of d_n : C^n(g, M) -> C^{n+1}(g, M) of the Lie complex
    ``lie``.  On a row (x_1..x_k, nu) of ``lie.basis(n + 1)``, with P_s the
    parity sum of the arguments before x_s,

    (d f)(x_1..x_k) = sum_s (-1)^{s-1 + |x_s| P_s} x_s . f(.., x_s^, ..)
        + sum_{s<t} (-1)^{s+t + |x_s| P_s + |x_t| P_t + |x_s||x_t|}
          f([x_s, x_t], .., x_s^, .., x_t^, ..).

    f on an ordered tuple, sign included, is read off the degree-n layout
    (``CochainComplex._layout``), so one gather takes the action terms of
    every row and s, and one the bracket terms of every row and pair
    (s, t).  A nonzero term whose argument and value parities disagree
    raises InvariantViolationError."""
    lie.require("lie")
    g, rep, p = lie.g, lie.rep, lie.g.p
    G, D, k = g.dim, rep.dim, n + 1
    cols, signs = (a.ravel() for a in lie._layout(n)[:2])
    items = lie.basis(k).items
    args = np.array([ev + od for ev, od, _ in items],
                    dtype=np.int64).reshape(-1, k)
    nu = np.array([m for *_, m in items], dtype=np.int64)[:, None]
    par = np.array(g.space.parities(), dtype=np.int64)
    mpar = np.array([rep.space.parity(m) for m in range(D)], dtype=np.int64)
    ap = par[args]
    pre = ap.cumsum(axis=1) - ap  # P_s
    radix = G ** np.arange(n - 1, -1, -1, dtype=np.int64)
    act = np.array(rep.mats, dtype=np.int64).reshape(G, D, D)
    # (flat layout positions, coefficients, parity mismatch) per term family
    # x_s . f(rest), rest the arguments but x_s: axes (row, s, mu)
    rest = args[:, [[j for j in range(k) if j != s] for s in range(k)]] @ radix
    e = np.arange(k) + ap * pre
    families = [(rest[..., None] * D + np.arange(D),
                 (1 - 2 * (e % 2))[..., None] * act[args, nu],
                 (ap + mpar[nu])[..., None] % 2 != mpar)]
    if n:  # f([x_s, x_t], rest): axes (row, pair (s, t), basis index b)
        s, t = np.array(list(itertools.combinations(range(k), 2))).T
        rest = args[:, [[j for j in range(k) if j not in st]
                        for st in zip(s, t)]] @ radix[1:]
        e = s + t + ap[:, s] * (pre[:, s] + ap[:, t]) + ap[:, t] * pre[:, t]
        families.append((
            (np.arange(G) * radix[0] + rest[..., None]) * D + nu[..., None],
            (1 - 2 * (e % 2))[..., None] * g.brackets[args[:, s], args[:, t]],
            (ap[:, s] + ap[:, t])[..., None] % 2 != par))
    if any(((c % p != 0) & breaks).any() for _, c, breaks in families):
        raise InvariantViolationError("differential term breaks parity")
    return _term_matrix(len(args), lie.basis(n).dim, p, "differential", [
        (np.arange(len(args))[:, None, None], cols[pos], coeffs * signs[pos])
        for pos, coeffs, _ in families])


def lie_odd_cube_matrix(lie):
    """The p = 3 odd-cube condition on the 2-cochains of the Lie complex
    ``lie``, as the rows of a matrix over C^2.  At p = 3 the super Jacobi
    law gives only 3 [Y, [Y, Y]] = 0 for odd Y, so d2 f = 0 does not make
    E_f (``extensions.algebra_ext_from_2cocycle``) a Lie superalgebra.  Its
    odd-cube sums (``superalg.validate_lie_super``) vanish exactly when f
    is killed by the row (i, j, k, mu), for odd basis i <= j <= k and odd
    value coordinate mu, of the M-part of the sum over the distinct
    orderings (a, b, c) of (i, j, k) of
    [(y_a, 0), [(y_b, 0), (y_c, 0)]]:

        f(y_a, [y_b, y_c]) + y_a . f(y_b, y_c),

    both terms read off the degree-2 layout.  Triples with an odd vector
    of M hold no f and follow from M being a module.  No rows unless
    p = 3 and both g and M have an odd part."""
    lie.require("lie")
    g, rep, p = lie.g, lie.rep, lie.g.p
    odd_m = np.array(rep.space.odd_indices(), dtype=np.int64)
    triples = list(itertools.combinations_with_replacement(
        g.space.odd_indices(), 3)) if p == 3 and odd_m.size else []
    if not triples:
        return MatGF.zeros(0, lie.basis(2).dim, p)
    cols, signs, _ = lie._layout(2)
    tri, abc = zip(*[(r, o) for r, t in enumerate(triples)
                     for o in sorted(set(itertools.permutations(t)))])
    a, b, c = (x[:, None, None] for x in np.array(abc, dtype=np.int64).T)
    mu, z, nu = odd_m[:, None], np.arange(g.dim), np.arange(rep.dim)
    act = np.array(rep.mats, dtype=np.int64).reshape(g.dim, rep.dim, rep.dim)
    row = np.array(tri, dtype=np.int64)[:, None, None] * odd_m.size \
        + np.arange(odd_m.size)[:, None]
    # (C^2 columns, coefficients) per term: f(y_a, x_z) [y_b, y_c]_z
    # on axes (ordering, mu, z), rho(y_a)_{mu nu} f(y_b, y_c)_nu on axes
    # (ordering, mu, nu)
    return _term_matrix(len(triples) * odd_m.size, lie.basis(2).dim, p,
                        "odd-cube", [
        (row, cols[a, z, mu], signs[a, z, mu] * g.brackets[b, c, z]),
        (row, cols[b, c, nu], act[a, mu, nu] * signs[b, c, nu])])


@_kept
def lie_psi_bar_matrix(lie):
    """Psi-bar of the Lie complex ``lie`` as a matrix from C^1 to
    M^{n_even}, row t dim M + m the m-th coordinate of the value at the
    t-th even basis element x_t:

        Psi-bar(h)(x_t) = rho(x_t)^{p-1} h(x_t) - h(x_t^[p]),

    the kernel p-map term vanishing since M is strongly abelian.  Its two
    term families, rho(x_t)^{p-1}_{mn} h(x_t)_n and -(x_t^[p])_c h(x_c)_m,
    are read off the degree-1 layout.  Kept by the complex."""
    lie.require("lie")
    g, rep, p = lie.g, lie.rep, lie.g.p
    (cols, signs, _), D, terms = lie._layout(1), rep.dim, []
    for t, x in enumerate(g.space.even_indices()):  # axes (m, n), (m, c)
        row = t * D + np.arange(D)[:, None]
        terms += [(row, cols[x], matpow(rep.mats[x], p - 1, p) * signs[x]),
                  (row, cols.T, -g.pmap_basis(x) * signs.T)]
    return _term_matrix(g.space.n_even * D, lie.basis(1).dim, p, "Psi-bar",
                        terms)


@_kept
def lie_obstruction_matrix(lie, x):
    """The obstruction of the Lie complex ``lie`` at an even basis element
    x as a matrix from C^2 to C^1: f goes to the 1-cochain

        k_x(x1) = sum_{i=0}^{p-1} rho(x)^i f(x, (ad x)^{p-1-i}(x1)),
        f_{x^[p]}(x1) = f(x1, x^[p]),

    k_x + f_{x^[p]}.  Both term families, op[c, n, b, m] f(x, c)_n with
    op = sum_i ((ad x)^{p-1-i})_cb (rho(x)^i)_mn and (x^[p])_c f(b, c)_m,
    land on the coordinate of (b, m) and are read off the degree-1 and
    degree-2 layouts.  Raises InvariantViolationError if a term lands
    where parity allows no 1-cochain coordinate.  Kept by the complex, one
    per x."""
    lie.require("lie")
    g, rep, p = lie.g, lie.rep, lie.g.p
    cols1, cols2, signs2 = lie._layout(1)[0], *lie._layout(2)[:2]
    ads = [np.eye(g.dim, dtype=np.int64)]  # (ad x)^i, then rho(x)^i
    rhos = [np.eye(rep.dim, dtype=np.int64)]
    for _ in range(p - 1):
        ads.append(ads[-1] @ g.ad_basis(x) % p)
        rhos.append(rhos[-1] @ rep.mats[x] % p)
    op = np.einsum("icb,imn->cnbm", ads[::-1], rhos)
    # axes (c, n, b, m) and (b, c, m)
    return _term_matrix(lie.basis(1).dim, lie.basis(2).dim, p, "obstruction", [
        (cols1, cols2[x, :, :, None, None], op * signs2[x, :, :, None, None]),
        (cols1[:, None], cols2, g.pmap_basis(x)[:, None] * signs2)])


def _term_matrix(nrows, ncols, p, what, families):
    """The nrows x ncols matrix summing term families (rows, cols,
    coefficients) of arrays that broadcast together, as the Lie matrices
    are read off the layout: a term whose coefficient is 0 mod p or whose
    col is -1 is dropped, and a live one whose row is -1 has no output
    coordinate and raises InvariantViolationError."""
    terms = [(np.zeros(0, dtype=np.int64),) * 3]  # no families: zero matrix
    for r, c, v in (np.broadcast_arrays(*family) for family in families):
        live = (v % p != 0) & (c >= 0)
        if (r[live] < 0).any():
            raise InvariantViolationError(f"{what} term breaks parity")
        terms.append((r[live], c[live], v[live]))
    return MatGF.from_terms(nrows, ncols, p, *map(np.concatenate, zip(*terms)))


# ---------------------------------------------------------------------------
# bar-type differential
# ---------------------------------------------------------------------------

def assoc_differential_matrix(ualg, rep, n, lookup=None):
    """Matrix of the normalized bar differential on u(g)^+ cochains:

    (delta f)(s_1..s_{n+1}) = s_1 . f(s_2..s_{n+1})
                              + sum_i (-1)^i f(s_1,.., s_i s_{i+1}, .., s_{n+1}).

    A cochain (s_1..s_k, mu) is addressed by the mixed-radix key
    ((s_1 A + s_2) A + ...) dim M + mu, with A = |aug|.  Keys increase in
    the order of ``assoc_cochain_basis``, so a parity lookup array (key ->
    basis index, -1 for a cochain outside the complex: an odd one, or on a
    weight-zero complex one of nonzero weight) numbers rows and columns
    without building either basis; ``lookup(k)`` gives that array for
    degree k (a ``CochainComplex`` passes its ``parity_lookup``, which
    builds each degree once), and without it the full ones are built
    here.  The terms start from the columns' keys: a column (.., mu)
    meets the action nonzeros (s_1, nu, mu), and one whose i-th argument
    is w the table terms a b -> c w; ``MatGF.from_terms`` sums repeated
    (row, col) pairs mod p.  As d preserves parity and the torus weights,
    every term lands on a row of the complex: the action matrices and the
    product table check up front that both add on their terms
    (``UAlgebra.action_matrix``, ``UAlgebra.aug_product_table``), and a
    term that leaves the complex raises InvariantViolationError.
    """
    p = ualg.p
    aug = ualg.aug_basis()
    A, D = len(aug), rep.dim
    if lookup is None:
        lookup = functools.partial(_bar_lookup, ualg, rep)
    src, dst = lookup(n), lookup(n + 1)
    nrows, ncols = int(dst.max(initial=-1)) + 1, int(src.max(initial=-1)) + 1
    if nrows * ncols >= 2 ** 63:
        raise UsageError(f"bar differential {nrows}x{ncols} is too large")
    act = _bar_action(ualg, rep, aug)
    s1, nu, mu = np.nonzero(act)
    keys = np.flatnonzero(src >= 0)
    terms = []  # (row, col, value) arrays, one triple per term family

    def emit(rows, cols, coeffs, what):
        r = dst[rows]
        if (r < 0).any():
            raise InvariantViolationError(f"bar {what} term leaves the complex")
        terms.append((r, src[cols], coeffs))

    # s_1 . f(s_2..s_{n+1}): column (rest, mu), row (s_1, rest, nu)
    own, e = _join(keys % D, mu, D)
    col = keys[own]
    emit((s1[e] * A ** n + col // D) * D + nu[e], col, act[s1[e], nu[e], mu[e]],
         "action")
    # (-1)^i f(.., s_i s_{i+1}, ..) for each term c w of a product a b:
    # column (pre, w, suf, nu), row (pre, a, b, suf, nu)
    if n:
        a, b, w, c = ualg.aug_product_table()
        for i in range(1, n + 1):
            span = A ** (n - i) * D
            own, e = _join(keys // span % A, w, A)
            col = keys[own]
            emit(((col // (span * A) * A + a[e]) * A + b[e]) * span + col % span,
                 col, -c[e] if i % 2 else c[e], "product")
    r, c, v = (np.concatenate(x) for x in zip(*terms))
    terms.clear()
    return MatGF.from_terms(nrows, ncols, p, r, c, v)


def _join(values, by, size):
    """(owner, entry): every pair of an index i of ``values`` and an index
    e of ``by`` with by[e] == values[i], both arrays over 0..size-1."""
    order = np.argsort(by, kind="stable")
    bounds = np.searchsorted(by[order], np.arange(size + 1))
    own, pos = index_runs(bounds[values], bounds[values + 1] - bounds[values])
    return own, order[pos]


def _bar_lookup(ualg, rep, n):
    """Basis index of every degree-n bar cochain key, -1 for odd ones."""
    apar = np.array([ualg.parity(m) for m in ualg.aug_basis()], dtype=np.int64)
    mpar = np.array([rep.space.parity(m) for m in range(rep.dim)],
                    dtype=np.int64)
    par = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        par = (par[:, None] + apar[None, :]).ravel() % 2
    even = ((par[:, None] + mpar[None, :]) % 2 == 0).ravel()
    out = np.cumsum(even) - 1
    out[~even] = -1
    return out


def _bar_action(ualg, rep, aug):
    """The action matrices of the u(g)^+ basis, stacked: (|aug|, dim M, dim M)."""
    return np.array([ualg.action_matrix(rep, m) for m in aug],
                    dtype=np.int64).reshape(len(aug), rep.dim, rep.dim)


def is_bar_2cocycle(bar, cvecs):
    """Whether the 2-cochain with coordinates ``cvecs`` of the bar complex
    ``bar``, or each of a stack of them along the leading axes, is a
    cocycle: whether e = d2 c,

        e(s_1, s_2, s_3) = s_1 . c(s_2, s_3) - c(s_1 s_2, s_3)
                           + c(s_1, s_2 s_3),

    vanishes on all aug-ideal monomials s_1, s_2, s_3 (the rows of the bar
    d2).  Only the generator slices s_1 = x_k, the degree-1 monomials, are
    evaluated, and that is exact.  d3 e = d3 d2 c = 0, and every aug
    monomial is u = x u' on the nose, with x its first generator, so the
    row (x, u', s_3, s_4) of d3 e = 0 reads

        e(u, s_3, s_4) = x . e(u', s_3, s_4) + e(x, u' s_3, s_4)
                         - e(x, u', s_3 s_4).

    By induction on deg u, e = 0 exactly when every generator slice
    e(x, ., .) is zero.  The argument needs the products of aug-ideal
    elements to stay in the ideal (``UAlgebra.aug_product_table`` raises
    otherwise) and M to be a restricted module, so that u(g) acts through
    its action matrices and d3 d2 = 0 (modules are validated on input).

    Of a slice only the rows of grade 0 are evaluated.  The grade of a
    cell (s_1..s_n, nu) is gr(nu) - sum_i gr(s_i), gr its parity and its
    weights under ``bar.torus`` (``CochainComplex._d2_tables``), and c has
    values at the cells of grade 0 alone, its coordinates.  Each term of
    e at a row of grade lambda reads c at a cell of the same grade: the
    action s_1 . c(s_2, s_3) at nu reads c(s_2, s_3) at the mu with
    rho(s_1)_{nu mu} != 0, and gr(nu) = gr(s_1) + gr(mu); the product
    terms read c at (w, s_3) and (s_1, w) for the terms w of s_1 s_2 and
    s_2 s_3, and gr(w) is the sum of its factors' grades.  The action
    matrices and the product table check both up front
    (``UAlgebra.action_matrix``, ``UAlgebra.aug_product_table``).  So e is
    zero off grade 0, and the rows evaluated for x_k are (x_k, s_2, s_3,
    nu) with gr(nu) - gr(s_3) = gr(x_k) + gr(s_2): for each s_2 one run
    of the degree-1 cells of that grade, in key order.

    The terms are read off the coordinates by ``_d2_rows``, over every
    run (x_k, s_2), which the fill of ``CochainComplex.cocycle_from_seeds``
    shares."""
    bar.require("bar")
    p, A = bar.g.p, len(bar.ualg.aug_basis())
    v = np.asarray(cvecs, dtype=np.int64)
    if v.shape[-1:] != bar._layout(2)[2].shape:
        raise UsageError("cochain coordinate length mismatch")
    v = v.reshape(math.prod(lead := v.shape[:-1]), v.shape[-1]) % p
    k, s = np.divmod(np.arange(bar.g.dim * A), A)
    ok = np.ones(len(v), dtype=bool)
    for _, _, e in _d2_rows(bar, v, k, s):
        ok &= ~e.any(axis=1)
    return ok.reshape(lead)


def _d2_rows(bar, v, k, s):
    """Yield (r0, r1, e) over the runs (x_k, s) = (k[r], s[r]) of the bar
    complex ``bar`` in blocks r0 <= r < r1 of about ``_BLOCK_ROWS`` rows:
    e, reduced mod p, is d2 c on the grade-0 rows (x_k, s, s_3, nu) of the
    block's runs, run by run and in key order within one, for each c of
    the (l, dim C^2) stack of coordinates v mod p (see
    ``is_bar_2cocycle``).  v is read block by block, so a caller may write
    it between blocks.  -c(x_k s, s_3) is one aligned segment of
    coordinates per term w of x_k s, as those of first argument w are the
    degree-1 cells of grade gr(w) in key order; c(x_k, s s_3) is one term
    per table entry and nu, and x_k . c(s, s_3) one per coordinate and
    nonzero of rho(x_k).  A block's terms are the only arrays of their
    size held; the tables are ``CochainComplex._d2_tables``."""
    t, p = bar._d2_tables(), bar.g.p
    cols, _, canon = bar._layout(2)
    _, b, w, coef = bar.ualg.aug_product_table()
    A, D, n = len(t.cstart) - 1, bar.rep.dim, len(t.gens)
    row = np.concatenate([[0], np.cumsum(t.length[k * A + s])])
    r0 = 0
    while r0 < len(k):
        r1 = max(r0 + 1, int(np.searchsorted(row, row[r0] + _BLOCK_ROWS,
                                             "right")) - 1)
        kb, sb = k[r0:r1], s[r0:r1]
        x, start = t.gens[kb], row[r0:r1] - row[r0]  # the runs' first rows
        # (rows, coordinates, coefficients) of the terms, one triple per family
        # -c(x s, s_3): the coordinates of each term w of x s, one segment
        # of cstart, onto the run
        lo = np.searchsorted(t.pair, x * A + sb)
        r, e = index_runs(lo, np.searchsorted(t.pair, x * A + sb + 1) - lo)
        own, src = index_runs(t.cstart[w[e]], t.cstart[w[e] + 1]
                              - t.cstart[w[e]])
        terms = [(src + (start[r] - t.cstart[w[e]])[own], src, -coef[e][own])]
        # c(x, s s_3): the coordinate (x, w, nu) onto the row (s, b, nu) of
        # the run, for each term w of s b
        r, e = index_runs(t.a_start[sb], t.a_start[sb + 1] - t.a_start[sb])
        at = cols[x[r], w[e]]
        i, nu = np.nonzero(at >= 0)
        terms.append((start[r[i]] + t.rank[b[e[i]] * D + nu], at[i, nu],
                      coef[e[i]]))
        # x . c(s, s_3): the coordinate (s, s_3, mu) onto the row (s, s_3,
        # nu) of the run, for each nonzero rho(x)_{nu mu}; none for rho = 0
        if t.ak.size:
            r, i = index_runs(t.cstart[sb], t.cstart[sb + 1] - t.cstart[sb])
            tail = canon[i] % (A * D)
            own, e = _join(kb[r] * D + tail % D, t.ak * D + t.amu, n * D)
            nu = tail[own] - t.amu[e] + t.anu[e]
            terms.append((start[r[own]] + t.rank[nu], i[own], t.act[e]))
        rows, at, c = map(np.concatenate, zip(*terms))
        out = np.zeros((len(v), row[r1] - row[r0]), dtype=np.int64)
        for o, vj in zip(out, v):  # each stack member, repeated rows summed
            np.add.at(o, rows, c * vj[at])
        yield r0, r1, out % p
        r0 = r1


@dataclass(frozen=True)
class _SeedPlan:
    """Where ``CochainComplex.cocycle_from_seeds`` reads and writes, for one
    u(g) (any module).  ``seeds`` are the (i, v) pairs, v an aug index, of
    the seed entries c(x_i, v), and ``gens[i]`` is the aug index of x_i.  A
    generator pass fills the entries (x, v) of one degree of v from the
    (src, z coefficients, y, sign) of the recursion, sign 0 where x does
    not come after y, and the (owner, table position) of the terms w of
    x v'.  A fill pass fills the rows of the aug monomials u = x u' of one
    degree, consecutive from the first: (first u, x, u') with x the
    generator index of u's first generator."""

    seeds: tuple
    gens: np.ndarray
    gen_passes: tuple
    fill_passes: tuple


def _bar_seed_plan(ualg):
    """The ``_SeedPlan`` of u(g)."""
    g, p, order = ualg.g, ualg.p, ualg.gen_order
    aug, index = ualg.aug_basis(), ualg.aug_index()
    A, n = len(aug), g.dim
    a, b, _, _ = ualg.aug_product_table()
    brk, half = g.brackets % p, pow(2, -1, p)
    gens = np.zeros(n, dtype=np.int64)
    first, rest, drop = [], [], []  # per v; -1 stands for the unit
    for iv, mono in enumerate(aug):
        j = next(k for k, e in enumerate(mono) if e)
        first.append(j)
        rest.append(index.get(mono[:j] + (mono[j] - 1,) + mono[j + 1:], -1))
        drop.append(index.get(mono[:j] + (0,) + mono[j + 1:], -1)
                    if mono[j] == p - 1 else None)
        if sum(mono) == 1:
            gens[order[j]] = iv
    deg = np.array([sum(m) for m in aug], dtype=np.int64)
    seeds, ents, cz = [], [], []  # ents: (degree of v, x, v, src, y, sign)
    for i in range(n):
        k = ualg.pos_of[i]
        for iv, j in enumerate(first):
            y = order[j]
            if j < k:
                src, z, sign = rest[iv], brk[i, y], (
                    -1 if g.parity(i) and g.parity(y) else 1)
            elif j > k:
                continue
            elif g.parity(i):
                src, z, sign = rest[iv], half * brk[i, i], 0
            elif drop[iv] is not None:
                src, z, sign = drop[iv], g.pmap_basis(i), 0
            else:
                continue
            if src < 0:
                seeds.append((i, iv))
            else:
                ents.append((deg[iv], i, iv, src, y, sign))
                cz.append(z % p)
    ents = np.array(ents, dtype=np.int64).reshape(-1, 6)
    srt = np.argsort(ents[:, 0], kind="stable")
    d, xs, vs, src, ys, sign = ents[srt].T
    cz = np.array(cz, dtype=np.int64).reshape(-1, n)[srt]
    pair_start = np.searchsorted(a * A + b, np.arange(A * A + 1))
    key = gens[xs] * A + src
    own, pos = index_runs(pair_start[key], np.where(
        sign != 0, pair_start[key + 1] - pair_start[key], 0))
    gen_passes = tuple(
        (xs[lo:hi], vs[lo:hi], src[lo:hi], cz[lo:hi], ys[lo:hi], sign[lo:hi],
         own[olo:ohi] - lo, pos[olo:ohi])
        for lo, hi, olo, ohi in _blocks(d, own))
    # the aug basis is sorted by degree: the rows of degree >= 2 follow
    # those of the n generators
    ux = np.array([order[first[u]] for u in range(n, A)], dtype=np.int64)
    ur = np.array(rest[n:], dtype=np.int64)
    cut = np.flatnonzero(np.diff(deg[n:])) + 1
    fill_passes = tuple(zip((n + np.r_[0, cut]).tolist(), np.split(ux, cut),
                            np.split(ur, cut)))
    return _SeedPlan(tuple(seeds), gens, gen_passes, fill_passes)


def _blocks(d, own):
    """(lo, hi, olo, ohi) per run of equal values in the sorted array d:
    the run is d[lo:hi], and own[olo:ohi] are the entries of the sorted
    array own that fall in lo..hi-1."""
    lo = np.flatnonzero(np.r_[True, d[1:] != d[:-1]]) if d.size else d
    hi = np.r_[lo[1:], d.size]
    olo, ohi = np.searchsorted(own, lo), np.searchsorted(own, hi)
    return zip(lo.tolist(), hi.tolist(), olo.tolist(), ohi.tolist())


# ---------------------------------------------------------------------------
# the complex of one (g, M) pair
# ---------------------------------------------------------------------------

class CochainComplex:
    """The Lie (``kind="lie"``) or bar (``kind="bar"``) cochain complex of
    (g, M).  A complex keeps, in one store, every object it derives from
    (g, M): the basis, differential d_n : C^n -> C^{n+1} and
    ``RowReduction`` of each degree, so Ker d_n and Im d_n come from one
    elimination of d_n's rows, the cochain layouts, the bar parity lookups,
    seed plan, d2 tables (``_d2_tables``) and pair complex (``pair``), and
    the Lie kind's ``cocycle_rows(2)``, ``lie_psi_bar_matrix`` and
    ``lie_obstruction_matrix``; ``with_module`` keeps only u(g)'s seed
    plan.  The complex owns the layout of its cochains: ``cochain_array``
    and ``cochain_vector`` go between coordinates and values, for stacks
    of cochains too, and the Lie d_n (``lie_differential_matrix``) reads
    its terms off the degree-n layout.  ``cocycle_from_seeds`` fills bar
    2-cochains and ``is_bar_2cocycle`` checks them in coordinates alone.
    The bar kind owns the restricted enveloping algebra u(g) its cochains
    live on, and ``with_module`` gives the bar complex of another module on
    the same u(g).  ``weight_zero`` gives the bar complex's subcomplex of
    weight-0 cochains under a basis torus of g, whose ``torus`` names it;
    the full complex's ``torus`` is empty."""

    def __init__(self, g, rep, kind):
        if kind not in ("lie", "bar"):
            raise UsageError(f"unknown complex kind {kind!r}")
        self.g = g
        self.rep = rep
        self.kind = kind
        self.ualg = UAlgebra(g, restricted=True) if kind == "bar" else None
        self.torus = ()
        self._store = {}  # filled by ``_kept``

    def with_module(self, rep):
        """The complex of the same kind of (g, rep), another module of g,
        and its weight-zero complex if this is one.  A bar complex keeps
        this one's u(g), with its aug basis and product table, instead of
        straightening them again, and hands on the seed plan of
        ``cocycle_from_seeds``, which depends on u(g) only."""
        if rep.g is not self.g:
            raise UsageError("the module is not one of this complex's g")
        cx = copy.copy(self)
        cx.rep, cx.torus = rep, ()
        cx._store = ({} if self.ualg is None else
                     {("_seed_plan",): self._seed_plan()})
        return cx.weight_zero() if self.torus else cx

    def weight_zero(self):
        """The subcomplex of the cochains of weight 0 under the basis torus
        T of (g, M) (``superalg.basis_torus``), or this complex when T acts
        with weight 0 on every basis vector of g and M.  Bar kind only.
        ``torus`` keeps the t in T of some nonzero weight; the others cut
        nothing.

        The weights.  A toral t in T acts on u(g) by the derivation [t, -]
        and on M by rho(t), both diagonal on the bases: the PBW monomial
        x^a has the weight sum_k a_k wt(x_k) in F_p^T (x^[p] has weight
        p wt(x) = 0), and the unit cochain (s_1..s_n, mu), of value e_mu
        at the aug monomials s_1..s_n, has the weight
        wt(mu) - sum_i wt(s_i).

        d preserves the weight.  In (delta f)(s_1..s_{n+1}) the action
        s_1 . f(..) takes mu to coordinates nu of weight wt(s_1) + wt(mu),
        and every term w of a product s_i s_{i+1} has the weight
        wt(s_i) + wt(s_{i+1}).  So the complex is the direct sum of its
        subcomplexes C_lambda of one weight, and Z, B and H split alike.

        H_lambda = 0 for lambda != 0.  On a cochain of weight lambda,
        theta_t f(s_1..s_n) = t.f(s_1..s_n) - sum_i f(.., [t, s_i], ..)
        is lambda_t f, and theta_t = d h_t + h_t d for the homotopy

            (h_t f)(s_1..s_{n-1}) = sum_{i=0}^{n-1} (-1)^i
                                    f(s_1..s_i, t, s_{i+1}..s_{n-1}),

        as t is even and t s - s t = [t, s].  So a cocycle z of weight
        lambda with lambda_t != 0 is d(h_t z / lambda_t), a coboundary:
        [t, -] is inner, and the torus acts trivially on Ext_{u(g)}(k, M),
        as in Hochschild-Serre, "Cohomology of Lie algebras" (Ann. Math.
        1953).

        The results embed.  This complex numbers only the even cochains of
        weight 0, in increasing key order.  An RREF basis of a subspace of
        C_0 is then the same in C_0 and, embedded, in C; Z is Z_0 (+) Z_rest
        on disjoint coordinates, so its RREF rows are those of the two
        parts, and so are B's, with Z_rest = B_rest.  The canonical
        representatives of Z/B, the Z rows at the pivots off B's
        (``quotient_representatives``), are those of Z_0/B_0 embedded, and
        dim H is the same.

        The complex has its own store and hands on u(g)'s seed plan and the
        pair complex if built.  Its one change is ``parity_lookup``, which
        every bar reader goes through: the differentials and their
        reductions, the layout, ``cochain_array`` and ``cochain_vector``,
        the d2 tables of ``is_bar_2cocycle`` and ``cocycle_from_seeds``, and
        ``comparison_matrix``.  A term of d that breaks the weight raises
        in ``assoc_differential_matrix``, a seed or generator-row value off
        weight 0 in ``cocycle_from_seeds``, and a value off weight 0 in
        ``cochain_vector``: a cochain from outside is checked, never
        projected.  ``basis(n)`` keeps the weight-0 items of
        ``assoc_cochain_basis``."""
        self.require("bar")
        if self.torus:
            return self
        g, rep = self.g, self.rep
        torus = tuple(t for t in basis_torus(g, rep)
                      if np.diagonal(g.brackets[t]).any()
                      or np.diagonal(rep.mats[t]).any())
        if not torus:
            return self
        cx = copy.copy(self)
        cx.torus = torus
        cx._store = {k: v for k, v in self._store.items()
                     if k in (("_seed_plan",), ("pair",))}
        return cx

    @_kept
    def pair(self):
        """``PairComplex`` of (g, M) on a Lie complex of its own; bar kind."""
        self.require("bar")
        return PairComplex(CochainComplex(self.g, self.rep, "lie"))

    @_kept
    def _weights(self):
        """(aug, module) weights of the complex: arrays of shape
        (|torus|, |aug|) and (|torus|, dim M), row j the weights under the
        j-th toral t, entries in 0..p-1."""
        g, t = self.g, list(self.torus)
        lam = np.diagonal(g.brackets[t], axis1=1, axis2=2)[
            :, list(self.ualg.gen_order)]
        aug = np.array(self.ualg.aug_basis(), dtype=np.int64)
        mw = np.array([np.diagonal(self.rep.mats[i]) for i in t], dtype=np.int64)
        return lam @ aug.T % g.p, mw.reshape(len(t), self.rep.dim)

    @_kept
    def _d2_tables(self):
        """The tables of ``_d2_rows``, built once, O(g.dim |aug| + |aug|
        dim M).  The grade of an aug monomial or of a coordinate of M is its
        parity and its weights under ``torus``, and that of a cell
        (s_1..s_n, nu) is gr(nu) - sum_i gr(s_i): the coordinates are the
        cells of grade 0 (``parity_lookup``).  ``rank[s dim M + nu]``: the
        position of the cell (s, nu) among those of its grade, in key order;
        ``gens[k]``: the aug index of x_k; ``length[k |aug| + s]``: the
        number of cells (s_3, nu) of grade gr(x_k) + gr(s), the grade-0 rows
        (x_k, s, ., .); ``cstart[s]``: the first coordinate of first
        argument s, ``cstart[|aug|]`` = dim C^2; ``a_start[a]``: the first
        product-table entry of a, ``pair`` the entries' keys a |aug| + b;
        ``rho``: the rho(x_k), and ``ak``, ``anu``, ``amu``, ``act`` their
        nonzeros."""
        ualg, rep, p, t = self.ualg, self.rep, self.g.p, len(self.torus)
        aug, D, (aw, mw) = ualg.aug_basis(), rep.dim, self._weights()
        A = len(aug)
        mono = np.reshape(aug, (-1, ualg.ngen))
        aug_grade = np.vstack([mono @ ualg.pos_parity % 2, aw]).T
        m_grade = np.vstack([rep.space.parities(), mw]).T
        # one int64 per grade: the parity mod 2 and each weight mod p as digits
        radix = np.array([2] + [p] * t)
        place = np.array([1] + [2 * p ** i for i in range(t)])
        code = ((m_grade[None] - aug_grade[:, None]) % radix @ place).ravel()
        order = np.argsort(code, kind="stable")
        sorted_code = code[order]
        rank = np.empty_like(code)
        rank[order] = np.arange(code.size) - np.searchsorted(sorted_code,
                                                             sorted_code)
        gens = self._seed_plan().gens
        runs = ((aug_grade[gens][:, None] + aug_grade) % radix @ place).ravel()
        a, b, _, _ = ualg.aug_product_table()
        rho = np.reshape([ualg.action_matrix(rep, aug[x]) for x in gens],
                         (-1, D, D)).astype(np.int64)
        ak, anu, amu = np.nonzero(rho)
        return types.SimpleNamespace(
            rank=rank, gens=gens, length=np.searchsorted(
                sorted_code, runs, "right") - np.searchsorted(sorted_code, runs),
            cstart=np.searchsorted(self.coordinate_keys(2),
                                   np.arange(A + 1) * (A * D)),
            a_start=np.searchsorted(a, np.arange(A + 1)), pair=a * A + b,
            rho=rho, ak=ak, anu=anu, amu=amu, act=rho[ak, anu, amu])

    @_kept
    def basis(self, n):
        if self.ualg is None:
            return lie_cochain_basis(self.g, self.rep.space, n)
        full = assoc_cochain_basis(self.ualg, self.rep.space, n)
        if not self.torus:
            return full
        tups = np.array([t for t, _ in full.items],
                        dtype=np.int64).reshape(full.dim, n)
        mus = np.array([m for _, m in full.items], dtype=np.int64)
        keep = ~_weight(self, tups, mus).any(axis=0)
        items = tuple(it for it, k in zip(full.items, keep) if k)
        return replace(full, items=items,
                       index={it: k for k, it in enumerate(items)})

    def full_dim(self, n):
        """dim C^n of the full bar complex, the even cochains of every
        weight, counted from the parities of the aug basis and of M
        without building a lookup.  A PBW monomial is odd when its odd
        exponents, each 0 or 1, sum to an odd number: half of the
        monomials if g has an odd part, none otherwise, and the unit left
        out of the aug basis is even."""
        self.require("bar")
        aug = len(self.ualg.aug_basis())
        odd = (aug + 1) // 2 if self.g.space.n_odd else 0
        # n-tuples of aug monomials with even, odd parity sum
        t_even = (aug ** n + (aug - 2 * odd) ** n) // 2
        return (t_even * self.rep.space.n_even
                + (aug ** n - t_even) * self.rep.space.n_odd)

    @_kept
    def d(self, n):
        return self._differential(n)

    def _differential(self, n):
        """d_n as built; ``d`` keeps it."""
        return (lie_differential_matrix(self, n) if self.ualg is None else
                assoc_differential_matrix(self.ualg, self.rep, n,
                                          self.parity_lookup))

    @_kept
    def _reduction(self, n):
        return RowReduction(self.cocycle_rows(n))

    @_kept
    def cocycle_rows(self, n):
        """The matrix whose kernel is Z^n: d_n, with the odd-cube rows
        (``lie_odd_cube_matrix``) stacked under it for the Lie kind at
        n = 2, and d_n itself where there are none."""
        d = self.d(n)
        if n != 2 or self.kind != "lie":
            return d
        r3, c3, v3 = (cube := lie_odd_cube_matrix(self)).coo()
        return _term_matrix(d.rows + cube.rows, d.cols, self.g.p, "cocycle",
                            [d.coo(), (d.rows + r3, c3, v3)]) if cube.rows else d

    def kernel(self, n):
        """Ker d_n, the n-cocycles (with the odd-cube condition at n = 2,
        see ``cocycle_rows``)."""
        return self._reduction(n).kernel

    def image(self, n):
        """Im d_n, the (n+1)-coboundaries; read for n <= 1 only, as the
        reduction of the Lie kind at n = 2 is that of ``cocycle_rows``."""
        return self._reduction(n).image

    def require(self, kind, of=None):
        """Raise UsageError unless this is a ``kind`` complex, and one of the
        (g, M) of ``of`` (another complex or an extension) if given."""
        if self.kind != kind or of is not None and (
                self.g is not of.g or self.rep is not of.rep):
            raise UsageError(f"not the {kind} complex of this (g, M)")

    @_kept
    def parity_lookup(self, n):
        """Basis index of every degree-n bar cochain key, -1 for odd ones
        and, on a weight-zero complex, for those of nonzero weight (see
        ``assoc_differential_matrix`` and ``weight_zero``).  The weight of
        every key under each toral t is one outer sum of the weight
        vectors."""
        self.require("bar")
        out = _bar_lookup(self.ualg, self.rep, n)
        if self.torus:
            keep = out >= 0
            for aw, mw in zip(*self._weights()):
                w = mw
                for _ in range(n):
                    w = np.add.outer(-aw, w)
                keep &= w.ravel() % self.g.p == 0
            out = np.cumsum(keep) - 1
            out[~keep] = -1
        return out

    def aug_power(self, i, e):
        """Index in the aug basis of u(g) of x_i^e, for basis index i of g."""
        mono = [0] * self.ualg.ngen
        mono[self.ualg.pos_of[i]] = e
        return self.ualg.aug_index()[tuple(mono)]

    @_kept
    def _layout(self, n):
        """(cols, signs, canon) of the degree-n cochains.  For
        arguments (s_1..s_n) and a value coordinate mu, the unit cochain of
        coordinate cols[s_1..s_n, mu] takes the value signs[s_1..s_n, mu]
        there, and no other unit cochain is nonzero; cols is -1 and signs 0
        where no unit cochain is.  canon[c] is the first flat position at
        which coordinate c reads with sign 1.  Lie kind: the s_i run over
        g's basis, signs are 1 or p - 1, and both are read off
        ``eval_lie_cochain`` of the unit cochains, one call per tuple.  Bar
        kind: the s_i run over the aug basis, cols is ``parity_lookup`` and
        canon the positions where it is not -1, as the lookup numbers its
        coordinates 0, 1, 2, ... in increasing key order."""
        D = self.rep.dim
        if self.kind == "bar":
            A = len(self.ualg.aug_basis())
            cols = self.parity_lookup(n).reshape((A,) * n + (D,))
            return (cols, (cols >= 0).astype(np.int64),
                    np.flatnonzero(cols >= 0))
        basis, shape = self.basis(n), (self.g.dim,) * n + (D,)
        units = np.eye(basis.dim, dtype=np.int64)
        # (tuple, unit cochain, mu): at most one unit is nonzero per
        # (tuple, mu), so its index is the sum of the hits' indices
        vals = np.array([eval_lie_cochain(basis, units, t, self.g.p)
                         for t in np.ndindex(shape[:-1])])
        hit = (vals != 0).astype(np.int64)
        cols = np.where(hit.any(axis=1), np.arange(basis.dim) @ hit,
                        -1).reshape(shape)
        signs = vals.sum(axis=1).reshape(shape)
        at = np.flatnonzero(signs == 1)
        return cols, signs, at[np.unique(cols.ravel()[at],
                                         return_index=True)[1]]

    def cochain_array(self, vec, n=2):
        """The values, reduced mod p, of the degree-n cochain with
        coordinates ``vec``, or of each of a stack of them along its leading
        axes: shape (..., X, ..., X, dim M) with n axes X, the value on
        (s_1..s_n) at [..., s_1, ..., s_n, :].  Lie kind: X = g.dim, every
        ordered tuple of basis indices, zero where a repeated even argument
        or the parity kills it.  Bar kind: X = |aug|, and the coordinates
        number the even cochains (s_1..s_n, nu) by their keys
        ((s_1 |aug| + s_2) ...) dim M + nu, as the bar differentials do; the
        odd ones, and on a weight-zero complex those of nonzero weight, are
        zero."""
        cols, signs, _ = self._layout(n)
        return self._read(vec, n, cols, signs)

    def cochain_at(self, vec, *args):
        """The values of ``cochain_array(vec, len(args))`` at the argument
        tuples whose index arrays ``args`` broadcast together, read off the
        coordinates alone: shape (..., *broadcast shape, dim M)."""
        cols, signs, _ = self._layout(len(args))
        return self._read(vec, len(args), cols[args], signs[args])

    def _read(self, vec, n, cols, signs):
        """The values of the degree-n cochains ``vec`` at the cells whose
        layout entries are ``cols`` and ``signs``."""
        v = np.asarray(vec, dtype=np.int64)
        if v.shape[-1:] != self._layout(n)[2].shape:
            raise UsageError("cochain coordinate length mismatch")
        # cols = -1 reads the zero appended to every cochain
        v = np.concatenate([v, np.zeros(v.shape[:-1] + (1,), dtype=np.int64)],
                           axis=-1)
        return v[..., cols] * signs % self.g.p

    def cochain_vector(self, values, n=2):
        """The coordinates, as an int64 array, of the degree-n cochain with
        the array of values ``values`` (``cochain_array``), or of each of a
        stack of them.  Raises InvariantViolationError unless these are the
        values of a cochain, that is unless ``cochain_array`` rebuilds them
        from their coordinates: a value that breaks parity, for the Lie kind
        alternation, or on a weight-zero complex the weight, has no
        coordinate."""
        cols, _, canon = self._layout(n)
        a = np.asarray(values, dtype=np.int64) % self.g.p
        lead = a.shape[:a.ndim - cols.ndim]
        if a.shape[len(lead):] != cols.shape:
            raise UsageError("cochain array shape mismatch")
        vec = a.reshape(lead + (cols.size,))[..., canon]
        if (self.cochain_array(vec, n) != a).any():
            raise InvariantViolationError(
                f"the values are not those of a degree-{n} cochain: a value "
                f"breaks parity, alternation or weight")
        return vec

    def coordinate_keys(self, n=2):
        """The key ((s_1 |aug| + s_2) ...) dim M + nu of each degree-n
        coordinate of a bar complex, increasing: where ``parity_lookup(n)``
        is not -1."""
        self.require("bar")
        return self._layout(n)[2]

    def check_readback(self, cvecs, bracket, pmap, what):
        """Raise InvariantViolationError unless the bar 2-cochain with
        coordinates ``cvecs``, or each of a stack along its leading axes,
        reads back a restricted extension of g by M through a section psi.
        ``bracket[..., i, j, :]`` is the M-part of
        [psi x_i, psi x_j] - psi [x_i, x_j] and must be the
        antisymmetrization c(x_i, x_j) - (-1)^{|x_i||x_j|} c(x_j, x_i);
        ``pmap[..., s, :]``, for x the s-th even basis element of g, is that
        of psi(x)^[p] - psi(x^[p]) and must be c(x^{p-1}, x).  Only these
        cells are read, off the coordinates (``cochain_at``).  ``what``
        names c."""
        g, p = self.g, self.g.p
        gens = self._seed_plan().gens
        evens = np.array(g.space.even_indices(), dtype=np.int64)
        powers = np.array([self.aug_power(i, p - 1) for i in evens],
                          dtype=np.int64)
        # the cells (x_i, x_j), then (x^{p-1}, x) for even x, in one read
        at = self.cochain_at(
            cvecs, np.concatenate([gens.repeat(g.dim), powers]),
            np.concatenate([np.tile(gens, g.dim), gens[evens]]))
        on_g = at[..., :g.dim ** 2, :].reshape(at.shape[:-2] + (g.dim,) * 2
                                               + at.shape[-1:])
        par = np.array(g.space.parities())
        sign = np.where(np.outer(par, par) == 1, -1, 1)[:, :, None]
        bad = np.argwhere(((on_g - sign * on_g.swapaxes(-3, -2) - bracket)
                           % p).any(axis=-1))
        if bad.size:
            raise InvariantViolationError(
                f"{what} misreads the bracket on {tuple(bad[0, -2:].tolist())}")
        bad = ((at[..., g.dim ** 2:, :] - pmap) % p).any(axis=-1)
        bad = bad.any(axis=tuple(range(bad.ndim - 1)))  # per even x
        if bad.any():
            raise InvariantViolationError(
                f"{what} misreads the p-map on {evens[bad.argmax()]}")

    @_kept
    def _seed_plan(self):
        self.require("bar")
        return _bar_seed_plan(self.ualg)

    def seed_positions(self):
        """The seed entries of ``cocycle_from_seeds`` as (x, v) pairs of aug
        indices, x a generator: (x, y) for generators x after y and (x, x)
        for odd x, in u(g)'s generator order, and (x, x^{p-1}) for even x;
        g.dim (g.dim + 1) / 2 of them, ordered by x, then v."""
        plan = self._seed_plan()
        return tuple((int(plan.gens[i]), iv) for i, iv in plan.seeds)

    def cocycle_from_seeds(self, seeds):
        """The coordinates, an (..., dim C^2) int64 stack, of the bar
        2-cocycle of a restricted extension read through a monomial
        section, from its values ``seeds[..., s, :]`` at
        ``seed_positions()[s]``.

        The generator rows c(x, .) follow by the recursion of
        ``extensions.assoc_2cocycle_from_restricted_ext``, one degree of v
        at a time: an entry of degree d reads entries of lower degree only,
        since the one term w of degree d in x v' is x v' sorted, where y
        comes first with exponent below p - 1 or not at all, so
        c(y, w) = 0.  They are gathered into coordinates once, and a value
        on a cell with no coordinate (it breaks parity or the weight)
        raises InvariantViolationError: seeds are checked, never projected.
        The row of u = x u', x its first generator, follows from d2 c = 0
        at (x, u', ., .): as x u' = u on the nose and row u is still zero,

            c(u, .) = x.c(u', .) + c(x, u' .) = (d2 c)(x, u', ., .),

        one degree of u at a time, off the run (x, u') of ``_d2_rows``,
        whose grade-0 rows are the coordinates of first argument u in key
        order; all at once when rho = 0, as then a row reads generator rows
        alone.  No (|aug|, |aug|, dim M) grid is held.  The result is a
        cocycle only if the seeds come from an extension;
        ``is_bar_2cocycle`` decides that."""
        plan, t = self._seed_plan(), self._d2_tables()
        # a stack rides as one last axis, so the indices read leading axes only
        lead, shape = np.shape(seeds)[:-2], np.shape(seeds)[-2:]
        seeds = np.reshape(seeds, (-1,) + shape).transpose(1, 2, 0)
        rows = self._generator_rows(seeds, t.rho)
        cols = self._layout(2)[0][plan.gens]
        if rows[cols < 0].any():
            raise InvariantViolationError("seed fill breaks parity or weight")
        v = np.zeros((seeds.shape[-1], t.cstart[-1]), dtype=np.int64)
        v[:, cols[cols >= 0]] = rows[cols >= 0].T
        u0s, uxs, urs = zip(*plan.fill_passes)
        passes = plan.fill_passes if t.ak.size else [
            (u0s[0], np.concatenate(uxs), np.concatenate(urs))]
        for u0, ux, ur in passes:
            for r0, r1, e in _d2_rows(self, v, ux, ur):
                v[:, t.cstart[u0 + r0]:t.cstart[u0 + r1]] = e
        return v.reshape(lead + v.shape[-1:])

    def _generator_rows(self, seeds, act):
        """The (g.dim, |aug|, dim M, l) array of c(x_i, v) from the (seeds,
        dim M, l) stack of seeds; ``act`` holds the action matrices of g."""
        plan, p = self._seed_plan(), self.g.p
        _, _, w, coef = self.ualg.aug_product_table()
        rows = np.zeros((len(act), len(self.ualg.aug_basis())) + seeds.shape[1:],
                        dtype=np.int64)
        if plan.seeds:
            xs, vs = np.array(plan.seeds).T
            rows[xs, vs] = np.asarray(seeds, dtype=np.int64) % p
        for xs, vs, src, cz, ys, sign, own, pos in plan.gen_passes:
            t = np.einsum("nij,njl->nil", act[ys], rows[xs, src])
            np.add.at(t, own, coef[pos, None, None] * rows[ys[own], w[pos]])
            rows[xs, vs] = (np.einsum("nz,znjl->njl", cz, rows[:, src])
                            + sign[:, None, None] * t) % p
        return rows


class PairComplex(CochainComplex):
    """The (f, w) pair complex of Hochschild (Amer. J. Math. 1954) and
    Evans-Fuchs (JFPTA 2008) on the Lie complex ``lie`` of (g, M),

        C^0 --d0--> C^1 --D1--> C^2 + M^{n_even} --D2--> ...,

    whose H^1 and H^2 (``restricted_cohomology``) are H^1_* and H^2_*, in
    C^1 and in (f, w_0, w_1, ...) coordinates.  d0, its reduction and the
    bases (``basis(2)``: the f part) are ``lie``'s; D1 h = (d1 h, Psi-bar h),
    and D2 (f, w) = 0, w_t the value at the t-th even basis x_t, exactly when

        d2 f = 0,  rho(z) w_t = -(k_{x_t} + f_{x_t^[p]})(z) for every basis z,

    f meets the p = 3 odd-cube condition (``lie.cocycle_rows(2)``), and
    the odd coordinates of every w_t are zero (odd basis elements need no
    value: y^2 = [y, y]/2 is fixed by f).  So D2 (f, w) = 0 exactly when
    E_f with (x_t, 0)^[p] = (x_t^[p], w_t) is a restricted extension.
    D1's Psi-bar rows are the matrix ``lie_psi_bar_matrix`` and
    the f part of D2's rows for x_t is ``lie_obstruction_matrix(lie, x_t)``,
    both read off the Lie layout.  The w_t part is d0: the 1-cochain
    z -> rho(z) w_t is d0 of the even part of w_t (rho(z) is even, so an
    odd coordinate of w_t meets no row of matching parity).  D1 raises
    InvariantViolationError unless D1 d0 = 0, and D2 unless D2 D1 = 0.
    The pair complex keeps D1, D2 and their reductions in its own store;
    like the Lie complex it has no seed plan, so ``with_module`` keeps
    nothing."""

    def __init__(self, lie):
        lie.require("lie")
        super().__init__(lie.g, lie.rep, "lie")
        self.kind, self.lie = "pair", lie

    def with_module(self, rep):
        """The pair complex on the Lie complex of (g, rep)."""
        return PairComplex(self.lie.with_module(rep))

    def basis(self, n):
        return self.lie.basis(n)

    def _reduction(self, n):
        return self.lie._reduction(0) if n == 0 else super()._reduction(n)

    def _differential(self, n):
        if n not in (0, 1, 2):
            raise UsageError("the pair complex has d0, D1 and D2 only")
        lie, g, rep, p = self.lie, self.g, self.rep, self.g.p
        if n == 0:
            return lie.d(0)
        n1, n2, dm = lie.basis(1).dim, lie.basis(2).dim, rep.dim
        evens = g.space.even_indices()
        ncols = n2 + len(evens) * dm  # f coordinates, then w_0, w_1, ...
        if n == 1:
            r, c, v = lie.d(1).coo()
            w, h, psi = lie_psi_bar_matrix(lie).coo()
            D1 = MatGF.from_terms(ncols, n1, p, np.r_[r, n2 + w], np.r_[c, h],
                                  np.r_[v, psi])
            if not D1.matmul(lie.d(0)).is_zero():
                raise InvariantViolationError("the pair model's D^2 is not zero")
            return D1
        # D2 is d2 and the odd-cube rows over the rows of the w conditions:
        # per x_t, one row per C^1 coordinate z, then one per odd
        # coordinate of w_t
        z2 = lie.cocycle_rows(2)
        parts, nrows = [z2.coo()], z2.rows
        even_m = np.array(rep.space.even_indices(), dtype=np.int64)
        odd_m = np.array(rep.space.odd_indices(), dtype=np.int64)
        # rho(z) w_t is d0 of the even part of w_t: column j of d0 is the
        # coordinate even_m[j] of M
        rho_z, j, rho_v = lie.d(0).coo()
        for t, idx in enumerate(evens):
            w0 = n2 + t * dm
            z, f, k = lie_obstruction_matrix(lie, idx).coo()
            parts += [(nrows + z, f, k),
                      (nrows + rho_z, w0 + even_m[j], rho_v),
                      (nrows + n1 + np.arange(odd_m.size), w0 + odd_m,
                       np.ones(odd_m.size, dtype=np.int64))]
            nrows += n1 + odd_m.size
        D2 = MatGF.from_terms(nrows, ncols, p,
                              *(np.concatenate(x) for x in zip(*parts)))
        if not D2.matmul(self.d(1)).is_zero():
            raise InvariantViolationError("the pair model's D^2 is not zero")
        return D2


def pair_fill(bar, vecs):
    """The bar 2-cocycle, an int64 array, of the restricted extension E_f
    with (x_t, 0)^[p] = (x_t^[p], w_t) of a 2-cocycle (f, w) of the pair
    complex ``bar.pair()``, or of each of a stack of them along the leading
    axes of ``vecs``: ``cocycle_from_seeds`` of the seeds f(x, y) for
    generators x after y, f(x, x) / 2 for odd x, and w_t at
    (x_t, x_t^{p-1}), in ``seed_positions()`` order.  Raises
    NotACocycleError unless the stack passes one ``is_bar_2cocycle``."""
    lie, g, p = bar.pair().lie, bar.g, bar.g.p
    vecs = np.asarray(vecs, dtype=np.int64)
    n2 = lie.basis(2).dim
    f = lie.cochain_array(vecs[..., :n2])
    w = vecs[..., n2:].reshape(vecs.shape[:-1] + (g.space.n_even, bar.rep.dim))
    gen = {bar.aug_power(i, 1): i for i in range(g.dim)}
    slot = {bar.aug_power(i, p - 1): t
            for t, i in enumerate(g.space.even_indices())}
    half = pow(2, -1, p)
    seeds = np.stack([
        f[..., gen[x], gen[v], :] * (half if v == x else 1) if v in gen
        else w[..., slot[v], :] for x, v in bar.seed_positions()], axis=-2)
    cvecs = bar.cocycle_from_seeds(seeds)
    if not is_bar_2cocycle(bar, cvecs).all():
        raise NotACocycleError("pair-class fill is not a bar 2-cocycle")
    return cvecs


# ---------------------------------------------------------------------------
# cohomology results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyResult:
    """Z, B and canonical representatives of H = Z/B in cochain coordinates;
    ``R`` is the echelon span of the representatives."""

    n: int
    kind: str
    cochain_dim: int
    Z: Subspace
    B: Subspace
    R: Subspace

    @classmethod
    def quotient(cls, n, kind, Z, B):
        """H = Z/B for subspaces B <= Z of one cochain space."""
        return cls(n, kind, Z.ambient_dim, Z, B, quotient_representatives(Z, B))

    @property
    def dim_h(self):
        return self.Z.dim - self.B.dim

    @property
    def representatives(self):
        return self.R.basis_rows

    def class_coords(self, vecs):
        """The class coordinates of a cocycle, or of a stack: (..., dim_h) int64.

        One reduction suffices: Z = B (+) R with R zero at B's pivots, so the
        residue of vec modulo B lies in R exactly when vec lies in Z, and
        its coordinates there are its pivot coordinates."""
        res = self.B.reduce(vecs)
        if self.R.reduce(res).any():
            raise UsageError("vector is not a cocycle")
        return res.take(self.R.pivots, axis=-1)


def _cohomology(cx, n, kind):
    """Ker d_n / Im d_{n-1} of the complex ``cx``, n <= 2."""
    if n not in (0, 1, 2):
        raise UsageError("degrees 0..2 only")
    dim = cx.basis(n).dim
    Z = cx.kernel(n)
    B = cx.image(n - 1) if n else Subspace.zero(dim, cx.g.p)
    return CohomologyResult.quotient(n, kind, Z, B)


def lie_cohomology(lie, n):
    """Ordinary H^n(g, M), n <= 2, of the Lie complex ``lie`` of (g, M)."""
    lie.require("lie")
    return _cohomology(lie, n, "lie")


def restricted_cohomology(cx, n):
    """Restricted H^n_*(g, M), n <= 2, of the bar complex ``cx`` of (g, M)
    on u(g)^+, full or ``weight_zero``, or of its pair complex
    (``PairComplex``), Ker d_n / Im d_{n-1} there.  The bar H^2_* is

        Z^2_* = B^2_* + span(fills)

    in the bar 2-cochains, B^2_* the image of the bar d1 and the fills
    (``pair_fill``) the bar cocycles of the canonical representatives of
    the pair complex's H^2, so the bar d2 is never assembled.  Its
    representatives R are the RREF of the fills' residues modulo B^2_*
    (``gflin.extend``); the rows of B^2_* and Z^2_* are written only if
    read.  The bar H^n_* must have the dimension of the pair complex's H^n
    (``cx.pair()``), else InvariantViolationError: so Z^2_* is the kernel
    of d2 and R its canonical representatives modulo B^2_*."""
    if cx.kind == "pair":
        return _cohomology(cx, n, "restricted")
    cx.require("bar")
    pair = restricted_cohomology(cx.pair(), n)
    if n == 2:
        B, reps = cx.image(1), pair.R.rows
        Z, R = extend(B, pair_fill(cx, reps) if len(reps) else
                      np.zeros((0, B.ambient_dim), dtype=np.int64))
        res = CohomologyResult(2, "restricted", B.ambient_dim, Z, B, R)
    else:
        res = _cohomology(cx, n, "restricted")
    if res.dim_h != pair.dim_h:
        raise InvariantViolationError(
            f"the bar complex gives dim H^{n}_* = {res.dim_h}, the pair "
            f"model {pair.dim_h}")
    return res


# ---------------------------------------------------------------------------
# comparison between the two cochain types
# ---------------------------------------------------------------------------

def sgn_marked(sigma, n0):
    """Generalized sign of a permutation with the first n0 letters marked.

    sigma is a tuple of 1-based images (sigma(1), ..., sigma(n)).  Each
    sigma-bar(i) counts marked letters j <= n0 not yet consumed with
    j < sigma(i); the sign is (-1)^{sum of sigma-bar}."""
    n = len(sigma)
    if not 0 <= n0 <= n:
        raise UsageError("n0 out of range")
    total = 0
    seen = set()
    for i in range(n):
        s = sigma[i]
        total += sum(1 for j in range(1, n0 + 1) if j not in seen and j < s)
        seen.add(s)
    return -1 if total % 2 else 1


def comparison_matrix(bar, lie, n):
    """Matrix of the cochain comparison C^n_assoc -> C^n_lie for n in {1, 2},
    from the bar complex ``bar`` to the Lie complex ``lie`` of one (g, M):

    f'(x_1..x_n) = sum_{sigma} sgn_marked(sigma, n0) f(x_sigma(1)..x_sigma(n))

    with arguments ordered evens-then-odds and n0 the number of even ones.
    Only values on degree-one monomials (g itself) are consulted.  Bar
    cochains are numbered as in ``assoc_differential_matrix``: the cochain
    (s_1..s_n, nu) is the column at its mixed-radix key
    ((s_1 A + s_2) ...) dim M + nu of ``bar.parity_lookup(n)``, A = |aug|,
    so no bar basis is built.  On a weight-zero bar complex
    (``CochainComplex.weight_zero``) a Lie cochain of nonzero weight,
    wt(nu) - sum_i wt(x_i), meets only bar cochains of that weight and
    gets an empty row; a miss of any other cochain raises.
    """
    if n not in (1, 2):
        raise UsageError("comparison implemented for n in {1, 2}")
    bar.require("bar")
    lie.require("lie", bar)
    g, ualg = bar.g, bar.ualg
    A, D = len(ualg.aug_basis()), bar.rep.dim
    src = bar.parity_lookup(n)
    dst = lie.basis(n)
    p = g.p
    deg1 = [bar.aug_power(i, 1) for i in range(g.dim)]
    off = np.zeros(dst.dim, dtype=bool)  # the rows of nonzero weight
    if bar.torus:
        args = np.array([[deg1[i] for i in ev + od] for ev, od, _ in dst.items],
                        dtype=np.int64).reshape(dst.dim, n)
        off = _weight(bar, args, [nu for *_, nu in dst.items]).any(axis=0)
    rows = []
    for (ev, od, nu), skip in zip(dst.items, off.tolist()):
        args = ev + od
        n0 = len(ev)
        row = {}
        if skip:
            rows.append(row)
            continue
        for sigma in itertools.permutations(range(1, n + 1)):
            sgn = sgn_marked(sigma, n0)
            key = 0
            for s in sigma:
                key = key * A + deg1[args[s - 1]]
            col = int(src[key * D + nu])
            if col < 0:
                raise InvariantViolationError("comparison hit invalid parity")
            row[col] = (row.get(col, 0) + sgn) % p
        rows.append({c: v for c, v in row.items() if v})
    return MatGF.from_rows(rows, int(src.max(initial=-1)) + 1, p)


def _weight(bar, tup, mu):
    """The weight, in F_p^torus, of the bar cochain (tup, mu) of the
    weight-zero complex ``bar``: wt(mu) - sum_i wt(tup_i), one column per
    cochain when tup stacks tuples along a leading axis and mu is an
    array."""
    aw, mw = bar._weights()
    return (mw[:, mu] - aw[:, tup].sum(axis=-1)) % bar.g.p


# ---------------------------------------------------------------------------
# cochain evaluation
# ---------------------------------------------------------------------------

def eval_lie_cochain(basis, vec, idxs, p):
    """Value of a Lie cochain on a tuple of basis indices: an M-vector, or
    one per cochain when ``vec`` stacks cochains along its leading axes.
    The one place where an argument tuple becomes coordinates and a sign:
    the layout of a Lie complex (``CochainComplex._layout``) is built from
    it, and its array form (``cochain_array``) and differentials
    (``lie_differential_matrix``) read that layout."""
    vec = np.asarray(vec, dtype=np.int64)
    if vec.shape[-1:] != (basis.dim,):
        raise UsageError("cochain coordinate length mismatch")
    out = np.zeros(vec.shape[:-1] + (basis.mspace.dim,), dtype=np.int64)
    canon = lie_eval_sign(basis.g, idxs)
    if canon is None:
        return out
    evs, ods, sign = canon
    cols = [basis.index.get((evs, ods, m)) for m in range(basis.mspace.dim)]
    hit = [m for m, c in enumerate(cols) if c is not None]
    out[..., hit] = sign * vec[..., [cols[m] for m in hit]] % p
    return out
