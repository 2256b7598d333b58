"""Cochain complexes and cohomology in degrees 0..2.

Two complexes are built for a restricted Lie superalgebra g and a module M:

* the Lie-type complex C^n(g, M) on Lambda(g_0) (x) S(g_1), whose
  cohomology is the ordinary H^n(g, M);
* the bar-type complex of even multilinear maps on the augmentation ideal
  u(g)^+, whose cohomology is the restricted H^n_*(g, M).

All cochains are even maps, so a basis functional pairs an argument tuple
with a value coordinate of matching parity.  Degree-3 cochain spaces are
materialized only as differential targets: the Lie differential lists the
degree-3 basis, the bar differential numbers its cochains by integer keys.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .envelope import UAlgebra
from .errors import InvariantViolationError, UsageError
from .gflin import MatGF, RowReduction, Subspace, quotient_representatives
from .superalg import EVEN, ODD

__all__ = [
    "LieCochainBasis", "AssocCochainBasis", "CochainComplex", "CohomologyResult",
    "lie_cochain_basis", "lie_eval_sign", "lie_differential_matrix",
    "lie_cohomology", "assoc_cochain_basis", "assoc_differential_matrix",
    "restricted_cohomology", "is_bar_2cocycle", "sgn_marked",
    "comparison_matrix", "eval_lie_cochain", "lie_cochain_matrix",
]


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
            if par[seq[b - 1]] and par[seq[b]]:
                pass  # odd past odd: -(-1)^1 = +1
            else:
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

def lie_differential_matrix(g, rep, n):
    """Matrix of delta_n : C^n(g, M) -> C^{n+1}(g, M), one signed formula on
    mixed (even | odd) argument tuples.  The block form with separate even
    action, odd action and bracket sums is a test oracle that must agree."""
    src = lie_cochain_basis(g, rep.space, n)
    dst = lie_cochain_basis(g, rep.space, n + 1)
    p = g.p
    par = g.space.parities()
    rows = []
    for (ev, od, nu) in dst.items:
        args = ev + od
        row = {}

        def add(col_item, coeff):
            if coeff % p == 0:
                return
            col = src.index.get(col_item)
            if col is None:
                raise InvariantViolationError(
                    f"differential hit a parity-invalid cochain {col_item}")
            row[col] = (row.get(col, 0) + coeff) % p

        _unified_terms(g, rep, src, args, nu, add)
        rows.append({c: v for c, v in row.items() if v})
    return MatGF.from_rows(rows, src.dim, p)


def _unified_terms(g, rep, src, args, nu, add):
    p = g.p
    par = g.space.parities()
    k = len(args)
    for s in range(k):
        exp = s + par[args[s]] * sum(par[args[i]] for i in range(s))
        sign = -1 if exp % 2 else 1
        rest = args[:s] + args[s + 1:]
        canon = lie_eval_sign(g, rest)
        if canon is None:
            continue
        evs, ods, csign = canon
        mat = rep.mats[args[s]]
        for mu in range(rep.dim):
            c = mat[nu, mu]
            if c:
                add((evs, ods, mu), sign * csign * int(c))
    for s in range(k):
        for t in range(s + 1, k):
            pres_s = sum(par[args[i]] for i in range(s))
            pres_t = sum(par[args[i]] for i in range(t))
            exp = (s + 1) + (t + 1) + par[args[s]] * pres_s \
                + par[args[t]] * pres_t + par[args[s]] * par[args[t]]
            sign = -1 if exp % 2 else 1
            rest = args[:s] + args[s + 1:t] + args[t + 1:]
            vec = g.brackets[args[s], args[t]]
            for b, coeff in enumerate(vec):
                if not coeff:
                    continue
                canon = lie_eval_sign(g, (b,) + rest)
                if canon is None:
                    continue
                evs, ods, csign = canon
                add((evs, ods, nu), sign * csign * int(coeff))


# ---------------------------------------------------------------------------
# bar-type differential
# ---------------------------------------------------------------------------

def assoc_differential_matrix(ualg, rep, n):
    """Matrix of the normalized bar differential on u(g)^+ cochains:

    (delta f)(s_1..s_{n+1}) = s_1 . f(s_2..s_{n+1})
                              + sum_i (-1)^i f(s_1,.., s_i s_{i+1}, .., s_{n+1}).

    A cochain (s_1..s_k, mu) is addressed by the mixed-radix key
    ((s_1 A + s_2) A + ...) dim M + mu, with A = |aug|.  Keys increase in
    the order of ``assoc_cochain_basis``, so a parity lookup array (key ->
    basis index, -1 for an odd cochain) numbers rows and columns without
    building either basis.  Each term family is emitted for all rows at
    once, by broadcasting the action matrices and the aug x aug product
    table over the untouched prefix and suffix arguments; repeated
    (row, col) pairs are summed mod p.

    Products of augmentation-ideal elements stay in the ideal; a unit
    component in a straightened product would be a bug and raises, and so
    does a term from an even row that lands on an odd cochain.
    """
    p = ualg.p
    aug = ualg.aug_basis()
    A, D = len(aug), rep.dim
    src = _bar_lookup(ualg, rep, n)
    dst = _bar_lookup(ualg, rep, n + 1)
    nrows, ncols = int(dst.max(initial=-1)) + 1, int(src.max(initial=-1)) + 1
    if nrows * ncols >= 2 ** 63:
        raise UsageError(f"bar differential {nrows}x{ncols} is too large")
    terms = []  # (row, col, value) arrays, one triple per term family

    def emit(row_keys, col_keys, coeffs, what):
        r = dst[row_keys.ravel()]
        c = src[col_keys.ravel()]
        keep = r >= 0
        if (c[keep] < 0).any():
            raise InvariantViolationError(f"bar {what} term breaks parity")
        terms.append((r[keep], c[keep],
                      np.broadcast_to(coeffs, row_keys.shape).ravel()[keep]))

    # s_1 . f(s_2..s_{n+1}): row (s_1, rest, nu), column (rest, mu)
    act = _bar_action(ualg, rep, aug)
    s1, nu, mu = np.nonzero(act)
    rest = np.arange(A ** n, dtype=np.int64)
    emit((s1[:, None] * A ** n + rest) * D + nu[:, None],
         rest * D + mu[:, None], act[s1, nu, mu][:, None], "action")
    # (-1)^i f(.., s_i s_{i+1}, ..) for each term c w of a product a b:
    # row (pre, a, b, suf, nu), column (pre, w, suf, nu); axes (pre, term, suf, nu)
    if n:
        a, b, w, c = (x[None, :, None, None]
                      for x in ualg.aug_product_table())
        for i in range(1, n + 1):
            pre = np.arange(A ** (i - 1), dtype=np.int64)[:, None, None, None]
            tail = (np.arange(A ** (n - i), dtype=np.int64)[:, None] * D
                    + np.arange(D, dtype=np.int64))[None, None]
            span = A ** (n - i) * D
            emit(((pre * A + a) * A + b) * span + tail,
                 (pre * A + w) * span + tail, -c if i % 2 else c, "product")
    r, c, v = (np.concatenate(x) for x in zip(*terms))
    terms.clear()
    key = r * ncols + c
    del r, c
    order = np.argsort(key)
    key, v = key[order], v[order]
    del order
    if key.size:
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        key, v = key[first], np.add.reduceat(v, first) % p
        nz = v != 0
        key, v = key[nz], v[nz]
    return MatGF.from_coo(nrows, ncols, p, key // ncols, key % ncols, v)


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


def _aug_power(ualg, i, e):
    """Index in ``ualg.aug_basis()`` of x_i^e, for basis index i of g."""
    mono = [0] * ualg.ngen
    mono[ualg.pos_of[i]] = e
    return ualg.aug_index()[tuple(mono)]


def _bar_action(ualg, rep, aug):
    """The action matrices of the u(g)^+ basis, stacked: (|aug|, dim M, dim M)."""
    act = np.zeros((len(aug), rep.dim, rep.dim), dtype=np.int64)
    for k, m in enumerate(aug):
        act[k] = ualg.action_matrix(rep, m)
    return act


def is_bar_2cocycle(bar, cvec):
    """Whether the 2-cochain ``cvec`` of the bar complex ``bar`` is a
    cocycle, i.e. whether e = d2 c,

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

    Each slice takes the three terms from the action matrix of x and the
    aug x aug product table, so the check costs about
    g.dim |aug|^2 dim M operations, holds O(|aug|^2 dim M) numbers and
    never assembles d2."""
    bar.require("bar")
    ualg, rep, p = bar.ualg, bar.rep, bar.g.p
    aug = ualg.aug_basis()
    A, D = len(aug), rep.dim
    even = _bar_lookup(ualg, rep, 2) >= 0
    if len(cvec) != int(even.sum()):
        raise UsageError("cochain coordinate length mismatch")
    c = np.zeros(A * A * D, dtype=np.int64)
    c[even] = np.asarray(cvec, dtype=np.int64) % p
    c = c.reshape(A, A, D)
    a, b, w, coef = ualg.aug_product_table()
    # the table is sorted by (a, b): slices by a, runs of equal (a, b) pairs
    bounds = np.searchsorted(a, np.arange(A + 1))
    pair = a * A + b
    first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
    for s1, mono in enumerate(aug):
        if sum(mono) != 1:
            continue
        out = c @ ualg.action_matrix(rep, mono).T
        lo, hi = bounds[s1], bounds[s1 + 1]
        if hi > lo:
            runs = np.flatnonzero(np.r_[True, b[lo + 1:hi] != b[lo:hi - 1]])
            out[b[lo:hi][runs]] -= np.add.reduceat(
                coef[lo:hi, None, None] * c[w[lo:hi]], runs)
        if pair.size:
            out.reshape(A * A, D)[pair[first]] += np.add.reduceat(
                coef[:, None] * c[s1, w], first)
        if (out % p).any():
            return False
    return True


# ---------------------------------------------------------------------------
# the complex of one (g, M) pair
# ---------------------------------------------------------------------------

class CochainComplex:
    """The Lie (``kind="lie"``) or bar (``kind="bar"``) cochain complex of
    (g, M).  Each degree's basis, differential d_n : C^n -> C^{n+1} and
    ``RowReduction`` of d_n is built on first use and kept for the life of
    the object, so everything read off one complex shares them: Ker d_n
    and Im d_n come from one elimination of d_n's rows.  The bar kind owns
    the restricted enveloping algebra u(g) its cochains live on, and
    ``with_module`` gives the bar complex of another module on the same
    u(g)."""

    def __init__(self, g, rep, kind):
        if kind not in ("lie", "bar"):
            raise UsageError(f"unknown complex kind {kind!r}")
        self.g = g
        self.rep = rep
        self.kind = kind
        self.ualg = UAlgebra(g, restricted=True) if kind == "bar" else None
        self._bases = {}
        self._diffs = {}
        self._reductions = {}

    def with_module(self, rep):
        """The complex of the same kind of (g, rep), another module of g.
        A bar complex keeps this one's u(g), with its aug basis and product
        table, instead of straightening them again."""
        if rep.g is not self.g:
            raise UsageError("the module is not one of this complex's g")
        cx = copy.copy(self)
        cx.rep, cx._bases, cx._diffs, cx._reductions = rep, {}, {}, {}
        return cx

    def basis(self, n):
        if n not in self._bases:
            self._bases[n] = (lie_cochain_basis(self.g, self.rep.space, n)
                              if self.ualg is None else
                              assoc_cochain_basis(self.ualg, self.rep.space, n))
        return self._bases[n]

    def d(self, n):
        if n not in self._diffs:
            self._diffs[n] = (lie_differential_matrix(self.g, self.rep, n)
                              if self.ualg is None else
                              assoc_differential_matrix(self.ualg, self.rep, n))
        return self._diffs[n]

    def _reduction(self, n):
        if n not in self._reductions:
            self._reductions[n] = RowReduction(self.d(n))
        return self._reductions[n]

    def kernel(self, n):
        """Ker d_n, the n-cocycles."""
        return self._reduction(n).kernel

    def image(self, n):
        """Im d_n, the (n+1)-coboundaries."""
        return self._reduction(n).image

    def require(self, kind, of=None):
        """Raise UsageError unless this is a ``kind`` complex, and one of the
        (g, M) of ``of`` (another complex or an extension) if given."""
        if self.kind != kind or of is not None and (
                self.g is not of.g or self.rep is not of.rep):
            raise UsageError(f"not the {kind} complex of this (g, M)")


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

    @property
    def dim_h(self):
        return self.Z.dim - self.B.dim

    @property
    def representatives(self):
        return self.R.basis_rows

    def class_coords(self, vec):
        """Coordinates of the class of a cocycle in the representative basis.

        One reduction suffices: Z = B (+) R with R zero at B's pivots, so the
        residue of vec modulo B lies in R exactly when vec lies in Z."""
        coords = self.R.coords(self.B.reduce(vec))
        if coords is None:
            raise UsageError("vector is not a cocycle")
        return coords


def _make_result(n, kind, dim, Z, B):
    # the representatives are the Z rows at the pivots B lacks
    R = Subspace(dim, Z.p, quotient_representatives(Z, B),
                 sorted(set(Z.pivots) - set(B.pivots)))
    return CohomologyResult(n, kind, dim, Z, B, R)


def _cohomology(cx, n, kind):
    """Ker d_n / Im d_{n-1} of the complex ``cx``, n <= 2."""
    if n not in (0, 1, 2):
        raise UsageError("degrees 0..2 only")
    dim = cx.basis(n).dim
    Z = cx.kernel(n)
    B = cx.image(n - 1) if n else Subspace.zero(dim, cx.g.p)
    return _make_result(n, kind, dim, Z, B)


def lie_cohomology(lie, n):
    """Ordinary H^n(g, M), n <= 2, of the Lie complex ``lie`` of (g, M)."""
    lie.require("lie")
    return _cohomology(lie, n, "lie")


def restricted_cohomology(bar, n):
    """Restricted H^n_*(g, M), n <= 2, of the bar complex ``bar`` of (g, M)
    on u(g)^+."""
    bar.require("bar")
    return _cohomology(bar, n, "restricted")


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
    ((s_1 A + s_2) ...) dim M + nu of ``_bar_lookup``, A = |aug|, so no bar
    basis is built.
    """
    if n not in (1, 2):
        raise UsageError("comparison implemented for n in {1, 2}")
    bar.require("bar")
    lie.require("lie", bar)
    g, ualg = bar.g, bar.ualg
    A, D = len(ualg.aug_basis()), bar.rep.dim
    src = _bar_lookup(ualg, bar.rep, n)
    dst = lie.basis(n)
    p = g.p
    deg1 = [_aug_power(ualg, i, 1) for i in range(g.dim)]
    rows = []
    for (ev, od, nu) in dst.items:
        args = ev + od
        n0 = len(ev)
        row = {}
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


# ---------------------------------------------------------------------------
# cochain evaluation helpers
# ---------------------------------------------------------------------------

def eval_lie_cochain(basis, vec, idxs, p):
    """Value (an M-vector) of a Lie cochain on a tuple of basis indices."""
    canon = lie_eval_sign(basis.g, idxs)
    out = np.zeros(basis.mspace.dim, dtype=np.int64)
    if canon is None:
        return out
    evs, ods, sign = canon
    for m in range(basis.mspace.dim):
        col = basis.index.get((evs, ods, m))
        if col is not None and vec[col]:
            out[m] = (sign * vec[col]) % p
    return out


def lie_cochain_matrix(basis, vec, head):
    """The linear map x -> f(head..., x) of a Lie cochain f as a
    (dim M) x (dim g) matrix: column b is f(head..., x_b)."""
    g = basis.g
    out = np.zeros((basis.mspace.dim, g.dim), dtype=np.int64)
    for b in range(g.dim):
        out[:, b] = eval_lie_cochain(basis, vec, head + (b,), g.p)
    return out
