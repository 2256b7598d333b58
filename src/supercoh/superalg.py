"""Super vector spaces, restricted Lie superalgebras and their modules.

Conventions: a basis is always ordered even part first, then odd part.
Brackets are stored as structure constants c[i, j, :] = [x_i, x_j] in basis
coordinates.  The p-th power map is stored only on even basis elements;
its extension to arbitrary even vectors is computed from Jacobson's
additivity rule, never stored.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError, ValidationError
from .gflin import MatGF, check_modulus, matpow, nullspace

EVEN, ODD = 0, 1


@dataclass(frozen=True)
class SuperSpace:
    """A Z/2-graded space given by named even and odd basis vectors."""

    even_names: tuple
    odd_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "even_names", tuple(self.even_names))
        object.__setattr__(self, "odd_names", tuple(self.odd_names))
        names = self.even_names + self.odd_names
        if len(set(names)) != len(names):
            raise UsageError("basis names must be unique")

    @property
    def n_even(self):
        return len(self.even_names)

    @property
    def n_odd(self):
        return len(self.odd_names)

    @property
    def dim(self):
        return self.n_even + self.n_odd

    @property
    def names(self):
        return self.even_names + self.odd_names

    def parity(self, i):
        return EVEN if i < self.n_even else ODD

    def parities(self):
        return tuple(self.parity(i) for i in range(self.dim))

    def index(self, name):
        return self.names.index(name)

    def even_indices(self):
        return tuple(range(self.n_even))

    def odd_indices(self):
        return tuple(range(self.n_even, self.dim))


def _frozen(arr):
    arr = np.asarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


class LieSuperAlgebra:
    """A finite-dimensional Lie superalgebra over GF(p) with a p-th power map.

    ``brackets[i, j, :]`` holds [x_i, x_j]; ``pmap[i]`` (even i only) holds
    x_i^[p] as a coordinate vector supported on the even part.  Instances
    are immutable after construction.
    """

    def __init__(self, space, p, brackets, pmap=None):
        check_modulus(p)
        self.space = space
        self.p = p
        n = space.dim
        brk = np.asarray(brackets, dtype=np.int64) % p
        if brk.shape != (n, n, n):
            raise UsageError(f"structure constants must be {n}x{n}x{n}")
        self.brackets = _frozen(brk)
        pm = {}
        for i, vec in (pmap or {}).items():
            if space.parity(i) != EVEN:
                raise UsageError("p-map is defined on even basis elements only")
            v = np.asarray(vec, dtype=np.int64) % p
            if v.shape != (n,):
                raise UsageError("p-map image has wrong length")
            if any(v[j] for j in space.odd_indices()):
                raise UsageError("p-map image must lie in the even part")
            pm[i] = _frozen(v)
        for i in space.even_indices():
            if i not in pm:
                pm[i] = _frozen(np.zeros(n, dtype=np.int64))
        self.pmap = pm

    @property
    def dim(self):
        return self.space.dim

    def parity(self, i):
        return self.space.parity(i)

    def zero(self):
        return np.zeros(self.dim, dtype=np.int64)

    def basis_vector(self, i):
        v = self.zero()
        v[i] = 1
        return v

    def bracket(self, u, v):
        u = np.asarray(u, dtype=np.int64) % self.p
        v = np.asarray(v, dtype=np.int64) % self.p
        out = np.einsum("i,j,ijk->k", u, v, self.brackets)
        return out % self.p

    def ad_basis(self, i):
        # column j of ad(x_i) is [x_i, x_j]
        return self.brackets[i].T % self.p

    def ad(self, v):
        v = np.asarray(v, dtype=np.int64) % self.p
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i, c in enumerate(v):
            if c:
                out = (out + c * self.ad_basis(i)) % self.p
        return out

    def pmap_basis(self, i):
        return self.pmap[i]

    def is_even_vector(self, v):
        return not any(int(v[j]) % self.p for j in self.space.odd_indices())


@dataclass
class Violation:
    check: str
    indices: tuple
    message: str


@dataclass
class ValidationReport:
    subject: str
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def record(self, check, indices, message):
        self.violations.append(Violation(check, tuple(indices), message))

    def summary(self):
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.check}] at {v.indices}: {v.message}" for v in self.violations]
        return "\n".join(lines)


def validate_lie_super(g):
    """Check parity additivity, super skew-symmetry and the super Jacobi law;
    at p = 3, where that law gives only 3 [y, [y, y]] = 0, also that every
    coefficient of y -> [y, [y, y]] on the odd part is zero: for odd basis
    indices i <= j <= k, the sum of [y_a, [y_b, y_c]] over the distinct
    orderings (a, b, c) of (i, j, k).  Each check runs on every index
    tuple at once, off the structure constants and the (i, j, k) table of
    [x_i, [x_j, x_k]]; the violations are recorded in the order of the
    loops over i, j (parity at each k, then skew), over i, j, k (Jacobi)
    and over the odd triples."""
    rep = ValidationReport("lie-superalgebra")
    n, p, brk = g.dim, g.p, g.brackets
    par = np.array(g.space.parities(), dtype=np.int64)
    sign = np.where(np.outer(par, par) == 1, -1, 1)  # (-1)^{|x_i||x_j|}
    wrong = (brk != 0) & ((par[:, None, None] + par[:, None] + par) % 2 == 1)
    skew = ((brk + sign[:, :, None] * brk.transpose(1, 0, 2)) % p).any(axis=-1)
    events = [(i, j, 0, k) for i, j, k in np.argwhere(wrong).tolist()]
    events += [(i, j, 1, 0) for i, j in np.argwhere(skew).tolist()]
    for i, j, kind, k in sorted(events):
        if kind:
            rep.record("skew", (i, j), "super skew-symmetry fails")
        else:
            rep.record("parity", (i, j, k),
                       f"[x_{i},x_{j}] has a component of wrong parity at {k}")
    flat = brk.reshape(n * n, n)
    # nested[i, j, k] = [x_i, [x_j, x_k]], outer[i, j, k] = [[x_i, x_j], x_k]
    nested = np.matmul(flat, brk).reshape(n, n, n, n)
    outer = (flat @ brk.reshape(n, n * n)).reshape(n, n, n, n)
    jacobi = ((nested - outer - sign[:, :, None, None]
               * nested.transpose(1, 0, 2, 3)) % p).any(axis=-1)
    for ijk in np.argwhere(jacobi).tolist():
        rep.record("jacobi", tuple(ijk), "super Jacobi identity fails")
    odds = g.space.odd_indices() if p == 3 else ()
    triples = list(itertools.combinations_with_replacement(odds, 3))
    if triples:
        orders = [sorted(set(itertools.permutations(t))) for t in triples]
        a, b, c = np.array([o for os in orders for o in os]).T
        starts = np.cumsum([0] + [len(os) for os in orders[:-1]])
        cube = (np.add.reduceat(nested[a, b, c], starts) % p).any(axis=-1)
        for t in np.flatnonzero(cube).tolist():
            rep.record("odd-cube", triples[t], "[y, [y, y]] = 0 fails for odd y")
    return rep


def jacobson_terms(g, x, y):
    """The correction terms s_1..s_{p-1} in (x+y)^[p] = x^[p] + y^[p] + sum s_i,
    for even vectors x and y, or for each pair of a stack of them along
    their leading axes.

    i*s_i is the coefficient of t^(i-1) in (ad(t x + y))^(p-1)(x), computed
    by carrying a polynomial in t with vector coefficients through p-1
    bracket applications; the coefficient of t^(p-1) is never read, so
    the polynomial is cut at degree p-2.  Returns a list of the p-1 vectors
    for one pair, an (..., p-1, g.dim) int64 array for stacks."""
    p = g.p
    x = np.asarray(x, dtype=np.int64) % p
    y = np.asarray(y, dtype=np.int64) % p
    if x.shape != y.shape or x.shape[-1:] != (g.dim,):
        raise UsageError("jacobson_terms expects two stacks of g-vectors")
    odd = list(g.space.odd_indices())
    if x[..., odd].any() or y[..., odd].any():
        raise UsageError("jacobson_terms expects even vectors")
    # [x, v] = v @ ad_x, ad_x[j, k] = [x, x_j]_k
    n = g.dim
    ad_x, ad_y = ((v @ g.brackets.reshape(n, n * n)).reshape(v.shape + (n,))
                  for v in (x, y))
    poly = np.zeros(x.shape[:-1] + (p - 1, n), dtype=np.int64)
    poly[..., 0, :] = x  # poly[..., d, :] the coefficient of t^d
    for _ in range(p - 1):
        step = poly @ ad_y
        step[..., 1:, :] += (poly @ ad_x)[..., :-1, :]
        poly = step % p
    inv = np.array([pow(i, -1, p) for i in range(1, p)], dtype=np.int64)
    out = inv[:, None] * poly % p
    return list(out) if x.ndim == 1 else out


def pmap_apply(g, v):
    """v^[p] for an arbitrary even vector v, via a left fold of the
    additivity rule over the nonzero coordinates in ascending basis order."""
    p = g.p
    v = np.asarray(v, dtype=np.int64) % p
    if not g.is_even_vector(v):
        raise UsageError("p-map applies to even vectors only")
    support = [i for i in g.space.even_indices() if v[i]]
    total = g.zero()
    partial = g.zero()
    for i in support:
        term = (v[i] * g.basis_vector(i)) % p
        # (c x)^[p] = c^p x^[p] = c x^[p] over GF(p)
        total = (total + v[i] * g.pmap_basis(i)) % p
        if partial.any():
            for s in jacobson_terms(g, partial, term):
                total = (total + s) % p
        partial = (partial + term) % p
    return total


def validate_pmap(g):
    """Check ad(x^[p]) = ad(x)^p on the even basis and order-independence
    of the additivity rule on pairs of even basis elements: the Jacobson
    sums of (x_i, x_j) and (x_j, x_i) for i < j agree.  Both checks run on
    every even basis element, and every ordered pair, at once; the
    violations are recorded per element, then per pair (i, j), in order."""
    rep = ValidationReport("p-map")
    p, n = g.p, g.dim
    evens = np.array(g.space.even_indices(), dtype=np.int64)
    # ad(v)^T, row j [v, x_j], for v = x^[p] and for v = x: (A^T)^p = (A^p)^T
    pm = np.reshape([g.pmap_basis(i) for i in evens], (-1, n))
    lhs = (pm @ g.brackets.reshape(n, n * n)).reshape(-1, n, n) % p
    rhs = matpow(g.brackets[evens], p, p)
    for i in evens[(lhs != rhs).any(axis=(1, 2))].tolist():
        rep.record("adp", (i,), f"ad(x_{i}^[p]) != ad(x_{i})^p")
    pairs = list(itertools.combinations(evens.tolist(), 2))
    if pairs:  # the pairs (i, j), then the pairs (j, i)
        x, y = np.array(pairs + [(j, i) for i, j in pairs]).T
        unit = np.eye(n, dtype=np.int64)
        sums = jacobson_terms(g, unit[x], unit[y]).sum(axis=-2) % p
        swapped = (sums[:len(pairs)] != sums[len(pairs):]).any(axis=-1)
        for k in np.flatnonzero(swapped).tolist():
            rep.record("additivity", pairs[k],
                       "Jacobson sums disagree when the fold order is swapped")
    return rep


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

class Representation:
    """A g-module given by one action matrix per basis element of g."""

    def __init__(self, g, space, mats):
        self.g = g
        self.space = space
        d = space.dim
        if len(mats) != g.dim:
            raise UsageError("one action matrix per basis element of g required")
        ms = []
        for m in mats:
            arr = np.asarray(m, dtype=np.int64) % g.p
            if arr.shape != (d, d):
                raise UsageError(f"action matrices must be {d}x{d}")
            ms.append(_frozen(arr))
        self.mats = tuple(ms)

    @property
    def dim(self):
        return self.space.dim

    @property
    def p(self):
        return self.g.p

    def act_matrix(self, gvec):
        gvec = np.asarray(gvec, dtype=np.int64) % self.p
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i, c in enumerate(gvec):
            if c:
                out = (out + c * self.mats[i]) % self.p
        return out

    def act(self, gvec, mvec):
        return (self.act_matrix(gvec) @ (np.asarray(mvec) % self.p)) % self.p


def trivial_module(g, name="m"):
    space = SuperSpace((name,), ())
    zero = np.zeros((1, 1), dtype=np.int64)
    return Representation(g, space, [zero] * g.dim)


def adjoint_module(g):
    space = SuperSpace(tuple(f"ad:{s}" for s in g.space.even_names),
                       tuple(f"ad:{s}" for s in g.space.odd_names))
    return Representation(g, space, [g.ad_basis(i) for i in range(g.dim)])


def validate_module(g, rep, restricted=False):
    """Check grading, bracket compatibility and (optionally) rho(x)^p = rho(x^[p])."""
    report = ValidationReport("module")
    p = g.p
    mpar = rep.space.parities()
    gpar = g.space.parities()
    for i in range(g.dim):
        mat = rep.mats[i]
        for a in range(rep.dim):
            for b in range(rep.dim):
                if mat[a, b] and mpar[a] != (mpar[b] + gpar[i]) % 2:
                    report.record("grading", (i, a, b),
                                  f"rho(x_{i}) breaks the grading at ({a},{b})")
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = rep.act_matrix(g.brackets[i, j])
            sign = -1 if (gpar[i] and gpar[j]) else 1
            rhs = (rep.mats[i] @ rep.mats[j] - sign * rep.mats[j] @ rep.mats[i]) % p
            if not np.array_equal(lhs, rhs):
                report.record("bracket", (i, j), "rho([x_i,x_j]) != super commutator")
    if restricted:
        for i in g.space.even_indices():
            lhs = matpow(rep.mats[i], p, p)
            rhs = rep.act_matrix(g.pmap_basis(i))
            if not np.array_equal(lhs, rhs):
                report.record("restricted", (i,), f"rho(x_{i})^p != rho(x_{i}^[p])")
    return report


def hom_module_units(N, K):
    """Matrix-unit basis of Hom(N, K), even units first.

    Unit (k, j) sends N-basis j to K-basis k; its parity is |k| + |j|.
    """
    evens, odds = [], []
    for k in range(K.dim):
        for j in range(N.dim):
            par = (K.space.parity(k) + N.space.parity(j)) % 2
            (evens if par == EVEN else odds).append((k, j))
    return tuple(evens + odds)


def hom_module(g, N, K):
    """Hom_k(N, K) as a g-module: (x.m)(a) = x.m(a) - (-1)^{|x||m|} m(x.a)."""
    if N.g is not g or K.g is not g:
        raise UsageError("N and K must be modules over the same algebra")
    units = hom_module_units(N, K)
    pos = {u: t for t, u in enumerate(units)}
    d = len(units)
    n_even = sum(1 for (k, j) in units
                 if (K.space.parity(k) + N.space.parity(j)) % 2 == EVEN)
    names_e = tuple(f"[{K.space.names[k]}<-{N.space.names[j]}]" for (k, j) in units[:n_even])
    names_o = tuple(f"[{K.space.names[k]}<-{N.space.names[j]}]" for (k, j) in units[n_even:])
    space = SuperSpace(names_e, names_o)
    p = g.p
    mats = []
    for i in range(g.dim):
        mat = np.zeros((d, d), dtype=np.int64)
        for t, (k, j) in enumerate(units):
            upar = (K.space.parity(k) + N.space.parity(j)) % 2
            sign = -1 if (g.parity(i) and upar) else 1
            for k2 in range(K.dim):
                c = K.mats[i][k2, k]
                if c:
                    mat[pos[(k2, j)], t] = (mat[pos[(k2, j)], t] + c) % p
            for j2 in range(N.dim):
                c = N.mats[i][j, j2]
                if c:
                    mat[pos[(k, j2)], t] = (mat[pos[(k, j2)], t] - sign * c) % p
        mats.append(mat)
    return Representation(g, space, mats)


def invariants(g, rep):
    """(M^g, M_0^g): vectors killed by every rho(x_i), and the even ones."""
    p = g.p
    d = rep.dim
    rows = []
    for i in range(g.dim):
        for a in range(d):
            row = {b: int(rep.mats[i][a, b]) for b in range(d) if rep.mats[i][a, b]}
            rows.append(row)
    full = nullspace(MatGF.from_rows(rows, d, p))
    odd_rows = list(rows)
    for j in rep.space.odd_indices():
        odd_rows.append({j: 1})
    even_part = nullspace(MatGF.from_rows(odd_rows, d, p))
    return full, even_part


def basis_torus(g, rep):
    """The even basis indices t of g that are toral, t^[p] = t, with ad t
    and rho(t) diagonal: every basis vector of g and of M is a weight
    vector of t.  Two such t commute, as [t, t'] is a multiple of t' and
    of t at once.  Odd basis elements have no p-map and are never toral."""
    def diagonal(m):
        return not (m - np.diag(np.diagonal(m))).any()
    return tuple(t for t in g.space.even_indices()
                 if np.array_equal(g.pmap_basis(t), g.basis_vector(t))
                 and diagonal(g.brackets[t]) and diagonal(rep.mats[t]))


# ---------------------------------------------------------------------------
# p-semilinear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiLinearMap:
    """A p-semilinear map from the even part of g into a coordinate space.

    Over the prime field, f(c v) = c^p f(v) = c f(v), so the map is linear
    and is determined by its values on the even basis: values[t] is the
    image of the t-th even basis element.
    """

    g: object
    target_dim: int
    values: tuple

    def __post_init__(self):
        vals = tuple(tuple(int(x) % self.g.p for x in row) for row in self.values)
        if len(vals) != self.g.space.n_even:
            raise UsageError("one value per even basis element required")
        if any(len(row) != self.target_dim for row in vals):
            raise UsageError("value length mismatch")
        object.__setattr__(self, "values", vals)

    def value_on_basis(self, t):
        return self.values[t]


def semilinear_space(g, target):
    """Basis of S(g_0, W) for a subspace W: all elementary maps x_i -> w_j.

    Over GF(p) the p-semilinear maps coincide with the linear ones, so the
    dimension is n_even(g) * dim W.  Returns maps ordered by (even slot,
    W-basis row); the matching index pairs are in ``.pairs`` order.
    """
    out = []
    for t in range(g.space.n_even):
        for w in target.basis_rows:
            vals = [[0] * target.ambient_dim for _ in range(g.space.n_even)]
            vals[t] = list(w)
            out.append(SemiLinearMap(g, target.ambient_dim,
                                     tuple(tuple(r) for r in vals)))
    return out


def semilinear_pairs(g, target):
    return tuple((t, j) for t in range(g.space.n_even) for j in range(target.dim))


# ---------------------------------------------------------------------------
# direct sums and the semidirect product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumLayout:
    """Index bookkeeping for E = g (+) M with the even-then-odd convention.

    E's even block is g_0 then M_0; its odd block is g_1 then M_1.
    """

    g_space: SuperSpace
    m_space: SuperSpace

    @functools.cached_property
    def _index(self):
        """(g_e, m_e, kind, source), read-only: the E indices of g's basis and
        of M's basis, and for each E index its summand, 'g' or 'm', and its
        basis index there."""
        ge, me, go = (self.g_space.n_even, self.m_space.n_even,
                      self.g_space.n_odd)
        g_e = np.r_[0:ge, ge + me:ge + me + go].astype(np.int64)
        m_e = np.r_[ge:ge + me, ge + me + go:self.dim].astype(np.int64)
        kind = np.full(self.dim, "g")
        kind[m_e] = "m"
        source = np.empty(self.dim, dtype=np.int64)
        source[g_e], source[m_e] = np.arange(g_e.size), np.arange(m_e.size)
        for a in (g_e, m_e, kind, source):
            a.setflags(write=False)
        return g_e, m_e, kind, source

    @property
    def dim(self):
        return self.g_space.dim + self.m_space.dim

    def g_to_e(self, i):
        return int(self._index[0][i])

    def m_to_e(self, j):
        return int(self._index[1][j])

    def e_source(self, e):
        """('g', i) or ('m', j) for an E index."""
        _, _, kind, source = self._index
        return str(kind[e]), int(source[e])

    def positions(self):
        """The E indices of g's basis and of M's basis, as read-only int64
        arrays."""
        return self._index[:2]

    def space(self):
        gnames = set(self.g_space.names)
        depth = 1
        while True:
            prefix = "M:" * depth
            tagged = [prefix + s for s in self.m_space.names]
            if gnames.isdisjoint(tagged) and len(set(tagged)) == len(tagged):
                break
            depth += 1

        def tag(names):
            return tuple(prefix + s for s in names)
        return SuperSpace(self.g_space.even_names + tag(self.m_space.even_names),
                          self.g_space.odd_names + tag(self.m_space.odd_names))

    def embed_g(self, gvec):
        out = np.zeros(self.dim, dtype=np.int64)
        out[self._index[0]] = gvec
        return out

    def embed_m(self, mvec):
        out = np.zeros(self.dim, dtype=np.int64)
        out[self._index[1]] = mvec
        return out

    def project_g(self, evec):
        return np.asarray(evec, dtype=np.int64)[self._index[0]]

    def project_m(self, evec):
        return np.asarray(evec, dtype=np.int64)[self._index[1]]


def semidirect(g, rep):
    """The trivial extension g |x M: M an abelian ideal with zero p-map,
    bracket [(x1,m1),(x2,m2)] = ([x1,x2], x1.m2 - (-1)^{|x1||x2|} x2.m1),
    p-map (x,m)^[p] = (x^[p], x^{p-1}.m) encoded on basis elements."""
    layout = SumLayout(g.space, rep.space)
    space = layout.space()
    n = space.dim
    p = g.p
    brk = np.zeros((n, n, n), dtype=np.int64)
    for i in range(g.dim):
        ei = layout.g_to_e(i)
        for j in range(g.dim):
            brk[ei, layout.g_to_e(j)] = layout.embed_g(g.brackets[i, j])
    gpar = g.space.parities()
    mpar = rep.space.parities()
    for i in range(g.dim):
        ei = layout.g_to_e(i)
        for j in range(rep.dim):
            fj = layout.m_to_e(j)
            act = rep.mats[i][:, j] % p
            brk[ei, fj] = layout.embed_m(act)
            sign = -1 if (gpar[i] and mpar[j]) else 1
            brk[fj, ei] = (-sign * brk[ei, fj]) % p
    pm = {}
    for i in g.space.even_indices():
        pm[layout.g_to_e(i)] = layout.embed_g(g.pmap_basis(i))
    for j in rep.space.even_indices():
        pm[layout.m_to_e(j)] = np.zeros(n, dtype=np.int64)
    E = LieSuperAlgebra(space, p, brk, pm)
    return E, layout


def require_valid(g, rep=None, restricted=True):
    """Raise ValidationError unless g (and optionally rep) pass validation."""
    r1 = validate_lie_super(g)
    if not r1.ok:
        raise ValidationError(r1.summary(), r1)
    r2 = validate_pmap(g)
    if not r2.ok:
        raise ValidationError(r2.summary(), r2)
    if rep is not None:
        r3 = validate_module(g, rep, restricted=restricted)
        if not r3.ok:
            raise ValidationError(r3.summary(), r3)
