"""PBW bases and straightening products for enveloping algebras.

Two modes share one straightening engine:

* restricted mode: u(g) = U(g)/(x^p - x^[p]), finite-dimensional with PBW
  basis of p^{n_even} * 2^{n_odd} monomials;
* truncated mode: U(g) cut off above a total degree bound, used where an
  identity must be evaluated before the p-th power relation is imposed.

A monomial is a tuple of exponents indexed by *generator position*; the
generator order is an arbitrary permutation of the basis (default:
ascending basis index).  Extensions build u(E) with the module generators
last, which the ideal-collapse map gamma below relies on.

The engine is one left product x_k m of a generator and a PBW monomial
m = x_j m', x_j its first generator, kept per (k, m).  For k < j it is a
PBW monomial.  For k = j it raises the exponent, or uses x_k^p = x_k^[p]
in restricted mode and x_k x_k = (1/2)[x_k, x_k] for an odd x_k.  For
k > j, x_k x_j m' = (+-) x_j (x_k m') + [x_k, x_j] m', Koszul sign.  A
rule asks only for products of lower degree, or of the same degree with
k at most the first generator, so the rules terminate; a work list, not
recursion, resolves them.  A product ma mb is the left product by each
factor of ma, the last first, and m acts on a module as rho(x_j) times
the action of m'.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegreeOverflowError, InvariantViolationError, NotInIdealError, UsageError,
)
from .gflin import index_runs
from .superalg import EVEN, ODD, basis_torus

__all__ = [
    "UAlgebra", "UElement", "linear_section_extend",
    "gamma_map", "check_commutator_identities",
]


class UElement:
    """An element of a UAlgebra: a dict monomial -> nonzero coefficient."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        p = algebra.p
        self.terms = {m: c % p for m, c in terms.items() if c % p}

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return UElement(self.algebra, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        self._check(other)
        return self.algebra.multiply(self, other)

    def scaled(self, c):
        return UElement(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, UElement) and self.algebra is other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if not isinstance(other, UElement) or other.algebra is not self.algebra:
            raise UsageError("elements of different algebras")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[m]
            word = "*".join(f"{self.algebra.gen_name(k)}^{e}" if e > 1
                            else self.algebra.gen_name(k)
                            for k, e in enumerate(m) if e) or "1"
            bits.append(f"{c}*{word}")
        return " + ".join(bits)


class UAlgebra:
    """Enveloping algebra of a Lie superalgebra with memoized straightening."""

    def __init__(self, g, restricted=True, degree_bound=None, gen_order=None):
        self.g = g
        self.p = g.p
        self.restricted = restricted
        if restricted:
            if degree_bound is not None:
                raise UsageError("degree bounds apply to truncated mode only")
            self.degree_bound = None
        else:
            self.degree_bound = g.p + 2 if degree_bound is None else degree_bound
        n = g.dim
        order = tuple(range(n)) if gen_order is None else tuple(gen_order)
        if sorted(order) != list(range(n)):
            raise UsageError("gen_order must be a permutation of the basis")
        self.gen_order = order
        self.pos_of = {amb: k for k, amb in enumerate(order)}
        self.pos_parity = tuple(g.parity(amb) for amb in order)
        # bracket and p-power images re-expressed in generator positions
        self._brk = {}
        for a in range(n):
            for b in range(n):
                vec = g.brackets[order[a], order[b]]
                self._brk[(a, b)] = tuple((self.pos_of[amb], int(c))
                                          for amb, c in enumerate(vec) if c)
        self._pow = {}
        if restricted:
            for a in range(n):
                if self.pos_parity[a] == EVEN:
                    vec = g.pmap_basis(order[a])
                    self._pow[a] = tuple((self.pos_of[amb], int(c))
                                         for amb, c in enumerate(vec) if c)
        self._half = pow(2, -1, self.p)
        self._lmemo = {}
        self._splits = {}
        self._prod = {}
        self._basis = None
        self._aug = None
        self._aug_index = None
        self._table = None
        self._action = {}

    # -- basic vocabulary ---------------------------------------------------

    @property
    def ngen(self):
        return self.g.dim

    def gen_name(self, pos):
        return self.g.space.names[self.gen_order[pos]]

    def zero(self):
        return UElement(self, {})

    def one(self):
        return UElement(self, {(0,) * self.ngen: 1})

    def unit_monomial(self):
        return (0,) * self.ngen

    def generator(self, amb_index):
        m = [0] * self.ngen
        m[self.pos_of[amb_index]] = 1
        return UElement(self, {tuple(m): 1})

    def from_vector(self, gvec):
        terms = {}
        for amb, c in enumerate(np.asarray(gvec) % self.p):
            if c:
                m = [0] * self.ngen
                m[self.pos_of[amb]] = 1
                terms[tuple(m)] = int(c)
        return UElement(self, terms)

    def monomial(self, mono):
        return UElement(self, {tuple(mono): 1})

    def degree(self, mono):
        return sum(mono)

    def parity(self, mono):
        return sum(e for k, e in enumerate(mono) if self.pos_parity[k] == ODD) % 2

    # -- PBW basis ------------------------------------------------------------

    def pbw_basis(self):
        """All monomials within the exponent bounds, sorted by (degree, lex)."""
        if not self.restricted:
            raise UsageError("pbw_basis is for restricted mode")
        if self._basis is None:
            import itertools
            ranges = [range(self.p) if par == EVEN else range(2)
                      for par in self.pos_parity]
            monos = sorted(itertools.product(*ranges), key=lambda m: (sum(m), m))
            self._basis = tuple(monos)
        return self._basis

    def aug_basis(self):
        """The PBW basis without the unit, a basis of the augmentation ideal."""
        if self._aug is None:
            self._aug = tuple(m for m in self.pbw_basis() if sum(m))
        return self._aug

    def aug_index(self):
        """{monomial: its index in ``aug_basis()``}."""
        if self._aug_index is None:
            self._aug_index = {m: i for i, m in enumerate(self.aug_basis())}
        return self._aug_index

    @property
    def dim(self):
        return len(self.pbw_basis())

    # -- straightening ----------------------------------------------------------

    def _left(self, k, mono):
        """x_k mono as {PBW monomial: coefficient}, for a generator position
        k and a PBW monomial mono, by the rules of the module docstring."""
        memo, par, p = self._lmemo, self.pos_parity, self.p
        if (k, mono) in memo:
            return memo[(k, mono)]
        todo = [(k, mono)]
        while todo:
            key = todo[-1]
            if key in memo:
                todo.pop()
                continue
            x, m = key
            j, rest = self._split(m)
            if x < j or x == j and par[x] == EVEN and not (
                    self.restricted and m[x] == p - 1):
                memo[key] = {m[:x] + (m[x] + 1,) + m[x + 1:]: 1}
                continue
            if x > j:
                inner = memo.get((x, rest))
                if inner is None:
                    todo.append((x, rest))
                    continue
                sign = -1 if par[x] and par[j] else 1
                terms = [(sign * c, (j, t)) for t, c in inner.items()]
                terms += [(c, (y, rest)) for y, c in self._brk[(x, j)]]
            elif par[x] == ODD:
                terms = [(self._half * c, (y, rest)) for y, c in self._brk[(x, x)]]
            else:
                drop = m[:x] + (0,) + m[x + 1:]
                terms = [(c, (y, drop)) for y, c in self._pow[x]]
            missing = [t for _, t in terms if t not in memo]
            if missing:
                todo.extend(missing)
                continue
            memo[key] = _combine(((c, memo[t]) for c, t in terms), p)
        return memo[(k, mono)]

    def _split(self, mono):
        """(j, m') for a monomial mono = x_j m', x_j its first generator;
        (ngen, None) for the unit.  Kept per monomial."""
        got = self._splits.get(mono)
        if got is None:
            j = next((i for i, e in enumerate(mono) if e), len(mono))
            rest = mono[:j] + (mono[j] - 1,) + mono[j + 1:] if any(mono) else None
            got = self._splits[mono] = (j, rest)
        return got

    def monomial_product(self, ma, mb):
        """ma mb for PBW monomials, as {PBW monomial: coefficient}: the left
        product by each factor of ma in turn, its last factor first."""
        key = (ma, mb)
        cached = self._prod.get(key)
        if cached is not None:
            return cached
        if not self.restricted:
            if sum(ma) + sum(mb) > self.degree_bound:
                raise DegreeOverflowError(
                    f"degree {sum(ma) + sum(mb)} exceeds bound {self.degree_bound}")
        ks = [k for k, e in enumerate(ma) for _ in range(e)]
        out = self._left(ks.pop(), mb) if ks else {mb: 1}
        for k in reversed(ks):
            out = _combine(((c, self._left(k, m)) for m, c in out.items()),
                           self.p)
        self._prod[key] = out
        return out

    def aug_product_table(self):
        """The products of u(g)^+ basis pairs as read-only COO arrays
        (a, b, w, c), sorted by (a, b, w): aug[a] aug[b] = sum c aug[w].

        Built once per algebra from the left multiplications
        L_k : m -> x_k m by the generators, g.dim x |aug| straightenings.
        Every aug monomial is u = x_k u' on the nose, with x_k its first
        generator, so the row of u is L_k applied to the row of u' (the
        identity when u' = 1).  The rows are filled one degree at a time by
        sparse joins, so beside the table only the join of one degree is
        held, never a dense |aug|^3 array.  A product of aug-ideal elements
        with a unit component, or a term whose parity or weight under an
        even t with ad t diagonal is not its factors' sum, would be a
        straightening bug and raises InvariantViolationError."""
        if self._table is None:
            self._table = self._build_product_table()
        return self._table

    def _build_product_table(self):
        # pbw_basis indices throughout; basis[0] is the unit, whose row (the
        # identity on the aug monomials) starts the recursion
        basis = self.pbw_basis()
        N, p, n = len(basis), self.p, self.ngen
        index = {m: i for i, m in enumerate(basis)}
        src, dst, val = [], [], []  # x_k basis[s] = sum val basis[dst]
        for k in range(n):
            x = tuple(int(j == k) for j in range(n))
            for s in range(1, N):
                for m, c in self.monomial_product(x, basis[s]).items():
                    src.append(k * N + s)
                    dst.append(index[m])
                    val.append(c)
        src, dst, val = (np.array(t, dtype=np.int64) for t in (src, dst, val))
        if (dst == 0).any():
            raise InvariantViolationError(
                "product of augmentation-ideal elements hit the unit")
        lstart = np.searchsorted(src, np.arange(n * N + 1))
        first, rest = np.array([(0, 0)] + [(j, index[r]) for j, r in
                                           map(self._split, basis[1:])],
                               dtype=np.int64).T
        expo = np.array(basis, dtype=np.int64)
        deg = expo.sum(axis=1)
        aug = np.arange(1, N, dtype=np.int64)
        rows = [(np.zeros(N - 1, dtype=np.int64), aug, aug,
                 np.ones(N - 1, dtype=np.int64))]
        for d in range(1, int(deg[-1]) + 1):
            # u = x_k u' with u' of degree d - 1: its row is the last one
            # built, and u v = sum c x_k w' over the entries (v, w', c) of
            # the row of u'
            a, b, w, c = rows[-1]
            bounds = np.searchsorted(a, np.arange(N + 1))
            us = np.flatnonzero(deg == d)
            r = rest[us]
            own, pos = index_runs(bounds[r], bounds[r + 1] - bounds[r])
            u, v, w, c = us[own], b[pos], w[pos], c[pos]
            key = first[u] * N + w
            own, pos = index_runs(lstart[key], lstart[key + 1] - lstart[key])
            key = (u[own] * N + v[own]) * N + dst[pos]
            c = c[own] * val[pos] % p
            order = np.argsort(key)
            key, c = key[order], c[order]
            if key.size:
                start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
                key, c = key[start], np.add.reduceat(c, start) % p
                key, c = key[c != 0], c[c != 0]
            rows.append((key // (N * N), key // N % N, key % N, c))
        a, b, w, c = (np.concatenate(t) for t in zip(*rows))
        # for an even t with ad t diagonal, [t, -] is a derivation of u(g)
        # that is diagonal on the PBW basis, so a product keeps the summed
        # parity and weights of its factors
        g, order = self.g, list(self.gen_order)
        grades = [self.pos_parity] + [
            np.diagonal(g.brackets[t])[order] for t in g.space.even_indices()
            if np.count_nonzero(g.brackets[t])
            == np.count_nonzero(np.diagonal(g.brackets[t]))]
        mods = [2] + [p] * (len(grades) - 1)
        for gr, mod in zip(np.array(grades) @ expo.T, mods):
            if ((gr[a] + gr[b] - gr[w]) % mod).any():
                raise InvariantViolationError(
                    "product term breaks parity or weight")
        keep = a > 0
        out = (a[keep] - 1, b[keep] - 1, w[keep] - 1, c[keep])
        for t in out:
            t.setflags(write=False)
        return out

    def multiply(self, u, v):
        acc = {}
        p = self.p
        for ma, ca in u.terms.items():
            for mb, cb in v.terms.items():
                c = ca * cb % p
                for m, w in self.monomial_product(ma, mb).items():
                    acc[m] = (acc.get(m, 0) + c * w) % p
        return UElement(self, acc)

    def power(self, u, k):
        out = self.one()
        for _ in range(k):
            out = self.multiply(out, u)
        return out

    def d_w(self, w, z):
        """The commutator map z -> w z - z w."""
        return self.multiply(w, z) - self.multiply(z, w)

    # -- module action -----------------------------------------------------------

    def action_matrix(self, rep, mono):
        """Matrix of a PBW monomial mono = x_j m' acting on a module:
        rho(x_j) times that of m', kept per module, built from the last
        monomial of the chain m', m'', ... not kept yet.  A module seen
        for the first time raises InvariantViolationError unless parity
        and the weights under the basis torus (``basis_torus``) add on the
        nonzeros of rho(x_i), |nu| = |x_i| + |mu|; then they add on those
        of every monomial, a product of the rho(x_i)."""
        cache = self._action.get(rep)
        if cache is None:
            _check_grades(self.g, rep)
            cache = self._action[rep] = {}
        chain = [mono]
        while chain[-1] not in cache and any(chain[-1]):
            chain.append(self._split(chain[-1])[1])
        if chain[-1] not in cache:
            cache[chain[-1]] = np.eye(rep.dim, dtype=np.int64)
            cache[chain[-1]].setflags(write=False)
        for m, rest in zip(chain[-2::-1], chain[:0:-1]):
            x = self.gen_order[self._split(m)[0]]
            cache[m] = rep.mats[x] @ cache[rest] % self.p
            cache[m].setflags(write=False)
        return cache[mono]


def _check_grades(g, rep):
    """The grade check of ``UAlgebra.action_matrix`` on rho(x_i)."""
    i, nu, mu = np.nonzero(np.array(rep.mats) % g.p)
    t = list(basis_torus(g, rep)) if i.size else []
    lam = np.vstack([g.space.parities(),
                     np.diagonal(g.brackets[t], axis1=1, axis2=2)])
    mw = np.vstack([rep.space.parities(), np.reshape(
        [np.diagonal(rep.mats[j]) for j in t], (len(t), rep.dim))])
    if ((lam[:, i] + mw[:, mu] - mw[:, nu])
            % np.array([2] + [g.p] * len(t))[:, None]).any():
        raise InvariantViolationError("module action breaks parity or weight")


def _combine(scaled, p):
    """sum c terms mod p over the (c, {monomial: coefficient}) pairs."""
    acc = {}
    for c, terms in scaled:
        for m, v in terms.items():
            acc[m] = acc.get(m, 0) + c * v
    return {m: v % p for m, v in acc.items() if v % p}


# ---------------------------------------------------------------------------
# linear maps between enveloping algebras
# ---------------------------------------------------------------------------

class ULinearMap:
    """A linear map between restricted enveloping algebras, stored on bases."""

    def __init__(self, src, dst, images):
        self.src = src
        self.dst = dst
        self.images = images  # monomial of src -> UElement of dst

    def apply(self, u):
        out = self.dst.zero()
        for mono, c in u.terms.items():
            out = out + self.images[mono].scaled(c)
        return out

    def matrix(self):
        """Dense (dim dst) x (dim src) coordinate matrix."""
        src_basis = self.src.pbw_basis()
        dst_index = {m: i for i, m in enumerate(self.dst.pbw_basis())}
        out = np.zeros((len(dst_index), len(src_basis)), dtype=np.int64)
        for col, mono in enumerate(src_basis):
            for m, c in self.images[mono].terms.items():
                out[dst_index[m], col] = c
        return out


def linear_section_extend(src, dst, section_images, monomials=None):
    """Extend a linear section g -> E to u(g) -> u(E) monomial by monomial:
    a PBW monomial maps to the product of its factors' images in canonical
    factor order.  Composing with the projection morphism gives the identity
    whenever the section is one.  Only the PBW monomials in ``monomials``
    are mapped if it is given."""
    images = {}
    for mono in src.pbw_basis() if monomials is None else monomials:
        out = dst.one()
        for kpos, e in enumerate(mono):
            img = section_images[src.gen_order[kpos]]
            for _ in range(e):
                out = dst.multiply(out, img)
        images[mono] = out
    return ULinearMap(src, dst, images)


def gamma_map(uE, u_g, layout, rep, w):
    """Collapse u(E)*M onto M: a monomial u*m of M-degree one contributes
    (the u(g)-image of u) acting on m; M-degree >= 2 contributes zero;
    M-degree zero is rejected.

    Requires uE to order the module generators after the g generators, so a
    canonical monomial with M-degree one always ends in its single module
    factor.  Returns a coordinate vector in M.
    """
    p = uE.p
    out = np.zeros(rep.dim, dtype=np.int64)
    for mono, c in w.terms.items():
        mdeg = 0
        midx = None
        gmono = [0] * u_g.ngen
        for kpos, e in enumerate(mono):
            if not e:
                continue
            kind, idx = layout.e_source(uE.gen_order[kpos])
            if kind == "m":
                mdeg += e
                midx = idx
            else:
                gmono[u_g.pos_of[idx]] = e
        if mdeg == 0:
            raise NotInIdealError("monomial of module-degree zero in gamma input")
        if mdeg >= 2:
            continue
        mvec = np.zeros(rep.dim, dtype=np.int64)
        mvec[midx] = 1
        out = (out + c * (u_g.action_matrix(rep, tuple(gmono)) @ mvec)) % p
    return out


# ---------------------------------------------------------------------------
# classical commutator identities, machine-checked inside u(g)
# ---------------------------------------------------------------------------

def check_commutator_identities(g, trials=100, seed=0, report=None):
    """Evaluate two classical characteristic-p identities inside u(g):

    (1) sum_{i=0}^{p-1} x^i y x^{p-1-i} = D_x^{p-1}(y);
    (2) sum_{i=0}^{l-1} x^i D_x^{l-1-i}(y)
          = sum_{j=0}^{l-1} (-1)^j C(l, j+1) x^{l-1-j} y x^j,  2 <= l <= p,

    with D_x the commutator z -> xz - zx applied iteratively, for random
    even x and random y.  Both hold in any associative algebra over GF(p);
    a violation indicates a straightening bug.
    """
    import math
    import random

    from .superalg import ValidationReport

    rng = random.Random(seed)
    rep = report if report is not None else ValidationReport("commutator-identities")
    u = UAlgebra(g, restricted=True)
    p = g.p
    aug = u.aug_basis()
    even_monos = [m for m in aug if u.parity(m) == EVEN]
    for t in range(trials):
        x = UElement(u, {m: rng.randrange(p) for m in even_monos})
        y = UElement(u, {m: rng.randrange(p) for m in aug})
        xp = [u.one()]
        for _ in range(p):
            xp.append(u.multiply(xp[-1], x))
        lhs = u.zero()
        for i in range(p):
            lhs = lhs + u.multiply(u.multiply(xp[i], y), xp[p - 1 - i])
        dks = [y]
        for _ in range(p):
            dks.append(u.d_w(x, dks[-1]))
        if lhs != dks[p - 1]:
            rep.record("identity-1", (t,), "power-sum vs iterated commutator mismatch")
        for ell in range(2, p + 1):
            lhs = u.zero()
            for i in range(ell):
                lhs = lhs + u.multiply(xp[i], dks[ell - 1 - i])
            rhs = u.zero()
            for j in range(ell):
                c = ((-1) ** j * math.comb(ell, j + 1)) % p
                if c:
                    rhs = rhs + u.multiply(u.multiply(xp[ell - 1 - j], y), xp[j]).scaled(c)
            if lhs != rhs:
                rep.record("identity-2", (t, ell), f"binomial identity fails at l={ell}")
    return rep
