"""PBW bases and straightening products for enveloping algebras.

Two modes share one rewriting engine:

* restricted mode: u(g) = U(g)/(x^p - x^[p]), finite-dimensional with PBW
  basis of p^{n_even} * 2^{n_odd} monomials;
* truncated mode: U(g) cut off above a total degree bound, used where an
  identity must be evaluated before the p-th power relation is imposed.

A monomial is a tuple of exponents indexed by *generator position*; the
generator order is an arbitrary permutation of the basis (default:
ascending basis index).  Extensions build u(E) with the module generators
last, which the ideal-collapse map gamma below relies on.

The rewriting rules: swap an adjacent out-of-order pair, producing the
Koszul sign and a lower-degree bracket term; reduce an odd square via
y*y = (1/2)[y,y]; in restricted mode reduce p equal even factors via the
stored p-th power.  Each rule lowers (degree, inversions) lexicographically,
so the loop terminates in a canonical normal form.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegreeOverflowError, InvariantViolationError, NotInIdealError, UsageError,
)
from .gflin import index_runs, matpow
from .superalg import EVEN, ODD

__all__ = [
    "UAlgebra", "UElement", "algebra_hom_extend", "linear_section_extend",
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
        self._norm = {}
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

    def _expand(self, mono):
        word = []
        for k, e in enumerate(mono):
            word.extend([k] * e)
        return tuple(word)

    def _normalize(self, word):
        """Normal form of a generator word, memoized in ``_norm``.

        A work list replaces recursion, so rewriting chains longer than
        Python's recursion limit (p = 17 words of length 128 need ~1500
        swaps) still terminate.  A word is rewritten once; if some word of
        its rewrite is unfinished, those are queued above it and it is
        revisited, to combine their normal forms, once they are finished."""
        norm = self._norm
        if word in norm:
            return norm[word]
        p = self.p
        todo = [(word, None)]
        while todo:
            w, terms = todo.pop()
            if terms is None:
                if w in norm:  # queued by two words
                    continue
                terms = self._rewrite(w)
                if terms is None:
                    mono = [0] * self.ngen
                    for k in w:
                        mono[k] += 1
                    norm[w] = {tuple(mono): 1}
                    continue
                pending = [(t, None) for t, _ in terms if t not in norm]
                if pending:
                    todo.append((w, terms))
                    todo.extend(pending)
                    continue
            acc = {}
            for t, c in terms:
                if acc:
                    _accumulate(acc, norm[t], c, p)
                else:
                    acc = {m: (c * v) % p for m, v in norm[t].items()}
            norm[w] = {m: c for m, c in acc.items() if c}
        return norm[word]

    def _rewrite(self, word):
        """The first applicable rewriting rule of a word as a list of
        (word, coefficient) terms, or None when the word is normal."""
        p, par = self.p, self.pos_parity
        for k, (a, b) in enumerate(zip(word, word[1:])):
            if a > b:
                head, tail = word[:k], word[k + 2:]
                terms = [(head + (b, a) + tail, -1 if par[a] and par[b] else 1)]
                terms += [(head + (pos,) + tail, c) for pos, c in self._brk[(a, b)]]
                return terms
            if a == b:
                head = word[:k]
                if par[a] == ODD:
                    tail = word[k + 2:]
                    return [(head + (pos,) + tail, self._half * c)
                            for pos, c in self._brk[(a, a)]]
                if self.restricted and word[k:k + p] == (a,) * p:
                    tail = word[k + p:]
                    return [(head + (pos,) + tail, c) for pos, c in self._pow[a]]
        return None

    def monomial_product(self, ma, mb):
        key = (ma, mb)
        cached = self._prod.get(key)
        if cached is not None:
            return cached
        if not self.restricted:
            if sum(ma) + sum(mb) > self.degree_bound:
                raise DegreeOverflowError(
                    f"degree {sum(ma) + sum(mb)} exceeds bound {self.degree_bound}")
        out = self._normalize(self._expand(ma) + self._expand(mb))
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
        with a unit component would be a straightening bug and raises."""
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
        first = [next(k for k, e in enumerate(m) if e) for m in basis[1:]]
        first = np.array([0] + first, dtype=np.int64)
        rest = np.array([0] + [index[m[:k] + (m[k] - 1,) + m[k + 1:]]
                               for k, m in zip(first[1:].tolist(), basis[1:])],
                        dtype=np.int64)
        deg = np.array([sum(m) for m in basis], dtype=np.int64)
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
        """Matrix of a basis monomial acting on a restricted module.

        The monomial word acts leftmost factor first: the matrix is the
        ordered product of rho(generator)^exponent.
        """
        cache = self._action.setdefault(rep, {})
        got = cache.get(mono)
        if got is not None:
            return got
        p = self.p
        out = np.eye(rep.dim, dtype=np.int64)
        for kpos, e in enumerate(mono):
            if e:
                out = (out @ matpow(rep.mats[self.gen_order[kpos]], e, p)) % p
        out.setflags(write=False)
        cache[mono] = out
        return out

    def element_action(self, rep, u, mvec):
        p = self.p
        out = np.zeros(rep.dim, dtype=np.int64)
        mv = np.asarray(mvec, dtype=np.int64) % p
        for mono, c in u.terms.items():
            out = (out + c * (self.action_matrix(rep, mono) @ mv)) % p
        return out


def _accumulate(acc, terms, c, p):
    for m, v in terms.items():
        acc[m] = (acc.get(m, 0) + c * v) % p


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


def algebra_hom_extend(src, dst, gen_images, check=True):
    """Multiplicative extension of a map on generators to PBW bases.

    ``gen_images[amb]`` is the image in dst of src's generator amb.  When
    ``check`` is set, the map is verified to be a morphism of restricted
    Lie superalgebras on generators first.
    """
    g = src.g
    p = src.p
    if len(gen_images) != g.dim:
        raise UsageError("one image per generator required")
    if check:
        for i in range(g.dim):
            for j in range(g.dim):
                sign = -1 if (g.parity(i) and g.parity(j)) else 1
                lhs = dst.multiply(gen_images[i], gen_images[j]) - \
                    dst.multiply(gen_images[j], gen_images[i]).scaled(sign)
                rhs = _push_vector(dst, src.g, g.brackets[i, j], gen_images)
                if lhs != rhs:
                    raise UsageError(f"not a morphism on ({i},{j})")
        for i in g.space.even_indices():
            lhs = dst.power(gen_images[i], p)
            rhs = _push_vector(dst, src.g, g.pmap_basis(i), gen_images)
            if lhs != rhs:
                raise UsageError(f"not restricted on generator {i}")
    return linear_section_extend(src, dst, gen_images)


def _push_vector(dst, g, vec, gen_images):
    out = dst.zero()
    for amb, c in enumerate(np.asarray(vec) % g.p):
        if c:
            out = out + gen_images[amb].scaled(int(c))
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
