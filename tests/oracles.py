"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch — hand-coded
multiplication tables for the fixture enveloping algebras, a standalone
dense rank routine, and a direct equation-based H^1 solver — so the main
package is never checked against its own code paths.
"""

import itertools


def dense_rank(rows, ncols, p):
    """Rank of a list of dense integer rows over GF(p), plain elimination."""
    return len(dense_rref(rows, ncols, p)[1])


def dense_rref(rows, ncols, p):
    """(RREF rows, pivot columns) of dense integer rows over GF(p) by plain
    Gauss-Jordan elimination: the canonical basis of their row space."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(inv * v) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        pivots.append(col)
    return [tuple(r) for r in mat[:rank]], pivots


def subspace_eliminate(rows, pivots, vec, p):
    """(residue, coefficients) of vec against RREF basis rows with the given
    pivots, one basis row and one coordinate at a time: the multiple of
    each row taken is the residue's entry at its pivot when it is reached."""
    out = [x % p for x in vec]
    cs = []
    for row, piv in zip(rows, pivots):
        c = out[piv]
        cs.append(c)
        if c:
            for j, v in enumerate(row):
                if v:
                    out[j] = (out[j] - c * v) % p
    return out, cs


def aug_product_table(ualg):
    """The aug x aug product table of u(g) by straightening every pair of
    augmentation-ideal monomials: sorted (a, b, w, c) rows with
    aug[a] aug[b] = sum c aug[w], w = -1 for a unit component."""
    aug = ualg.aug_basis()
    index = {m: k for k, m in enumerate(aug)}
    index[ualg.unit_monomial()] = -1
    return sorted((a, b, index[m], c)
                  for a, ma in enumerate(aug) for b, mb in enumerate(aug)
                  for m, c in ualg.monomial_product(ma, mb).items())


class WordStraightener:
    """The products of PBW monomials of u(g) (restricted mode) or of
    degree-truncated U(g), as the library's ``UAlgebra`` numbers them, by
    rewriting generator words: swap an adjacent out-of-order pair with its
    Koszul sign and bracket term, replace an odd square y y by (1/2)[y, y],
    and in restricted mode p equal even factors by the p-th power.  Each
    rule lowers (degree, inversions), so the first applicable rule, applied
    until none is, reaches the normal form.  Reads only g's structure
    constants and the algebra's generator order and mode; a work list, not
    recursion, resolves the words."""

    def __init__(self, ualg):
        g = ualg.g
        self.p, self.restricted = g.p, ualg.restricted
        order = ualg.gen_order
        pos_of = {amb: k for k, amb in enumerate(order)}
        self.ngen = len(order)
        self.par = [g.parity(amb) for amb in order]
        self.half = pow(2, -1, g.p)

        def positions(vec):
            return [(pos_of[amb], int(c) % g.p) for amb, c in enumerate(vec)
                    if int(c) % g.p]
        self.brk = {(a, b): positions(g.brackets[order[a], order[b]])
                    for a in range(self.ngen) for b in range(self.ngen)}
        self.pow = {a: positions(g.pmap_basis(order[a]))
                    for a in range(self.ngen) if not self.par[a]}
        self.norm = {}

    def product(self, ma, mb):
        """ma mb as {PBW monomial: nonzero coefficient}."""
        word = tuple(k for m in (ma, mb) for k, e in enumerate(m)
                     for _ in range(e))
        return self.normalize(word)

    def normalize(self, word):
        p, norm = self.p, self.norm
        todo = [word]
        while todo:
            w = todo[-1]
            if w in norm:
                todo.pop()
                continue
            terms = self.rewrite(w)
            if terms is None:
                mono = [0] * self.ngen
                for k in w:
                    mono[k] += 1
                norm[w] = {tuple(mono): 1}
                continue
            missing = [t for t, _ in terms if t not in norm]
            if missing:
                todo.extend(missing)
                continue
            acc = {}
            for t, c in terms:
                for m, v in norm[t].items():
                    acc[m] = (acc.get(m, 0) + c * v) % p
            norm[w] = {m: v for m, v in acc.items() if v}
        return norm[word]

    def rewrite(self, word):
        """The first applicable rule as (word, coefficient) terms, or None
        for a normal word."""
        p, par = self.p, self.par
        for k, (a, b) in enumerate(zip(word, word[1:])):
            head = word[:k]
            if a > b:
                tail = word[k + 2:]
                return ([(head + (b, a) + tail, -1 if par[a] and par[b] else 1)]
                        + [(head + (c,) + tail, v) for c, v in self.brk[(a, b)]])
            if a == b and par[a]:
                tail = word[k + 2:]
                return [(head + (c,) + tail, self.half * v)
                        for c, v in self.brk[(a, a)]]
            if a == b and self.restricted and word[k:k + p] == (a,) * p:
                tail = word[k + p:]
                return [(head + (c,) + tail, v) for c, v in self.pow[a]]
        return None


def algebra_hom_extend(src, dst, gen_images, check=True):
    """The multiplicative extension of a map on generators to the PBW bases
    of two ``UAlgebra``s, a ``ULinearMap``.  ``gen_images[amb]`` is the
    image in dst of src's generator amb.  When ``check`` is set, the map is
    first checked to be a morphism of restricted Lie superalgebras on the
    generators: UsageError on the brackets or p-maps that it breaks."""
    from supercoh.envelope import linear_section_extend
    from supercoh.errors import UsageError

    g = src.g

    def push(vec):
        out = dst.zero()
        for amb, c in enumerate(vec):
            if int(c) % g.p:
                out = out + gen_images[amb].scaled(int(c))
        return out
    if len(gen_images) != g.dim:
        raise UsageError("one image per generator required")
    for i in range(g.dim) if check else ():
        for j in range(g.dim):
            sign = -1 if (g.parity(i) and g.parity(j)) else 1
            lhs = dst.multiply(gen_images[i], gen_images[j]) - \
                dst.multiply(gen_images[j], gen_images[i]).scaled(sign)
            if lhs != push(g.brackets[i, j]):
                raise UsageError(f"not a morphism on ({i},{j})")
        if not g.parity(i) and dst.power(gen_images[i], g.p) != push(
                g.pmap_basis(i)):
            raise UsageError(f"not restricted on generator {i}")
    return linear_section_extend(src, dst, gen_images)


def element_action(ualg, rep, u, mvec):
    """u . m for an element u of the ``UAlgebra`` ualg and a vector m of
    the module rep, summed over u's monomials through their action
    matrices."""
    import numpy as np

    p = ualg.p
    out = np.zeros(rep.dim, dtype=np.int64)
    mv = np.asarray(mvec, dtype=np.int64) % p
    for mono, c in u.terms.items():
        out = (out + c * (ualg.action_matrix(rep, mono) @ mv)) % p
    return out


def semilinear_value(sigma, gvec):
    """The value of the ``SemiLinearMap`` sigma on a vector of g, read off
    its values on the even basis (the odd coordinates are ignored)."""
    p = sigma.g.p
    out = [0] * sigma.target_dim
    for t, i in enumerate(sigma.g.space.even_indices()):
        c = int(gvec[i]) % p
        for a, v in enumerate(sigma.values[t]):
            out[a] = (out[a] + c * v) % p
    return tuple(out)


def semilinear_combination(coeffs, maps):
    """The ``SemiLinearMap`` sum_k coeffs[k] maps[k], the maps of one g and
    one target."""
    from supercoh.superalg import SemiLinearMap

    first = maps[0]
    vals = [[sum(c * m.values[t][a] for c, m in zip(coeffs, maps)) % first.g.p
             for a in range(first.target_dim)] for t in range(len(first.values))]
    return SemiLinearMap(first.g, first.target_dim, vals)


# ---------------------------------------------------------------------------
# hand-coded augmented-algebra tables: basis labels, parities, products
# ---------------------------------------------------------------------------

def table_truncated_poly(p, nilpotent=True):
    """k[x]/(x^p) when nilpotent else k[x]/(x^p - x); labels x^1..x^{p-1}."""
    labels = [("x", e) for e in range(1, p)]

    def prod(a, b):
        e = a[1] + b[1]
        out = {}
        while e >= p:
            # x^p = 0 or x^p = x
            if nilpotent:
                return {}
            e = e - p + 1
        if e >= 1:
            out[("x", e)] = 1
        return out

    return labels, [0] * len(labels), prod


def table_super_line(p):
    """u of the super line [y,y] = z, z^[p] = 0: monomials z^a y^b with
    y^2 = (1/2) z (from 2 y^2 = [y,y]) and z^p = 0."""
    labels = [(a, b) for a in range(p) for b in range(2) if a + b > 0]
    inv2 = pow(2, -1, p)

    def prod(a, b):
        az, ay = a
        bz, by = b
        out = {}
        z = az + bz
        y = ay + by
        coeff = 1
        if y == 2:
            y = 0
            z += 1
            coeff = inv2
        if z >= p:
            return {}
        if z + y == 0:
            raise AssertionError("unit product in augmentation ideal")
        out[(z, y)] = coeff % p
        return out

    parities = [b % 2 for (_, b) in labels]
    return labels, parities, prod


def table_borel(p):
    """u of [h,x] = x, h^[p] = h, x^[p] = 0: monomials h^a x^b with
    x^b h^c = (h - b)^c x^b, h^p = h, x^p = 0."""
    labels = [(a, b) for a in range(p) for b in range(p) if a + b > 0]

    def hpoly_reduce(coeffs):
        # coefficients of powers of h, reduce mod h^p - h
        out = [0] * p
        for e, c in enumerate(coeffs):
            while e >= p:
                e = e - p + 1
            out[e] = (out[e] + c) % p
        return out

    def hpoly_mul(u, v):
        res = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                res[i + j] = (res[i + j] + a * b)
        return hpoly_reduce(res)

    def prod(mono_a, mono_b):
        a, b = mono_a
        c, d = mono_b
        if b + d >= p:
            return {}
        # h^a x^b h^c x^d = h^a (h - b)^c x^{b+d}
        shifted = [1]
        base = [(-b) % p, 1]  # h - b
        for _ in range(c):
            shifted = hpoly_mul(shifted, base)
        ha = [0] * a + [1]
        poly = hpoly_mul(hpoly_reduce(ha), shifted)
        out = {}
        for e, coeff in enumerate(poly):
            if coeff and (e + b + d) > 0:
                out[(e, b + d)] = coeff % p
            elif coeff:
                raise AssertionError("unit product in augmentation ideal")
        return out

    return labels, [0] * len(labels), prod


def table_odd_line(p):
    """u of one odd generator with [y,y] = 0: exterior line k[y]/(y^2)."""
    labels = [("y", 1)]

    def prod(a, b):
        return {}

    return labels, [1], prod


def table_abelian_plane(p):
    """k[x1,x2]/(x1^p, x2^p)."""
    labels = [(a, b) for a in range(p) for b in range(p) if a + b > 0]

    def prod(m1, m2):
        a, b = m1[0] + m2[0], m1[1] + m2[1]
        if a >= p or b >= p:
            return {}
        return {(a, b): 1}

    return labels, [0] * len(labels), prod


def table_torus_null_plane(p):
    """k[x1,x2]/(x1^p - x1, x2^p)."""
    labels = [(a, b) for a in range(p) for b in range(p) if a + b > 0]

    def prod(m1, m2):
        a, b = m1[0] + m2[0], m1[1] + m2[1]
        while a >= p:
            a = a - p + 1
        if b >= p:
            return {}
        if a + b == 0:
            raise AssertionError("unit product in augmentation ideal")
        return {(a, b): 1}

    return labels, [0] * len(labels), prod


def table_mixed_line(p):
    """u of [x,y] = y, x^[p] = x: monomials x^a y^b, b <= 1, y^2 = 0,
    y x^c = (x-1)^c y, x^p = x."""
    labels = [(a, b) for a in range(p) for b in range(2) if a + b > 0]

    def xpoly_reduce(coeffs):
        out = [0] * p
        for e, c in enumerate(coeffs):
            while e >= p:
                e = e - p + 1
            out[e] = (out[e] + c) % p
        return out

    def xpoly_mul(u, v):
        res = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                res[i + j] += a * b
        return xpoly_reduce(res)

    def prod(m1, m2):
        a, b = m1
        c, d = m2
        if b and d:
            return {}
        if b:
            # x^a y x^c y^d = x^a (x-1)^c y^{1+d}
            poly = [1]
            for _ in range(c):
                poly = xpoly_mul(poly, [(-1) % p, 1])
            poly = xpoly_mul(xpoly_reduce([0] * a + [1]), poly)
            newb = 1
        else:
            poly = xpoly_reduce([0] * (a + c) + [1])
            newb = d
        out = {}
        for e, coeff in enumerate(poly):
            if coeff and (e + newb) > 0:
                out[(e, newb)] = coeff % p
            elif coeff:
                raise AssertionError("unit product in augmentation ideal")
        return out

    parities = [b for (_, b) in labels]
    return labels, parities, prod


# ---------------------------------------------------------------------------
# bar-complex dimensions from a hand-coded table
# ---------------------------------------------------------------------------

def bar_dims(labels, parities, prod, p, degree, module_action=None, module_parities=(0,)):
    """(dim Z^n, dim B^n, dim H^n) of the bar complex of the given table.

    ``module_action``: optional dict label -> square matrix (list of lists)
    for a nontrivial module; default is the trivial one-dimensional module.
    """
    dimm = len(module_parities)
    index = {lab: i for i, lab in enumerate(labels)}

    def act(label, vec):
        if module_action is None:
            return [0] * dimm
        mat = module_action[label]
        return [sum(mat[i][j] * vec[j] for j in range(dimm)) % p
                for i in range(dimm)]

    def tuples(n):
        out = []
        for tup in itertools.product(range(len(labels)), repeat=n):
            tpar = sum(parities[t] for t in tup) % 2
            for m in range(dimm):
                if module_parities[m] == tpar:
                    out.append((tup, m))
        return out

    def delta_rows(n):
        """Rows of delta_n as dense vectors over the basis of n-cochains."""
        src = tuples(n)
        src_index = {it: k for k, it in enumerate(src)}
        rows = []
        for (tup, nu) in tuples(n + 1):
            row = [0] * len(src)
            for mu in range(dimm):
                evec = [0] * dimm
                evec[mu] = 1
                a = act(labels[tup[0]], evec)
                if a[nu]:
                    key = (tup[1:], mu)
                    row[src_index[key]] = (row[src_index[key]] + a[nu]) % p
            for i in range(1, n + 1):
                sign = -1 if i % 2 else 1
                for lab, c in prod(labels[tup[i - 1]], labels[tup[i]]).items():
                    key = (tup[:i - 1] + (index[lab],) + tup[i + 1:], nu)
                    row[src_index[key]] = (row[src_index[key]] + sign * c) % p
            rows.append(row)
        return rows, len(src)

    rows_n, dim_n = delta_rows(degree)
    dim_z = dim_n - dense_rank(rows_n, dim_n, p)
    if degree == 0:
        dim_b = 0
    else:
        rows_prev, dim_prev = delta_rows(degree - 1)
        dim_b = dense_rank(rows_prev, dim_prev, p)
    return dim_z, dim_b, dim_z - dim_b


def lie_h1_dim(g, rep):
    """dim H^1(g, M) solved directly from the cocycle equations, using only
    numpy-free arithmetic on the structure constants."""
    p = g.p
    ng, dm = g.dim, rep.dim
    gpar = [g.parity(i) for i in range(ng)]
    mpar = [rep.space.parity(a) for a in range(dm)]
    # unknowns: h[a][i] with mpar[a] == gpar[i]
    unknowns = [(a, i) for a in range(dm) for i in range(ng) if mpar[a] == gpar[i]]
    pos = {u: k for k, u in enumerate(unknowns)}
    rows = []
    for i in range(ng):
        for j in range(ng):
            for nu in range(dm):
                row = [0] * len(unknowns)
                # h([x_i,x_j]) - rho(x_i) h(x_j) + (-1)^{|i||j|} rho(x_j) h(x_i)
                for b in range(ng):
                    c = int(g.brackets[i, j][b])
                    if c and (nu, b) in pos:
                        row[pos[(nu, b)]] = (row[pos[(nu, b)]] + c) % p
                for mu in range(dm):
                    c = int(rep.mats[i][nu, mu])
                    if c and (mu, j) in pos:
                        row[pos[(mu, j)]] = (row[pos[(mu, j)]] - c) % p
                    sign = -1 if (gpar[i] and gpar[j]) else 1
                    c2 = int(rep.mats[j][nu, mu])
                    if c2 and (mu, i) in pos:
                        row[pos[(mu, i)]] = (row[pos[(mu, i)]] + sign * c2) % p
                rows.append(row)
    z = len(unknowns) - dense_rank(rows, len(unknowns), p)
    # coboundaries: m in M_0 -> (x -> rho(x) m)
    brows = []
    for a0 in [a for a in range(dm) if mpar[a] == 0]:
        row = [0] * len(unknowns)
        for i in range(ng):
            for nu in range(dm):
                c = int(rep.mats[i][nu, a0])
                if c and (nu, i) in pos:
                    row[pos[(nu, i)]] = (row[pos[(nu, i)]] + c) % p
        brows.append(row)
    b = dense_rank(brows, len(unknowns), p)
    return z - b


def table_borel_semidirect(p):
    """u of the borel line extended by a central c: borel table tensored
    with k[c]/(c^p)."""
    blabels, bparities, bprod = table_borel(p)
    blabels = list(blabels) + [(0, 0)]  # allow the unit borel part
    labels = [(a, b, e) for (a, b) in blabels for e in range(p)
              if a + b + e > 0]

    def prod(m1, m2):
        a, b, e = m1
        c, d, f = m2
        if e + f >= p:
            return {}
        out = {}
        if (a, b) == (0, 0):
            parts = {(c, d): 1}
        elif (c, d) == (0, 0):
            parts = {(a, b): 1}
        else:
            parts = bprod((a, b), (c, d))
        for (aa, bb), coeff in parts.items():
            if aa + bb + e + f > 0:
                out[(aa, bb, e + f)] = coeff
            else:
                raise AssertionError("unit product in augmentation ideal")
        return out

    return labels, [0] * len(labels), prod


# ---------------------------------------------------------------------------
# the Lie differential in block form
# ---------------------------------------------------------------------------

def _koszul_canon(par, idxs):
    """Sort argument indices evens-then-odds, each ascending: (evens, odds,
    sign), where every inverted pair not both odd costs a factor -1.  None
    when an even index repeats, since the alternating value vanishes."""
    sign = 1
    for a, b in itertools.combinations(range(len(idxs)), 2):
        u, v = idxs[a], idxs[b]
        if (par[u], u) > (par[v], v) and not (par[u] and par[v]):
            sign = -sign
    srt = sorted(idxs, key=lambda i: (par[i], i))
    evens = tuple(i for i in srt if not par[i])
    if len(set(evens)) != len(evens):
        return None
    return evens, tuple(i for i in srt if par[i]), sign


def split_lie_differential(g, rep, n):
    """delta_n : C^n(g, M) -> C^{n+1}(g, M) in block form, with the even
    action, the odd action and the even-even, even-odd and odd-odd bracket
    sums written out separately.  Returns {target item: {source item:
    coefficient}} over the cochain items ((evens), (odds), m) of degree
    n + 1 and n, one entry per target item."""
    par = [g.parity(i) for i in range(g.dim)]
    evens_g = [i for i in range(g.dim) if not par[i]]
    odds_g = [i for i in range(g.dim) if par[i]]
    out = {}
    for n1 in range(n + 2):
        for ev in itertools.combinations(evens_g, n + 1 - n1):
            for od in itertools.combinations_with_replacement(odds_g, n1):
                for nu in range(rep.dim):
                    if rep.space.parity(nu) == n1 % 2:
                        out[(ev, od, nu)] = _split_row(g, rep, par, ev, od, nu)
    return out


def _split_row(g, rep, par, ev, od, nu):
    p = g.p
    row = {}

    def add(item, coeff):
        row[item] = (row.get(item, 0) + coeff) % p

    def add_bracket(vec, left, right, sign):
        # sign * f([u, v], ...) with [u, v] = vec placed between left and right
        for b, coeff in enumerate(vec):
            if coeff:
                canon = _koszul_canon(par, left + (b,) + right)
                if canon is not None:
                    evs, ods, csign = canon
                    add((evs, ods, nu), sign * csign * int(coeff))

    n0, n1 = len(ev), len(od)
    for s in range(n0):
        sign = -1 if s % 2 else 1  # (-1)^{s-1}, s 1-based
        mat = rep.mats[ev[s]]
        for mu in range(rep.dim):
            if mat[nu, mu]:
                add((ev[:s] + ev[s + 1:], od, mu), sign * int(mat[nu, mu]))
    for t in range(n1):
        sign = -1 if n0 % 2 else 1  # (-1)^{n0}
        mat = rep.mats[od[t]]
        for mu in range(rep.dim):
            if mat[nu, mu]:
                add((ev, od[:t] + od[t + 1:], mu), sign * int(mat[nu, mu]))
    for s in range(n0):
        for t in range(s + 1, n0):
            sign = -1 if (s + t) % 2 else 1  # (-1)^{s+t}, both 1-based
            rest = ev[:s] + ev[s + 1:t] + ev[t + 1:]
            add_bracket(g.brackets[ev[s], ev[t]], (), rest + od, sign)
    for s in range(n0):
        for t in range(n1):
            sign = -1 if (s + 1) % 2 else 1  # (-1)^s, s 1-based
            add_bracket(g.brackets[ev[s], od[t]], ev[:s] + ev[s + 1:],
                        od[:t] + od[t + 1:], sign)
    for s in range(n1):
        for t in range(s + 1, n1):
            rest = od[:s] + od[s + 1:t] + od[t + 1:]
            add_bracket(g.brackets[od[s], od[t]], (), ev + rest, -1)
    return {item: c for item, c in row.items() if c}


# ---------------------------------------------------------------------------
# the bar differential, one target row at a time
# ---------------------------------------------------------------------------

def bar_differential_rows(ualg, rep, n):
    """delta_n on bar n-cochains, one row per basis item of degree n + 1
    in ``assoc_cochain_basis`` order: {source column: coefficient}, with

    (delta f)(s_1..s_{n+1}) = s_1 . f(s_2..s_{n+1})
                              + sum_i (-1)^i f(s_1,.., s_i s_{i+1}, .., s_{n+1}).

    Every term is looked up by its cochain item, with no index arithmetic."""
    from supercoh.cohomology import assoc_cochain_basis

    src = assoc_cochain_basis(ualg, rep.space, n)
    dst = assoc_cochain_basis(ualg, rep.space, n + 1)
    p = ualg.p
    aug = src.aug
    unit = ualg.unit_monomial()
    rows = []
    for (tup, nu) in dst.items:
        row = {}
        mat = ualg.action_matrix(rep, aug[tup[0]])
        for mu in range(rep.dim):
            if mat[nu, mu]:
                col = src.index[(tup[1:], mu)]
                row[col] = (row.get(col, 0) + int(mat[nu, mu])) % p
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            prod = ualg.monomial_product(aug[tup[i - 1]], aug[tup[i]])
            for mono, c in prod.items():
                assert mono != unit, "product in the augmentation ideal hit the unit"
                col_tup = tup[:i - 1] + (src.aug_index[mono],) + tup[i + 1:]
                col = src.index[(col_tup, nu)]
                row[col] = (row.get(col, 0) + sign * int(c)) % p
        rows.append({c: v for c, v in row.items() if v})
    return rows


# ---------------------------------------------------------------------------
# the bar 2-cocycle of a restricted extension, every entry by the formula
# ---------------------------------------------------------------------------

def bar_cocycle_of_extension(ext, bar, section=None):
    """c(u, v) = gamma(psi'(u) psi'(v) - psi'(uv)) for every pair of aug
    monomials u, v, in ``bar``'s 2-cochain coordinates: |aug|^2 products
    in u(E), with no use of the cocycle identity."""
    from supercoh.envelope import UAlgebra, gamma_map, linear_section_extend
    from supercoh.extensions import psi_image

    g, rep, layout = ext.g, ext.rep, ext.layout
    ualg = bar.ualg
    gen_order = ([layout.g_to_e(i) for i in range(g.dim)]
                 + [layout.m_to_e(j) for j in range(rep.dim)])
    uE = UAlgebra(ext.E, restricted=True, gen_order=gen_order)
    section_vectors = psi_image(ext) if section is None else section
    psi_prime = linear_section_extend(
        ualg, uE, [uE.from_vector(v) for v in section_vectors])
    cb = bar.basis(2)
    unit = ualg.unit_monomial()
    cvec = [0] * cb.dim
    for iu, mu in enumerate(cb.aug):
        for iv, mv in enumerate(cb.aug):
            corr = uE.zero()
            for mono, c in ualg.monomial_product(mu, mv).items():
                assert mono != unit, "aug-ideal product hit the unit"
                corr = corr + psi_prime.images[mono].scaled(c)
            w = uE.multiply(psi_prime.images[mu], psi_prime.images[mv]) - corr
            for nu, c in enumerate(gamma_map(uE, ualg, layout, rep, w)):
                if c:
                    cvec[cb.index[((iu, iv), nu)]] = int(c)
    return tuple(cvec)


def bar_cocycle_of_pair(lie, bar, vec):
    """``bar_cocycle_of_extension`` of E_f with (x_t, 0)^[p] =
    (x_t^[p], w_t), for a 2-cocycle (f, w) of the pair complex on ``lie``
    (f coordinates, then w_0, w_1, ... over the even basis), the extension
    built and validated by ``extensions``."""
    import numpy as np

    from supercoh.extensions import _with_pmap_on_g, algebra_ext_from_2cocycle

    n2 = lie.basis(2).dim
    w = np.reshape(np.asarray(vec[n2:], dtype=np.int64), (-1, lie.rep.dim))
    ext = _with_pmap_on_g(algebra_ext_from_2cocycle(lie, tuple(vec[:n2])),
                          dict(zip(lie.g.space.even_indices(), w)))
    return bar_cocycle_of_extension(ext, bar)


# ---------------------------------------------------------------------------
# the bar 2-cocycle condition on every first argument
# ---------------------------------------------------------------------------

def bar_2cocycle_all_slices(bar, cvec):
    """Whether the 2-cochain ``cvec`` of the bar complex ``bar`` is a cocycle:

        s_1 . c(s_2, s_3) - c(s_1 s_2, s_3) + c(s_1, s_2 s_3) = 0

    for all aug-ideal monomials s_1, s_2, s_3 (the rows of the bar d2).  The
    three terms come from the aug x aug product table and the action
    matrices, one s_1 slice at a time over every s_1, with no reduction to
    the generator slices."""
    import numpy as np

    from supercoh.cohomology import _bar_action

    ualg, rep, p = bar.ualg, bar.rep, bar.g.p
    aug = ualg.aug_basis()
    A, D = len(aug), rep.dim
    c = bar.cochain_array(cvec)
    act = _bar_action(ualg, rep, aug)
    a, b, w, coef = ualg.aug_product_table()
    # the table is sorted by (a, b): slices by a, runs of equal (a, b) pairs
    bounds = np.searchsorted(a, np.arange(A + 1))
    pair = a * A + b
    first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
    for s1 in range(A):
        out = c @ act[s1].T
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
# class coordinates by membership test, then reduction
# ---------------------------------------------------------------------------

def class_coords_two_step(res, vec):
    """Class coordinates of ``vec`` in the cohomology result ``res``: first
    check that vec lies in Z, then read its residue modulo B in the basis
    of representatives.  Raises UsageError off Z."""
    from supercoh.errors import InvariantViolationError, UsageError

    if not res.Z.contains(vec):
        raise UsageError("vector is not a cocycle")
    coords = res.R.coords(res.B.reduce(vec))
    if coords is None:
        raise InvariantViolationError("class reduction left a residue")
    return coords


# ---------------------------------------------------------------------------
# the column route and the augmented solve: the eliminations `gflin` used
# before every elimination of a matrix went through `RowReduction`
# ---------------------------------------------------------------------------

def image_by_columns(m):
    """Column space of the MatGF m as the span of its columns, each fed to
    the eliminator as a {row: value} dict."""
    from supercoh.gflin import Subspace

    cols = [{} for _ in range(m.cols)]
    for (i, j), v in m.entries.items():
        cols[j][i] = v
    return Subspace.from_vectors(cols, m.rows, m.p)


def solve_augmented(m, rhs):
    """Some x with m x = rhs, or None: the RREF of [m | rhs] row by row,
    free variables zero, x[pc] the augmented entry of the pivot row at pc.
    None exactly when the augmented column becomes a pivot."""
    from supercoh.gflin import Eliminator

    aug = m.cols
    elim = Eliminator(m.cols + 1, m.p)
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    for row, b in zip(rows, rhs):
        if int(b) % m.p:
            row[aug] = int(b) % m.p
        elim.add(row)
    if aug in elim.rows:
        return None
    x = [0] * m.cols
    for pc, v in elim.column(aug).items():
        x[pc] = v
    return tuple(x)


# ---------------------------------------------------------------------------
# the dense Subspace algebra: `gflin` held a subspace's RREF basis as one
# (dim, n) int64 array and reduced against it by dense products, before the
# basis became CSR rows
# ---------------------------------------------------------------------------

def mulmod(a, b, p):
    """(a @ b) mod p for int64 arrays with entries in 0..p-1.

    The inner dimension is summed in chunks of at most
    (2^63 - p) // (p - 1)^2 terms, and the running sum is reduced mod p
    after each, so no int64 accumulator exceeds 2^63 - 1."""
    import numpy as np

    from supercoh.errors import UsageError

    step = (2 ** 63 - p) // (p - 1) ** 2
    if step < 1:
        raise UsageError(f"products mod {p} overflow int64")
    out = np.asarray(a[:, :step]) @ np.asarray(b[:step])
    out %= p
    for lo in range(step, a.shape[1], step):
        out += a[:, lo:lo + step] @ b[lo:lo + step]
        out %= p
    return out


def dense_eliminate(space, vecs):
    """(residues, coefficients) of the rows of a (k, n) int64 array against
    the Subspace ``space``: each row minus its pivot coordinates times the
    dense basis, and those coordinates."""
    import numpy as np

    vecs = np.asarray(vecs, dtype=np.int64) % space.p
    cs = vecs[:, list(space.pivots)]
    return (vecs - mulmod(cs, space.rows, space.p)) % space.p, cs


def dense_subspace_sum(a, b):
    """(rows, pivots) of a + b: the smaller basis reduced against the larger,
    its residues eliminated, and the larger basis cleared in their pivot
    columns by one dense product."""
    import numpy as np

    from supercoh.gflin import Subspace

    if b.dim > a.dim:
        a, b = b, a
    p = a.p
    res = Subspace.from_vectors(dense_eliminate(a, b.rows)[0],
                                a.ambient_dim, p)
    pivots = a.pivots + res.pivots
    at = np.argsort(np.argsort(pivots))  # merged position of each row
    rows = np.empty((len(pivots), a.ambient_dim), dtype=np.int64)
    rows[at[:a.dim]] = a.rows
    rows[at[a.dim:]] = res.rows
    cs = a.rows[:, list(res.pivots)]
    rows[at[:a.dim]] -= mulmod(cs, res.rows, p)
    return rows % p, sorted(pivots)


def dense_quotient_representatives(Z, B):
    """(rows, pivots) of the canonical representatives of Z/B, the Z rows at
    the pivots B lacks, or None when B is not contained in Z: B lies in Z
    exactly when each B row b_q is Z's row z_q plus its entries in the
    representatives' pivot columns times those rows (a dim B x n product)."""
    bpiv = set(B.pivots)
    at_b = [i for i, q in enumerate(Z.pivots) if q in bpiv]
    rest = [i for i, q in enumerate(Z.pivots) if q not in bpiv]
    reps, pivots = Z.rows[rest], [Z.pivots[i] for i in rest]
    if len(at_b) != B.dim:
        return None
    diff = (mulmod(B.rows[:, pivots], reps, Z.p) + Z.rows[at_b] - B.rows) % Z.p
    return None if diff.any() else (reps, pivots)


# ---------------------------------------------------------------------------
# the (f, w) pair model, one unit cochain at a time
# ---------------------------------------------------------------------------

def _lie_values(lie, vec, head):
    """The (dim M) x (dim g) matrix of x_b -> f(head..., x_b) for a Lie
    cochain f, one ``eval_lie_cochain`` call per column."""
    import numpy as np

    from supercoh.cohomology import eval_lie_cochain

    g = lie.g
    basis = lie.basis(len(head) + 1)
    out = np.zeros((lie.rep.dim, g.dim), dtype=np.int64)
    for b in range(g.dim):
        out[:, b] = eval_lie_cochain(basis, vec, head + (b,), g.p)
    return out


def psi_bar_per_unit(lie, h):
    """Psi-bar of one 1-cochain h: rows rho(x)^{p-1} h(x) - h(x^[p]) over
    the even basis x, as a (n_even, dim M) array."""
    import numpy as np

    from supercoh.gflin import matpow

    g, rep, p = lie.g, lie.rep, lie.g.p
    hmat = _lie_values(lie, h, ())
    vals = [(matpow(rep.mats[i], p - 1, p) @ hmat[:, i]
             - hmat @ g.pmap_basis(i)) % p for i in g.space.even_indices()]
    return np.array(vals, dtype=np.int64).reshape(-1, rep.dim)


def obstruction_per_unit(lie, fvec, x_idx):
    """k_x + f_{x^[p]} of one 2-cochain f in C^1 coordinates, written back
    value by value through the C^1 basis index."""
    from supercoh.errors import InvariantViolationError
    from supercoh.gflin import matpow

    g, rep, p = lie.g, lie.rep, lie.g.p
    c1 = lie.basis(1)
    out = [0] * c1.dim
    adx, rho = g.ad_basis(x_idx), rep.mats[x_idx]
    fx = _lie_values(lie, fvec, (x_idx,))
    kx = sum(matpow(rho, i, p) @ ((fx @ matpow(adx, p - 1 - i, p)) % p)
             for i in range(p))
    pm = g.pmap_basis(x_idx)
    for b in range(g.dim):
        val = (kx[:, b] + _lie_values(lie, fvec, (b,)) @ pm) % p
        for nu, v in enumerate(val):
            if v:
                item = ((b,), (), nu) if g.parity(b) == 0 else ((), (b,), nu)
                col = c1.index.get(item)
                if col is None:
                    raise InvariantViolationError("obstruction value breaks parity")
                out[col] = int(v)
    return tuple(out)


def odd_cube_per_unit(lie, fvec):
    """The p = 3 odd-cube sums of E_f for one 2-cochain f: E_f is g (+) M
    with the bracket of the semidirect product plus f(x_a, x_b) on g x g,
    built without validation, and for odd basis i <= j <= k of g the M-part
    of the sum of [y_a, [y_b, y_c]] over the distinct orderings (a, b, c),
    formed in E_f as ``validate_lie_super`` forms it; one dim-M block per
    triple, flattened, and empty unless p = 3."""
    import numpy as np

    from supercoh.superalg import LieSuperAlgebra, semidirect

    g, p = lie.g, lie.g.p
    E0, layout = semidirect(g, lie.rep)
    gs, ms = layout.positions()
    brk = E0.brackets.copy()
    for a in range(g.dim):
        brk[gs[a], gs[:, None], ms] += _lie_values(lie, fvec, (a,)).T
    E = LieSuperAlgebra(E0.space, p, brk)
    odds = g.space.odd_indices() if p == 3 else ()
    out = []
    for ijk in itertools.combinations_with_replacement(odds, 3):
        total = sum(E.bracket(E.basis_vector(gs[a]), E.brackets[gs[b], gs[c]])
                    for a, b, c in set(itertools.permutations(ijk)))
        out.extend(int(v) % p for v in total[ms])
    return out


def bar_h2_by_nullspace(bar):
    """H^2_* of the bar complex ``bar`` as Ker d2 / Im d1, from the
    nullspace of the assembled bar d2: the reference for
    ``restricted_cohomology(bar, 2)``, which spans Z^2_* from B^2_* and the
    fills of the pair complex's classes and never builds d2."""
    from supercoh.cohomology import CohomologyResult
    return CohomologyResult.quotient(2, "restricted", bar.kernel(2),
                                     bar.image(1))


def pair_model_per_unit(lie):
    """(H^1_*, H^2_*) of the pair model C^0 -> C^1 -> C^2 + M^{n_even},
    with D1's Psi-bar block, D2's w rows and its p = 3 odd-cube rows built
    one unit cochain and one C^1 basis item at a time
    (``psi_bar_per_unit``, ``obstruction_per_unit``, ``odd_cube_per_unit``)."""
    from supercoh.cohomology import CohomologyResult
    from supercoh.gflin import MatGF, RowReduction, nullspace

    g, rep, p = lie.g, lie.rep, lie.g.p
    c1, n2, dm = lie.basis(1), lie.basis(2).dim, rep.dim
    evens = g.space.even_indices()
    ncols = n2 + len(evens) * dm

    def unit(n, k):
        return tuple(int(i == k) for i in range(n))

    d1 = lie.d(1).to_dense()
    cols = [tuple(d1[:, h]) + tuple(psi_bar_per_unit(lie, unit(c1.dim, h)).ravel())
            for h in range(c1.dim)]
    D1 = MatGF.from_columns(cols, ncols, p)
    d2, rows = lie.d(2), []
    for t, idx in enumerate(evens):
        w0 = n2 + t * dm
        kcols = [obstruction_per_unit(lie, unit(n2, c), idx) for c in range(n2)]
        for col, (ev, od, nu) in enumerate(c1.items):
            row = {c: k[col] for c, k in enumerate(kcols) if k[col]}
            for mu, v in enumerate(rep.mats[(ev + od)[0]][nu]):
                if v:
                    row[w0 + mu] = int(v)
            rows.append(row)
        rows.extend({w0 + mu: 1} for mu in rep.space.odd_indices())
    cubes = [odd_cube_per_unit(lie, unit(n2, c)) for c in range(n2)]
    rows.extend({c: cube[r] for c, cube in enumerate(cubes) if cube[r]}
                for r in range(len(cubes[0]) if cubes else 0))
    ent = d2.entries
    ent.update(((d2.rows + i, j), v) for i, row in enumerate(rows)
               for j, v in row.items())
    D2 = MatGF(d2.rows + len(rows), ncols, p, ent)
    assert D1.matmul(lie.d(0)).is_zero() and D2.matmul(D1).is_zero()
    red = RowReduction(D1)
    return (CohomologyResult.quotient(1, "pair", red.kernel, lie.image(0)),
            CohomologyResult.quotient(2, "pair", nullspace(D2), red.image))


# ---------------------------------------------------------------------------
# the axiom checks of a restricted Lie superalgebra, one index tuple at a time
# ---------------------------------------------------------------------------

def validate_lie_super_per_pair(g):
    """``superalg.validate_lie_super`` by loops over the basis: parity and
    skew per pair (i, j), Jacobi per triple, each bracket formed by
    ``LieSuperAlgebra.bracket``, and the p = 3 odd cubes per odd triple."""
    import numpy as np

    from supercoh.superalg import ValidationReport

    rep = ValidationReport("lie-superalgebra")
    n, p = g.dim, g.p
    par = g.space.parities()
    for i in range(n):
        for j in range(n):
            vec = g.brackets[i, j]
            target = (par[i] + par[j]) % 2
            for k in range(n):
                if vec[k] and par[k] != target:
                    rep.record("parity", (i, j, k),
                               f"[x_{i},x_{j}] has a component of wrong parity at {k}")
            sign = -1 if (par[i] and par[j]) else 1
            expect = (-sign * g.brackets[j, i]) % p
            if not np.array_equal(vec % p, expect):
                rep.record("skew", (i, j), "super skew-symmetry fails")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = g.bracket(g.basis_vector(i), g.brackets[j, k])
                rhs = g.bracket(g.brackets[i, j], g.basis_vector(k))
                sign = -1 if (par[i] and par[j]) else 1
                rhs = (rhs + sign * g.bracket(g.basis_vector(j), g.brackets[i, k])) % p
                if not np.array_equal(lhs, rhs):
                    rep.record("jacobi", (i, j, k), "super Jacobi identity fails")
    odds = g.space.odd_indices() if p == 3 else ()
    for ijk in itertools.combinations_with_replacement(odds, 3):
        if (sum(g.bracket(g.basis_vector(a), g.brackets[b, c])
                for a, b, c in set(itertools.permutations(ijk))) % p).any():
            rep.record("odd-cube", ijk, "[y, [y, y]] = 0 fails for odd y")
    return rep


def jacobson_terms_per_pair(g, x, y):
    """``superalg.jacobson_terms`` of one pair of even vectors: the
    polynomial in t carried as a dict {degree: vector} through p - 1
    brackets by ``LieSuperAlgebra.bracket``."""
    import numpy as np

    p = g.p
    x = np.asarray(x, dtype=np.int64) % p
    y = np.asarray(y, dtype=np.int64) % p
    poly = {0: x}
    for _ in range(p - 1):
        new = {}
        for d, vec in poly.items():
            bx = g.bracket(x, vec)
            if bx.any():
                new[d + 1] = (new.get(d + 1, 0) + bx) % p
            by = g.bracket(y, vec)
            if by.any():
                new[d] = (new.get(d, 0) + by) % p
        poly = {d: v for d, v in new.items() if np.asarray(v).any()}
    out = []
    for i in range(1, p):
        coeff = poly.get(i - 1)
        out.append(g.zero() if coeff is None else (pow(i, -1, p) * coeff) % p)
    return out


def validate_pmap_per_pair(g):
    """``superalg.validate_pmap`` by loops: ad(x^[p]) against ``matpow`` of
    ad(x) per even basis element, and the Jacobson sums of (x_i, x_j) and
    (x_j, x_i) per pair i < j from ``jacobson_terms_per_pair``."""
    import numpy as np

    from supercoh.gflin import matpow
    from supercoh.superalg import ValidationReport

    rep = ValidationReport("p-map")
    p = g.p
    for i in g.space.even_indices():
        if not np.array_equal(g.ad(g.pmap_basis(i)),
                              matpow(g.ad_basis(i), p, p)):
            rep.record("adp", (i,), f"ad(x_{i}^[p]) != ad(x_{i})^p")
    evens = g.space.even_indices()
    for a in range(len(evens)):
        for b in range(a + 1, len(evens)):
            i, j = evens[a], evens[b]
            fwd = sum(jacobson_terms_per_pair(
                g, g.basis_vector(i), g.basis_vector(j))) % p
            bwd = sum(jacobson_terms_per_pair(
                g, g.basis_vector(j), g.basis_vector(i))) % p
            if not np.array_equal(fwd, bwd):
                rep.record("additivity", (i, j),
                           "Jacobson sums disagree when the fold order is swapped")
    return rep
