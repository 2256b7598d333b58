import random
import sys

import numpy as np
import pytest

from supercoh.algfile import parse_algebra_dict
from supercoh.envelope import (
    UAlgebra, check_commutator_identities, gamma_map, linear_section_extend,
)
from supercoh.errors import (
    DegreeOverflowError, InvariantViolationError, NotInIdealError, UsageError,
)
from supercoh.superalg import semidirect

from conftest import fixture_algebra
from oracles import algebra_hom_extend, element_action


def test_pbw_counts(loaded_catalog):
    expected = {"a1-null": 3, "a3-heisenberg": 6, "a4-borel": 9,
                "a5-odd-line": 2, "a1-null-p5": 5, "a3-heisenberg-p5": 10}
    for entry_id, count in expected.items():
        e, g, modules = loaded_catalog[entry_id]
        u = UAlgebra(g)
        assert u.dim == count, entry_id
        assert len(u.aug_basis()) == count - 1, entry_id
        # sorted by (degree, lex)
        degs = [sum(m) for m in u.pbw_basis()]
        assert degs == sorted(degs)


def test_unit_and_scalars(loaded_catalog):
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    u = UAlgebra(g)
    x = u.generator(1)
    assert u.multiply(x, u.one()) == x == u.multiply(u.one(), x)
    assert u.power(x, 0) == u.one()
    assert x.scaled(3).is_zero()


def test_defining_relations(loaded_catalog):
    # x^p = x^[p] for even generators; y^2 = (1/2)[y,y] for odd ones
    for entry_id, (e, g, modules) in loaded_catalog.items():
        u = UAlgebra(g)
        for i in g.space.even_indices():
            assert u.power(u.generator(i), g.p) == u.from_vector(g.pmap_basis(i)), entry_id
        inv2 = pow(2, -1, g.p)
        for i in g.space.odd_indices():
            y = u.generator(i)
            assert u.multiply(y, y) == u.from_vector(g.brackets[i, i]).scaled(inv2), entry_id


def test_super_line_square_and_nilpotence(loaded_catalog):
    g, _ = fixture_algebra(loaded_catalog, "a3-heisenberg")
    u = UAlgebra(g)
    y = u.generator(1)
    # y^2 = (1/2) z = 2z over GF(3)
    assert (y * y).terms == {(1, 0): 2}
    assert u.power(y, 2 * g.p).is_zero()


def test_long_straightening_needs_no_recursion():
    """On the 4-dim torus at p = 17 with t^[p] = t, the word of
    t^16 (x) t^16 per generator sorts through 16 * 16 * 6 = 1536 swaps,
    more than Python's default recursion limit; t^32 = t^[p] t^15 = t^16."""
    names = ["t0", "t1", "t2", "t3"]
    g, _, _ = parse_algebra_dict({
        "p": 17, "even": names, "odd": [], "brackets": {},
        "pmap": {t: {t: 1} for t in names}, "modules": {}})
    assert 16 * 16 * 6 > sys.getrecursionlimit()
    u = UAlgebra(g)
    top = (16,) * 4
    assert u.monomial_product(top, top) == {top: 1}
    assert u.monomial_product((16, 0, 0, 1), (1, 0, 0, 16)) == {(1, 0, 0, 1): 1}


def test_associativity_fuzz(small_catalog):
    rng = random.Random(5)
    for entry_id, (e, g, modules) in small_catalog.items():
        u = UAlgebra(g)
        basis = u.pbw_basis()
        for _ in range(40):
            a, b, c = (u.monomial(rng.choice(basis)) for _ in range(3))
            assert u.multiply(u.multiply(a, b), c) == u.multiply(a, u.multiply(b, c)), entry_id


def test_commutator_identities_catalog(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = check_commutator_identities(g, trials=10, seed=17)
        assert rep.ok, (entry_id, rep.summary())


def test_truncated_mode_overflow(loaded_catalog):
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    U = UAlgebra(g, restricted=False)  # default bound p + 2 = 5
    h = U.generator(0)
    h4 = U.power(h, 4)
    assert list(h4.terms) == [(4, 0)]  # no p-th power reduction in U(g)
    with pytest.raises(DegreeOverflowError):
        U.multiply(U.power(h, 3), U.power(h, 3))
    with pytest.raises(UsageError):
        UAlgebra(g, restricted=True, degree_bound=4)


def test_truncated_vs_restricted_quotient(loaded_catalog):
    # straightening in U(g) then reducing x^p -> x^[p] must agree with u(g)
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    U = UAlgebra(g, restricted=False, degree_bound=6)
    u = UAlgebra(g)
    rng = random.Random(2)
    basis = [m for m in u.pbw_basis() if sum(m) <= 2]
    for _ in range(25):
        ma, mb = rng.choice(basis), rng.choice(basis)
        full = U.monomial_product(ma, mb)
        reduced = u.zero()
        for mono, c in full.items():
            reduced = reduced + _reduce_to_restricted(u, mono).scaled(c)
        assert reduced.terms == u.monomial_product(ma, mb), (ma, mb)


def _reduce_to_restricted(u, mono):
    out = u.one()
    for pos, e in enumerate(mono):
        gen = u.generator(u.gen_order[pos])
        for _ in range(e):
            out = u.multiply(out, gen)
    return out


def test_algebra_hom_extend_identity_and_zero(loaded_catalog):
    g, _ = fixture_algebra(loaded_catalog, "a3-heisenberg")
    u = UAlgebra(g)
    ident = algebra_hom_extend(u, u, [u.generator(i) for i in range(g.dim)])
    assert np.array_equal(ident.matrix(), np.eye(u.dim, dtype=np.int64))
    zero = algebra_hom_extend(u, u, [u.zero() for _ in range(g.dim)])
    for mono in u.aug_basis():
        assert zero.images[mono].is_zero()
    assert zero.images[u.unit_monomial()] == u.one()


def test_hom_extend_rejects_non_morphism(loaded_catalog):
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    u = UAlgebra(g)
    # swapping h and x does not preserve [h,x] = x
    with pytest.raises(UsageError):
        algebra_hom_extend(u, u, [u.generator(1), u.generator(0)])


def _projection_setup(loaded_catalog, entry_id="a1-null"):
    e, g, modules = loaded_catalog[entry_id]
    rep = modules["k"]
    E, layout = semidirect(g, rep)
    gen_order = [layout.g_to_e(i) for i in range(g.dim)] + \
                [layout.m_to_e(j) for j in range(rep.dim)]
    uE = UAlgebra(E, gen_order=gen_order)
    u = UAlgebra(g)
    proj_images = []
    for eidx in gen_order:
        kind, idx = layout.e_source(eidx)
        proj_images.append(u.generator(idx) if kind == "g" else u.zero())
    images_by_amb = [None] * E.dim
    for pos, amb in enumerate(uE.gen_order):
        images_by_amb[amb] = proj_images[pos]
    phi = algebra_hom_extend(uE, u, images_by_amb)
    sec_by_amb = [None] * g.dim
    for i in range(g.dim):
        sec_by_amb[i] = uE.generator(layout.g_to_e(i))
    psi = linear_section_extend(u, uE, sec_by_amb)
    return g, rep, E, layout, u, uE, phi, psi


def test_projection_hom_and_section(loaded_catalog):
    g, rep, E, layout, u, uE, phi, psi = _projection_setup(loaded_catalog)
    # phi' o psi' = identity on u(g)
    comp = (phi.matrix() @ psi.matrix()) % g.p
    assert np.array_equal(comp, np.eye(u.dim, dtype=np.int64))
    # dim ker phi' = dim u(E) - dim u(g)
    rank = np.linalg.matrix_rank(phi.matrix().astype(float))
    from supercoh.gflin import MatGF, nullspace
    ker = nullspace(MatGF.from_dense(phi.matrix(), g.p))
    assert ker.dim == uE.dim - u.dim
    # monomial images under the projection: m-free monomials map to
    # themselves, anything containing an m-generator dies
    for mono in uE.pbw_basis():
        img = phi.images[mono]
        mdeg = sum(e for pos, e in enumerate(mono)
                   if layout.e_source(uE.gen_order[pos])[0] == "m")
        if mdeg:
            assert img.is_zero()
        else:
            assert len(img.terms) == 1


def test_gamma_examples(loaded_catalog):
    g, rep, E, layout, u, uE, phi, psi = _projection_setup(loaded_catalog)
    m_amb = layout.m_to_e(0)
    m = uE.generator(m_amb)
    # a bare module generator maps to itself
    assert gamma_map(uE, u, layout, rep, m).tolist() == [1]
    # module-degree two contributes zero
    assert gamma_map(uE, u, layout, rep, uE.multiply(m, m)).tolist() == [0]
    # x * m with the trivial action contributes zero
    xm = uE.multiply(uE.generator(layout.g_to_e(0)), m)
    assert gamma_map(uE, u, layout, rep, xm).tolist() == [0]
    with pytest.raises(NotInIdealError):
        gamma_map(uE, u, layout, rep, uE.one())


def test_gamma_equivariance_fuzz(loaded_catalog):
    # gamma(u * w) = phi'(u) . gamma(w) for u of module-degree zero
    g, rep, E, layout, u, uE, phi, psi = _projection_setup(loaded_catalog, "a2-torus")
    rng = random.Random(8)
    m_amb = layout.m_to_e(0)
    gmonos = [mo for mo in uE.aug_basis()
              if all(layout.e_source(uE.gen_order[pos])[0] == "g"
                     for pos, e in enumerate(mo) if e)]
    for _ in range(25):
        w = uE.multiply(uE.monomial(rng.choice(gmonos)), uE.generator(m_amb))
        uu = uE.monomial(rng.choice(gmonos))
        lhs = gamma_map(uE, u, layout, rep, uE.multiply(uu, w))
        img = phi.apply(uu)
        rhs = element_action(u, rep, img, gamma_map(uE, u, layout, rep, w))
        assert lhs.tolist() == rhs.tolist()


def test_d_w_trivial_cases(loaded_catalog):
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    u = UAlgebra(g)
    h = u.generator(0)
    assert u.d_w(h, h).is_zero()
    # the unit commutes with everything
    hp = u.power(h, g.p - 1)
    assert u.d_w(hp, u.one()).is_zero()
    lhs = u.zero()
    for i in range(g.p):
        lhs = lhs + u.multiply(u.multiply(u.power(h, i), u.one()),
                               u.power(h, g.p - 1 - i))
    # sum x^i 1 x^{p-1-i} = p x^{p-1} = 0 = D_x^{p-1}(1)
    assert lhs.is_zero()


def _table_inputs():
    """(name, g): every catalog algebra, semidirect4's E = borel |x adjoint,
    a4-borel-adjoint at p = 5 and 7, and the entries with odd generators
    (a3, a5, a7) at p = 5 and 7."""
    from supercoh import catalog
    out = []
    for e in catalog.ENTRIES:
        g, modules, _ = parse_algebra_dict(e.data)
        out.append((e.entry_id, g))
        if e.entry_id == "a4-borel-adjoint":
            out.append(("semidirect4", semidirect(g, modules["adjoint"])[0]))
        if e.entry_id in ("a4-borel-adjoint", "a3-heisenberg", "a5-odd-line",
                          "a7-mixed-line"):
            for p in (5, 7):
                out.append((f"{e.entry_id}@p{p}",
                            parse_algebra_dict(dict(e.data, p=p))[0]))
    return out


def test_aug_product_table_matches_pairwise_straightening():
    """The table built from the generators' left multiplications equals,
    as sorted COO, the one that straightens every pair of aug monomials."""
    from oracles import aug_product_table
    for name, g in _table_inputs():
        got = np.stack(UAlgebra(g).aug_product_table(), axis=1).tolist()
        assert got == [list(t) for t in aug_product_table(UAlgebra(g))], name


def test_a_table_term_off_its_weight_raises(loaded_catalog):
    """On a4-borel, [h, x] = x, a straightening that answers h m with x m
    and x m with h m keeps parities but not weights under h, so the
    table's grade check raises."""
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    u = UAlgebra(g)
    straighten = u.monomial_product
    u.monomial_product = lambda ma, mb: straighten(ma[::-1], mb)
    with pytest.raises(InvariantViolationError, match="weight"):
        u.aug_product_table()


def test_aug_product_table_is_built_once_from_left_multiplications(
        loaded_catalog):
    """Building the table of u(g) straightens at most g.dim x dim u
    products (324 on semidirect4's algebra, against 6561 pairs), and the
    table is kept on the algebra, read-only."""
    _, g, modules = loaded_catalog["a4-borel-adjoint"]
    E, _ = semidirect(g, modules["adjoint"])
    u = UAlgebra(E)
    calls = []
    straighten = u.monomial_product

    def counted(ma, mb):
        calls.append((ma, mb))
        return straighten(ma, mb)

    u.monomial_product = counted
    table = u.aug_product_table()
    assert E.dim * u.dim == 324
    assert 0 < len(calls) <= E.dim * u.dim
    assert u.aug_product_table() is table and len(calls) <= 324
    assert not any(t.flags.writeable for t in table)


def _straightening_inputs():
    """(name, g): every catalog algebra, its semidirect product with each
    of its modules, and every ``tests/data`` algebra of dim <= 4 that the
    validator accepts (not ``odd-cube-p3``), at p = 3 and 5 where the file
    leaves p open."""
    import json
    from pathlib import Path

    from supercoh import catalog
    from supercoh.errors import ValidationError
    out = []
    for e in catalog.ENTRIES:
        g, modules, _ = parse_algebra_dict(e.data)
        out.append((e.entry_id, g))
        out += [(f"{e.entry_id}|x{name}", semidirect(g, rep)[0])
                for name, rep in modules.items()]
    for path in sorted(Path(__file__).parent.glob("data/*.json")):
        data = json.loads(path.read_text())
        for p in (data["p"],) if "p" in data else (3, 5):
            try:
                g = parse_algebra_dict(data, p)[0]
            except ValidationError:
                continue
            if g.dim <= 4:
                out.append((f"{path.stem}@p{p}", g))
    return out


STRAIGHTENING = _straightening_inputs()


@pytest.mark.parametrize("name,g", STRAIGHTENING,
                         ids=[name for name, _ in STRAIGHTENING])
def test_straightening_equals_the_word_rewriting_oracle(name, g):
    """The left-product engine gives the products of the word-rewriting
    oracle: the whole aug x aug product table of u(g), 100 random pairs of
    PBW monomials of u(g), and 100 random pairs of truncated U(g)'s
    monomials of total degree at most its bound p + 2."""
    from oracles import WordStraightener
    rng = random.Random(name)
    u = UAlgebra(g)
    oracle = WordStraightener(u)
    aug = u.aug_basis()
    index = {m: k for k, m in enumerate(aug)}
    want = sorted((a, b, index[m], c) for a, ma in enumerate(aug)
                  for b, mb in enumerate(aug)
                  for m, c in oracle.product(ma, mb).items())
    assert np.stack(u.aug_product_table(), axis=1).tolist() == [
        list(t) for t in want]
    basis = u.pbw_basis()
    for ma, mb in ((rng.choice(basis), rng.choice(basis)) for _ in range(100)):
        assert u.monomial_product(ma, mb) == oracle.product(ma, mb), (ma, mb)
    U = UAlgebra(g, restricted=False)
    oracle = WordStraightener(U)
    for _ in range(100):
        cut = [rng.randrange(U.degree_bound + 1) for _ in range(g.dim - 1)]
        degs = np.diff([0] + sorted(cut) + [U.degree_bound])
        mono = [min(d, 1) if par else d for d, par in zip(degs, U.pos_parity)]
        split = [rng.randrange(e + 1) for e in mono]
        ma = tuple(split)
        mb = tuple(e - s for e, s in zip(mono, split))
        assert U.monomial_product(ma, mb) == oracle.product(ma, mb), (ma, mb)


def test_left_products_and_actions_need_no_recursion():
    """In truncated U(g) of the abelian plane <a, b>, b a^N = a^N b is a
    chain of N left products b a^k, each waiting on b a^(k-1), and the
    action of a^N a chain of N matrices, N past Python's recursion
    limit."""
    from supercoh.superalg import Representation, SuperSpace
    n = sys.getrecursionlimit() + 100
    g, _, _ = parse_algebra_dict({
        "p": 3, "even": ["a", "b"], "odd": [], "brackets": {},
        "pmap": {"a": {}, "b": {}}, "modules": {}})
    U = UAlgebra(g, restricted=False, degree_bound=n + 1)
    assert U.monomial_product((0, 1), (n, 0)) == {(n, 1): 1}
    rep = Representation(g, SuperSpace(("m0", "m1"), ()),
                         [[[1, 1], [0, 1]], [[0, 0], [0, 0]]])
    assert U.action_matrix(rep, (n, 0)).tolist() == [[1, n % 3], [0, 1]]
