import collections
import itertools
import pathlib
import random
import types

import numpy as np
import pytest

from supercoh.cohomology import (
    CochainComplex, PairComplex, assoc_cochain_basis,
    assoc_differential_matrix, comparison_matrix, eval_lie_cochain,
    is_bar_2cocycle, lie_cochain_basis, lie_cohomology,
    lie_obstruction_matrix, lie_psi_bar_matrix, restricted_cohomology,
    sgn_marked,
)
from supercoh.envelope import UAlgebra
from supercoh.errors import InvariantViolationError, UsageError
from supercoh.gflin import (
    Eliminator, MatGF, RowReduction, Subspace, nullspace,
    quotient_representatives,
)
from supercoh import extensions, sixterm
from supercoh.sixterm import SixTermContext
from supercoh.superalg import (
    Representation, SuperSpace, adjoint_module, basis_torus, semidirect,
    trivial_module,
)

from conftest import fixture_algebra
from oracles import (
    bar_2cocycle_all_slices, bar_differential_rows, bar_dims,
    bar_h2_by_nullspace, dense_eliminate,
    image_by_columns, table_abelian_plane, table_borel,
    table_mixed_line, table_odd_line, table_super_line,
    table_torus_null_plane, table_truncated_poly,
)

# frozen fixture dimensions: entry -> (ordinary H^0..2, restricted H^0..2)
FIXTURE_DIMS = {
    "a1-null": ((1, 1, 0), (1, 1, 1)),
    "a2-torus": ((1, 1, 0), (1, 0, 0)),
    "a3-heisenberg": ((1, 0, 0), (1, 0, 1)),
    "a4-borel": ((1, 1, 0), (1, 0, 1)),
    "a1-null-p5": ((1, 1, 0), (1, 1, 1)),
    "a2-torus-p5": ((1, 1, 0), (1, 0, 0)),
    "a3-heisenberg-p5": ((1, 0, 0), (1, 0, 1)),
    "a5-odd-line": ((1, 0, 1), (1, 0, 1)),
    "a6-abelian-plane": ((1, 2, 1), (1, 2, 3)),
    "a7-mixed-line": ((1, 1, 0), (1, 0, 0)),
    "a8-torus-null-plane": ((1, 2, 1), (1, 1, 1)),
    "a9-borel-semidirect": ((1, 2, 1), (1, 1, 2)),
}


@pytest.mark.parametrize("entry_id", sorted(FIXTURE_DIMS))
def test_fixture_dimensions(loaded_catalog, entry_id):
    g, k = fixture_algebra(loaded_catalog, entry_id)
    want_lie, want_res = FIXTURE_DIMS[entry_id]
    lie, bar = CochainComplex(g, k, "lie"), CochainComplex(g, k, "bar")
    for n in (0, 1, 2):
        assert lie_cohomology(lie, n).dim_h == want_lie[n], (entry_id, "lie", n)
        assert restricted_cohomology(bar, n).dim_h == want_res[n], \
            (entry_id, "res", n)


ORACLE_TABLES = {
    "a1-null": lambda p: table_truncated_poly(p, nilpotent=True),
    "a2-torus": lambda p: table_truncated_poly(p, nilpotent=False),
    "a3-heisenberg": table_super_line,
    "a4-borel": table_borel,
    "a5-odd-line": table_odd_line,
    "a6-abelian-plane": table_abelian_plane,
    "a7-mixed-line": table_mixed_line,
    "a8-torus-null-plane": table_torus_null_plane,
    "a1-null-p5": lambda p: table_truncated_poly(p, nilpotent=True),
    "a2-torus-p5": lambda p: table_truncated_poly(p, nilpotent=False),
    "a3-heisenberg-p5": table_super_line,
}


@pytest.mark.parametrize("entry_id", sorted(ORACLE_TABLES))
def test_restricted_dims_against_independent_tables(loaded_catalog, entry_id):
    """The bar-complex dimensions recomputed from hand-coded multiplication
    tables with a standalone dense eliminator."""
    g, k = fixture_algebra(loaded_catalog, entry_id)
    labels, parities, prod = ORACLE_TABLES[entry_id](g.p)
    assert len(labels) == UAlgebra(g).dim - 1
    bar = CochainComplex(g, k, "bar")
    for n in (1, 2):
        _, _, dim_h = bar_dims(labels, parities, prod, g.p, n)
        assert restricted_cohomology(bar, n).dim_h == dim_h, (entry_id, n)


def test_restricted_dims_oracle_with_module(loaded_catalog):
    # the borel algebra on its adjoint module, action table hand-written
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    rep = loaded_catalog["a4-borel"][2]["adjoint"]
    p = g.p
    labels, parities, prod = table_borel(p)
    ad_h = [[0, 0], [0, 1]]
    ad_x = [[0, 0], [-1 % p, 0]]

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(2)) % p for j in range(2)]
                for i in range(2)]

    action = {}
    for (a, b) in labels:
        mat = [[1, 0], [0, 1]]
        for _ in range(a):
            mat = matmul(mat, ad_h)
        for _ in range(b):
            mat = matmul(mat, ad_x)
        action[(a, b)] = mat
    bar = CochainComplex(g, rep, "bar")
    for n in (1, 2):
        _, _, dim_h = bar_dims(labels, parities, prod, p, n,
                               module_action=action, module_parities=(0, 0))
        assert restricted_cohomology(bar, n).dim_h == dim_h, n


def test_delta_squared_zero_catalog(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        u, lie = UAlgebra(g), CochainComplex(g, rep, "lie")
        for n in (0, 1):
            dl = lie.d(n + 1).matmul(lie.d(n))
            assert dl.is_zero(), (entry_id, "lie", n)
            da = assoc_differential_matrix(u, rep, n + 1).matmul(
                assoc_differential_matrix(u, rep, n))
            assert da.is_zero(), (entry_id, "bar", n)


def test_specific_differential_values(loaded_catalog):
    # super line: delta(z*) = -(yy)*
    g, k = fixture_algebra(loaded_catalog, "a3-heisenberg")
    b1 = lie_cochain_basis(g, k.space, 1)
    b2 = lie_cochain_basis(g, k.space, 2)
    d1 = CochainComplex(g, k, "lie").d(1)
    zstar = [0] * b1.dim
    zstar[b1.index[((0,), (), 0)]] = 1
    img = d1.matvec(zstar)
    yy = b2.index[((), (1, 1), 0)]
    assert img[yy] == 2  # -1 mod 3
    assert sum(1 for v in img if v) == 1
    # borel: delta(x*)(h, x) = -x*([h,x]) = -1
    g4, k4 = fixture_algebra(loaded_catalog, "a4-borel")
    c1 = lie_cochain_basis(g4, k4.space, 1)
    c2 = lie_cochain_basis(g4, k4.space, 2)
    xstar = [0] * c1.dim
    xstar[c1.index[((1,), (), 0)]] = 1
    img = CochainComplex(g4, k4, "lie").d(1).matvec(xstar)
    assert img[c2.index[((0, 1), (), 0)]] == 2


def test_bar_differential_values(loaded_catalog):
    # k[x]/(x^3): delta f(x, x) = -f(x^2); (x, x^2) dies; torus: -f(x)
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    u = UAlgebra(g)
    cb1 = assoc_cochain_basis(u, k.space, 1)
    cb2 = assoc_cochain_basis(u, k.space, 2)
    d1 = assoc_differential_matrix(u, k, 1)
    x = cb1.aug_index[(1,)]
    x2 = cb1.aug_index[(2,)]
    f_x2 = [0] * cb1.dim
    f_x2[cb1.index[((x2,), 0)]] = 1
    img = d1.matvec(f_x2)
    assert img[cb2.index[((x, x), 0)]] == 2
    assert sum(1 for v in img if v) == 1
    f_x = [0] * cb1.dim
    f_x[cb1.index[((x,), 0)]] = 1
    assert not any(d1.matvec(f_x))
    gt, kt = fixture_algebra(loaded_catalog, "a2-torus")
    ut = UAlgebra(gt)
    cb1t = assoc_cochain_basis(ut, kt.space, 1)
    cb2t = assoc_cochain_basis(ut, kt.space, 2)
    ft = [0] * cb1t.dim
    ft[cb1t.index[((cb1t.aug_index[(1,)],), 0)]] = 1
    img = assoc_differential_matrix(ut, kt, 1).matvec(ft)
    assert img[cb2t.index[((cb1t.aug_index[(1,)], cb1t.aug_index[(2,)]), 0)]] == 2


def test_bar_differential_matches_row_oracle(loaded_catalog):
    """The vectorized bar differential equals the row-by-row oracle in
    degrees 0..2 on every catalog module, on the adjoint modules of the
    entries with odd generators (odd module coordinates, odd actions) and
    on the semidirect products g |x k of the entries of dimension <= 2."""
    cases = []
    for entry_id, (e, g, modules) in loaded_catalog.items():
        cases += [(f"{entry_id}:{name}", g, rep) for name, rep in modules.items()]
        if g.space.odd_indices():
            cases.append((f"{entry_id}:adjoint", g, adjoint_module(g)))
        if g.dim <= 2:
            E, _ = semidirect(g, modules["k"])
            cases.append((f"{entry_id}|xk", E, trivial_module(E)))
    assert any(rep.space.odd_indices() for _, _, rep in cases)
    for label, g, rep in cases:
        u = UAlgebra(g)
        for n in (0, 1, 2):
            rows = bar_differential_rows(u, rep, n)
            want = MatGF.from_rows(rows, assoc_cochain_basis(u, rep.space, n).dim, g.p)
            assert assoc_differential_matrix(u, rep, n) == want, (label, n)


def _bar_check_cases(loaded_catalog):
    """(label, g, M) for every catalog module and the adjoint modules of
    the entries with odd generators (rho != 0, odd module coordinates)."""
    cases = []
    for entry_id, (e, g, modules) in loaded_catalog.items():
        cases += [(f"{entry_id}:{name}", g, rep) for name, rep in modules.items()]
        if g.space.odd_indices():
            cases.append((f"{entry_id}:adjoint", g, adjoint_module(g)))
    return cases


def test_is_bar_2cocycle_agrees_with_the_d2(loaded_catalog):
    """The generator-slice cocycle check says yes exactly when the assembled
    bar d2 kills the cochain, and so does the all-slices oracle: on random
    cochains, d1-images, Ker d2 vectors and Ker d2 vectors with one entry
    changed, over every catalog module and the adjoint modules of the
    entries with odd generators."""
    rng = random.Random(8)
    verdicts = collections.Counter()
    for label, g, rep in _bar_check_cases(loaded_catalog):
        p = g.p
        bar = CochainComplex(g, rep, "bar")
        d1, d2 = bar.d(1), bar.d(2)
        n1, n2 = bar.basis(1).dim, bar.basis(2).dim
        vecs = [[rng.randrange(p) for _ in range(n2)] for _ in range(2)]
        vecs += [d1.matvec([rng.randrange(p) for _ in range(n1)])
                 for _ in range(2)]
        for z in nullspace(d2).basis_rows[:3]:
            vecs.append(z)
            bent = list(z)
            k = rng.randrange(n2)
            bent[k] = (bent[k] + 1) % p
            vecs.append(bent)
        for c in vecs:
            want = not any(d2.matvec(c))
            assert is_bar_2cocycle(bar, c) == want, label
            assert bar_2cocycle_all_slices(bar, c) == want, label
            verdicts[(want, bool(rep.space.odd_indices()))] += 1
    assert set(verdicts) == {(a, b) for a in (True, False) for b in (True, False)}
    with pytest.raises(UsageError, match="length"):
        is_bar_2cocycle(bar, [0] * (n2 + 1))


def test_is_bar_2cocycle_agrees_with_all_slices_on_semidirect4(
        loaded_catalog, monkeypatch):
    """On a4-borel-adjoint |x adjoint with trivial M (|aug| = 80, of which 4
    are generator slices) the check agrees with the all-slices oracle, with
    no d2 built: on random cochains, d1-images, the four fg cocycles of its
    report (Ker d2 vectors) and each of those with one entry changed, the
    k-th one in the generator row of x_k, one at a time and as one stack;
    on the stack of fg cocycles with the third one bent where only the
    product term c(s_1, s_2 s_3) reads it (a stack's values are not
    C-contiguous, so that term must not be added through a reshaped view);
    and on an empty stack.  The bar differentials built are those of
    degrees 0 and 1 only."""
    from supercoh import cohomology
    degrees = set()

    def counted(ualg, rep, n, *rest, _real=cohomology.assoc_differential_matrix):
        degrees.add(n)
        return _real(ualg, rep, n, *rest)
    monkeypatch.setattr(cohomology, "assoc_differential_matrix", counted)
    rng = random.Random(10)
    g, modules = loaded_catalog["a4-borel-adjoint"][1:]
    E, _ = semidirect(g, modules["adjoint"])
    rep = trivial_module(E)
    ctx = SixTermContext(E, rep)
    bar, p = ctx.bar, E.p
    aug = bar.ualg.aug_basis()
    index = assoc_cochain_basis(bar.ualg, rep.space, 2).index
    n1, n2 = bar.d(0).rows, bar.d(1).rows
    vecs = [[rng.randrange(p) for _ in range(n2)] for _ in range(2)]
    vecs += [bar.d(1).matvec([rng.randrange(p) for _ in range(n1)])
             for _ in range(2)]
    gens = [k for k, m in enumerate(aug) if sum(m) == 1]
    assert len(gens) == len(ctx.fg_cocycles) == 4
    for x, z in zip(gens, ctx.fg_cocycles):
        vecs.append(z)
        bent = list(z)
        k = index[((x, rng.randrange(len(gens), len(aug))), 0)]
        bent[k] = (bent[k] + 1) % p
        vecs.append(bent)
    want = [bar_2cocycle_all_slices(bar, c) for c in vecs]
    assert [is_bar_2cocycle(bar, c) for c in vecs] == want
    assert want == [False] * 2 + [True] * 2 + [True, False] * 4
    assert is_bar_2cocycle(bar, np.array(vecs)).tolist() == want
    # a generator x that is no term of a product x_k s (the module is
    # trivial, so no action term reads c either) has its row c(x, .) read
    # by the product term c(x_k, s_2 s_3) alone: bend it at a product term
    a, _, w, _ = bar.ualg.aug_product_table()
    x = min(set(gens) - set(w[np.isin(a, gens)].tolist()))
    bent = np.array(ctx.fg_cocycles)
    bent[2, index[((x, int(w[0])), 0)]] += 1
    assert not bar_2cocycle_all_slices(bar, bent[2])
    assert is_bar_2cocycle(bar, bent).tolist() == [True, True, False, True]
    assert is_bar_2cocycle(bar, np.zeros((0, n2), dtype=np.int64)).shape == (0,)
    assert degrees == {0, 1}


def test_generator_rows_of_the_bar_d2_cut_out_its_kernel(loaded_catalog):
    """The reduction behind ``is_bar_2cocycle``, on the assembled d2: its
    rows (x, s_2, s_3, nu) with x a degree-1 monomial have the same kernel
    as d2 itself, so every cochain c with d2 c != 0 has a nonzero entry of
    d2 c in a generator row.  Over every catalog module and the adjoint
    modules of the entries with odd generators; rows are matched to their
    arguments through the degree-3 basis."""
    fewer = 0
    for label, g, rep in _bar_check_cases(loaded_catalog):
        bar = CochainComplex(g, rep, "bar")
        d2 = bar.d(2)
        aug = bar.ualg.aug_basis()
        items = assoc_cochain_basis(bar.ualg, rep.space, 3).items
        assert len(items) == d2.rows, label
        gen = np.array([sum(aug[tup[0]]) == 1 for tup, nu in items], dtype=bool)
        fewer += not gen.all()
        # the generator rows of d2, read off its CSR arrays
        row = np.repeat(np.arange(d2.rows), np.diff(d2.indptr))
        on = gen[row]
        gen_d2 = MatGF.from_terms(int(gen.sum()), d2.cols, g.p,
                                  (np.cumsum(gen) - 1)[row[on]],
                                  d2.indices[on], d2.data[on])
        assert nullspace(gen_d2) == nullspace(d2), label
    assert fewer


def test_bar_differential_invariant_checks(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    # an even x sending the odd n to the even m is not a super module
    bad = Representation(g, SuperSpace(("m",), ("n",)),
                         [np.array([[0, 1], [0, 0]], dtype=np.int64)])
    with pytest.raises(InvariantViolationError, match="parity"):
        assoc_differential_matrix(UAlgebra(g), bad, 1)
    with pytest.raises(InvariantViolationError, match="parity"):
        CochainComplex(g, bad, "lie").d(0)
    u = UAlgebra(g)
    u.monomial_product = lambda ma, mb: {u.unit_monomial(): 1}
    with pytest.raises(InvariantViolationError, match="unit"):
        assoc_differential_matrix(u, k, 1)


def test_weight_zero_bar_differentials_refuse_a_module_that_breaks_weights(
        loaded_catalog):
    """On a4-borel, [h, x] = x, a module where h acts as diag(0, 1) but x
    sends the weight-1 vector m1 to itself (x m1 should have weight 2) is
    no representation.  Built without validation, its weight-zero bar d0
    and d1 raise: every d0 term from the one weight-0 column m0 is zero,
    so only the up-front check of the action's grades catches d0."""
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    bad = Representation(g, SuperSpace(("m0", "m1"), ()),
                         [np.diag([0, 1]), np.array([[0, 0], [0, 1]])])
    w0 = CochainComplex(g, bad, "bar").weight_zero()
    assert w0.torus == (0,) and w0.basis(0).dim == 1
    for n in (0, 1):
        with pytest.raises(InvariantViolationError, match="weight"):
            w0.d(n)


def test_a_bar_term_that_leaves_the_complex_raises(loaded_catalog):
    """The a1-null bar d1 with k has the term f(x^2) at the row (x, x); a
    lookup that leaves that row out of the complex, as no parity or weight
    would, makes the term from the column x^2 leave the complex."""
    from supercoh.cohomology import _bar_lookup
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    u = UAlgebra(g)
    A, x = len(u.aug_basis()), u.aug_index()[(1,)]

    def lookup(n):
        out = _bar_lookup(u, k, n)
        if n == 2:
            out[x * A + x] = -1
        return out
    assert assoc_differential_matrix(u, k, 1).to_dense()[x * A + x].any()
    with pytest.raises(InvariantViolationError, match="leaves the complex"):
        assoc_differential_matrix(u, k, 1, lookup)


def test_hand_elimination_a1_bar_spaces(loaded_catalog):
    # frozen from the k[x]/(x^3) elimination: Z^1 = {f(x^2) = 0},
    # Z^2 = {f(x,x^2) = f(x^2,x), f(x^2,x^2) = 0}, B^2 one-dimensional
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    bar = CochainComplex(g, k, "bar")
    z1 = restricted_cohomology(bar, 1)
    assert z1.Z.dim == 1 and z1.B.dim == 0
    u = UAlgebra(g)
    cb1 = assoc_cochain_basis(u, k.space, 1)
    x2col = cb1.index[((cb1.aug_index[(2,)],), 0)]
    for row in z1.Z.basis_rows:
        assert row[x2col] == 0
    z2 = restricted_cohomology(bar, 2)
    assert z2.Z.dim == 2 and z2.B.dim == 1
    cb2 = assoc_cochain_basis(u, k.space, 2)
    x, x2 = cb1.aug_index[(1,)], cb1.aug_index[(2,)]
    for row in z2.Z.basis_rows:
        assert row[cb2.index[((x, x2), 0)]] == row[cb2.index[((x2, x), 0)]]
        assert row[cb2.index[((x2, x2), 0)]] == 0


def test_sgn_marked():
    assert sgn_marked((1, 2, 3), 2) == 1
    for sigma in itertools.permutations((1, 2, 3)):
        inv = sum(1 for a in range(3) for b in range(a + 1, 3)
                  if sigma[a] > sigma[b])
        assert sgn_marked(sigma, 3) == (-1) ** inv
        assert sgn_marked(sigma, 0) == 1


def test_comparison_values(loaded_catalog):
    # degree 1: plain restriction
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    u = UAlgebra(g)
    c1 = comparison_matrix(CochainComplex(g, k, "bar"),
                           CochainComplex(g, k, "lie"), 1)
    cb1 = assoc_cochain_basis(u, k.space, 1)
    lb1 = lie_cochain_basis(g, k.space, 1)
    vec = [0] * cb1.dim
    vec[cb1.index[((cb1.aug_index[(1,)],), 0)]] = 1
    out = c1.matvec(vec)
    assert out[lb1.index[((0,), (), 0)]] == 1
    # degree 2, both arguments even: f(x1,x2) = c(x1,x2) - c(x2,x1)
    g6, k6 = fixture_algebra(loaded_catalog, "a6-abelian-plane")
    u6 = UAlgebra(g6)
    cb2 = assoc_cochain_basis(u6, k6.space, 2)
    lb2 = lie_cochain_basis(g6, k6.space, 2)
    m1 = cb2.aug_index[(1, 0)]
    m2 = cb2.aug_index[(0, 1)]
    vec = [0] * cb2.dim
    vec[cb2.index[((m1, m2), 0)]] = 1
    comp6 = comparison_matrix(CochainComplex(g6, k6, "bar"),
                              CochainComplex(g6, k6, "lie"), 2)
    out = comp6.matvec(vec)
    assert out[lb2.index[((0, 1), (), 0)]] == 1
    vec2 = [0] * cb2.dim
    vec2[cb2.index[((m2, m1), 0)]] = 1
    out2 = comp6.matvec(vec2)
    assert out2[lb2.index[((0, 1), (), 0)]] == 2
    # degree 2, both odd: f(y,y) = 2 c(y,y)
    g5, k5 = fixture_algebra(loaded_catalog, "a5-odd-line")
    u5 = UAlgebra(g5)
    cb5 = assoc_cochain_basis(u5, k5.space, 2)
    lb5 = lie_cochain_basis(g5, k5.space, 2)
    y = cb5.aug_index[(1,)]
    vec = [0] * cb5.dim
    vec[cb5.index[((y, y), 0)]] = 1
    out = comparison_matrix(CochainComplex(g5, k5, "bar"),
                            CochainComplex(g5, k5, "lie"), 2).matvec(vec)
    assert out[lb5.index[((), (0, 0), 0)]] == 2


def test_complex_must_belong_to_the_pair(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    gt, kt = fixture_algebra(loaded_catalog, "a2-torus")
    with pytest.raises(UsageError):
        CochainComplex(g, k, "restricted")
    with pytest.raises(UsageError):
        restricted_cohomology(CochainComplex(g, k, "lie"), 1)
    with pytest.raises(UsageError):
        lie_cohomology(CochainComplex(g, k, "bar"), 1)
    with pytest.raises(UsageError):
        comparison_matrix(CochainComplex(g, k, "bar"),
                          CochainComplex(gt, kt, "lie"), 1)


# every function that takes a complex, called on the complexes ``c.lie``,
# ``c.bar`` and ``c.pair`` (the pair complex on ``c.lie``) of one (g, M),
# its trivial extension ``c.ext`` and zero cochains; the ones that also
# take a second object name the complexes a case may swap for another
# pair's
COMPLEX_CALLS = {
    "lie_cohomology": lambda c: lie_cohomology(c.lie, 1),
    "restricted_cohomology": lambda c: restricted_cohomology(c.bar, 1),
    "restricted_cohomology of the pair complex":
        lambda c: restricted_cohomology(c.pair, 1),
    "PairComplex": lambda c: PairComplex(c.lie),
    "comparison_matrix": lambda c: comparison_matrix(c.bar, c.lie, 1),
    "is_bar_2cocycle": lambda c: is_bar_2cocycle(c.bar, c.bar2),
    "algebra_ext_from_2cocycle":
        lambda c: extensions.algebra_ext_from_2cocycle(c.lie, c.lie2),
    "restricted_structure_from_lie_2cocycle":
        lambda c: extensions.restricted_structure_from_lie_2cocycle(
            c.lie, c.lie2),
    "restricted_ext_from_assoc_2cocycle":
        lambda c: extensions.restricted_ext_from_assoc_2cocycle(
            c.bar, c.lie, c.bar2),
    "assoc_2cocycle_from_restricted_ext":
        lambda c: extensions.assoc_2cocycle_from_restricted_ext(c.ext, c.bar),
    "psi_twist_of_cocycle":
        lambda c: extensions.psi_twist_of_cocycle(c.ext, c.lie, c.lie1),
    "psi_bar_on_cocycle": lambda c: sixterm.psi_bar_on_cocycle(c.lie, c.lie1),
    "obstruction_cocycle":
        lambda c: sixterm.obstruction_cocycle(c.lie, c.lie2, 0),
    "cocycle_from_algebra_ext":
        lambda c: extensions.cocycle_from_algebra_ext(c.ext, c.lie),
    "automorphism_from_1cocycle":
        lambda c: extensions.automorphism_from_1cocycle(c.ext, c.lie, c.lie1),
    "are_equivalent_restricted":
        lambda c: extensions.are_equivalent_restricted(c.ext, c.ext, c.lie),
}
PAIRED = {
    "comparison_matrix": ("lie", "bar"),
    "restricted_ext_from_assoc_2cocycle": ("lie", "bar"),
    "assoc_2cocycle_from_restricted_ext": ("bar",),
    "psi_twist_of_cocycle": ("lie",),
    "cocycle_from_algebra_ext": ("lie",),
    "automorphism_from_1cocycle": ("lie",),
    "are_equivalent_restricted": ("lie",),
}
# a call takes ``c.lie`` or ``c.bar`` when that name is among the names
# its code reads; the bar complex of ``restricted_cohomology`` is the one
# a pair complex may stand in for
COMPLEX_CASES = [(name, "wrong kind") for name in COMPLEX_CALLS] + [
    (name, f"{other}'s {kind}") for name, kinds in PAIRED.items()
    for kind in kinds for other in ("a2-torus", "a4-borel adjoint")] + [
    (name, f"pair complex for {kind}") for name, call in COMPLEX_CALLS.items()
    for kind in ("lie", "bar") if kind in call.__code__.co_names
    and name != "restricted_cohomology"]


def _complex_args(loaded_catalog, entry_id, module="k"):
    g, rep = fixture_algebra(loaded_catalog, entry_id, module)
    lie, bar = CochainComplex(g, rep, "lie"), CochainComplex(g, rep, "bar")
    return types.SimpleNamespace(
        lie=lie, bar=bar, pair=PairComplex(lie),
        ext=extensions.semidirect_extension(g, rep),
        lie1=(0,) * lie.basis(1).dim, lie2=(0,) * lie.basis(2).dim,
        bar2=(0,) * bar.d(1).rows)


@pytest.mark.parametrize("name, case", COMPLEX_CASES)
def test_functions_taking_a_complex_reject_a_foreign_one(loaded_catalog,
                                                        name, case):
    """Each function runs on the complexes of its own (g, M) and raises
    UsageError for a complex of the wrong kind (Lie and bar swapped, the
    Lie complex for the pair complex), for the pair complex of its (g, M)
    in place of its Lie or bar complex (``restricted_cohomology`` takes
    either a bar or a pair complex), and, where it also receives a second
    object, for a complex of another algebra or of another module of the
    same algebra."""
    call = COMPLEX_CALLS[name]
    args = _complex_args(loaded_catalog, "a4-borel")
    call(args)
    if case == "wrong kind":
        args.lie, args.bar, args.pair = args.bar, args.lie, args.lie
    elif case.startswith("pair complex for "):
        setattr(args, case.rpartition(" ")[2], args.pair)
    else:
        other, kind = case.split("'s ")
        entry_id, _, module = other.partition(" ")
        setattr(args, kind, getattr(
            _complex_args(loaded_catalog, entry_id, module or "k"), kind))
    with pytest.raises(UsageError, match=r"complex of this \(g, M\)"):
        call(args)


def test_with_module_shares_u_g(loaded_catalog):
    """``with_module`` gives the complex of another module of the same g on
    the same u(g): its bar d1 equals that of a complex built from scratch,
    and a module of another algebra is refused."""
    _, g, modules = loaded_catalog["a4-borel-adjoint"]
    bar = CochainComplex(g, modules["k"], "bar")
    other = bar.with_module(modules["adjoint"])
    assert other.ualg is bar.ualg and other.rep is modules["adjoint"]
    assert other.d(1) == CochainComplex(g, modules["adjoint"], "bar").d(1)
    assert other.kind == "bar" and bar.rep is modules["k"]
    _, k = fixture_algebra(loaded_catalog, "a1-null")
    with pytest.raises(UsageError, match="module"):
        bar.with_module(k)


def _kept_objects(cx):
    """Every object the complex cx keeps, built through its public readers:
    bases, differentials, cocycle rows, kernels and images of degrees
    0..2, the values of one cochain of each degree 1..2 (its layouts), and
    for the Lie kind Psi-bar and the obstructions, for the bar kind the
    parity lookups and seed positions.  Arrays as lists, for ==."""
    kept = {}
    for n in (0, 1, 2):
        kept[n] = (cx.basis(n).items, cx.d(n), cx.cocycle_rows(n),
                   cx.kernel(n), cx.image(n) if n < 2 else None)
    if cx.kind == "pair":
        return kept
    for n in (1, 2):
        vec = np.arange(cx.basis(n).dim) % cx.g.p
        kept["values", n] = cx.cochain_array(vec, n).tolist()
    if cx.kind == "lie":
        kept["Psi-bar"] = lie_psi_bar_matrix(cx)
        kept["obstructions"] = [lie_obstruction_matrix(cx, x)
                                for x in cx.g.space.even_indices()]
    else:
        kept["lookups"] = [cx.parity_lookup(n).tolist() for n in (0, 1, 2, 3)]
        kept["seeds"] = cx.seed_positions()
    return kept


@pytest.mark.parametrize("entry_id", ["a3-heisenberg", "a4-borel",
                                      "a7-mixed-line"])
def test_with_module_rebuilds_every_kept_object(loaded_catalog, entry_id):
    """A Lie, a bar and a pair complex of (g, k) with every object it keeps
    built: ``with_module(adjoint_module(g))`` rebuilds each of them as a
    complex of the adjoint module built afresh does, none is the old
    module's, and the bar complex hands on its seed plan, which depends on
    u(g) only, as the same object."""
    g, k = fixture_algebra(loaded_catalog, entry_id)
    adjoint = adjoint_module(g)
    for kind in ("lie", "bar", "pair"):
        if kind == "pair":
            cx, fresh = (PairComplex(CochainComplex(g, rep, "lie"))
                         for rep in (k, adjoint))
        else:
            cx, fresh = (CochainComplex(g, rep, kind) for rep in (k, adjoint))
        old = _kept_objects(cx)
        other = cx.with_module(adjoint)
        rebuilt = _kept_objects(other)
        assert rebuilt == _kept_objects(fresh), (entry_id, kind)
        assert all(rebuilt[n] != old[n] for n in (0, 1, 2)), (entry_id, kind)
        if kind == "bar":
            assert other._seed_plan() is cx._seed_plan()
            assert other.ualg is cx.ualg


def _layout_cases(loaded_catalog):
    """Bar complexes of super entries with their trivial module and of an
    algebra with its adjoint module."""
    for entry_id, module in (("a3-heisenberg", "k"), ("a5-odd-line", "k"),
                             ("a3-heisenberg-adjoint", "adjoint"),
                             ("a4-borel", "adjoint")):
        g, rep = fixture_algebra(loaded_catalog, entry_id, module)
        yield entry_id, CochainComplex(g, rep, "bar")


def test_cochain_array_and_vector_are_inverse(loaded_catalog):
    """``cochain_vector(cochain_array(v)) == v`` for random 2-cochains v;
    the k-th unit vector has its one value at the k-th item (u, v, nu) of
    ``assoc_cochain_basis``; an array the wrong shape or with a value on an
    odd cochain is refused."""
    rng = random.Random(5)
    with_odd = set()
    for entry_id, bar in _layout_cases(loaded_catalog):
        p, basis = bar.g.p, bar.basis(2)
        for _ in range(3):
            vec = tuple(rng.randrange(p) for _ in range(basis.dim))
            c = bar.cochain_array(vec)
            assert c.shape == (len(basis.aug), len(basis.aug), bar.rep.dim)
            assert tuple(bar.cochain_vector(c).tolist()) == vec, entry_id
        for k in rng.sample(range(basis.dim), min(5, basis.dim)):
            unit = [0] * basis.dim
            unit[k] = 1
            (u, v), nu = basis.items[k]
            assert np.argwhere(bar.cochain_array(unit)).tolist() == [[u, v, nu]]
        with pytest.raises(UsageError, match="shape"):
            bar.cochain_vector(c[:-1])
        with pytest.raises(UsageError, match="length"):
            bar.cochain_array(vec[:-1])
        odd = [(u, v, nu) for (u, v, nu) in np.ndindex(c.shape)
               if ((u, v), nu) not in basis.index]
        if odd:
            with_odd.add(entry_id)
            c[odd[0]] = 1
            with pytest.raises(InvariantViolationError, match="parity"):
                bar.cochain_vector(c)
    # a5-odd-line's only aug monomial is odd, so all its 2-cochains are even
    assert with_odd == {"a3-heisenberg", "a3-heisenberg-adjoint"}


def test_aug_power_indexes_the_pure_powers(loaded_catalog):
    """``aug_power(i, e)`` is the position of x_i^e in the aug basis."""
    g, rep = fixture_algebra(loaded_catalog, "a4-borel")
    bar = CochainComplex(g, rep, "bar")
    aug = bar.ualg.aug_basis()
    for i in range(g.dim):
        for e in range(1, g.p):
            mono = aug[bar.aug_power(i, e)]
            assert mono[bar.ualg.pos_of[i]] == e and sum(mono) == e


def _reduce_counting_adds(monkeypatch, m):
    """(``RowReduction(m)``, the ``Eliminator.add`` calls it made)."""
    calls, add = [], Eliminator.add
    with monkeypatch.context() as mp:
        mp.setattr(Eliminator, "add",
                   lambda self, row: calls.append(1) or add(self, row))
        red = RowReduction(m)
    return red, len(calls)


def test_bar_d1_image_from_its_rows_on_borel_adjoint_p7(loaded_catalog,
                                                        monkeypatch):
    """The bar d1 of a4-borel with adjoint M at p = 7 (4608 x 96, rank 94,
    its last independent row is row 135): the reduction feeds the
    eliminator only the rows that add a pivot past the first block, at
    most 300 of 4608, and the image a ``RowReduction`` reads off the row
    elimination equals the span of its columns
    (``oracles.image_by_columns``), has the eliminator's pivot rows as its
    pivots, contains every column of d1, and has the dimension the kernel
    leaves."""
    from supercoh.algfile import parse_algebra_dict
    e, _, _ = loaded_catalog["a4-borel-adjoint"]
    g, modules, _ = parse_algebra_dict(dict(e.data, p=7))
    bar = CochainComplex(g, modules["adjoint"], "bar")
    d1 = bar.d(1)
    red, adds = _reduce_counting_adds(monkeypatch, d1)
    assert (d1.rows, d1.cols, d1.nnz) == (4608, 96, 9012)
    assert red.rank == 94 and red._prows[-1] == 135
    assert adds <= 300
    assert red.image == image_by_columns(d1)
    assert red.image.pivots == red._prows
    cols = d1.to_dense().T
    assert not dense_eliminate(red.image, cols)[0].any()
    assert not (cols.T @ red.kernel.rows.T % 7).any()
    assert red.image.dim == red.rank == 96 - red.kernel.dim


def test_sl2_adjoint_at_p5_reduces_a_tall_bar_d1(monkeypatch):
    """sl2 with its adjoint module at p = 5, read from ``tests/data/sl2.json``
    (which has no p): the bar d1 is 46128 x 372 of rank 369, and its
    reduction calls ``Eliminator.add`` fewer than 1500 times, where feeding
    every row would take 46131 calls.  The six-term report is exact with
    every dimension 0; it checks its H^2_* against the pair model."""
    from supercoh.algfile import parse_algebra
    text = (pathlib.Path(__file__).parent / "data" / "sl2.json").read_text()
    g, modules, _ = parse_algebra(text, p_override=5)
    d1 = CochainComplex(g, modules["adjoint"], "bar").d(1)
    red, adds = _reduce_counting_adds(monkeypatch, d1)
    assert (d1.rows, d1.cols, red.rank) == (46128, 372, 369)
    assert adds < 1500
    report = sixterm.build_six_term(g, modules["adjoint"], "sl2", "adjoint")
    assert report.all_exact, report.summary()
    assert report.dims == (0, 0, 0, 0, 0, 0)


def test_comparison_is_cochain_map(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        bar = CochainComplex(g, rep, "bar")
        lie = CochainComplex(g, rep, "lie")
        lhs = comparison_matrix(bar, lie, 2).matmul(bar.d(1))
        rhs = lie.d(1).matmul(comparison_matrix(bar, lie, 1))
        assert lhs == rhs, entry_id


def test_lie_eval_alternation(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a6-abelian-plane")
    basis = lie_cochain_basis(g, k.space, 2)
    vec = [0] * basis.dim
    vec[basis.index[((0, 1), (), 0)]] = 1
    assert eval_lie_cochain(basis, vec, (0, 1), 3).tolist() == [1]
    assert eval_lie_cochain(basis, vec, (1, 0), 3).tolist() == [2]
    assert eval_lie_cochain(basis, vec, (0, 0), 3).tolist() == [0]
    # odd arguments are symmetric
    g3, k3 = fixture_algebra(loaded_catalog, "a3-heisenberg")
    b3 = lie_cochain_basis(g3, k3.space, 2)
    v3 = [0] * b3.dim
    v3[b3.index[((), (1, 1), 0)]] = 1
    assert eval_lie_cochain(b3, v3, (1, 1), 3).tolist() == [1]


def test_purely_even_matches_classical_regression(loaded_catalog):
    """For purely even algebras the super machinery must reproduce the
    classical numbers; the torus and nilpotent line are the anchors."""
    g, k = fixture_algebra(loaded_catalog, "a2-torus")
    lie, bar = CochainComplex(g, k, "lie"), CochainComplex(g, k, "bar")
    assert [lie_cohomology(lie, n).dim_h for n in (0, 1, 2)] == [1, 1, 0]
    assert [restricted_cohomology(bar, n).dim_h for n in (0, 1, 2)] == [1, 0, 0]


def test_delta_squared_fuzzed_semidirects(small_catalog):
    """Fresh, randomly assembled semidirect products also satisfy
    delta^2 = 0 in both complexes (degrees 0 and 1)."""
    rng = random.Random(123)
    entries = list(small_catalog.values())
    for _ in range(12):
        e, g, modules = rng.choice(entries)
        rep = rng.choice([modules["k"], adjoint_module(g)])
        E, _ = semidirect(g, rep)
        tk = trivial_module(E)
        uE, lie = UAlgebra(E), CochainComplex(E, tk, "lie")
        for n in (0, 1):
            assert lie.d(n + 1).matmul(lie.d(n)).is_zero()
            assert assoc_differential_matrix(uE, tk, n + 1).matmul(
                assoc_differential_matrix(uE, tk, n)).is_zero()


def test_restricted_dims_oracle_dual_module(loaded_catalog):
    # the dual of the adjoint for the borel line, action table hand-written
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    rep = loaded_catalog["a4-borel"][2]["dual"]
    p = g.p
    labels, parities, prod = table_borel(p)
    co_h = [[0, 0], [0, -1 % p]]
    co_x = [[0, 1], [0, 0]]

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(2)) % p for j in range(2)]
                for i in range(2)]

    action = {}
    for (a, b) in labels:
        mat = [[1, 0], [0, 1]]
        for _ in range(a):
            mat = matmul(mat, co_h)
        for _ in range(b):
            mat = matmul(mat, co_x)
        action[(a, b)] = mat
    bar = CochainComplex(g, rep, "bar")
    for n in (1, 2):
        _, _, dim_h = bar_dims(labels, parities, prod, p, n,
                               module_action=action, module_parities=(0, 0))
        assert restricted_cohomology(bar, n).dim_h == dim_h, n


def test_restricted_h1_oracle_borel_semidirect(loaded_catalog):
    # degree-2 dense enumeration is too large for the hand oracle here;
    # degree 1 still pins H^1_* independently
    from oracles import table_borel_semidirect
    g, k = fixture_algebra(loaded_catalog, "a9-borel-semidirect")
    labels, parities, prod = table_borel_semidirect(g.p)
    assert len(labels) == 26
    _, _, dim_h = bar_dims(labels, parities, prod, g.p, 1)
    assert restricted_cohomology(CochainComplex(g, k, "bar"), 1).dim_h == dim_h == 1


# ---------------------------------------------------------------------------
# the weight-zero bar complex of a basis torus
# ---------------------------------------------------------------------------

def _torus_pairs(loaded_catalog):
    """(name, g, M) for the catalog entries with their own and the adjoint
    module, and sl2 at p = 3 from ``tests/data/sl2.json`` with its
    adjoint and trivial modules, where (g, M) has a basis torus acting with
    a nonzero weight, so that the weight-zero complex is a proper
    subcomplex, and the full bar C^3 has at most 60000 cochains."""
    from supercoh.algfile import parse_algebra
    pairs, seen = [], set()
    for entry_id, (e, g, modules) in loaded_catalog.items():
        algebra = repr(sorted((k, v) for k, v in e.data.items()
                              if k != "modules"))
        for name, rep in ((e.module_name, modules[e.module_name]),
                          ("adjoint", adjoint_module(g))):
            if (algebra, name) not in seen:
                seen.add((algebra, name))
                pairs.append((f"{entry_id}/{name}", g, rep))
    text = (pathlib.Path(__file__).parent / "data" / "sl2.json").read_text()
    g, modules, _ = parse_algebra(text, p_override=3)
    pairs += [("sl2-p3/adjoint", g, modules["adjoint"]),
              ("sl2-p3/k", g, trivial_module(g))]
    for name, g, rep in pairs:
        full = CochainComplex(g, rep, "bar")
        if full.weight_zero() is not full and full.full_dim(3) <= 60000:
            yield name, g, rep


def _block(m, rows, cols):
    """The block of the MatGF m on the given increasing rows and columns,
    after checking that no entry of m joins a row of the block to a column
    off it or the other way round."""
    r, c, v = m.coo()
    at_r, at_c = np.full(m.rows, -1), np.full(m.cols, -1)
    at_r[rows], at_c[cols] = np.arange(len(rows)), np.arange(len(cols))
    assert ((at_r[r] >= 0) == (at_c[c] >= 0)).all()
    keep = at_r[r] >= 0
    return MatGF.from_coo(len(rows), len(cols), m.p, at_r[r][keep],
                          at_c[c][keep], v[keep])


def _embedded_rows(space, at, n):
    """The basis rows of a subspace of the weight-0 cochains, as vectors of
    the full cochain space of dimension n, the k-th weight-0 coordinate
    at position at[k]."""
    out = np.zeros((space.dim, n), dtype=np.int64)
    out[:, at] = space.rows
    return out


def test_weight_zero_results_embed_in_the_full_complex(loaded_catalog):
    """On every pair of ``_torus_pairs`` the weight-0 items of the bar
    cochain bases are an increasing part of the full ones, the full d_n
    joins weight-0 rows to weight-0 columns only and its block there is
    the weight-zero complex's d_n, and for n = 0, 1, 2 the RREF rows of Z,
    B and R of the weight-zero complex, embedded, are rows of the full
    complex's Z and B and all of its R, built by ``assoc_differential_
    matrix`` and ``RowReduction``; so dim H agrees.  The comparison maps
    of the weight-zero complex are the full ones' columns at weight 0, and
    ``full_dim`` counts the full bases."""
    names = []
    for name, g, rep in _torus_pairs(loaded_catalog):
        names.append(name)
        w0, p = CochainComplex(g, rep, "bar").weight_zero(), g.p
        lie = CochainComplex(g, rep, "lie")
        at = []
        for n in range(4):
            full = assoc_cochain_basis(w0.ualg, rep.space, n)
            at.append(np.array([full.index[it] for it in w0.basis(n).items],
                               dtype=np.int64))
            assert (np.diff(at[n]) > 0).all(), name
            assert at[n].size < full.dim or n < 2, name
            assert w0.full_dim(n) == full.dim, name
        d = [assoc_differential_matrix(w0.ualg, rep, n) for n in range(3)]
        for n in range(3):
            assert _block(d[n], at[n + 1], at[n]) == w0.d(n), (name, n)
        for n in range(3):
            ambient = d[n].cols
            Z = RowReduction(d[n]).kernel
            B = (RowReduction(d[n - 1]).image if n else
                 Subspace.zero(ambient, p))
            R = quotient_representatives(Z, B)
            res = restricted_cohomology(w0, n)
            assert R.dim == res.dim_h, (name, n)
            assert R.pivots == tuple(at[n][list(res.R.pivots)].tolist())
            assert (R.rows == _embedded_rows(res.R, at[n], ambient)).all()
            for big, small in ((Z, res.Z), (B, res.B)):
                row_of = {q: i for i, q in enumerate(big.pivots)}
                sel = [row_of[q] for q in at[n][list(small.pivots)].tolist()]
                assert (big.rows[sel]
                        == _embedded_rows(small, at[n], ambient)).all()
        for n in (1, 2):
            full_comp = comparison_matrix(CochainComplex(g, rep, "bar"), lie, n)
            comp = comparison_matrix(w0, lie, n)
            assert (full_comp.to_dense()[:, at[n]] == comp.to_dense()).all()
    assert {"a4-borel/k", "a7-mixed-line/adjoint", "a9-borel-semidirect/k",
            "sl2-p3/adjoint"} <= set(names)


def test_weight_zero_cochain_vector_refuses_other_weights(loaded_catalog):
    """a4-borel with adjoint M, weights wt(t) = 0 and wt(x) = 1 under the
    torus t: the unit cochains of the weight-zero complex put their one
    value at the items of its ``basis(2)``, random cochains go to values
    and back, and a value at a cochain of nonzero weight, (x, x, ad:t) of
    weight -2, makes ``cochain_vector`` raise InvariantViolationError."""
    g, rep = fixture_algebra(loaded_catalog, "a4-borel", "adjoint")
    bar = CochainComplex(g, rep, "bar").weight_zero()
    assert bar.torus == (0,)
    basis, rng = bar.basis(2), random.Random(3)
    for k in range(basis.dim):
        unit = np.zeros(basis.dim, dtype=np.int64)
        unit[k] = 1
        (u, v), nu = basis.items[k]
        assert np.argwhere(bar.cochain_array(unit)).tolist() == [[u, v, nu]]
    vec = [rng.randrange(g.p) for _ in range(basis.dim)]
    c = bar.cochain_array(vec)
    assert bar.cochain_vector(c).tolist() == vec
    x = bar.aug_power(1, 1)
    c[x, x, 0] = 1
    with pytest.raises(InvariantViolationError, match="weight"):
        bar.cochain_vector(c)


def test_weight_zero_of_another_module(loaded_catalog):
    """``with_module`` of a weight-zero complex is the weight-zero complex
    of the new module, on the same u(g), or the full complex when the
    torus acts on the new g and M with weight 0; a complex without a
    torus is its own weight-zero complex."""
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    bar = CochainComplex(g, k, "bar").weight_zero()
    other = bar.with_module(adjoint_module(g))
    assert other.torus == (0,) and other.ualg is bar.ualg
    assert other.d(1) == CochainComplex(g, adjoint_module(g),
                                        "bar").weight_zero().d(1)
    g, k = fixture_algebra(loaded_catalog, "a6-abelian-plane")
    full = CochainComplex(g, k, "bar")
    assert full.weight_zero() is full and not full.torus
    g, k = fixture_algebra(loaded_catalog, "a2-torus")
    full = CochainComplex(g, k, "bar")
    assert basis_torus(g, k) == (0,) and full.weight_zero() is full


def test_the_torus_acts_by_a_null_homotopic_map(loaded_catalog):
    """The step of ``CochainComplex.weight_zero``'s proof that kills the
    cohomology of nonzero weight: theta_t, which multiplies each bar
    cochain by its weight under the toral t, is d h_t + h_t d for

        (h_t f)(s_1..s_{n-1}) = sum_i (-1)^i f(s_1..s_i, t, s_{i+1}..),

    in degrees 0..2 of the full bar complexes of a4-borel with adjoint M
    and a7-mixed-line (t toral, y odd) with k and adjoint M."""
    cases = [("a4-borel", "adjoint"), ("a7-mixed-line", "k"),
             ("a7-mixed-line", None)]
    for entry_id, module in cases:
        e, g, modules = loaded_catalog[entry_id]
        rep = modules[module] if module else adjoint_module(g)
        bar, p, t = CochainComplex(g, rep, "bar"), g.p, 0
        ualg = bar.ualg
        lam = [g.brackets[t, i, i] for i in ualg.gen_order]
        aug_wt = np.array(ualg.aug_basis()) @ lam % p
        dims = [int(bar.parity_lookup(n).max()) + 1 for n in range(4)]

        def units(n):
            return bar.cochain_array(np.eye(dims[n], dtype=np.int64), n)

        def h(n):  # C^n -> C^{n-1}, as the matrix on coordinates
            f = units(n)
            hf = sum((-1) ** i * np.take(f, bar.aug_power(t, 1), axis=1 + i)
                     for i in range(n))
            return bar.cochain_vector(hf % p, n - 1).T

        for n in range(3):
            wt = np.diagonal(rep.mats[t]) % p
            for _ in range(n):
                wt = np.add.outer(-aug_wt, wt)
            theta = bar.cochain_vector(units(n) * wt % p, n).T
            dh = (bar.d(n - 1).to_dense() @ h(n)) if n else 0
            assert not ((h(n + 1) @ bar.d(n).to_dense() + dh - theta)
                        % p).any(), (entry_id, module, n)


# ---------------------------------------------------------------------------
# H^2_* of the bar complex, spanned without d2
# ---------------------------------------------------------------------------

def _h2_route_cases(loaded_catalog):
    """(name, bar complex): every catalog entry's full bar complex and,
    where (g, M) has a basis torus, its weight-zero one; and the
    weight-zero complex, the full one where there is no torus, of the
    inputs of ``tests/data`` with two odd basis elements at p = 3, with
    their even and odd trivial modules (the weight-0 bar d2 of osp(1|2)
    with its adjoint module takes about 40 s to eliminate on 2 vCPUs)."""
    from supercoh.algfile import parse_algebra
    for entry_id, (e, g, modules) in loaded_catalog.items():
        full = CochainComplex(g, modules[e.module_name], "bar")
        yield entry_id, full
        if (w0 := full.weight_zero()) is not full:
            yield f"{entry_id} weight 0", w0
    for name in ("odd-plane", "super-heisenberg", "super-heisenberg-toral",
                 "osp12"):
        path = pathlib.Path(__file__).parent / "data" / f"{name}.json"
        g, modules, _ = parse_algebra(path.read_text(), p_override=3)
        for module in ("k", "k-odd"):
            yield (f"{name}/{module}",
                   CochainComplex(g, modules[module], "bar").weight_zero())


def test_restricted_h2_equals_the_bar_d2_nullspace(loaded_catalog):
    """``restricted_cohomology(bar, 2)``, spanned from B^2_* and the fills
    of the pair complex's classes, has the Z and B dimensions and the
    representatives, byte for byte, of Ker d2 / Im d1 from the assembled
    bar d2 (``oracles.bar_h2_by_nullspace``), on the full and the
    weight-zero complexes of ``_h2_route_cases``."""
    names = []
    for name, bar in _h2_route_cases(loaded_catalog):
        got, want = restricted_cohomology(bar, 2), bar_h2_by_nullspace(bar)
        assert (got.Z.dim, got.B.dim) == (want.Z.dim, want.B.dim), name
        assert got.R.rows.tolist() == want.R.rows.tolist(), name
        names.append(name)
    assert len(names) == 15 + 5 + 8


def test_restricted_cohomology_builds_no_bar_d2(loaded_catalog):
    """``restricted_cohomology(bar, n)``, n <= 2, leaves no d(2),
    cocycle_rows(2) or basis(2) in the bar complex's store, full or
    weight-zero, on every catalog entry.  The pair complex it checks
    against is kept by the bar complex, and ``weight_zero`` hands it on."""
    degree2 = {("d", 2), ("cocycle_rows", 2), ("basis", 2)}
    for entry_id, (e, g, modules) in loaded_catalog.items():
        full = CochainComplex(g, modules[e.module_name], "bar")
        for bar in (full, full.weight_zero()):
            for n in (0, 1, 2):
                restricted_cohomology(bar, n)
            assert not degree2 & set(bar._store), entry_id
        assert full.weight_zero().pair() is full.pair(), entry_id
