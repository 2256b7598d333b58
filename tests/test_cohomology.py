import collections
import itertools
import random
import types

import numpy as np
import pytest

from supercoh.cohomology import (
    CochainComplex, assoc_cochain_basis, assoc_differential_matrix,
    comparison_matrix, eval_lie_cochain, is_bar_2cocycle, lie_cochain_basis,
    lie_differential_matrix, lie_cohomology, restricted_cohomology, sgn_marked,
)
from supercoh.envelope import UAlgebra
from supercoh.errors import InvariantViolationError, UsageError
from supercoh.gflin import MatGF, RowReduction, image, nullspace
from supercoh import extensions, sixterm
from supercoh.sixterm import SixTermContext, pair_model
from supercoh.superalg import (
    Representation, SuperSpace, adjoint_module, semidirect, trivial_module,
)

from conftest import fixture_algebra
from oracles import (
    bar_2cocycle_all_slices, bar_differential_rows, bar_dims,
    split_lie_differential, table_abelian_plane, table_borel,
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
        u = UAlgebra(g)
        for n in (0, 1):
            dl = lie_differential_matrix(g, rep, n + 1).matmul(
                lie_differential_matrix(g, rep, n))
            assert dl.is_zero(), (entry_id, "lie", n)
            da = assoc_differential_matrix(u, rep, n + 1).matmul(
                assoc_differential_matrix(u, rep, n))
            assert da.is_zero(), (entry_id, "bar", n)


def test_split_and_unified_differentials_agree(loaded_catalog):
    for entry_id in ("a3-heisenberg", "a4-borel", "a5-odd-line",
                     "a7-mixed-line", "a3-heisenberg-adjoint"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules[e.module_name]
        for n in (0, 1, 2):
            src = lie_cochain_basis(g, rep.space, n)
            dst = lie_cochain_basis(g, rep.space, n + 1)
            split = split_lie_differential(g, rep, n)
            assert set(split) == set(dst.items), (entry_id, n)
            ms = MatGF.from_rows(
                [{src.index[it]: c for it, c in split[item].items()}
                 for item in dst.items], src.dim, g.p)
            assert lie_differential_matrix(g, rep, n) == ms, (entry_id, n)


def test_specific_differential_values(loaded_catalog):
    # super line: delta(z*) = -(yy)*
    g, k = fixture_algebra(loaded_catalog, "a3-heisenberg")
    b1 = lie_cochain_basis(g, k.space, 1)
    b2 = lie_cochain_basis(g, k.space, 2)
    d1 = lie_differential_matrix(g, k, 1)
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
    img = lie_differential_matrix(g4, k4, 1).matvec(xstar)
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


def test_is_bar_2cocycle_agrees_with_all_slices_on_semidirect4(loaded_catalog):
    """On a4-borel-adjoint |x adjoint with trivial M (|aug| = 80, of which 4
    are generator slices) the check agrees with the all-slices oracle, with
    no d2 built: on random cochains, d1-images, the four fg cocycles of its
    report (Ker d2 vectors) and each of those with one entry changed, the
    k-th one in the generator row of x_k."""
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
    assert 2 not in bar._diffs


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
        gen_rows = [row for row, (tup, nu) in zip(d2.row_dicts(), items)
                    if sum(aug[tup[0]]) == 1]
        fewer += len(gen_rows) < d2.rows
        assert nullspace(MatGF.from_rows(gen_rows, d2.cols, g.p)) == \
            nullspace(d2), label
    assert fewer


def test_bar_differential_invariant_checks(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    # an even x sending the odd n to the even m is not a super module
    bad = Representation(g, SuperSpace(("m",), ("n",)),
                         [np.array([[0, 1], [0, 0]], dtype=np.int64)])
    with pytest.raises(InvariantViolationError, match="parity"):
        assoc_differential_matrix(UAlgebra(g), bad, 1)
    u = UAlgebra(g)
    u.monomial_product = lambda ma, mb: {u.unit_monomial(): 1}
    with pytest.raises(InvariantViolationError, match="unit"):
        assoc_differential_matrix(u, k, 1)


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


# every function that takes a complex, called on the complexes ``c.lie``
# and ``c.bar`` of one (g, M), its trivial extension ``c.ext`` and zero
# cochains; the ones that also take a second object name the complexes a
# case may swap for another pair's
COMPLEX_CALLS = {
    "lie_cohomology": lambda c: lie_cohomology(c.lie, 1),
    "restricted_cohomology": lambda c: restricted_cohomology(c.bar, 1),
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
    "pair_model": lambda c: pair_model(c.lie),
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
COMPLEX_CASES = [(name, "wrong kind") for name in COMPLEX_CALLS] + [
    (name, f"{other}'s {kind}") for name, kinds in PAIRED.items()
    for kind in kinds for other in ("a2-torus", "a4-borel adjoint")]


def _complex_args(loaded_catalog, entry_id, module="k"):
    g, rep = fixture_algebra(loaded_catalog, entry_id, module)
    lie, bar = CochainComplex(g, rep, "lie"), CochainComplex(g, rep, "bar")
    return types.SimpleNamespace(
        lie=lie, bar=bar, ext=extensions.semidirect_extension(g, rep),
        lie1=(0,) * lie.basis(1).dim, lie2=(0,) * lie.basis(2).dim,
        bar2=(0,) * bar.d(1).rows)


@pytest.mark.parametrize("name, case", COMPLEX_CASES)
def test_functions_taking_a_complex_reject_a_foreign_one(loaded_catalog,
                                                        name, case):
    """Each function runs on the complexes of its own (g, M) and raises
    UsageError for a complex of the wrong kind (Lie and bar swapped), and,
    where it also receives a second object, for a complex of another
    algebra or of another module of the same algebra."""
    call = COMPLEX_CALLS[name]
    args = _complex_args(loaded_catalog, "a4-borel")
    call(args)
    if case == "wrong kind":
        args.lie, args.bar = args.bar, args.lie
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


def test_bar_d1_image_from_its_rows_on_borel_adjoint_p7(loaded_catalog):
    """The bar d1 of a4-borel with adjoint M at p = 7 (4608 x 96): the
    image a ``RowReduction`` reads off the row elimination equals the
    column route's, has the eliminator's pivot rows as its pivots,
    contains every column of d1, and has the dimension the kernel
    leaves."""
    from supercoh.algfile import parse_algebra_dict
    e, _, _ = loaded_catalog["a4-borel-adjoint"]
    g, modules, _ = parse_algebra_dict(dict(e.data, p=7))
    bar = CochainComplex(g, modules["adjoint"], "bar")
    d1 = bar.d(1)
    red = RowReduction(d1)
    assert (d1.rows, d1.cols, d1.nnz) == (4608, 96, 9012)
    assert red.image == image(d1)
    assert red.image.pivots == red._prows
    cols = d1.to_dense().T
    assert not red.image._eliminate(cols)[0].any()
    assert not (cols.T @ red.kernel.rows.T % 7).any()
    assert red.image.dim == red.rank == 96 - red.kernel.dim


def test_comparison_is_cochain_map(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        bar = CochainComplex(g, rep, "bar")
        lie = CochainComplex(g, rep, "lie")
        lhs = comparison_matrix(bar, lie, 2).matmul(bar.d(1))
        rhs = lie.d(1).matmul(comparison_matrix(bar, lie, 1))
        assert lhs == rhs, entry_id


def test_pth_power_condition_agreement(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        for rep in modules.values():
            got = pair_model(CochainComplex(g, rep, "lie"))[0].dim_h
            want = restricted_cohomology(CochainComplex(g, rep, "bar"), 1).dim_h
            assert got == want, entry_id


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
        uE = UAlgebra(E)
        for n in (0, 1):
            assert lie_differential_matrix(E, tk, n + 1).matmul(
                lie_differential_matrix(E, tk, n)).is_zero()
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
