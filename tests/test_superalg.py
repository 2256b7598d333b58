import random

import numpy as np
import pytest

from supercoh.errors import UsageError
from supercoh.superalg import (
    LieSuperAlgebra, Representation, SuperSpace, adjoint_module, basis_torus,
    hom_module,
    invariants, jacobson_terms, pmap_apply, semidirect, semilinear_pairs,
    semilinear_space, trivial_module, validate_lie_super, validate_module,
    validate_pmap,
)

from conftest import fixture_algebra
from oracles import lie_h1_dim, semilinear_value


def build(evens, odds, brackets, pmap, p=3):
    sp = SuperSpace(evens, odds)
    n = sp.dim
    brk = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), vec in brackets.items():
        brk[i, j] = vec
        sign = -1 if (sp.parity(i) and sp.parity(j)) else 1
        if (j, i) not in brackets and i != j:
            brk[j, i] = (-sign * np.asarray(vec)) % p
    return LieSuperAlgebra(sp, p, brk, pmap)


def test_abelian_algebra_valid():
    g = build(("a", "b"), (), {}, {0: [0, 0], 1: [0, 0]})
    assert validate_lie_super(g).ok and validate_pmap(g).ok


def test_super_heisenberg_valid():
    g = build(("z",), ("y",), {(1, 1): [1, 0]}, {0: [0, 0]})
    assert validate_lie_super(g).ok


def test_odd_square_with_odd_target_reports_parity():
    # [y,y] = y has parity 1+1 = 0 but an odd target component
    sp = SuperSpace((), ("y",))
    brk = np.zeros((1, 1, 1), dtype=np.int64)
    brk[0, 0, 0] = 1
    g = LieSuperAlgebra(sp, 3, brk)
    rep = validate_lie_super(g)
    assert not rep.ok
    assert any(v.check == "parity" for v in rep.violations)


def test_broken_jacobi_reported_with_triple():
    # [a,b] = c, [a,c] = a breaks Jacobi on (a,a,b)
    g = build(("a", "b", "c"), (),
              {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]},
              {0: [0] * 3, 1: [0] * 3, 2: [0] * 3})
    rep = validate_lie_super(g)
    assert not rep.ok
    assert any(v.check == "jacobi" for v in rep.violations)


def test_wrong_pmap_reports_adp_violation():
    # x^[3] = h is wrong for [h,x] = x: ad(x)^3 = 0 but ad(h) != 0
    g = build(("h", "x"), (), {(0, 1): [0, 1]}, {0: [1, 0], 1: [1, 0]})
    rep = validate_pmap(g)
    assert not rep.ok
    assert any(v.check == "adp" and v.indices == (1,) for v in rep.violations)


def test_jacobson_terms_abelian_and_y_zero():
    g = build(("a", "b"), (), {}, {0: [0, 0], 1: [0, 0]})
    for s in jacobson_terms(g, g.basis_vector(0), g.basis_vector(1)):
        assert not s.any()
    gb = build(("h", "x"), (), {(0, 1): [0, 1]}, {0: [1, 0], 1: [0, 0]})
    for s in jacobson_terms(gb, gb.basis_vector(0), np.zeros(2, dtype=np.int64)):
        assert not s.any()


def test_jacobson_terms_borel_hand_values():
    # (ad(t h + x))^2 (h) = -t x, so s_1 = 0 and 2 s_2 = -x i.e. s_2 = x
    g = build(("h", "x"), (), {(0, 1): [0, 1]}, {0: [1, 0], 1: [0, 0]})
    s = jacobson_terms(g, g.basis_vector(0), g.basis_vector(1))
    assert s[0].tolist() == [0, 0]
    assert s[1].tolist() == [0, 1]


def test_pmap_apply_basis_and_abelian_sum():
    g = build(("a", "b"), (), {}, {0: [1, 0], 1: [0, 0]})
    assert pmap_apply(g, g.basis_vector(0)).tolist() == [1, 0]
    assert pmap_apply(g, [1, 1]).tolist() == [1, 0]
    with pytest.raises(UsageError):
        gs = build((), ("y",), {}, {})
        pmap_apply(gs, [1])


def test_pmap_additivity_and_adp_fuzz(loaded_catalog):
    rng = random.Random(3)
    for entry_id, (e, g, modules) in loaded_catalog.items():
        p = g.p
        evens = g.space.even_indices()
        if not evens:
            continue
        for _ in range(10):
            v = np.zeros(g.dim, dtype=np.int64)
            w = np.zeros(g.dim, dtype=np.int64)
            for i in evens:
                v[i] = rng.randrange(p)
                w[i] = rng.randrange(p)
            lhs = pmap_apply(g, (v + w) % p)
            rhs = (pmap_apply(g, v) + pmap_apply(g, w)) % p
            for s in jacobson_terms(g, v, w):
                rhs = (rhs + s) % p
            assert np.array_equal(lhs, rhs), entry_id
            assert np.array_equal(
                g.ad(pmap_apply(g, v)),
                np.linalg.matrix_power(g.ad(v), p) % p), entry_id


def test_validate_module_examples(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a3-heisenberg")
    assert validate_module(g, k, restricted=True).ok
    adj = adjoint_module(g)
    assert validate_module(g, adj, restricted=True).ok
    # breaking the grading is reported
    bad = Representation(g, adj.space, [np.array([[0, 0], [1, 0]]), adj.mats[1]])
    rep = validate_module(g, bad, restricted=False)
    assert any(v.check == "grading" for v in rep.violations)


def test_hom_module_is_restricted(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        N = adjoint_module(g)
        K = trivial_module(g)
        M = hom_module(g, N, K)
        assert validate_module(g, M, restricted=True).ok, entry_id
        # trivial inputs give the zero action
        M0 = hom_module(g, K, trivial_module(g, name="m2"))
        assert all(not m.any() for m in M0.mats)


def test_invariants_examples(loaded_catalog):
    g4, _ = fixture_algebra(loaded_catalog, "a4-borel")
    full, even = invariants(g4, adjoint_module(g4))
    assert full.dim == 0 and even.dim == 0
    g3, _ = fixture_algebra(loaded_catalog, "a3-heisenberg")
    full3, even3 = invariants(g3, adjoint_module(g3))
    assert full3.dim == 1 and even3.dim == 1
    assert full3.contains((1, 0))  # the central element spans the invariants
    gt, k = fixture_algebra(loaded_catalog, "a2-torus")
    fullt, _ = invariants(gt, k)
    assert fullt.dim == 1


def test_invariants_match_h0(loaded_catalog):
    from supercoh.cohomology import (CochainComplex, lie_cohomology,
                                     restricted_cohomology)
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        _, even = invariants(g, rep)
        lie, bar = CochainComplex(g, rep, "lie"), CochainComplex(g, rep, "bar")
        assert lie_cohomology(lie, 0).dim_h == even.dim, entry_id
        assert restricted_cohomology(bar, 0).dim_h == even.dim, entry_id


def test_lie_h1_against_independent_oracle(loaded_catalog):
    from supercoh.cohomology import CochainComplex, lie_cohomology
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        lie = CochainComplex(g, rep, "lie")
        assert lie_cohomology(lie, 1).dim_h == lie_h1_dim(g, rep), entry_id


def test_semilinear_space_dims(loaded_catalog):
    from supercoh.gflin import Subspace
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    W = Subspace.full(1, 3)
    maps = semilinear_space(g, W)
    assert len(maps) == 2 == len(semilinear_pairs(g, W))
    assert len(semilinear_space(g, Subspace.zero(1, 3))) == 0
    m = maps[0]
    assert semilinear_value(m, (2, 0)) == (2,)  # semilinear = linear over GF(p)


def test_semidirect_validates(loaded_catalog):
    for entry_id in ("a1-null", "a4-borel", "a3-heisenberg", "a7-mixed-line"):
        e, g, modules = loaded_catalog[entry_id]
        for rep in (modules["k"], adjoint_module(g)):
            E, layout = semidirect(g, rep)
            assert validate_lie_super(E).ok, entry_id
            assert validate_pmap(E).ok, entry_id
            # module part is strongly abelian
            for j in rep.space.even_indices():
                assert not E.pmap_basis(layout.m_to_e(j)).any()


def test_semidirect_of_abelian_trivial_is_abelian():
    g = build(("x",), (), {}, {0: [0]})
    E, layout = semidirect(g, trivial_module(g))
    assert not E.brackets.any()
    assert not any(E.pmap_basis(i).any() for i in E.space.even_indices())


def test_basis_torus(loaded_catalog):
    """The toral basis elements, t^[p] = t with ad t and rho(t) diagonal:
    the x of a2-torus and a8-torus-null-plane and the t of the borel
    entries ([t, x] = x) with every module; none in a6-abelian-plane, whose
    p-map is zero, or a1-null.  An odd element is never toral, even with
    ad zero, and a toral t acting on M by a non-diagonal matrix is not in
    the torus of (g, M)."""
    want = {"a2-torus": (0,), "a8-torus-null-plane": (0,),
            "a4-borel": (0,), "a4-borel-adjoint": (0,),
            "a4-borel-dual": (0,), "a6-abelian-plane": (), "a1-null": ()}
    for entry_id, torus in want.items():
        e, g, modules = loaded_catalog[entry_id]
        for rep in (*modules.values(), adjoint_module(g)):
            assert basis_torus(g, rep) == torus, entry_id
    g = build(("t",), ("y",), {}, {0: [1, 0]})  # abelian, t toral
    assert basis_torus(g, trivial_module(g)) == (0,)
    g = build(("t",), (), {}, {0: [1]})
    two = SuperSpace(("a", "b"), ())
    assert basis_torus(g, Representation(g, two, [[[1, 0], [0, 2]]])) == (0,)
    assert basis_torus(g, Representation(g, two, [[[0, 1], [1, 0]]])) == ()


def _algebras():
    """(label, g): every algebra of ``test_lie_array_form.PAIRS`` once, its
    semidirect product with its adjoint module, and the universal twist of
    its report (``SixTermContext._fg_cocycles``): the split extension by
    K = k^{n_even} with (x_t, 0)^[p] shifted by -e_t."""
    from supercoh.extensions import semidirect_extension, twist_pmap
    from supercoh.superalg import SemiLinearMap

    from test_lie_array_form import PAIRS
    out, seen = [], set()
    for label, g, _ in PAIRS:
        if id(g) in seen:
            continue
        seen.add(id(g))
        name = label.split("/")[0]
        n = g.space.n_even
        K = Representation(g, SuperSpace(tuple(f"e{t}" for t in range(n)), ()),
                           [np.zeros((n, n), dtype=np.int64)] * g.dim)
        twist = twist_pmap(semidirect_extension(g, K),
                           SemiLinearMap(g, n, np.eye(n, dtype=np.int64)))
        out += [(name, g), (f"{name} |x ad", semidirect(g, adjoint_module(g))[0]),
                (f"{name} twist", twist.E)]
    return out


def _corrupted(g, rng):
    """g with one structure constant changed, with one changed together
    with its skew partner (so skew still holds), and with one p-map
    coordinate changed."""
    p, n = g.p, g.dim
    out = []
    i, j, k = (rng.randrange(n) for _ in range(3))
    brk = g.brackets.copy()
    brk[i, j, k] += rng.randrange(1, p)
    out.append(LieSuperAlgebra(g.space, p, brk, g.pmap))
    brk = g.brackets.copy()
    r, sign = rng.randrange(1, p), -1 if g.parity(i) and g.parity(j) else 1
    brk[i, j, k] += r
    if (i, j) != (j, i):
        brk[j, i, k] -= sign * r
    out.append(LieSuperAlgebra(g.space, p, brk, g.pmap))
    evens = g.space.even_indices()
    if evens:
        pmap = {e: v.copy() for e, v in g.pmap.items()}
        pmap[rng.choice(evens)][rng.choice(evens)] += rng.randrange(1, p)
        out.append(LieSuperAlgebra(g.space, p, g.brackets, pmap))
    return out


def test_batched_validators_match_the_per_pair_loops():
    """``validate_lie_super`` and ``validate_pmap`` record the same
    violations, in the same order and with the same messages, as the
    per-pair loops of ``oracles``: on every algebra of the test pairs, its
    semidirect product with the adjoint module, the universal twist of its
    report, and each of those corrupted at random, where every check
    fires somewhere."""
    from oracles import validate_lie_super_per_pair, validate_pmap_per_pair

    rng = random.Random(30)
    fired = set()
    for label, g in _algebras():
        assert validate_lie_super(g).ok and validate_pmap(g).ok, label
        for h in [g] + _corrupted(g, rng):
            for new, old in ((validate_lie_super, validate_lie_super_per_pair),
                             (validate_pmap, validate_pmap_per_pair)):
                got, want = new(h), old(h)
                assert got.violations == want.violations, label
                assert got.summary() == want.summary(), label
                fired |= {v.check for v in got.violations}
    assert {"adp", "additivity", "jacobi", "skew", "parity"} <= fired


def test_batched_jacobson_terms_match_the_per_pair_loop():
    """``jacobson_terms`` on stacks of random even vector pairs, of one and
    two leading axes, equals the per-pair oracle pair by pair; one pair
    gives the list of the stack of one; an odd vector or stacks of
    different shapes are refused."""
    from oracles import jacobson_terms_per_pair

    rng = random.Random(31)
    for label, g in _algebras():
        p, evens = g.p, list(g.space.even_indices())
        x, y = np.zeros((2, 6, g.dim), dtype=np.int64)
        x[:, evens] = [[rng.randrange(p) for _ in evens] for _ in range(6)]
        y[:, evens] = [[rng.randrange(p) for _ in evens] for _ in range(6)]
        got = jacobson_terms(g, x, y)
        assert got.shape == (6, p - 1, g.dim)
        for k in range(6):
            want = jacobson_terms_per_pair(g, x[k], y[k])
            assert np.array_equal(got[k], want), label
            one = jacobson_terms(g, x[k], y[k])
            assert isinstance(one, list) and len(one) == p - 1
            assert np.array_equal(one, jacobson_terms(g, x[k:k + 1], y[k:k + 1])[0])
        assert np.array_equal(jacobson_terms(g, x.reshape(2, 3, -1),
                                             y.reshape(2, 3, -1)),
                              got.reshape(2, 3, p - 1, -1))
        assert jacobson_terms(g, x[:0], y[:0]).shape == (0, p - 1, g.dim)
        if g.space.n_odd:
            odd = g.basis_vector(g.space.odd_indices()[0])
            with pytest.raises(UsageError, match="even"):
                jacobson_terms(g, odd, odd)
        with pytest.raises(UsageError):
            jacobson_terms(g, x, y[:3])


def test_validate_pmap_calls_jacobson_terms_once(loaded_catalog, monkeypatch):
    """One call for all ordered even pairs, none when there are none."""
    import supercoh.superalg as superalg
    calls = []

    def counted(g, x, y, _real=superalg.jacobson_terms):
        calls.append(np.shape(x))
        return _real(g, x, y)
    monkeypatch.setattr(superalg, "jacobson_terms", counted)
    for entry_id, n_pairs in (("a6-abelian-plane", 1), ("a1-null", 0)):
        calls.clear()
        g = loaded_catalog[entry_id][1]
        assert validate_pmap(g).ok
        assert calls == [(2 * n_pairs, g.dim)] * bool(n_pairs), entry_id
