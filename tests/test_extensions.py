import collections
import random

import numpy as np
import pytest

from supercoh.cohomology import (
    CochainComplex, PairComplex, eval_lie_cochain, lie_cochain_basis,
    lie_cohomology, restricted_cohomology,
)
from supercoh.errors import (
    DifferentUnderlyingError, InvariantViolationError, NoSolutionError,
    NotACocycleError, UsageError, ValueNotInvariantError,
)
from supercoh.extensions import (
    RestrictedExtension, algebra_ext_from_2cocycle, are_equivalent_restricted,
    assoc_2cocycle_from_restricted_ext, automorphism_from_1cocycle,
    cocycle_from_algebra_ext, cocycle_from_module_ext,
    module_ext_from_1cocycle, psi_image, restricted_ext_from_assoc_2cocycle,
    restricted_structure_from_lie_2cocycle, semidirect_extension,
    strongly_abelianize, twist_pmap,
)
from supercoh.gflin import nullspace
from supercoh.superalg import (
    LieSuperAlgebra, Representation, SemiLinearMap, SuperSpace,
    adjoint_module, hom_module, hom_module_units, invariants, semidirect,
    trivial_module, validate_module, validate_pmap,
)

from conftest import fixture_algebra
from oracles import bar_cocycle_of_extension, semilinear_combination


# ---------------------------------------------------------------------------
# module extensions (degree 1)
# ---------------------------------------------------------------------------

def _hom_setup(loaded_catalog, entry_id, kmod="adjoint"):
    e, g, modules = loaded_catalog[entry_id]
    K = adjoint_module(g) if kmod == "adjoint" else modules["k"]
    N = trivial_module(g, name="n0")
    M = hom_module(g, N, K)
    return g, K, N, M


def test_module_ext_round_trip_exact(loaded_catalog):
    for entry_id in ("a1-null", "a2-torus", "a3-heisenberg", "a4-borel",
                     "a7-mixed-line"):
        g, K, N, M = _hom_setup(loaded_catalog, entry_id)
        Z1 = nullspace(CochainComplex(g, M, "lie").d(1))
        for row in Z1.basis_rows:
            ext = module_ext_from_1cocycle(g, K, N, row, hom=M)
            assert cocycle_from_module_ext(ext) == tuple(int(v) for v in row), entry_id


def test_module_ext_zero_cocycle_is_direct_sum(loaded_catalog):
    g, K, N, M = _hom_setup(loaded_catalog, "a4-borel")
    b1 = lie_cochain_basis(g, M.space, 1)
    ext = module_ext_from_1cocycle(g, K, N, [0] * b1.dim, hom=M)
    assert cocycle_from_module_ext(ext) == (0,) * b1.dim
    # block diagonal action
    kpos = [0, 1]
    for i in range(g.dim):
        mat = ext.E.mats[i]
        assert not mat[:2, 2:].any() or False  # K block first two coords here


def test_module_ext_rejects_non_cocycle(loaded_catalog):
    g, K, N, M = _hom_setup(loaded_catalog, "a4-borel")
    b1 = lie_cochain_basis(g, M.space, 1)
    Z1 = nullspace(CochainComplex(g, M, "lie").d(1))
    for attempt in range(b1.dim):
        vec = [0] * b1.dim
        vec[attempt] = 1
        if not Z1.contains(vec):
            with pytest.raises(NotACocycleError):
                module_ext_from_1cocycle(g, K, N, vec, hom=M)
            return
    pytest.skip("every coordinate cochain is a cocycle here")


def test_module_ext_coboundary_shift_gives_explicit_equivalence(loaded_catalog):
    # E_f and E_{f - delta m} are intertwined by (c, d) -> (c + m(d), d)
    rng = random.Random(31)
    g, K, N, M = _hom_setup(loaded_catalog, "a4-borel")
    p = g.p
    b1 = lie_cochain_basis(g, M.space, 1)
    lie = CochainComplex(g, M, "lie")
    d0 = lie.d(0)
    b0 = lie_cochain_basis(g, M.space, 0)
    Z1 = nullspace(lie.d(1))
    units = hom_module_units(N, K)
    for _ in range(5):
        f = [0] * b1.dim
        for row in Z1.basis_rows:
            c = rng.randrange(p)
            f = [(a + c * b) % p for a, b in zip(f, row)]
        mvec0 = [rng.randrange(p) for _ in range(b0.dim)]
        # expand m (even part of M) into full M coordinates
        mfull = [0] * M.dim
        for k, (ev, od, mu) in enumerate(b0.items):
            mfull[mu] = mvec0[k]
        delta_m = d0.matvec(mvec0)
        f2 = [(a - b) % p for a, b in zip(f, delta_m)]
        e1 = module_ext_from_1cocycle(g, K, N, f, hom=M)
        e2 = module_ext_from_1cocycle(g, K, N, f2, hom=M)
        # alpha = [[I, m], [0, I]] in stacked K-then-N coordinates
        mhat = np.zeros((K.dim, N.dim), dtype=np.int64)
        for t, (kk, jj) in enumerate(units):
            mhat[kk, jj] = mfull[t]
        alpha = np.eye(K.dim + N.dim, dtype=np.int64)
        alpha[:K.dim, K.dim:] = mhat
        for i in range(g.dim):
            lhs = (alpha @ _stacked(e1, i)) % p
            rhs = (_stacked(e2, i) @ alpha) % p
            assert np.array_equal(lhs, rhs)


def _stacked(ext, i):
    """Action matrix of x_i conjugated back to K-then-N stacked coordinates."""
    perm = np.concatenate(ext.layout.positions())
    n = len(perm)
    P = np.zeros((n, n), dtype=np.int64)
    for stacked_idx, e_idx in enumerate(perm):
        P[e_idx, stacked_idx] = 1
    return (P.T @ ext.E.mats[i] @ P) % ext.g.p


def test_restricted_module_ext_cocycle_satisfies_pth_power_condition(loaded_catalog):
    """Extensions of restricted modules produce 1-cocycles inside the
    p-th-power-condition subspace (the restricted classes)."""
    g, K, N, M = _hom_setup(loaded_catalog, "a2-torus")
    lie = CochainComplex(g, M, "lie")
    Z1 = nullspace(lie.d(1))
    cond = restricted_cohomology(PairComplex(lie), 1)
    for row in Z1.basis_rows:
        ext = module_ext_from_1cocycle(g, K, N, row, hom=M)
        if validate_module(g, ext.E, restricted=True).ok:
            back = cocycle_from_module_ext(ext)
            assert cond.Z.contains(back)


# ---------------------------------------------------------------------------
# algebra extensions (degree 2)
# ---------------------------------------------------------------------------

def test_algebra_ext_round_trip_exact(loaded_catalog):
    for entry_id in ("a3-heisenberg", "a5-odd-line", "a6-abelian-plane",
                     "a8-torus-null-plane"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        lie = CochainComplex(g, rep, "lie")
        Z2 = nullspace(lie.d(2))
        for row in Z2.basis_rows:
            ext = algebra_ext_from_2cocycle(lie, row)
            assert cocycle_from_algebra_ext(ext, lie) == tuple(int(v) for v in row), entry_id


def test_algebra_ext_super_line_twist(loaded_catalog):
    # with f = (yy)* the twisted bracket has [y, y] = z + m
    g, k = fixture_algebra(loaded_catalog, "a3-heisenberg")
    b2 = lie_cochain_basis(g, k.space, 2)
    f = [0] * b2.dim
    f[b2.index[((), (1, 1), 0)]] = 1
    ext = algebra_ext_from_2cocycle(CochainComplex(g, k, "lie"), f)
    yi = ext.layout.g_to_e(1)
    br = ext.E.bracket(ext.E.basis_vector(yi), ext.E.basis_vector(yi))
    assert br[ext.layout.g_to_e(0)] == 1 and br[ext.layout.m_to_e(0)] == 1


def test_cohomologous_cocycles_give_equivalent_extensions(loaded_catalog):
    # alpha(x, m) = (x, m + h(x)) intertwines E_f and E_{f - delta h}
    rng = random.Random(7)
    for entry_id in ("a3-heisenberg", "a6-abelian-plane"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        p = g.p
        b1 = lie_cochain_basis(g, rep.space, 1)
        lie = CochainComplex(g, rep, "lie")
        d1 = lie.d(1)
        Z2 = nullspace(lie.d(2))
        f = [0] * Z2.ambient_dim
        for row in Z2.basis_rows:
            c = rng.randrange(p)
            f = [(a + c * b) % p for a, b in zip(f, row)]
        h = [rng.randrange(p) for _ in range(b1.dim)]
        f2 = [(a - b) % p for a, b in zip(f, d1.matvec(h))]
        e1 = algebra_ext_from_2cocycle(lie, f)
        e2 = algebra_ext_from_2cocycle(lie, f2)
        alpha = np.eye(e1.E.dim, dtype=np.int64)
        for i in range(g.dim):
            hx = eval_lie_cochain(b1, h, (i,), p)
            for j, c in enumerate(hx):
                alpha[e1.layout.m_to_e(j), e1.layout.g_to_e(i)] = c
        for i in range(e1.E.dim):
            for j in range(e1.E.dim):
                lhs = (alpha @ e1.E.bracket(np.eye(e1.E.dim, dtype=np.int64)[i],
                                            np.eye(e1.E.dim, dtype=np.int64)[j])) % p
                rhs = e2.E.bracket(alpha[:, i], alpha[:, j]) % p
                assert np.array_equal(lhs, rhs), entry_id


# ---------------------------------------------------------------------------
# p-map twisting
# ---------------------------------------------------------------------------

def test_twist_laws(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    s0 = semidirect_extension(g, k)
    zero = SemiLinearMap(g, 1, ((0,),))
    assert _pmaps_equal(twist_pmap(s0, zero), s0)
    m1 = SemiLinearMap(g, 1, ((1,),))
    m2 = SemiLinearMap(g, 1, ((2,),))
    t12 = twist_pmap(twist_pmap(s0, m1), m2)
    t3 = twist_pmap(s0, semilinear_combination((1, 1), (m1, m2)))
    assert _pmaps_equal(t12, t3)
    assert _pmaps_equal(twist_pmap(twist_pmap(s0, m1),
                                   semilinear_combination((-1,), (m1,))), s0)
    # the twisted trivial extension picks up (x,0)^[p] = (0, -g(x))
    tw = twist_pmap(s0, m1)
    pm = tw.E.pmap_basis(tw.layout.g_to_e(0))
    assert pm[tw.layout.m_to_e(0)] == 2


def _pmaps_equal(e1, e2):
    return all(np.array_equal(np.asarray(e1.E.pmap_basis(i)),
                              np.asarray(e2.E.pmap_basis(i)))
               for i in e1.E.space.even_indices())


def test_twist_rejects_non_invariant_values(loaded_catalog):
    g, _ = fixture_algebra(loaded_catalog, "a4-borel")
    adj = adjoint_module(g)
    s0 = semidirect_extension(g, adj)
    bad = SemiLinearMap(g, 2, ((1, 0), (0, 0)))  # adjoint invariants are zero
    with pytest.raises(ValueNotInvariantError):
        twist_pmap(s0, bad)


def test_twist_rejects_odd_values(loaded_catalog):
    """rho = 0 makes every value g-invariant, so only the odd coordinate of
    M rejects (0, 1); the even (1, 0) is accepted."""
    g, _ = fixture_algebra(loaded_catalog, "a1-null")
    rep = Representation(g, SuperSpace(("m",), ("n",)),
                         [np.zeros((2, 2), dtype=np.int64)])
    s0 = semidirect_extension(g, rep)
    twist_pmap(s0, SemiLinearMap(g, 2, ((1, 0),)))
    with pytest.raises(ValueNotInvariantError):
        twist_pmap(s0, SemiLinearMap(g, 2, ((0, 1),)))
    with pytest.raises(ValueNotInvariantError):
        twist_pmap(s0, SemiLinearMap(g, 2, ((1, 1),)))


def _torus_with_kernel_pmap(loaded_catalog, value):
    """(g, k, s0, m, ext) on a2-torus: ext is s0 = g |x k with the central
    p-map m^[p] = value m planted on the kernel generator m."""
    g, k = fixture_algebra(loaded_catalog, "a2-torus")
    s0 = semidirect_extension(g, k)
    pm = {i: np.array(s0.E.pmap_basis(i)) for i in s0.E.space.even_indices()}
    mgen = s0.layout.m_to_e(0)
    pm[mgen] = np.zeros(s0.E.dim, dtype=np.int64)
    pm[mgen][mgen] = value
    E2 = LieSuperAlgebra(s0.E.space, g.p, s0.E.brackets, pm)
    assert validate_pmap(E2).ok
    return g, k, s0, mgen, RestrictedExtension(g, k, E2, s0.layout)


def test_strongly_abelianize(loaded_catalog):
    g, k, s0, mgen, ext = _torus_with_kernel_pmap(loaded_catalog, 1)
    assert _pmaps_equal(strongly_abelianize(s0), s0)
    # cancel the planted p-map on the kernel generator
    out = strongly_abelianize(ext)
    assert not out.E.pmap_basis(mgen).any()
    assert np.array_equal(np.asarray(out.E.pmap_basis(s0.layout.g_to_e(0))),
                          np.asarray(ext.E.pmap_basis(s0.layout.g_to_e(0))))
    assert _pmaps_equal(strongly_abelianize(out), out)


def test_extraction_rejects_a_kernel_with_a_pmap(loaded_catalog):
    """An extension whose p-map is m^[p] = m on the kernel is not strongly
    abelian, however it was built, so it has no bar cocycle; strong
    abelianization gives it one."""
    g, k, s0, mgen, ext = _torus_with_kernel_pmap(loaded_catalog, 1)
    bar = CochainComplex(g, k, "bar")
    assert s0.strongly_abelian and not ext.strongly_abelian
    with pytest.raises(UsageError, match="kernel must be strongly abelian"):
        assoc_2cocycle_from_restricted_ext(ext, bar)
    assert strongly_abelianize(ext).strongly_abelian
    assoc_2cocycle_from_restricted_ext(strongly_abelianize(ext), bar)


# ---------------------------------------------------------------------------
# restricted structures from Lie 2-cocycles
# ---------------------------------------------------------------------------

def test_restricted_structure_trivial_case(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    b2 = lie_cochain_basis(g, k.space, 2)
    ext = restricted_structure_from_lie_2cocycle(CochainComplex(g, k, "lie"),
                                                 [0] * b2.dim)
    s0 = semidirect_extension(g, k)
    assert _pmaps_equal(ext, s0)


def test_restricted_structure_solvable_on_coboundaries(loaded_catalog):
    rng = random.Random(13)
    for entry_id in ("a4-borel", "a3-heisenberg"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        b1 = lie_cochain_basis(g, rep.space, 1)
        lie = CochainComplex(g, rep, "lie")
        for _ in range(4):
            h = [rng.randrange(g.p) for _ in range(b1.dim)]
            ext = restricted_structure_from_lie_2cocycle(lie, lie.d(1).matvec(h))
            assert validate_pmap(ext.E).ok, entry_id


def test_restricted_structure_obstruction(loaded_catalog):
    # the generator of H^2 of the torus-null plane is not liftable
    g, k = fixture_algebra(loaded_catalog, "a8-torus-null-plane")
    lie = CochainComplex(g, k, "lie")
    h2 = lie_cohomology(lie, 2)
    assert h2.dim_h == 1
    with pytest.raises(NoSolutionError):
        restricted_structure_from_lie_2cocycle(lie, h2.representatives[0])


def test_restricted_structure_sigma_shift_gives_equivalent(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a2-torus")
    b2 = lie_cochain_basis(g, k.space, 2)
    inv = invariants(g, k)[1]
    sigma = SemiLinearMap(g, 1, ((1,),))
    lie = CochainComplex(g, k, "lie")
    e1 = restricted_structure_from_lie_2cocycle(lie, [0] * b2.dim)
    e2 = twist_pmap(e1, sigma)
    assert not _pmaps_equal(e1, e2)
    assert are_equivalent_restricted(e1, e2, lie)


# ---------------------------------------------------------------------------
# the bar-cocycle correspondence
# ---------------------------------------------------------------------------

def test_bar_round_trip_class_and_equivalence(loaded_catalog):
    for entry_id in ("a1-null", "a3-heisenberg", "a5-odd-line"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        bar = CochainComplex(g, rep, "bar")
        lie = CochainComplex(g, rep, "lie")
        h2s = restricted_cohomology(bar, 2)
        for c0 in h2s.representatives:
            ext = restricted_ext_from_assoc_2cocycle(bar, lie, c0)
            c1 = assoc_2cocycle_from_restricted_ext(ext, bar)
            assert np.array_equal(h2s.class_coords(c0), h2s.class_coords(c1)), \
                entry_id


def test_bar_coboundary_gives_trivial_class(loaded_catalog):
    rng = random.Random(5)
    for entry_id in ("a1-null", "a2-torus", "a5-odd-line"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        bar = CochainComplex(g, rep, "bar")
        lie = CochainComplex(g, rep, "lie")
        cb1 = bar.basis(1)
        d1 = bar.d(1)
        h2s = restricted_cohomology(bar, 2)
        h = [rng.randrange(g.p) for _ in range(cb1.dim)]
        ext = restricted_ext_from_assoc_2cocycle(bar, lie, d1.matvec(h))
        c1 = assoc_2cocycle_from_restricted_ext(ext, bar)
        assert all(v == 0 for v in h2s.class_coords(c1)), entry_id


def test_bar_cocycle_of_trivial_extension_is_trivial_class(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        bar = CochainComplex(g, rep, "bar")
        s0 = semidirect_extension(g, rep)
        c = assoc_2cocycle_from_restricted_ext(s0, bar)
        h2s = restricted_cohomology(bar, 2)
        assert all(v == 0 for v in h2s.class_coords(c)), entry_id


def _random_section_shift(g, rep, rng):
    """A random even linear map g -> M as a (dim M) x (dim g) matrix."""
    theta = np.zeros((rep.dim, g.dim), dtype=np.int64)
    for j in range(rep.dim):
        for i in range(g.dim):
            if rep.space.parity(j) == g.parity(i):
                theta[j, i] = rng.randrange(g.p)
    return theta


def test_bar_extraction_section_independence(loaded_catalog):
    """Perturbing the section by a random even linear map g -> M must not
    change the extracted cohomology class."""
    rng = random.Random(99)
    for entry_id in ("a1-null", "a3-heisenberg"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        bar = CochainComplex(g, rep, "bar")
        h2s = restricted_cohomology(bar, 2)
        s0 = semidirect_extension(g, rep)
        base = assoc_2cocycle_from_restricted_ext(s0, bar)
        for _ in range(3):
            theta = _random_section_shift(g, rep, rng)
            pert = assoc_2cocycle_from_restricted_ext(
                s0, bar, section=psi_image(s0, perturbation=theta))
            assert np.array_equal(h2s.class_coords(base),
                                  h2s.class_coords(pert)), entry_id


def test_bar_extraction_matches_the_gamma_oracle(loaded_catalog):
    """The extraction, which fills all but the generator rows from the
    cocycle identity, is byte-equal to the entry-by-entry gamma formula
    (``oracles.bar_cocycle_of_extension``) for s0 under random perturbed
    sections and for the round trips of restricted_ext_from_assoc_2cocycle
    on H^2_* representatives and coboundaries, over every module of every
    catalog entry."""
    rng = random.Random(17)
    for entry_id, (e, g, modules) in loaded_catalog.items():
        for name, rep in modules.items():
            bar = CochainComplex(g, rep, "bar")
            lie = CochainComplex(g, rep, "lie")
            s0 = semidirect_extension(g, rep)
            for _ in range(2):
                sec = psi_image(s0, _random_section_shift(g, rep, rng))
                assert assoc_2cocycle_from_restricted_ext(s0, bar, sec) == \
                    bar_cocycle_of_extension(s0, bar, sec), (entry_id, name)
            h = [rng.randrange(g.p) for _ in range(bar.basis(1).dim)]
            cocycles = [bar.d(1).matvec(h)]
            cocycles += restricted_cohomology(bar, 2).representatives
            for c0 in cocycles:
                ext = restricted_ext_from_assoc_2cocycle(bar, lie, c0)
                assert assoc_2cocycle_from_restricted_ext(ext, bar) == \
                    bar_cocycle_of_extension(ext, bar), (entry_id, name)


def test_bar_extraction_evaluates_gamma_on_the_seeds_only(
        loaded_catalog, monkeypatch):
    """One extraction collapses one u(E) product per seed entry of
    ``CochainComplex.seed_positions``, g.dim (g.dim + 1) / 2 of them: 10 on
    the universal twist of a4-borel-adjoint |x adjoint (dim 4), whose
    generator rows have g.dim |aug| = 320 entries."""
    import supercoh.extensions as extensions
    calls = [0]

    def counted(*args, _real=extensions.gamma_map):
        calls[0] += 1
        return _real(*args)
    monkeypatch.setattr(extensions, "gamma_map", counted)
    g, modules = loaded_catalog["a4-borel-adjoint"][1:]
    E, _ = semidirect(g, modules["adjoint"])
    n = E.space.n_even
    K = Representation(E, SuperSpace(tuple(f"e{t}" for t in range(n)), ()),
                       [np.zeros((n, n), dtype=np.int64)] * E.dim)
    univ = twist_pmap(semidirect_extension(E, K),
                      SemiLinearMap(E, n, np.eye(n, dtype=np.int64)))
    mixed, k = fixture_algebra(loaded_catalog, "a7-mixed-line")
    for ext in (semidirect_extension(g, modules["adjoint"]),
                semidirect_extension(mixed, k), univ):
        bar = CochainComplex(ext.g, ext.rep, "bar")
        calls[0] = 0
        assoc_2cocycle_from_restricted_ext(ext, bar)
        assert calls[0] == len(bar.seed_positions()) == \
            ext.g.dim * (ext.g.dim + 1) // 2
    assert calls[0] == 10 and E.dim * len(bar.ualg.aug_basis()) == 320


def test_bar_extraction_catches_a_corrupted_generator_row(loaded_catalog,
                                                          monkeypatch):
    """Add 1 to one coordinate of one generator-row entry, every entry in
    turn: a seed, through its gamma value, or an entry filled from the
    product table, in the generator rows the fill rows read.  A change
    that breaks the cocycle identity raises NotACocycleError; one that
    keeps a cocycle but changes the extension fails the readback of bracket
    and p-map; whatever is returned is in the class of the uncorrupted
    cocycle; a change off the cochain's parity is rejected as such.  The
    readback reads every seed, so a corrupted seed is never returned."""
    import supercoh.extensions as extensions
    real_gamma = extensions.gamma_map
    real_rows = CochainComplex._generator_rows
    outcomes = {"seed": collections.Counter(), "table": collections.Counter()}
    for entry_id in ("a4-borel-dual", "a6-abelian-plane", "a7-mixed-line"):
        g, rep = fixture_algebra(loaded_catalog, entry_id)
        bar = CochainComplex(g, rep, "bar")
        lie = CochainComplex(g, rep, "lie")
        h2s = restricted_cohomology(bar, 2)
        s0 = semidirect_extension(g, rep)
        exts = [s0] + [restricted_ext_from_assoc_2cocycle(bar, lie, c0)
                       for c0 in h2s.representatives]
        seeds = bar.seed_positions()
        gens = [bar.aug_power(i, 1) for i in range(g.dim)]
        table = [(i, iv) for i in range(g.dim)
                 for iv in range(len(bar.ualg.aug_basis()))
                 if (gens[i], iv) not in seeds]
        for ext in exts:
            want = h2s.class_coords(assoc_2cocycle_from_restricted_ext(ext, bar))
            for kind, where in [("seed", k) for k in range(len(seeds))] + \
                    [("table", t) for t in table]:
                for nu in range(rep.dim):
                    def gamma(*args, k=where, nu=nu, seen=[0]):
                        out = real_gamma(*args)
                        if seen[0] == k:
                            out = out.copy()
                            out[nu] = (out[nu] + 1) % g.p
                        seen[0] += 1
                        return out

                    def rows(self, *args, at=where, nu=nu):
                        out = real_rows(self, *args)
                        out[at + (nu,)] = (out[at + (nu,)] + 1) % g.p
                        return out
                    if kind == "seed":
                        monkeypatch.setattr(extensions, "gamma_map", gamma)
                    else:
                        monkeypatch.setattr(CochainComplex, "_generator_rows", rows)
                    try:
                        got = assoc_2cocycle_from_restricted_ext(ext, bar)
                    except NotACocycleError:
                        outcomes[kind]["not a cocycle"] += 1
                    except InvariantViolationError as err:
                        if "parity" in str(err):
                            outcomes[kind]["parity"] += 1
                        else:
                            assert "misreads" in str(err)
                            outcomes[kind]["readback"] += 1
                    else:
                        assert np.array_equal(h2s.class_coords(got), want), \
                            entry_id
                        outcomes[kind]["same class"] += 1
                    monkeypatch.undo()
    # the readback reads every seed, so no corrupted seed goes through
    assert set(outcomes["seed"]) == {"not a cocycle", "readback", "parity"}
    assert set(outcomes["table"]) == {"not a cocycle", "readback", "parity",
                                      "same class"}


def test_bar_ext_rejects_non_cocycle(loaded_catalog):
    """restricted_ext_from_assoc_2cocycle refuses a cochain off Ker d2."""
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    bar = CochainComplex(g, k, "bar")
    lie = CochainComplex(g, k, "lie")
    c0 = list(restricted_cohomology(bar, 2).representatives[0])
    c0[0] = (c0[0] + 1) % g.p
    assert any(bar.d(2).matvec(c0))
    with pytest.raises(NotACocycleError):
        restricted_ext_from_assoc_2cocycle(bar, lie, c0)


def test_bar_ext_pmap_formula(loaded_catalog):
    # (x, 0)^[p] = (x^[p], c(x^{p-1}, x)) on the nilpotent line
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    bar = CochainComplex(g, k, "bar")
    lie = CochainComplex(g, k, "lie")
    h2s = restricted_cohomology(bar, 2)
    c0 = h2s.representatives[0]
    cb = bar.basis(2)
    x = cb.aug_index[(1,)]
    x2 = cb.aug_index[(2,)]
    cval = c0[cb.index[((x2, x), 0)]]
    ext = restricted_ext_from_assoc_2cocycle(bar, lie, c0)
    pm = ext.E.pmap_basis(ext.layout.g_to_e(0))
    assert pm[ext.layout.m_to_e(0)] == cval % 3
    assert not pm[ext.layout.g_to_e(0)]


def test_bar_roundtrip_difference_is_explicit_equivalence(loaded_catalog):
    """c and the re-extracted cocycle differ by a bar coboundary delta(h);
    alpha(x, m) = (x, m + h(x)) is then a restricted equivalence between
    the corresponding extensions."""
    from supercoh.gflin import solve
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    p = g.p
    bar = CochainComplex(g, k, "bar")
    lie = CochainComplex(g, k, "lie")
    h2s = restricted_cohomology(bar, 2)
    c0 = h2s.representatives[0]
    ext0 = restricted_ext_from_assoc_2cocycle(bar, lie, c0)
    c1 = assoc_2cocycle_from_restricted_ext(ext0, bar)
    diff = [(a - b) % p for a, b in zip(c1, c0)]
    d1 = bar.d(1)
    h = solve(d1, diff)
    assert h is not None  # same class, so the difference is a coboundary
    ext1 = restricted_ext_from_assoc_2cocycle(bar, lie, c1)
    # alpha: ext1 -> ext0 on (x, m) -> (x, m + h(x)); brackets agree (the
    # antisymmetrized restrictions coincide on the line), p-maps must match
    cb1 = bar.basis(1)
    hx = h[cb1.index[((cb1.aug_index[(1,)],), 0)]]
    alpha = np.eye(ext0.E.dim, dtype=np.int64)
    alpha[ext0.layout.m_to_e(0), ext0.layout.g_to_e(0)] = hx
    for i in range(ext0.E.dim):
        for j in range(ext0.E.dim):
            ei = np.eye(ext0.E.dim, dtype=np.int64)[i]
            ej = np.eye(ext0.E.dim, dtype=np.int64)[j]
            lhs = (alpha @ ext1.E.bracket(ei, ej)) % p
            rhs = ext0.E.bracket(alpha[:, i], alpha[:, j]) % p
            assert np.array_equal(lhs, rhs)
    for e in ext0.E.space.even_indices():
        from supercoh.superalg import pmap_apply
        lhs = (alpha @ ext1.E.pmap_basis(e)) % p
        rhs = pmap_apply(ext0.E, alpha[:, e])
        assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# automorphisms and equivalence testing
# ---------------------------------------------------------------------------

def test_automorphism_laws(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    p = g.p
    ext = semidirect_extension(g, k)
    lie = CochainComplex(g, k, "lie")
    b1 = lie_cochain_basis(g, k.space, 1)
    Z1 = nullspace(lie.d(1))
    zero = automorphism_from_1cocycle(ext, lie, [0] * b1.dim)
    assert np.array_equal(zero, np.eye(ext.E.dim, dtype=np.int64))
    h = Z1.basis_rows[0]
    a1 = automorphism_from_1cocycle(ext, lie, h)
    a2 = automorphism_from_1cocycle(ext, lie, [(-v) % p for v in h])
    assert np.array_equal((a1 @ a2) % p, np.eye(ext.E.dim, dtype=np.int64))
    # a non-cocycle yields no automorphism
    bad = [0] * b1.dim
    bad[b1.index[((1,), (), 0)]] = 1  # x* is not a cocycle for the borel algebra
    assert any(lie.d(1).matvec(bad))
    with pytest.raises(NotACocycleError):
        automorphism_from_1cocycle(ext, lie, bad)


def test_are_equivalent_examples(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    s0 = semidirect_extension(g, k)
    lie = CochainComplex(g, k, "lie")
    assert are_equivalent_restricted(s0, s0, lie)
    tw = twist_pmap(s0, SemiLinearMap(g, 1, ((1,),)))
    assert not are_equivalent_restricted(s0, tw, lie)  # Im Psi = 0 here
    gt, kt = fixture_algebra(loaded_catalog, "a2-torus")
    s0t = semidirect_extension(gt, kt)
    twt = twist_pmap(s0t, SemiLinearMap(gt, 1, ((2,),)))
    liet = CochainComplex(gt, kt, "lie")
    assert are_equivalent_restricted(s0t, twt, liet)  # Psi is onto for the torus


def test_are_equivalent_twist_by_psi_value(loaded_catalog):
    """Twisting by Psi(h) for a 1-cocycle h always gives an equivalent
    extension."""
    from supercoh.extensions import psi_twist_of_cocycle
    for entry_id in ("a2-torus", "a4-borel", "a8-torus-null-plane"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        s0 = semidirect_extension(g, rep)
        lie = CochainComplex(g, rep, "lie")
        Z1 = nullspace(lie.d(1))
        for row in Z1.basis_rows:
            smap = psi_twist_of_cocycle(s0, lie, row)
            tw = twist_pmap(s0, smap)
            assert are_equivalent_restricted(s0, tw, lie), entry_id


def test_are_equivalent_rejects_different_brackets(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a3-heisenberg")
    b2 = lie_cochain_basis(g, k.space, 2)
    f = [0] * b2.dim
    f[b2.index[((), (1, 1), 0)]] = 1
    lie = CochainComplex(g, k, "lie")
    e1 = restricted_structure_from_lie_2cocycle(lie, f)
    s0 = semidirect_extension(g, k)
    with pytest.raises(DifferentUnderlyingError):
        are_equivalent_restricted(e1, s0, lie)


def test_strongly_abelianize_shift_is_semilinear_into_center(loaded_catalog):
    """The p-map difference vanishes on the complement and lands in the
    center of the total space, so the output is similar to the input."""
    g, k, s0, mgen, ext = _torus_with_kernel_pmap(loaded_catalog, 2)
    out = strongly_abelianize(ext)
    assert np.array_equal(out.E.brackets, ext.E.brackets)
    center = [v for v in range(ext.E.dim)
              if not any(ext.E.bracket(ext.E.basis_vector(v),
                                       ext.E.basis_vector(w)).any()
                         for w in range(ext.E.dim))]
    for i in ext.E.space.even_indices():
        diff = (np.array(ext.E.pmap_basis(i)) - np.array(out.E.pmap_basis(i))) % g.p
        support = [v for v, c in enumerate(diff) if c]
        assert all(v in center for v in support)


def test_bar_zero_cocycle_gives_trivial_extension(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a3-heisenberg")
    bar = CochainComplex(g, k, "bar")
    lie = CochainComplex(g, k, "lie")
    cb = bar.basis(2)
    ext = restricted_ext_from_assoc_2cocycle(bar, lie, [0] * cb.dim)
    s0 = semidirect_extension(g, k)
    assert np.array_equal(ext.E.brackets, s0.E.brackets)
    assert _pmaps_equal(ext, s0)
