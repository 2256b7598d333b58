"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (integer dimensions, zero matrices, identical
matrices); runtime ceilings are asserted with generous wall-clock checks.
"""

import random
import time

import numpy as np

from supercoh import catalog, cli
from supercoh.cohomology import (
    CochainComplex, PairComplex, assoc_differential_matrix, lie_cochain_basis,
    restricted_cohomology,
)
from supercoh.envelope import UAlgebra, check_commutator_identities
from supercoh.extensions import (
    algebra_ext_from_2cocycle, assoc_2cocycle_from_restricted_ext,
    cocycle_from_algebra_ext, cocycle_from_module_ext, module_ext_from_1cocycle,
    restricted_ext_from_assoc_2cocycle, semidirect_extension,
)
from supercoh.gflin import image, nullspace
from supercoh.sixterm import (
    SixTermContext, build_six_term, map_h1_to_semilinear,
    map_h2_to_semilinear_h1, map_semilinear_to_h2res, obstruction_cocycle,
)
from supercoh.superalg import (
    Representation, SuperSpace, adjoint_module, hom_module, semidirect,
    trivial_module, validate_lie_super, validate_module, validate_pmap,
)

from conftest import fixture_algebra
from oracles import bar_dims, table_borel, table_super_line, table_truncated_poly

SEED = 20260808


def _passed(num, text):
    print(f"[acceptance] criterion {num}: PASS - {text}")


def _run_fixture(loaded_catalog, entry_id, expected_dims, limit):
    g, k = fixture_algebra(loaded_catalog, entry_id)
    t0 = time.perf_counter()
    report = build_six_term(g, k, entry_id, "k")
    elapsed = time.perf_counter() - t0
    assert report.dims == expected_dims, report.dims
    assert report.all_exact, report.summary()
    assert elapsed < limit, f"{elapsed:.2f}s exceeds {limit}s"
    return report, elapsed


def test_criterion_1_nilpotent_line(loaded_catalog):
    report, elapsed = _run_fixture(loaded_catalog, "a1-null",
                                   (1, 1, 1, 1, 0, 0), 1.0)
    # independent oracle: bar complex of k[x]/(x^3) by hand-coded table
    labels, parities, prod = table_truncated_poly(3, nilpotent=True)
    assert bar_dims(labels, parities, prod, 3, 1)[2] == 1
    assert bar_dims(labels, parities, prod, 3, 2)[2] == 1
    _passed(1, f"dims {report.dims}, all exact, {elapsed:.3f}s")


def test_criterion_2_torus(loaded_catalog):
    report, elapsed = _run_fixture(loaded_catalog, "a2-torus",
                                   (0, 1, 1, 0, 0, 0), 1.0)
    labels, parities, prod = table_truncated_poly(3, nilpotent=False)
    assert bar_dims(labels, parities, prod, 3, 1)[2] == 0
    z2, b2, h2 = bar_dims(labels, parities, prod, 3, 2)
    assert (z2, b2, h2) == (2, 2, 0)
    # Psi-bar is an isomorphism onto S
    g, k = fixture_algebra(loaded_catalog, "a2-torus")
    psibar = map_h1_to_semilinear(SixTermContext(g, k))
    assert psibar.rows == psibar.cols == 1 and image(psibar).dim == 1
    _passed(2, f"dims {report.dims}, Psi-bar iso, {elapsed:.3f}s")


def test_criterion_3_super_line(loaded_catalog):
    report, elapsed = _run_fixture(loaded_catalog, "a3-heisenberg",
                                   (0, 0, 1, 1, 0, 0), 5.0)
    labels, parities, prod = table_super_line(3)
    assert len(labels) == 5
    assert bar_dims(labels, parities, prod, 3, 1)[2] == 0
    assert bar_dims(labels, parities, prod, 3, 2)[2] == 1
    _passed(3, f"dims {report.dims}, all exact, {elapsed:.3f}s")


def test_criterion_4_borel(loaded_catalog):
    report, elapsed = _run_fixture(loaded_catalog, "a4-borel",
                                   (0, 1, 2, 1, 0, 0), 10.0)
    labels, parities, prod = table_borel(3)
    assert len(labels) == 8
    assert bar_dims(labels, parities, prod, 3, 1)[2] == 0
    assert bar_dims(labels, parities, prod, 3, 2)[2] == 1
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    ctx = SixTermContext(g, k)
    assert image(map_h1_to_semilinear(ctx)).dim == 1
    assert image(map_semilinear_to_h2res(ctx)).dim == 1
    _passed(4, f"dims {report.dims}, rank Psi-bar = rank FG = 1, {elapsed:.3f}s")


def test_criterion_5_delta_squared(loaded_catalog, small_catalog):
    t0 = time.perf_counter()
    checked = 0
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        u, lie = UAlgebra(g), CochainComplex(g, rep, "lie")
        for n in (0, 1):
            assert lie.d(n + 1).matmul(lie.d(n)).is_zero(), entry_id
            assert assoc_differential_matrix(u, rep, n + 1).matmul(
                assoc_differential_matrix(u, rep, n)).is_zero(), entry_id
        checked += 1
    rng = random.Random(SEED)
    pool = list(small_catalog.values())
    for trial in range(50):
        e, g, modules = pool[rng.randrange(len(pool))]
        if e.entry_id == "a2-torus":
            # any scalar action is a restricted module for the torus
            c = rng.randrange(g.p)
            rep = Representation(g, SuperSpace(("w",), ()), [np.array([[c]])])
        else:
            rep = rng.choice([modules["k"], adjoint_module(g)])
        E, _ = semidirect(g, rep)
        tk = trivial_module(E)
        uE, lie = UAlgebra(E), CochainComplex(E, tk, "lie")
        for n in (0, 1):
            assert lie.d(n + 1).matmul(lie.d(n)).is_zero(), (trial, e.entry_id)
            assert assoc_differential_matrix(uE, tk, n + 1).matmul(
                assoc_differential_matrix(uE, tk, n)).is_zero(), (trial, e.entry_id)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(5, f"d^2 = 0 on {checked} catalog entries + 50 fuzzed "
               f"semidirects, {elapsed:.1f}s")


def test_criterion_6_pth_power_condition(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        for name, rep in modules.items():
            got = restricted_cohomology(
                PairComplex(CochainComplex(g, rep, "lie")), 1).dim_h
            want = restricted_cohomology(CochainComplex(g, rep, "bar"), 1).dim_h
            assert got == want, (entry_id, name)
    _passed(6, "Lie-side p-th power condition matches the bar complex "
               "on every catalog module")


def test_criterion_7_commutator_identities(loaded_catalog):
    t0 = time.perf_counter()
    for entry_id, (e, g, modules) in loaded_catalog.items():
        report = check_commutator_identities(g, trials=100, seed=SEED)
        assert report.ok, (entry_id, report.summary())
    elapsed = time.perf_counter() - t0
    _passed(7, f"100 samples per catalog algebra, coefficientwise, {elapsed:.1f}s")


def test_criterion_8_round_trips(loaded_catalog):
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        # degree-1 correspondence on Hom(N, K)
        K, N = adjoint_module(g), trivial_module(g, name="n0")
        M = hom_module(g, N, K)
        Z1 = nullspace(CochainComplex(g, M, "lie").d(1))
        for row in Z1.basis_rows[:3]:
            ext = module_ext_from_1cocycle(g, K, N, row, hom=M)
            assert cocycle_from_module_ext(ext) == tuple(int(v) for v in row)
            assert validate_module(g, ext.E).ok
        # degree-2 correspondence
        lie = CochainComplex(g, rep, "lie")
        Z2 = nullspace(lie.d(2))
        for row in Z2.basis_rows[:3]:
            ext = algebra_ext_from_2cocycle(lie, row)
            assert cocycle_from_algebra_ext(ext, lie) == tuple(int(v) for v in row)
            assert validate_lie_super(ext.E).ok
        # bar correspondence: class-level round trip, validators pass
        bar = CochainComplex(g, rep, "bar")
        h2s = restricted_cohomology(bar, 2)
        for c0 in h2s.representatives:
            ext = restricted_ext_from_assoc_2cocycle(bar, lie, c0)
            assert validate_lie_super(ext.E).ok and validate_pmap(ext.E).ok
            c1 = assoc_2cocycle_from_restricted_ext(ext, bar)
            assert np.array_equal(h2s.class_coords(c0), h2s.class_coords(c1)), \
                entry_id
        s0 = semidirect_extension(g, rep)
        c_triv = assoc_2cocycle_from_restricted_ext(s0, bar)
        assert all(v == 0 for v in h2s.class_coords(c_triv)), entry_id
    _passed(8, "cocycle/extension round trips land in the same class and "
               "revalidate on every catalog entry")


def test_criterion_9_representative_independence(loaded_catalog):
    rng = random.Random(SEED)
    for entry_id, (e, g, modules) in loaded_catalog.items():
        rep = modules[e.module_name]
        ctx = SixTermContext(g, rep)
        base = map_h2_to_semilinear_h1(ctx)
        b1 = lie_cochain_basis(g, rep.space, 1)
        d1 = ctx.lie.d(1)
        p = g.p
        for _ in range(10):
            cols = []
            for fvec in ctx.h2.representatives:
                h = [rng.randrange(p) for _ in range(b1.dim)]
                shifted = [(a + b) % p for a, b in zip(fvec, d1.matvec(h))]
                col = []
                for idx in g.space.even_indices():
                    col.extend(ctx.h1.class_coords(
                        obstruction_cocycle(ctx.lie, shifted, idx)))
                cols.append(col)
            from supercoh.gflin import MatGF
            ent = {(r, c): v % p for c, col in enumerate(cols)
                   for r, v in enumerate(col) if v % p}
            assert MatGF(base.rows, base.cols, p, ent) == base, entry_id
    _passed(9, "obstruction matrices unchanged under 10 random coboundary "
               "shifts per representative")


def test_criterion_10_run_all(capsys):
    # catalog breadth: >= 8 pairs, purely even / purely odd / mixed, p in {3,5}
    assert len(catalog.ENTRIES) >= 8
    kinds = {"even": 0, "odd": 0, "mixed": 0}
    primes = set()
    for e in catalog.ENTRIES:
        primes.add(e.data["p"])
        ne, no = len(e.data["even"]), len(e.data["odd"])
        kinds["even" if no == 0 else "odd" if ne == 0 else "mixed"] += 1
    assert kinds["even"] and kinds["odd"] and kinds["mixed"]
    assert {3, 5} <= primes
    t0 = time.perf_counter()
    code = cli.main(["examples", "run-all"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "all exact" in out
    assert elapsed < 300.0
    with capsys.disabled():
        _passed(10, f"examples run-all exits 0 over {len(catalog.ENTRIES)} "
                    f"pairs in {elapsed:.1f}s")
