import collections
import random

import numpy as np
import pytest

from supercoh.cohomology import (
    CochainComplex, _make_result, lie_cochain_basis, lie_differential_matrix,
    restricted_cohomology,
)
from supercoh.envelope import UAlgebra
from supercoh.errors import InvariantViolationError, NotACocycleError
from supercoh.extensions import semidirect_extension, twist_pmap
from supercoh.gflin import image, nullspace
from supercoh.sixterm import (
    SixTermContext, build_six_term, map_h1_to_semilinear, map_h1res_to_h1,
    map_h2_to_semilinear_h1, map_h2res_to_h2, map_semilinear_to_h2res,
    obstruction_cocycle, pair_model,
)
from supercoh.superalg import (
    SemiLinearMap, adjoint_module, semidirect, trivial_module,
)

from conftest import fixture_algebra
from oracles import bar_cocycle_of_extension

EXPECTED = {
    "a1-null": (1, 1, 1, 1, 0, 0),
    "a2-torus": (0, 1, 1, 0, 0, 0),
    "a3-heisenberg": (0, 0, 1, 1, 0, 0),
    "a4-borel": (0, 1, 2, 1, 0, 0),
    "a5-odd-line": (0, 0, 0, 1, 1, 0),
    "a6-abelian-plane": (2, 2, 2, 3, 1, 0),
    "a7-mixed-line": (0, 1, 1, 0, 0, 0),
    "a8-torus-null-plane": (1, 2, 2, 1, 1, 1),
    "a9-borel-semidirect": (1, 2, 3, 2, 1, 1),
    "a1-null-p5": (1, 1, 1, 1, 0, 0),
    "a2-torus-p5": (0, 1, 1, 0, 0, 0),
    "a3-heisenberg-p5": (0, 0, 1, 1, 0, 0),
}


@pytest.mark.parametrize("entry_id", sorted(EXPECTED))
def test_six_term_dims_and_exactness(loaded_catalog, entry_id):
    e, g, modules = loaded_catalog[entry_id]
    report = build_six_term(g, modules["k"], entry_id, "k")
    assert report.dims == EXPECTED[entry_id]
    assert report.all_exact, report.summary()
    assert not report.offending


def test_six_term_adjoint_modules(loaded_catalog):
    for entry_id in ("a4-borel-adjoint", "a4-borel-dual", "a3-heisenberg-adjoint"):
        e, g, modules = loaded_catalog[entry_id]
        report = build_six_term(g, modules[e.module_name], entry_id, e.module_name)
        assert report.all_exact, report.summary()


def test_euler_identity(loaded_catalog):
    """Exactness forces h1s - h1 + s1 - h2s + h2 = rank(last arrow)."""
    for entry_id, (e, g, modules) in loaded_catalog.items():
        report = build_six_term(g, modules[e.module_name], entry_id, e.module_name)
        h1s, h1, s1, h2s, h2, rk = report.dims
        assert h1s - h1 + s1 - h2s + h2 == rk, entry_id


def test_composites_are_zero(loaded_catalog):
    for entry_id in ("a1-null", "a4-borel", "a8-torus-null-plane"):
        e, g, modules = loaded_catalog[entry_id]
        report = build_six_term(g, modules["k"], entry_id, "k")
        chain = ["i1", "psibar", "fg", "pi", "phi"]
        for a, b in zip(chain, chain[1:]):
            assert report.maps[b].matmul(report.maps[a]).is_zero(), (entry_id, b)


def test_i1_values(loaded_catalog):
    # nilpotent line: 1x1 identity; torus: empty source; super line: empty
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    m = map_h1res_to_h1(SixTermContext(g, k))
    assert (m.rows, m.cols) == (1, 1) and m.entries == {(0, 0): 1}
    gt, kt = fixture_algebra(loaded_catalog, "a2-torus")
    mt = map_h1res_to_h1(SixTermContext(gt, kt))
    assert (mt.rows, mt.cols) == (1, 0)
    g3, k3 = fixture_algebra(loaded_catalog, "a3-heisenberg")
    m3 = map_h1res_to_h1(SixTermContext(g3, k3))
    assert (m3.rows, m3.cols) == (0, 0)


def test_psibar_values(loaded_catalog):
    # nilpotent line: zero map; torus: h -> -h(x), rank 1
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    m = map_h1_to_semilinear(SixTermContext(g, k))
    assert m.is_zero() and (m.rows, m.cols) == (1, 1)
    gt, kt = fixture_algebra(loaded_catalog, "a2-torus")
    mt = map_h1_to_semilinear(SixTermContext(gt, kt))
    assert mt.entries == {(0, 0): 2}
    # borel: representative h* goes to (h -> -1, x -> 0)
    g4, k4 = fixture_algebra(loaded_catalog, "a4-borel")
    ctx4 = SixTermContext(g4, k4)
    b1 = lie_cochain_basis(g4, k4.space, 1)
    rep = ctx4.h1.representatives[0]
    assert rep[b1.index[((0,), (), 0)]] == 1 and rep[b1.index[((1,), (), 0)]] == 0
    m4 = map_h1_to_semilinear(ctx4)
    assert m4.entries == {(0, 0): 2}
    assert image(m4).dim == 1


def test_fg_rank_examples(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a1-null")
    m = map_semilinear_to_h2res(SixTermContext(g, k))
    assert image(m).dim == 1  # the twisted trivial extension generates H^2_*
    gt, kt = fixture_algebra(loaded_catalog, "a2-torus")
    mt = map_semilinear_to_h2res(SixTermContext(gt, kt))
    assert (mt.rows, mt.cols) == (0, 1)
    g4, k4 = fixture_algebra(loaded_catalog, "a4-borel")
    m4 = map_semilinear_to_h2res(SixTermContext(g4, k4))
    assert image(m4).dim == 1


def test_pi_zero_on_h2_zero_fixtures(loaded_catalog):
    for entry_id in ("a1-null", "a4-borel"):
        g, k = fixture_algebra(loaded_catalog, entry_id)
        m = map_h2res_to_h2(SixTermContext(g, k))
        assert m.rows == 0 and m.cols == 1


def test_phi_nonzero_on_torus_null_plane(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a8-torus-null-plane")
    m = map_h2_to_semilinear_h1(SixTermContext(g, k))
    assert image(m).dim == 1
    # the second term is read as f(x1, x^[p]); the flipped reading
    # f(x^[p], x1) would give the entry 1 instead of 2 here
    assert (m.rows, m.cols, m.entries) == (4, 1, {(1, 0): 2})


def test_phi_representative_independence(loaded_catalog):
    """Shifting each H^2 representative by random coboundaries must leave
    the obstruction matrix unchanged."""
    rng = random.Random(42)
    for entry_id in ("a5-odd-line", "a6-abelian-plane", "a8-torus-null-plane"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        p = g.p
        ctx = SixTermContext(g, rep)
        base = map_h2_to_semilinear_h1(ctx)
        d1 = lie_differential_matrix(g, rep, 1)
        b1 = lie_cochain_basis(g, rep.space, 1)
        for _ in range(10):
            cols = []
            for fvec in ctx.h2.representatives:
                h = [rng.randrange(p) for _ in range(b1.dim)]
                shifted = [(a + b) % p for a, b in zip(fvec, d1.matvec(h))]
                col = []
                for idx in g.space.even_indices():
                    kvec = obstruction_cocycle(ctx.lie, shifted, idx)
                    col.extend(ctx.h1.class_coords(kvec))
                cols.append(col)
            ent = {}
            for c, col in enumerate(cols):
                for r, v in enumerate(col):
                    if v % p:
                        ent[(r, c)] = v % p
            from supercoh.gflin import MatGF
            shifted_mat = MatGF(base.rows, base.cols, p, ent)
            assert shifted_mat == base, entry_id


def test_each_differential_built_once(loaded_catalog, monkeypatch):
    """One report builds each (kind, degree) differential exactly once, and
    no bar d2 even on a4-borel (S != 0), where the cocycles extracted for
    fg are checked without it.  Cochain bases come from the report's
    complexes only: the bar differential, the cocycle check and the
    comparison number bar cochains by their keys without building a basis,
    so the only bar basis is that of degree 1 (for H^1_*), built once, no
    bar 2-cochain is enumerated, and the Lie count does not grow with the
    number of obstruction cocycles phi reads (a9-borel-semidirect: 3 even
    basis elements, dim H^2 = 1)."""
    import sys
    import supercoh.cohomology as cohomology
    built = collections.Counter()
    for kind, name in (("bar", "assoc_differential_matrix"),
                       ("lie", "lie_differential_matrix")):
        def counted(*args, _real=getattr(cohomology, name), _kind=kind):
            built[(_kind, args[2])] += 1
            return _real(*args)
        monkeypatch.setattr(cohomology, name, counted)
    bases = {"lie_cochain_basis": [], "assoc_cochain_basis": []}
    for fname, seen in bases.items():
        real = getattr(cohomology, fname)

        def counted_basis(*args, _real=real, _seen=seen):
            _seen.append(args[2])
            return _real(*args)
        for name, mod in list(sys.modules.items()):
            if (name == "supercoh" or name.startswith("supercoh.")) and \
                    getattr(mod, fname, None) is real:
                monkeypatch.setattr(mod, fname, counted_basis)
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    report = build_six_term(g, k)
    assert report.maps["fg"].rows and report.maps["fg"].cols  # S != 0
    assert built == {**{("bar", n): 1 for n in (0, 1)},
                     **{("lie", n): 1 for n in (0, 1, 2)}}
    assert bases["assoc_cochain_basis"] == [1]
    borel_bases = len(bases["lie_cochain_basis"])
    bases["lie_cochain_basis"].clear()
    g, k = fixture_algebra(loaded_catalog, "a9-borel-semidirect")
    report = build_six_term(g, k)
    assert g.space.n_even == 3 and report.dims[4] == 1
    assert len(bases["lie_cochain_basis"]) == borel_bases


def test_each_differential_reduced_at_most_once(loaded_catalog,
                                                monkeypatch):
    """One report eliminates the rows of each (kind, degree) differential
    at most once and reads Ker and Im off that one ``RowReduction``; no
    differential goes through the column route ``gflin.image``.  On
    a4-borel the bar d1 gives both Z^1_* and B^2_*, and the Lie d1 both
    Z^1 and B^2."""
    import sys
    import supercoh.cohomology as cohomology
    from supercoh import gflin
    diffs = []  # (matrix, (kind, degree)) of every differential built

    def which(m):
        return next((key for d, key in diffs if d is m), None)

    for kind, name in (("bar", "assoc_differential_matrix"),
                       ("lie", "lie_differential_matrix")):
        def built(*args, _real=getattr(cohomology, name), _kind=kind):
            m = _real(*args)
            diffs.append((m, (_kind, args[2])))
            return m
        monkeypatch.setattr(cohomology, name, built)
    reduced = collections.Counter()
    column_route = []

    class CountedReduction(gflin.RowReduction):
        def __init__(self, m):
            reduced[which(m)] += 1
            super().__init__(m)

    def counted_image(m, _real=gflin.image):
        column_route.append(which(m))
        return _real(m)

    for fname, fake in (("RowReduction", CountedReduction),
                        ("image", counted_image)):
        real = getattr(gflin, fname)
        for name, mod in list(sys.modules.items()):
            if (name == "supercoh" or name.startswith("supercoh.")) and \
                    getattr(mod, fname, None) is real:
                monkeypatch.setattr(mod, fname, fake)
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    build_six_term(g, k)
    del reduced[None]  # the arrows and the pair model's own matrices
    assert reduced == {("bar", 0): 1, ("bar", 1): 1,
                       ("lie", 0): 1, ("lie", 1): 1, ("lie", 2): 1}
    assert column_route and set(column_route) == {None}


def test_sl2_p5_adjoint_report(sl2_p5_adjoint):
    """sl2 at p = 5 with adjoint M, whose bar d1 is 46128 x 372: every
    verdict is exact and the dimensions of H^1_* and H^2_* are those of the
    pair model."""
    g, rep = sl2_p5_adjoint
    report = build_six_term(g, rep, "sl2", "adjoint")
    assert report.sizes["bar_c2_dim"] == 46128
    assert len(report.exactness) == 5 and report.all_exact
    h1s, h2s = pair_model(CochainComplex(g, rep, "lie"))
    assert (report.dims[0], report.dims[3]) == (h1s.dim_h, h2s.dim_h)
    assert report.dims == (0, 0, 0, 0, 0, 0)


def test_psibar_kills_restricted_classes(loaded_catalog):
    """The composite Psi-bar o i1 is zero: restricted classes satisfy the
    p-th power condition."""
    for entry_id, (e, g, modules) in loaded_catalog.items():
        ctx = SixTermContext(g, modules[e.module_name])
        comp = map_h1_to_semilinear(ctx).matmul(map_h1res_to_h1(ctx))
        assert comp.is_zero(), entry_id


def _fuzzed_semidirect_products(small_catalog):
    """Six semidirect products g |x k drawn from the small catalog."""
    rng = random.Random(2024)
    entries = list(small_catalog.values())
    for _ in range(6):
        e, g, modules = rng.choice(entries)
        E, _ = semidirect(g, modules["k"])
        yield e.entry_id, E


def test_fuzzed_semidirect_six_term(small_catalog):
    """Criterion-style fuzz: six-term exactness also holds for randomly
    chosen semidirect-product algebras."""
    for entry_id, E in _fuzzed_semidirect_products(small_catalog):
        report = build_six_term(E, trivial_module(E), f"sd-{entry_id}", "k")
        assert report.all_exact, report.summary()


def _per_sigma_fg_cocycles(ctx):
    """The fg cocycles one twisted extension twist_pmap(s0, sigma_k) at a
    time, s0 the split extension of (g, M) and sigma_k(x_s) = delta_st inv_j
    for the pair k = (t, j) of ``ctx.s1_pairs``, every entry from gamma
    (``oracles.bar_cocycle_of_extension``)."""
    g, rep = ctx.g, ctx.rep
    s0 = semidirect_extension(g, rep)
    out = []
    for (t, j) in ctx.s1_pairs:
        vals = [[0] * rep.dim for _ in range(g.space.n_even)]
        vals[t] = ctx.inv_even.rows[j].tolist()
        ext = twist_pmap(s0, SemiLinearMap(g, rep.dim, vals))
        out.append(bar_cocycle_of_extension(ext, ctx.bar))
    return out


def test_h2s_equals_the_bar_d2_nullspace(loaded_catalog, small_catalog,
                                         monkeypatch):
    """The report's H^2_*, spanned from B^2_*, the fg cocycles and the
    ker-phi lifts, has the Z, B and representatives of the bar complex's
    Ker d2 / Im d1, and the pair model has its dimension and that of the
    bar complex's H^1_*: on every catalog entry, the fuzzed semidirect
    products of the test above, and g |x ad(g) with trivial module for
    every catalog algebra of dim <= 2.  A report extracts one cocycle for
    fg when S != 0, that of the universal twist, and one per ker-phi lift;
    each is byte-equal to the one computed entry by entry from gamma
    (``oracles.bar_cocycle_of_extension``), and so is each fg cocycle to
    that of its own twisted extension twist_pmap(s0, sigma)."""
    import supercoh.extensions as extensions
    extracted = []

    def recorded(ext, bar, _real=extensions.assoc_2cocycle_from_restricted_ext):
        extracted.append((ext, bar, _real(ext, bar)))
        return extracted[-1][2]
    monkeypatch.setattr(extensions, "assoc_2cocycle_from_restricted_ext",
                        recorded)
    pairs = [(entry_id, g, modules[e.module_name])
             for entry_id, (e, g, modules) in loaded_catalog.items()]
    pairs += [(f"sd-{entry_id}", E, trivial_module(E))
              for entry_id, E in _fuzzed_semidirect_products(small_catalog)]
    seen = set()
    for entry_id, (e, g, modules) in loaded_catalog.items():
        algebra = repr(sorted((k, v) for k, v in e.data.items() if k != "modules"))
        if g.dim <= 2 and algebra not in seen:
            seen.add(algebra)
            E, _ = semidirect(g, adjoint_module(g))
            pairs.append((f"{entry_id} |x ad", E, trivial_module(E)))
    lifted = set()
    for name, g, rep in pairs:
        extracted.clear()
        ctx = SixTermContext(g, rep)
        bar = restricted_cohomology(ctx.bar, 2)
        assert (ctx.h2s.Z, ctx.h2s.B, ctx.h2s.R) == (bar.Z, bar.B, bar.R), name
        h1s, h2s = pair_model(ctx.lie)
        assert h2s.dim_h == bar.dim_h, name
        assert h1s.dim_h == restricted_cohomology(ctx.bar, 1).dim_h, name
        if nullspace(ctx.phi).dim:
            lifted.add(name)
        assert len(extracted) == ((1 if ctx.s1_pairs else 0)
                                  + nullspace(ctx.phi).dim), name
        for ext, cx, cvec in extracted:
            assert cvec == bar_cocycle_of_extension(ext, cx), name
        assert list(ctx.fg_cocycles) == _per_sigma_fg_cocycles(ctx), name
    assert {"a5-odd-line", "a6-abelian-plane"} <= lifted


@pytest.mark.parametrize("entry_id", ["a6-abelian-plane", "a3-heisenberg",
                                      "a1-null-p5"])
def test_fg_on_invariants_of_dim_two_and_more(loaded_catalog, entry_id):
    """On g |x ad(g) with its adjoint module, dim M_0^g >= 2, so the
    universal cocycle is tensored with more than one invariant (S = 16 on
    a6-abelian-plane, 4 on the super a3-heisenberg and on a1-null-p5): the
    fg cocycles equal those of the twisted extensions one by one, and the
    report is exact."""
    g, _ = fixture_algebra(loaded_catalog, entry_id)
    E, _ = semidirect(g, adjoint_module(g))
    rep = adjoint_module(E)
    ctx = SixTermContext(E, rep)
    assert ctx.inv_even.dim >= 2
    assert ctx.fg_cocycles == _per_sigma_fg_cocycles(ctx)
    report = build_six_term(E, rep)
    assert report.all_exact, report.summary()


def _bend_universal_cocycle(monkeypatch, bend):
    """Make the one extraction fg does return bend(kappa, ext, bar) in place
    of the universal cocycle kappa."""
    import supercoh.extensions as extensions

    def bent(ext, bar, _real=extensions.assoc_2cocycle_from_restricted_ext):
        return bend(list(_real(ext, bar)), ext, bar)
    monkeypatch.setattr(extensions, "assoc_2cocycle_from_restricted_ext", bent)


def test_fg_catches_a_bent_universal_cocycle(loaded_catalog, monkeypatch):
    """Adding 1 to the generator-row entry kappa_0(x, x^2), x the first even
    basis element, leaves no cocycle: the row (x, x, x) of d2 picks it up
    through c(x, x x) alone.  The fg cocycles are checked one by one."""
    from supercoh.cohomology import _aug_power, _bar_lookup

    def bend(kappa, ext, bar):
        ualg, x = bar.ualg, ext.g.space.even_indices()[0]
        A, n = len(ualg.aug_basis()), bar.rep.dim
        key = (_aug_power(ualg, x, 1) * A + _aug_power(ualg, x, 2)) * n
        col = int(_bar_lookup(ualg, bar.rep, 2)[key])
        kappa[col] = (kappa[col] + 1) % ext.p
        return tuple(kappa)
    _bend_universal_cocycle(monkeypatch, bend)
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    ctx = SixTermContext(g, k)
    assert ctx.s1_pairs
    with pytest.raises(NotACocycleError):
        ctx.fg_cocycles


def test_fg_catches_a_negated_universal_cocycle(loaded_catalog, monkeypatch):
    """-kappa is still a cocycle with a zero bracket defect, but it reads
    back sigma(x) where E_sigma's p-map gives -sigma(x)."""
    _bend_universal_cocycle(
        monkeypatch, lambda kappa, ext, bar: tuple(-c % ext.p for c in kappa))
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    ctx = SixTermContext(g, k)
    with pytest.raises(InvariantViolationError, match="p-map"):
        ctx.fg_cocycles


def test_fg_extracts_once(loaded_catalog, monkeypatch):
    """On a4-borel-adjoint |x adjoint with trivial module (S = 4, ker phi
    = 0) a report twists and extracts once, for fg, and builds one u(E)
    besides the bar complex's u(g); on a4-borel-adjoint with its adjoint
    module (S = 0, ker phi = 0) it extracts nothing but still builds the
    split extension."""
    import supercoh.envelope as envelope
    import supercoh.extensions as extensions
    calls = collections.Counter()
    for name in ("assoc_2cocycle_from_restricted_ext", "twist_pmap",
                 "semidirect_extension"):
        def counted(*args, _real=getattr(extensions, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(extensions, name, counted)

    def counted_init(self, *args, _real=envelope.UAlgebra.__init__, **kw):
        calls["UAlgebra"] += 1
        _real(self, *args, **kw)
    monkeypatch.setattr(envelope.UAlgebra, "__init__", counted_init)
    _, g, modules = loaded_catalog["a4-borel-adjoint"]
    E, _ = semidirect(g, modules["adjoint"])
    report = build_six_term(E, trivial_module(E))
    assert report.dims[2] == 4 and report.all_exact
    assert calls == {"assoc_2cocycle_from_restricted_ext": 1,
                     "twist_pmap": 1, "semidirect_extension": 1,
                     "UAlgebra": 2}
    calls.clear()
    report = build_six_term(g, modules["adjoint"])
    assert report.dims[2] == 0 and report.all_exact
    assert calls == {"semidirect_extension": 1, "UAlgebra": 1}


def test_h2s_dimension_check_catches_a_dropped_lift(loaded_catalog, monkeypatch):
    """On a5-odd-line H^2_* is one ker-phi lift (S = 0); extracting the
    zero cochain in its place leaves Z^2_* = B^2_*, one class short of the
    pair model."""
    import supercoh.extensions as extensions
    monkeypatch.setattr(extensions, "assoc_2cocycle_from_restricted_ext",
                        lambda ext, bar: (0,) * bar.basis(2).dim)
    g, k = fixture_algebra(loaded_catalog, "a5-odd-line")
    ctx = SixTermContext(g, k)
    assert len(ctx.s1_pairs) == 0 and nullspace(ctx.phi).dim == 1
    with pytest.raises(InvariantViolationError, match="pair model"):
        ctx.h2s


def test_pair_model_catches_a_negated_psi_bar(loaded_catalog, monkeypatch):
    """With -Psi-bar in D1, D2 D1 is not zero on a4-borel with the adjoint
    module (on the trivial module rho = 0 and the sign goes unseen)."""
    import supercoh.sixterm as sixterm
    real = sixterm.psi_bar_on_cocycle

    def negated(lie, h):
        s = real(lie, h)
        return SemiLinearMap(s.g, s.target_dim,
                             tuple(tuple(-v for v in row) for row in s.values))
    g, adjoint = fixture_algebra(loaded_catalog, "a4-borel", "adjoint")
    lie = CochainComplex(g, adjoint, "lie")
    pair_model(lie)
    monkeypatch.setattr(sixterm, "psi_bar_on_cocycle", negated)
    with pytest.raises(InvariantViolationError, match=r"D\^2 is not zero"):
        pair_model(lie)


def test_report_checks_h1s_against_the_pair_model(loaded_catalog, monkeypatch):
    """A pair-model H^1_* with no classes (Z = B) makes the report raise on
    a6-abelian-plane, where dim H^1_* = 2."""
    import supercoh.sixterm as sixterm
    real = sixterm.pair_model

    def short(lie):
        h1s, h2s = real(lie)
        return _make_result(1, "pair", h1s.cochain_dim, h1s.B, h1s.B), h2s
    monkeypatch.setattr(sixterm, "pair_model", short)
    g, k = fixture_algebra(loaded_catalog, "a6-abelian-plane")
    with pytest.raises(InvariantViolationError, match=r"H\^1_\*"):
        build_six_term(g, k)


def test_report_never_eliminates_the_bar_d2(loaded_catalog, monkeypatch):
    """A report builds no bar d2, so it cannot eliminate it: neither with
    S = 0 and ker phi = 0 (a4-borel-adjoint) nor with S != 0 (a4-borel),
    where the extracted fg cocycles are checked without d2, nor on any
    other catalog entry or on a4-borel-adjoint |x adjoint (dim S = 4)."""
    import supercoh.cohomology as cohomology
    built = {}

    def counted(ualg, rep, n, _real=cohomology.assoc_differential_matrix):
        built[n] = _real(ualg, rep, n)
        return built[n]
    monkeypatch.setattr(cohomology, "assoc_differential_matrix", counted)
    e, g, modules = loaded_catalog["a4-borel-adjoint"]
    report = build_six_term(g, modules["adjoint"])
    assert report.dims[2] == 0 and report.all_exact
    assert sorted(built) == [0, 1]
    built.clear()
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    report = build_six_term(g, k)
    assert report.dims[2] == 2 and sorted(built) == [0, 1]
    built.clear()
    for entry_id, (e, g, modules) in loaded_catalog.items():
        build_six_term(g, modules[e.module_name])
        assert sorted(built) == [0, 1], entry_id
    g, modules = loaded_catalog["a4-borel-adjoint"][1:]
    E, _ = semidirect(g, modules["adjoint"])
    report = build_six_term(E, trivial_module(E))
    assert report.dims[2] == 4 and sorted(built) == [0, 1]


def test_report_summary_and_sizes(loaded_catalog):
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    report = build_six_term(g, k, "a4-borel", "k")
    text = report.summary()
    assert "a4-borel" in text and "ok" in text
    assert report.sizes["space_dims"][2] == 2
    assert "total" in report.timings


def test_phi_matches_associative_lift_on_coboundaries(loaded_catalog):
    """For a Lie coboundary f = delta(h) lifted to the bar coboundary
    g = delta(omega) in degree-truncated U(g) (omega extending h by zero),
    the Lie-level obstruction representative equals

        g(x^p - x^[p], .) - g(., x^p - x^[p]) - delta^0(g(x^{p-1}, x))

    exactly, even basis element by even basis element."""
    import random as _random
    from supercoh.cohomology import eval_lie_cochain

    rng = _random.Random(6)
    for entry_id in ("a4-borel", "a8-torus-null-plane", "a2-torus"):
        e, g, modules = loaded_catalog[entry_id]
        rep = modules["k"]
        p = g.p
        U = UAlgebra(g, restricted=False, degree_bound=p + 2)
        b1 = lie_cochain_basis(g, rep.space, 1)
        lie = CochainComplex(g, rep, "lie")
        d1 = lie_differential_matrix(g, rep, 1)

        def omega(u, hvec):
            # linear extension of h vanishing on monomials of degree != 1
            out = np.zeros(rep.dim, dtype=np.int64)
            for mono, c in u.terms.items():
                if sum(mono) != 1:
                    continue
                pos = next(k for k, ee in enumerate(mono) if ee)
                i = U.gen_order[pos]
                out = (out + c * eval_lie_cochain(b1, hvec, (i,), p)) % p
            return out

        def bar_g(u, v, hvec):
            act = U.element_action(rep, u, omega(v, hvec))
            return (act - omega(U.multiply(u, v), hvec)) % p

        for _ in range(4):
            hvec = [rng.randrange(p) for _ in range(b1.dim)]
            fvec = d1.matvec(hvec)
            for idx in g.space.even_indices():
                kvec = obstruction_cocycle(lie, fvec, idx)
                x = U.generator(idx)
                A = U.power(x, p) - U.from_vector(g.pmap_basis(idx))
                xp1 = U.power(x, p - 1)
                s = bar_g(xp1, x, hvec)
                for b in range(g.dim):
                    xb = U.generator(b)
                    gx = (bar_g(A, xb, hvec) - bar_g(xb, A, hvec)) % p
                    lie_val = eval_lie_cochain(b1, kvec, (b,), p)
                    corr = (rep.mats[b] @ s) % p
                    assert np.array_equal(lie_val, (gx - corr) % p), \
                        (entry_id, idx, b)


def test_exactness_check_reports_witness():
    """A toy non-exact pair must yield a False verdict with a vector in
    the kernel that misses the image."""
    from supercoh.gflin import MatGF
    from supercoh.sixterm import _exact_at
    p = 3
    prev = MatGF.zeros(2, 1, p)               # image = 0
    nxt = MatGF.zeros(1, 2, p)                # kernel = everything
    ok, witness = _exact_at(prev, nxt)
    assert not ok and witness is not None
    assert any(witness)
    ok2, witness2 = _exact_at(MatGF.identity(2, p), MatGF.zeros(1, 2, p))
    assert ok2 and witness2 is None


def test_random_valid_algebras_are_exact():
    """Exactness fuzz: any randomly assembled structure that passes the
    axiom validators must produce a fully exact six-term sequence."""
    import itertools

    import numpy as np

    from supercoh.superalg import (
        LieSuperAlgebra, SuperSpace, adjoint_module, validate_lie_super,
        validate_module, validate_pmap,
    )

    rng = random.Random(777)
    built = 0

    def try_algebra(g, tag):
        nonlocal built
        if not (validate_lie_super(g).ok and validate_pmap(g).ok):
            return
        for rep_name, rep in (("k", trivial_module(g)), ("adj", adjoint_module(g))):
            if not validate_module(g, rep, restricted=True).ok:
                continue
            report = build_six_term(g, rep, tag, rep_name)
            built += 1
            assert report.all_exact, (tag, rep_name, report.summary())

    # abelian with random p-maps
    for trial in range(10):
        n0, n1 = rng.randrange(1, 3), rng.randrange(0, 2)
        sp = SuperSpace(tuple(f"e{i}" for i in range(n0)),
                        tuple(f"o{i}" for i in range(n1)))
        pm = {i: [rng.randrange(3) if j < n0 else 0 for j in range(sp.dim)]
              for i in range(n0)}
        try_algebra(LieSuperAlgebra(sp, 3, np.zeros((sp.dim,) * 3, dtype=np.int64), pm),
                    f"abelian-{trial}")
    # (1|1) families [x,y] = c y, [y,y] = d x, x^[3] = e x
    for c, d, e in itertools.product(range(3), range(3), range(3)):
        sp = SuperSpace(("x",), ("y",))
        brk = np.zeros((2, 2, 2), dtype=np.int64)
        brk[0, 1] = [0, c]
        brk[1, 0] = [0, (-c) % 3]
        brk[1, 1] = [d, 0]
        try_algebra(LieSuperAlgebra(sp, 3, brk, {0: [e, 0]}), f"mix-{c}{d}{e}")
    # solvable (2|0) with random p-maps
    for trial in range(12):
        a, b = rng.randrange(3), rng.randrange(3)
        sp = SuperSpace(("u", "v"), ())
        brk = np.zeros((2, 2, 2), dtype=np.int64)
        brk[0, 1] = [a, b]
        brk[1, 0] = [(-a) % 3, (-b) % 3]
        pm = {0: [rng.randrange(3), rng.randrange(3)],
              1: [rng.randrange(3), rng.randrange(3)]}
        try_algebra(LieSuperAlgebra(sp, 3, brk, pm), f"solv-{trial}")
    assert built >= 30
