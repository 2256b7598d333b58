import collections
import random

import numpy as np
import pytest

import supercoh.cohomology as cohomology
from supercoh.cohomology import (
    CochainComplex, CohomologyResult, PairComplex, lie_cochain_basis,
    lie_obstruction_matrix, lie_psi_bar_matrix, pair_fill,
    restricted_cohomology,
)
from supercoh.envelope import UAlgebra
from supercoh.errors import (
    InvariantViolationError, NotACocycleError, UsageError,
)
from supercoh.extensions import semidirect_extension, twist_pmap
from supercoh.gflin import (
    MatGF, Subspace, image, nullspace, quotient_representatives, subspace_sum,
)
from supercoh.sixterm import (
    SixTermContext, build_six_term, map_h1_to_semilinear,
    map_h1res_to_h1, map_h2_to_semilinear_h1, map_h2res_to_h2,
    map_semilinear_to_h2res, obstruction_cocycle,
)
from supercoh.superalg import (
    SemiLinearMap, adjoint_module, semidirect, trivial_module,
)

from conftest import fixture_algebra
from oracles import (
    bar_cocycle_of_extension, bar_cocycle_of_pair, bar_h2_by_nullspace,
    element_action,
)

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
        d1 = ctx.lie.d(1)
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
    built = collections.Counter()
    # the degree is the bar d's third argument and the Lie d's second
    for kind, name, at in (("bar", "assoc_differential_matrix", 2),
                           ("lie", "lie_differential_matrix", 1)):
        def counted(*args, _real=getattr(cohomology, name), _kind=kind, _at=at):
            built[(_kind, args[_at])] += 1
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
    differential goes through ``gflin.image``, which would reduce it a
    second time (only the arrow i1 does).  On a4-borel the bar d1 gives
    both Z^1_* and B^2_*, and the Lie d1 both Z^1 and B^2.  The verdicts
    reduce each arrow exactly once, 5 reductions where an image and a
    kernel apiece took 8: psibar, fg and pi for both, i1 only for its
    image, phi only for its kernel, which only the last verdict reads."""
    import sys
    from supercoh import gflin
    diffs = []  # (matrix, (kind, degree)) of every differential built

    def which(m):
        return next((key for d, key in diffs if d is m), None)

    for kind, name, at in (("bar", "assoc_differential_matrix", 2),
                           ("lie", "lie_differential_matrix", 1)):
        def built(*args, _real=getattr(cohomology, name), _kind=kind, _at=at):
            m = _real(*args)
            diffs.append((m, (_kind, args[_at])))
            return m
        monkeypatch.setattr(cohomology, name, built)
    reduced = collections.Counter()
    column_route = []

    seen = []  # every matrix reduced

    class CountedReduction(gflin.RowReduction):
        def __init__(self, m):
            seen.append(m)
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
    report = build_six_term(g, k)
    assert {name: sum(m is a for m in seen)
            for name, a in report.maps.items()} == \
        {"i1": 1, "psibar": 1, "fg": 1, "pi": 1, "phi": 1}
    del reduced[None]  # the arrows and the pair model's own matrices
    assert reduced == {("bar", 0): 1, ("bar", 1): 1,
                       ("lie", 0): 1, ("lie", 1): 1, ("lie", 2): 1}
    assert column_route and set(column_route) == {None}


def test_pair_complex_shares_the_lie_d0(loaded_catalog):
    """The pair complex's d0 and its reduction are the Lie complex's own
    objects, so a context reduces the Lie d0 once for H^1 and H^1_* alike;
    D1 maps C^1 to C^2 + M^{n_even}."""
    g, adjoint = fixture_algebra(loaded_catalog, "a4-borel", "adjoint")
    ctx = SixTermContext(g, adjoint)
    ctx.space_dims  # H^1_* and H^2_*, each checked against the pair complex
    assert ctx.pair.image(0) is ctx.lie.image(0)
    assert ctx.pair.kernel(0) is ctx.lie.kernel(0)
    assert ctx.pair.d(0) is ctx.lie.d(0)
    assert (ctx.pair.d(1).rows, ctx.pair.d(1).cols) == (
        ctx.lie.d(1).rows + g.space.n_even * adjoint.dim, ctx.lie.d(1).cols)


def test_pair_complex_with_module_is_that_of_the_new_module(loaded_catalog):
    """``with_module`` gives the pair complex on the Lie complex of the new
    module: its D1 and D2 are those of a pair complex built afresh, not
    the old module's."""
    g, adjoint = fixture_algebra(loaded_catalog, "a4-borel", "adjoint")
    k = fixture_algebra(loaded_catalog, "a4-borel")[1]
    pair = PairComplex(CochainComplex(g, k, "lie"))
    pair.d(2)
    other = pair.with_module(adjoint)
    fresh = PairComplex(CochainComplex(g, adjoint, "lie"))
    assert other.lie.rep is adjoint
    for n in (0, 1, 2):
        assert other.d(n) == fresh.d(n), n
    assert restricted_cohomology(other, 2).Z == restricted_cohomology(fresh, 2).Z


def test_a_report_builds_psi_bar_and_each_obstruction_once(loaded_catalog):
    """The Lie complex keeps its Psi-bar and obstruction matrices: D1, D2
    and the arrows psibar and phi of one context read the same objects,
    and ``with_module`` starts afresh (a4-borel: x and y even)."""
    g, adjoint = fixture_algebra(loaded_catalog, "a4-borel", "adjoint")
    ctx = SixTermContext(g, adjoint)
    psi = lie_psi_bar_matrix(ctx.lie)
    obs = [lie_obstruction_matrix(ctx.lie, x) for x in g.space.even_indices()]
    assert len(obs) == 2
    ctx.space_dims, ctx.phi, map_h1_to_semilinear(ctx)
    assert lie_psi_bar_matrix(ctx.lie) is psi
    assert all(lie_obstruction_matrix(ctx.lie, x) is m
               for x, m in zip(g.space.even_indices(), obs))
    k = fixture_algebra(loaded_catalog, "a4-borel")[1]
    other = ctx.lie.with_module(k)
    assert lie_psi_bar_matrix(other).rows == g.space.n_even * k.dim
    assert lie_obstruction_matrix(other, 0) is not obs[0]


def test_pair_complex_has_three_differentials(loaded_catalog):
    """d0, D1 and D2 only: any other degree is a UsageError, before and
    after the differentials are built."""
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    pair = PairComplex(CochainComplex(g, k, "lie"))
    for n in (3, -1, 3):
        with pytest.raises(UsageError, match="d0, D1 and D2"):
            pair.d(n)
        pair.d(2)


def test_sl2_p5_adjoint_report(sl2_p5_adjoint):
    """sl2 at p = 5 with adjoint M, whose bar d1 is 46128 x 372, and
    9226 x 74 on the weight-0 cochains under the torus h that a report
    reduces: every verdict is exact and the dimensions of H^1_* and H^2_*
    are those of the pair model."""
    g, rep = sl2_p5_adjoint
    report = build_six_term(g, rep, "sl2", "adjoint")
    assert report.sizes["bar_c2_dim"] == 46128
    assert report.sizes["bar_c2_weight0_dim"] == 9226
    assert len(report.exactness) == 5 and report.all_exact
    pair = PairComplex(CochainComplex(g, rep, "lie"))
    h1s, h2s = (restricted_cohomology(pair, n) for n in (1, 2))
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
    (``oracles.bar_cocycle_of_extension``), as lists of ints."""
    g, rep = ctx.g, ctx.rep
    s0 = semidirect_extension(g, rep)
    out = []
    for (t, j) in ctx.s1_pairs:
        vals = [[0] * rep.dim for _ in range(g.space.n_even)]
        vals[t] = ctx.inv_even.rows[j].tolist()
        ext = twist_pmap(s0, SemiLinearMap(g, rep.dim, vals))
        out.append(list(bar_cocycle_of_extension(ext, ctx.bar)))
    return out


def record_fills(monkeypatch):
    """Record every ((f, w), fill) of ``cohomology.pair_fill``, one pair
    per member of each stack it fills, both as tuples of ints."""
    fills = []

    def recorded(bar, vecs, _real=cohomology.pair_fill):
        out = _real(bar, vecs)
        fills.extend((tuple(v), tuple(c)) for v, c in
                     zip(np.asarray(vecs).tolist(), out.tolist()))
        return out
    monkeypatch.setattr(cohomology, "pair_fill", recorded)
    return fills


def test_h2s_equals_the_bar_d2_nullspace(loaded_catalog, small_catalog,
                                         monkeypatch):
    """The report's H^2_*, spanned from B^2_* and the fills of the pair
    complex's classes, has the Z, B and representatives of the bar
    complex's Ker d2 / Im d1 (``oracles.bar_h2_by_nullspace``), and the
    pair model has its dimension and that of the bar complex's H^1_*.  The bar complex
    is the report's, on the weight-0 cochains when g has a basis torus;
    ``test_cohomology.test_weight_zero_results_embed_in_the_full_complex``
    checks that its results embed in the full complex's.  On every catalog
    entry, the fuzzed semidirect products of the test above, and
    g |x ad(g) with trivial module for every catalog algebra of dim <= 2.
    H^2_* extracts nothing, and fg one cocycle when S != 0, that of the
    universal twist, and none when S = 0; it is byte-equal to the one
    computed entry by entry from gamma (``oracles.bar_cocycle_of_extension``),
    and so is each fg cocycle to that of its own twisted extension
    twist_pmap(s0, sigma).  There is one fill per class of the pair
    complex's H^2, byte-equal to the gamma cocycle of E_f with the p-map of
    its (f, w)."""
    import supercoh.extensions as extensions
    extracted = []

    def recorded(ext, bar, _real=extensions.assoc_2cocycle_from_restricted_ext):
        extracted.append((ext, bar, _real(ext, bar)))
        return extracted[-1][2]
    monkeypatch.setattr(extensions, "assoc_2cocycle_from_restricted_ext",
                        recorded)
    fills = record_fills(monkeypatch)
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
    filled = set()
    for name, g, rep in pairs:
        extracted.clear()
        fills.clear()
        ctx = SixTermContext(g, rep)
        bar = bar_h2_by_nullspace(ctx.bar)
        assert (ctx.h2s.Z, ctx.h2s.B, ctx.h2s.R) == (bar.Z, bar.B, bar.R), name
        h1s, h2s = (restricted_cohomology(ctx.pair, n) for n in (1, 2))
        assert h2s.dim_h == bar.dim_h, name
        assert h1s.dim_h == restricted_cohomology(ctx.bar, 1).dim_h, name
        assert not extracted, name
        fg = ctx.fg_cocycles
        assert len(extracted) == (1 if ctx.s1_pairs else 0), name
        assert len(fills) == h2s.dim_h, name
        if fills:
            filled.add(name)
        for ext, cx, cvec in extracted:
            assert cvec == bar_cocycle_of_extension(ext, cx), name
        for vec, cvec in fills:
            assert cvec == bar_cocycle_of_pair(ctx.lie, ctx.bar, vec), name
        assert fg.tolist() == _per_sigma_fg_cocycles(ctx), name
    assert {"a5-odd-line", "a6-abelian-plane"} <= filled


def test_fill_of_an_fg_pair_is_the_fg_cocycle(loaded_catalog):
    """The fill of the pair (0, -sigma_(t,j)), w_t = -inv_j, is byte-equal
    to the fg cocycle of twist_pmap(s0, sigma_(t,j)), on every catalog
    entry with S != 0 (10 of 15): the twisted p-map is e^[p] - sigma, so
    this pins the sign of w in the fill."""
    checked = 0
    for entry_id, (e, g, modules) in loaded_catalog.items():
        ctx = SixTermContext(g, modules[e.module_name])
        n2, dm = ctx.lie.basis(2).dim, ctx.rep.dim
        for k, (t, j) in enumerate(ctx.s1_pairs):
            vec = np.zeros(n2 + g.space.n_even * dm, dtype=np.int64)
            vec[n2 + t * dm:n2 + (t + 1) * dm] = -ctx.inv_even.rows[j] % g.p
            assert np.array_equal(pair_fill(ctx.bar, vec), ctx.fg_cocycles[k]), (
                entry_id, k)
            checked += 1
    assert checked >= 10


def test_a_report_builds_no_extension_of_a_class(loaded_catalog, monkeypatch):
    """``build_six_term`` calls neither ``algebra_ext_from_2cocycle`` nor
    ``restricted_structure_from_lie_2cocycle``, and builds no u(E) but
    that of the universal twist of fg: one extraction and two UAlgebra
    (u(g) of the bar complex, u(E) of the twist) when S != 0, none and one
    when S = 0.  On every catalog entry and on a6-abelian-plane |x ad with
    its adjoint module, where all 40 classes of H^2_* are filled."""
    import supercoh.envelope as envelope
    import supercoh.extensions as extensions
    calls = collections.Counter()
    for name in ("assoc_2cocycle_from_restricted_ext",
                 "algebra_ext_from_2cocycle",
                 "restricted_structure_from_lie_2cocycle"):
        def counted(*args, _real=getattr(extensions, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(extensions, name, counted)

    def counted_init(self, *args, _real=envelope.UAlgebra.__init__, **kw):
        calls["UAlgebra"] += 1
        _real(self, *args, **kw)
    monkeypatch.setattr(envelope.UAlgebra, "__init__", counted_init)
    fills = record_fills(monkeypatch)
    g, _ = fixture_algebra(loaded_catalog, "a6-abelian-plane")
    E, _ = semidirect(g, adjoint_module(g))
    cases = [(entry_id, g, modules[e.module_name])
             for entry_id, (e, g, modules) in loaded_catalog.items()]
    for name, g, rep in cases + [("a6 |x ad", E, adjoint_module(E))]:
        calls.clear()
        fills.clear()
        report = build_six_term(g, rep)
        assert report.all_exact, name
        extractions = 1 if report.dims[2] else 0
        assert calls == collections.Counter(
            {"UAlgebra": 1 + extractions,
             "assoc_2cocycle_from_restricted_ext": extractions}), name
    assert len(fills) == 40


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
    assert ctx.fg_cocycles.tolist() == _per_sigma_fg_cocycles(ctx)
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
    through c(x, x x) alone.  The fg cocycles are checked by membership
    in Z^2_*, which is spanned from B^2_* and the fills without them."""
    def bend(kappa, ext, bar):
        x = ext.g.space.even_indices()[0]
        c = bar.cochain_array(kappa)
        c[bar.aug_power(x, 1), bar.aug_power(x, 2), 0] += 1
        return tuple(bar.cochain_vector(c % ext.p).tolist())
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


def test_h2s_is_spanned_without_fg(loaded_catalog, monkeypatch):
    """On a4-borel (S = 2) reading ``h2s`` alone twists and extracts
    nothing.  A report passes to ``is_bar_2cocycle`` the extraction's
    cocycle and its stack of fills when there is one, never the fg stack:
    on every catalog entry one call per extraction plus one per non-empty
    fill stack."""
    import supercoh.extensions as extensions
    calls = collections.Counter()
    for module, name in ((extensions, "assoc_2cocycle_from_restricted_ext"),
                         (extensions, "twist_pmap"),
                         (extensions, "is_bar_2cocycle"),
                         (cohomology, "is_bar_2cocycle")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    fills = record_fills(monkeypatch)
    g, k = fixture_algebra(loaded_catalog, "a4-borel")
    ctx = SixTermContext(g, k)
    assert len(ctx.s1_pairs) == 2 and ctx.h2s.dim_h
    assert calls == {"is_bar_2cocycle": 1 if fills else 0}
    filled = 0
    for entry_id, (e, g, modules) in loaded_catalog.items():
        calls.clear()
        fills.clear()
        report = build_six_term(g, modules[e.module_name])
        extractions = 1 if report.dims[2] else 0
        filled += bool(extractions and fills)
        assert calls["is_bar_2cocycle"] == extractions + bool(fills), entry_id
    assert filled


def test_h2s_dimension_check_catches_a_dropped_fill(loaded_catalog,
                                                   monkeypatch):
    """On a5-odd-line H^2_* is one filled class (S = 0); a zero cochain in
    place of its fill leaves Z^2_* = B^2_*, one class short of the pair
    model."""
    monkeypatch.setattr(cohomology, "pair_fill", lambda bar, vecs: np.zeros(
        (len(vecs), bar.d(1).rows), dtype=np.int64))
    g, k = fixture_algebra(loaded_catalog, "a5-odd-line")
    ctx = SixTermContext(g, k)
    assert len(ctx.s1_pairs) == 0 and nullspace(ctx.phi).dim == 1
    with pytest.raises(InvariantViolationError, match="pair model"):
        ctx.h2s


def test_h2s_catches_a_bent_fill(loaded_catalog):
    """On a6-abelian-plane the three classes of H^2_* are filled (S = 2,
    ker phi of dim 1).  Adding 1 to the coordinate of the generator-row
    entry (x, x^2, 0) of each fill, x the first even basis element, leaves
    no cocycle: the row (x, x, x) of d2 picks it up through c(x, x x)
    alone.  Reading ``fg_cocycles`` computes H^2_*, so the fills are bent
    before the first read of either."""
    g, k = fixture_algebra(loaded_catalog, "a6-abelian-plane")
    ctx = SixTermContext(g, k)
    assert len(ctx.s1_pairs) == 2 and nullspace(ctx.phi).dim == 1
    bar, real = ctx.bar, ctx.bar.cocycle_from_seeds
    x = g.space.even_indices()[0]
    A = len(bar.ualg.aug_basis())
    at = bar.parity_lookup(2)[(bar.aug_power(x, 1) * A
                               + bar.aug_power(x, 2)) * k.dim]
    assert at >= 0

    def bent(seeds):
        c = real(seeds)
        c[..., at] += 1
        return c
    bar.cocycle_from_seeds = bent
    with pytest.raises(NotACocycleError, match="fill"):
        ctx.h2s


def test_pair_model_catches_a_negated_psi_bar(loaded_catalog, monkeypatch):
    """With -Psi-bar in D1, D2 D1 is not zero on a4-borel with the adjoint
    module (on the trivial module rho = 0 and the sign goes unseen).  D1
    reads Psi-bar off ``cohomology.lie_psi_bar_matrix``."""
    real = cohomology.lie_psi_bar_matrix

    def negated(lie):
        m = real(lie)
        r, c, v = m.coo()
        return MatGF.from_terms(m.rows, m.cols, m.p, r, c, -v)
    g, adjoint = fixture_algebra(loaded_catalog, "a4-borel", "adjoint")
    lie = CochainComplex(g, adjoint, "lie")
    PairComplex(lie).d(2)
    monkeypatch.setattr(cohomology, "lie_psi_bar_matrix", negated)
    with pytest.raises(InvariantViolationError, match=r"D\^2 is not zero"):
        PairComplex(lie).d(2)


def test_report_checks_h1s_against_the_pair_model(loaded_catalog, monkeypatch):
    """A pair-model H^1_* with no classes (Z = B) makes the report raise on
    a6-abelian-plane, where dim H^1_* = 2: ``restricted_cohomology`` of
    the bar complex reads the pair complex's through the module name."""
    real = cohomology.restricted_cohomology

    def short(cx, n):
        h = real(cx, n)
        if cx.kind == "pair" and n == 1:
            return CohomologyResult.quotient(1, "restricted", h.B, h.B)
        return h
    monkeypatch.setattr(cohomology, "restricted_cohomology", short)
    g, k = fixture_algebra(loaded_catalog, "a6-abelian-plane")
    with pytest.raises(InvariantViolationError, match=r"H\^1_\*"):
        build_six_term(g, k)


def test_report_never_eliminates_the_bar_d2(loaded_catalog, monkeypatch):
    """A report builds no bar d2, so it cannot eliminate it: neither with
    S = 0 and ker phi = 0 (a4-borel-adjoint) nor with S != 0 (a4-borel),
    where the extracted fg cocycles are checked without d2, nor on any
    other catalog entry or on a4-borel-adjoint |x adjoint (dim S = 4)."""
    built = {}

    def counted(ualg, rep, n, lookup=None,
                _real=cohomology.assoc_differential_matrix):
        built[n] = _real(ualg, rep, n, lookup)
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


def test_a_report_builds_each_parity_lookup_once(loaded_catalog, monkeypatch):
    """Every bar complex builds the parity lookup of each degree once: the
    differentials read it through ``CochainComplex.parity_lookup``, as the
    cochain arrays do, so no (u(g), M, degree) is built twice in a report.
    Over the 15 catalog reports that is 58 builds, where differentials
    that built their own lookups made 103."""
    builds = []

    def counted(ualg, rep, n, _real=cohomology._bar_lookup):
        builds.append((ualg, rep, n))
        return _real(ualg, rep, n)
    monkeypatch.setattr(cohomology, "_bar_lookup", counted)
    total = 0
    for entry_id, (e, g, modules) in loaded_catalog.items():
        builds.clear()
        build_six_term(g, modules[e.module_name])
        keys = [(id(u), id(rep), n) for u, rep, n in builds]
        assert len(keys) == len(set(keys)), entry_id
        total += len(keys)
    assert total == 58


def test_report_holds_im_bar_d1_by_its_nonzeros(loaded_catalog):
    """a4-borel-adjoint |x its adjoint module, with trivial M (the bar C^2
    has dimension 6400, 2134 of weight 0 under the torus t): the report's
    Im(bar d1), 25 x 2134 with 1892 nonzeros, and that of the full
    complex, 79 x 6400 with 5244 nonzeros, are held in O(nnz + dim)
    bytes, and the tracemalloc peak of the report stays below 6 MB.  It
    was 13.3 MB while Im(bar d1), Z^2_* and the check that B^2_* lies in
    Z^2_* were dense int64 arrays of 79 or 82 rows, and 2.9 MB on the
    full complex with sparse ones."""
    import tracemalloc
    e, g, modules = loaded_catalog["a4-borel-adjoint"]
    E, _ = semidirect(g, modules["adjoint"])
    tracemalloc.start()
    try:
        build_six_term(E, trivial_module(E))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
    report_bar = SixTermContext(E, trivial_module(E)).bar
    full = CochainComplex(E, trivial_module(E), "bar")
    assert report_bar.torus == (0,) and not full.torus
    for bar, want in ((report_bar, (25, 2134, 1892)), (full, (79, 6400, 5244))):
        B = bar.image(1)
        basis = B.basis
        assert (B.dim, B.ambient_dim, basis.nnz) == want
        held = basis.indptr.nbytes + basis.indices.nbytes + basis.data.nbytes
        assert held == 8 * (B.dim + 1 + 2 * basis.nnz) < B.dim * B.ambient_dim


def _record_contexts(monkeypatch):
    """Record every ``SixTermContext`` built, in order."""
    made = []

    def recorded(ctx, g, rep, _real=SixTermContext.__init__):
        _real(ctx, g, rep)
        made.append(ctx)
    monkeypatch.setattr(SixTermContext, "__init__", recorded)
    return made


def test_a_report_writes_no_im_bar_d1(loaded_catalog, sl2_p5_adjoint,
                                      monkeypatch):
    """A report reduces its cocycles against Im(bar d1) through the bar d1
    and its m[P, Q]^-1 and never writes the image's rows, the product
    T = m V of the bar d1: not on the 15 catalog pairs, semidirect4's E
    (a4-borel-adjoint |x adjoint, trivial M), a4-borel-adjoint at p = 7
    with adjoint M, or sl2 at p = 5 with adjoint M.  The images of the
    Lie complex are still written, so the spy sees image writes."""
    import supercoh.gflin as gflin
    from supercoh.algfile import parse_algebra_dict
    written = []

    def spy(a, b, transposed=False, _real=gflin._product):
        if transposed:
            written.append(a)
        return _real(a, b, transposed)
    monkeypatch.setattr(gflin, "_product", spy)
    made = _record_contexts(monkeypatch)
    inputs = [(entry_id, g, modules[e.module_name])
              for entry_id, (e, g, modules) in loaded_catalog.items()]
    e, g, modules = loaded_catalog["a4-borel-adjoint"]
    E, _ = semidirect(g, modules["adjoint"])
    g7, modules7, _ = parse_algebra_dict(dict(e.data, p=7))
    inputs += [("semidirect4", E, trivial_module(E)),
               ("borel-adjoint-p7", g7, modules7["adjoint"]),
               ("sl2-p5-adjoint", *sl2_p5_adjoint)]
    assert len(inputs) == 18
    lie_writes = 0
    for name, g, rep in inputs:
        made.clear()
        written.clear()
        assert build_six_term(g, rep).all_exact, name
        bar_d1 = made[0].bar.d(1)
        assert not [a for a in written if a is bar_d1], name
        lie_writes += len(written)
    assert lie_writes


def test_h2s_of_a_tall_bar_d1_from_residues(sl2_p5_adjoint, monkeypatch):
    """sl2 at p = 5 with the trivial module: the report's bar d1, on the
    weight-0 cochains under the torus h, is 3076 x 24 (the full one is
    15376 x 124), and H^2_* has three classes, all filled, so R is read
    off the residues of three cocycles modulo an image of 24 rows that the
    report never writes (the tallest catalog d1 with residues is
    a9-borel-semidirect's weight-0 226 x 8).  R is
    quotient_representatives(subspace_sum(B, span of the fg cocycles and
    fills), B) computed from written rows, the lazy Z^2_* is that sum, and
    the report is exact."""
    fills = record_fills(monkeypatch)
    made = _record_contexts(monkeypatch)
    g, _ = sl2_p5_adjoint
    report = build_six_term(g, trivial_module(g))
    assert report.dims == (0, 0, 3, 3, 0, 0) and report.all_exact
    ctx = made[0]
    h2s = ctx.h2s
    d1 = ctx.bar.d(1)
    assert ctx.bar.torus == (1,)
    assert (d1.rows, d1.cols, h2s.B.dim, len(fills)) == (3076, 24, 24, 3)
    assert (ctx.bar.full_dim(2), ctx.bar.full_dim(1)) == (15376, 124)
    assert (h2s.B._basis, h2s.Z._basis) == (None, None)
    B, n = h2s.B, h2s.cochain_dim
    vecs = list(ctx.fg_cocycles) + [fill for _, fill in fills]
    Z = subspace_sum(B, Subspace.from_vectors(vecs, n, ctx.p))
    assert h2s.R == quotient_representatives(Z, B)
    assert (h2s.Z.dim, h2s.Z.pivots) == (Z.dim, Z.pivots) and h2s.Z == Z


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
        d1 = lie.d(1)

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
            act = element_action(U, rep, u, omega(v, hvec))
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
    from supercoh.gflin import MatGF, image, nullspace
    from supercoh.sixterm import _exact_at
    p = 3
    prev = MatGF.zeros(2, 1, p)               # image = 0
    nxt = MatGF.zeros(1, 2, p)                # kernel = everything
    ok, witness = _exact_at(image(prev), nullspace(nxt))
    assert not ok and witness is not None
    assert any(witness)
    ok2, witness2 = _exact_at(image(MatGF.identity(2, p)),
                              nullspace(MatGF.zeros(1, 2, p)))
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
