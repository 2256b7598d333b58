"""Kunneth for direct sums: the dimensions of H^1_*, H^2_* (read off the
pair complex) and of H^1, H^2 (the Lie complex) of g + h, with k and with
Pi k, follow from those of g and of h by the graded formula of
``direct_sums``.  This checks large inputs against small ones without the
bar complex: the six-fold sum below has a bar C^2 of about 5.6 * 10^10
cells."""

import functools

import pytest

from supercoh import catalog
from supercoh.algfile import parse_algebra_dict
from supercoh.sixterm import build_six_term

from direct_sums import (
    direct_sum, graded_dims, kunneth, ordinary_dims, restricted_dims,
    with_trivial_lines,
)


def _algebras():
    """The catalog's distinct algebras, by the first entry that has each,
    with k and Pi k as modules."""
    seen, out = set(), {}
    for e in catalog.ENTRIES:
        key = repr(sorted((k, v) for k, v in e.data.items() if k != "modules"))
        if key not in seen:
            seen.add(key)
            out[e.entry_id] = with_trivial_lines(e.data)
    return out


ALGEBRAS = _algebras()
IDS = list(ALGEBRAS)
SUMS = [(a, b) for i, a in enumerate(IDS) for b in IDS[i:]
        if ALGEBRAS[a]["p"] == ALGEBRAS[b]["p"]]
SIX_FOLD = ("a9-borel-semidirect", "a8-torus-null-plane", "a3-heisenberg",
            "a4-borel", "a5-odd-line", "a6-abelian-plane")


@pytest.mark.parametrize("dims", [restricted_dims, ordinary_dims])
def test_kunneth_on_the_catalog_sums(dims):
    """Every same-p sum of two of the catalog's 12 distinct algebras, a
    summand with itself included (51 sums).  The odd terms matter: the
    ungraded formula, e_n = sum e_i e'_j alone, misses on the 4 sums of
    algebras with an odd generator and o_1 = 1 (a3 + a3, a3 + a5, a5 + a5
    and a3-p5 + a3-p5)."""
    assert (len(ALGEBRAS), len(SUMS)) == (12, 51)
    single = {name: graded_dims(data, dims) for name, data in ALGEBRAS.items()}
    assert all(e[0] == 1 and o[0] == 0 for e, o in single.values())
    ungraded_misses = 0
    for a, b in SUMS:
        got = graded_dims(direct_sum(ALGEBRAS[a], ALGEBRAS[b]), dims)
        assert got == kunneth(single[a], single[b]), (a, b)
        (e, _), (e2, _) = single[a], single[b]
        ungraded = tuple(sum(e[i] * e2[n - i] for i in range(n + 1))
                         for n in range(3))
        ungraded_misses += ungraded != got[0]
    assert ungraded_misses == 4


@pytest.mark.parametrize("dims, want", [(restricted_dims, (4, 15, 2, 8)),
                                        (ordinary_dims, (7, 23, 2, 14))])
def test_kunneth_on_a_six_fold_sum(dims, want):
    """a9 + a8 + a3 + a4 + a5 + a6, of dim 10|2: (e_1, e_2, o_1, o_2)
    computed on the sum equal the formula folded over the six summands.
    o_2 counts no class whose E_f breaks the p = 3 odd-cube axiom
    (``cohomology.lie_odd_cube_matrix``); such classes of a3-heisenberg
    with Pi k made it 9 restricted and 15 ordinary."""
    data = functools.reduce(direct_sum, [ALGEBRAS[x] for x in SIX_FOLD])
    assert (len(data["even"]), len(data["odd"])) == (10, 2)
    e, o = graded_dims(data, dims)
    assert (e[1], e[2], o[1], o[2]) == want
    assert (e, o) == functools.reduce(
        kunneth, [graded_dims(ALGEBRAS[x], dims) for x in SIX_FOLD])


@pytest.mark.parametrize("b", [None] + [b for b in IDS if ALGEBRAS[b]["p"] == 3])
def test_p3_sums_with_an_odd_generator_report_exactly(b):
    """a3-heisenberg, alone and summed with each of the 9 p = 3 algebras,
    with k and with Pi k: the report is exact, so the pair complex's H^1_*
    and H^2_* have the dimensions of the bar complex's.  Without the p = 3
    odd-cube rows (``cohomology.lie_odd_cube_matrix``) the pair complex
    and the Lie complex hold an f on a3-heisenberg with Pi k whose E_f
    breaks [y, [y, y]] = 0: pair H^2_* = 1 against bar H^2_* = 0, and the
    report raised ValidationError on building that E_f."""
    a3 = ALGEBRAS["a3-heisenberg"]
    data = a3 if b is None else direct_sum(a3, ALGEBRAS[b])
    g, modules, _ = parse_algebra_dict(data)
    for m in ("k", "Pk"):
        assert build_six_term(g, modules[m]).all_exact, (b, m)
    if b is None:
        assert graded_dims(a3, restricted_dims) == ((1, 0, 1), (0, 1, 0))


@pytest.mark.parametrize("a, b", [("a1-null", "a2-torus"),
                                  ("a3-heisenberg", "a5-odd-line"),
                                  ("a1-null-p5", "a2-torus-p5")])
def test_six_term_reports_on_sums(a, b):
    """The six-term report of g + h with k: every verdict exact, and H^1_*
    and H^2_* of the dimensions the formula predicts."""
    g, modules, _ = parse_algebra_dict(direct_sum(ALGEBRAS[a], ALGEBRAS[b]))
    report = build_six_term(g, modules["k"], f"{a} + {b}", "k")
    assert report.all_exact, report.summary()
    e, _ = kunneth(graded_dims(ALGEBRAS[a], restricted_dims),
                   graded_dims(ALGEBRAS[b], restricted_dims))
    assert (report.dims[0], report.dims[3]) == (e[1], e[2])
