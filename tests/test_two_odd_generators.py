"""Inputs with two odd basis elements, read from ``tests/data``: the odd
plane (0|2), the super Heisenberg algebra (1|2) with [y1, y2] = z and
z^[p] = 0 or z^[p] = z, and osp(1|2) at p = 3.  No catalog entry has more
than one odd basis element, so only these reach the (-1)^{|x||y|} = -1
branch of the bar cocycle recursion with x and y odd.  Each input comes
with the trivial even module, the trivial odd module and its adjoint
module.  They are not catalog entries: the golden payloads and the
benchmark iterate over those.  ``odd-cube-p3`` is a (1|2) input that the
validator refuses at p = 3."""

import json
import pathlib
import random

import numpy as np
import pytest

from supercoh import cli
from supercoh.algfile import parse_algebra, parse_algebra_dict
from supercoh.cohomology import (
    CochainComplex, pair_fill, restricted_cohomology,
)
from supercoh.errors import NotACocycleError, ValidationError
from supercoh.extensions import (
    algebra_ext_from_2cocycle, assoc_2cocycle_from_restricted_ext, psi_image,
    restricted_ext_from_assoc_2cocycle, restricted_structure_from_lie_2cocycle,
    semidirect_extension,
)
from supercoh.gflin import nullspace
from supercoh.sixterm import SixTermContext, build_six_term
from supercoh.superalg import adjoint_module

from oracles import bar_cocycle_of_extension, bar_cocycle_of_pair

DATA = pathlib.Path(__file__).parent / "data"
INPUTS = (("odd-plane", 3), ("odd-plane", 5), ("super-heisenberg", 3),
          ("super-heisenberg", 5), ("super-heisenberg-toral", 3),
          ("super-heisenberg-toral", 5), ("osp12", 3))
MODULES = ("k", "k-odd", "adjoint")
CASES = [(name, p, module) for name, p in INPUTS for module in MODULES]


def _load(name, p, module):
    g, modules, warnings = parse_algebra((DATA / f"{name}.json").read_text(),
                                         p_override=None if name == "osp12" else p)
    assert not warnings and g.p == p and g.space.n_odd == 2
    return g, adjoint_module(g) if module == "adjoint" else modules[module]


def _one_entry_shift(g, rep, i):
    """theta: g -> M, even, with one entry: x_i goes to the last basis
    vector of M of x_i's parity."""
    theta = np.zeros((rep.dim, g.dim), dtype=np.int64)
    j = [j for j in range(rep.dim) if rep.space.parity(j) == g.parity(i)][-1]
    theta[j, i] = 1
    return theta


def _random_shift(g, rep, rng):
    theta = np.zeros((rep.dim, g.dim), dtype=np.int64)
    for j in range(rep.dim):
        for i in range(g.dim):
            if rep.space.parity(j) == g.parity(i):
                theta[j, i] = rng.randrange(g.p)
    return theta


@pytest.mark.parametrize("name,p,module", CASES)
def test_extraction_matches_the_gamma_oracle(name, p, module):
    """The seed-filled extraction is byte-equal to the entry-by-entry gamma
    formula (``oracles.bar_cocycle_of_extension``) for s0 with the
    canonical section and with perturbed sections.  The oracle straightens
    |aug|^2 products in u(E), which takes minutes on osp(1|2) with a dense
    perturbation, so there the perturbation has one entry, at an odd
    generator where M has an odd vector (at h on the even trivial module);
    the smaller inputs take two dense random perturbations and the round
    trips of a coboundary and of the H^2_* representatives."""
    g, rep = _load(name, p, module)
    bar = CochainComplex(g, rep, "bar")
    s0 = semidirect_extension(g, rep)
    rng = random.Random(f"{name}-{p}-{module}")
    if name == "osp12":
        odd = rep.space.n_odd > 0
        shifts = [_one_entry_shift(g, rep, g.space.names.index("y" if odd else "h"))]
    else:
        shifts = [_random_shift(g, rep, rng) for _ in range(2)]
    cases = [(s0, None)] + [(s0, psi_image(s0, t)) for t in shifts]
    if name != "osp12":
        lie = CochainComplex(g, rep, "lie")
        h = [rng.randrange(p) for _ in range(bar.basis(1).dim)]
        cases += [(restricted_ext_from_assoc_2cocycle(bar, lie, c0), None)
                  for c0 in [bar.d(1).matvec(h)]
                  + list(restricted_cohomology(bar, 2).representatives)]
    nonzero = 0
    for ext, sec in cases:
        got = assoc_2cocycle_from_restricted_ext(ext, bar, sec)
        assert got == bar_cocycle_of_extension(ext, bar, sec)
        nonzero += any(got)
    # not only zero cocycles compared, but where M is odd and trivial: a
    # section then shifts only odd generators, and neither the odd plane
    # nor the super Heisenberg algebra has an odd bracket, so every defect
    # is zero
    assert nonzero or rep.space.n_even == 0 and not any(m.any() for m in rep.mats)


@pytest.mark.parametrize("name,p", [c for c in INPUTS if c[0] != "osp12"])
def test_pair_fills_match_the_gamma_oracle(name, p):
    """The report's fill of a 2-cocycle (f, w) of the pair complex
    (``cohomology.pair_fill``) is byte-equal to the entry-by-entry
    gamma formula for E_f with the p-map of w
    (``oracles.bar_cocycle_of_pair``), for every representative of the
    pair complex's H^2_*, with each module.  With k, two of the three
    classes have f(y, y) != 0 at an odd y, which pins the seed
    f(y, y) / 2; with two odd generators the seed f(y_2, y_1) takes the
    odd-odd branch of the recursion."""
    halves = 0
    for module in MODULES:
        g, rep = _load(name, p, module)
        ctx = SixTermContext(g, rep)
        n2 = ctx.lie.basis(2).dim
        for vec in restricted_cohomology(ctx.pair, 2).representatives:
            f = ctx.lie.cochain_array(vec[:n2])
            halves += any(f[y, y].any() for y in g.space.odd_indices())
            assert pair_fill(ctx.bar, vec).tolist() == list(bar_cocycle_of_pair(
                ctx.lie, ctx.bar, vec)), module
    assert halves == 2


@pytest.mark.parametrize("name,p,module", CASES)
def test_reports_are_exact(name, p, module):
    g, rep = _load(name, p, module)
    assert build_six_term(g, rep, name, module).all_exact


def test_p3_odd_cube_is_refused(capsys):
    """At p = 3 the super Jacobi law reads 3 [y, [y, y]] = 0 and says
    nothing, so [y, [y, y]] = 0 is checked on its own: the (1|2) algebra
    with [y, y] = z and [z, y] = v satisfies the Jacobi law, but
    [y, [y, y]] = -v."""
    path = DATA / "odd-cube-p3.json"
    with pytest.raises(ValidationError, match="odd-cube"):
        parse_algebra_dict(json.loads(path.read_text()))
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    assert "[y, [y, y]] = 0 fails" in capsys.readouterr().err


def test_a_d2_cocycle_off_the_odd_cube_is_not_a_cocycle():
    """On osp(1|2) at p = 3 with the odd trivial module, d2 kills 2-cochains
    f that break the odd-cube condition, so E_f would break
    [Y, [Y, Y]] = 0.  Such an f is not a 2-cocycle of the Lie complex
    (``CochainComplex.cocycle_rows``): building E_f, or its restricted
    structure, raises NotACocycleError before the validator sees E_f."""
    g, rep = _load("osp12", 3, "k-odd")
    lie = CochainComplex(g, rep, "lie")
    off = [v for v in nullspace(lie.d(2)).basis_rows
           if not lie.kernel(2).contains(v)]
    assert off
    for build in (algebra_ext_from_2cocycle,
                  restricted_structure_from_lie_2cocycle):
        with pytest.raises(NotACocycleError):
            build(lie, off[0])


def test_a_report_builds_the_odd_cube_rows_once(monkeypatch):
    """osp(1|2) at p = 3 with the odd trivial module has odd-cube rows.  A
    report reads ``cocycle_rows(2)`` of its Lie complex for the Lie Z^2 and
    for the pair complex's D2, and builds those rows once."""
    import supercoh.cohomology as cohomology
    built = []

    def counted(lie, _real=cohomology.lie_odd_cube_matrix):
        built.append(_real(lie))
        return built[-1]
    monkeypatch.setattr(cohomology, "lie_odd_cube_matrix", counted)
    g, rep = _load("osp12", 3, "k-odd")
    build_six_term(g, rep)
    assert len(built) == 1 and built[0].rows
