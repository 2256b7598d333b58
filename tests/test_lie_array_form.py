"""The array form of the Lie cochains (``CochainComplex.cochain_array`` and
``cochain_vector`` of the Lie kind) and what is built on it: the Lie
differentials d0-d2 equal the block-form ``split_lie_differential``, and
``psi_bar_on_cocycle``, ``obstruction_cocycle``, their matrices
``lie_psi_bar_matrix`` and ``lie_obstruction_matrix``, the Lie Z^2 with its
p = 3 odd-cube rows and the cohomology of the pair complex
(``PairComplex``) equal their per-unit references in
``tests/oracles.py``, on 86 (g, M) pairs:
every catalog entry with each of its modules and with its adjoint module
(52), and every input of ``tests/data`` at p = 3 and 5 with each of its
modules, the ``trivial`` one the parser adds, and its adjoint module (34;
osp(1|2) pins p = 3, W(1) comes apart, below, and ``odd-cube-p3`` does
not validate).  The pairs include inputs
with no even basis element (a5-odd-line, the odd plane), where Psi-bar has
no rows and D2 no w rows, and pairs with C^1 = 0.  W(1) at p = 5 and 7 is
compared on the Lie side only (the differentials, Psi-bar and the
obstruction with adjoint M): its bar C^2 has 9.7 million cells at p = 5."""

import pathlib

import numpy as np
import pytest

from supercoh import catalog
from supercoh.algfile import parse_algebra, parse_algebra_dict
from supercoh.cohomology import (
    CochainComplex, PairComplex, lie_cochain_basis, lie_obstruction_matrix,
    lie_psi_bar_matrix, restricted_cohomology,
)
from supercoh.errors import InvariantViolationError
from supercoh.sixterm import obstruction_cocycle, psi_bar_on_cocycle
from supercoh.gflin import MatGF, nullspace
from supercoh.superalg import adjoint_module

from oracles import (
    obstruction_per_unit, odd_cube_per_unit, pair_model_per_unit,
    psi_bar_per_unit, split_lie_differential,
)

DATA = pathlib.Path(__file__).parent / "data"
DATA_INPUTS = (("odd-plane", 3), ("odd-plane", 5), ("super-heisenberg", 3),
               ("super-heisenberg", 5), ("super-heisenberg-toral", 3),
               ("super-heisenberg-toral", 5), ("osp12", 3), ("sl2", 3),
               ("sl2", 5))


def _modules(g, modules):
    return [*modules.items(), ("adjoint module", adjoint_module(g))]


def _pairs():
    out = []
    for e in catalog.ENTRIES:
        g, modules, _ = parse_algebra_dict(e.data)
        out += [(f"{e.entry_id}/{name}", g, rep)
                for name, rep in _modules(g, modules)]
    for name, p in DATA_INPUTS:
        g, modules, _ = parse_algebra((DATA / f"{name}.json").read_text(),
                                      p_override=None if name == "osp12" else p)
        out += [(f"{name}-p{p}/{m}", g, rep) for m, rep in _modules(g, modules)]
    return out


PAIRS = _pairs()


def _witt(p, module):
    g, modules, _ = parse_algebra((DATA / f"witt-p{p}.json").read_text())
    return g, adjoint_module(g) if module == "adjoint" else modules[module]


def _pair_cohomology(lie):
    """(H^1_*, H^2_*) of the pair complex on ``lie``."""
    pair = PairComplex(lie)
    return restricted_cohomology(pair, 1), restricted_cohomology(pair, 2)


def _assert_same_cohomology(got, want):
    for a, b in zip(got, want):
        assert (a.Z, a.B, a.R) == (b.Z, b.B, b.R)


def test_the_pairs_cover_the_edge_cases():
    assert len(PAIRS) == 86
    assert any(g.space.n_even == 0 for _, g, _ in PAIRS)
    assert any(CochainComplex(g, rep, "lie").basis(1).dim == 0
               for _, g, rep in PAIRS)


WITT_ADJOINT = [(f"witt-p{p}/adjoint module", *_witt(p, "adjoint"))
                for p in (5, 7)]


@pytest.mark.parametrize("label,g,rep", PAIRS + WITT_ADJOINT,
                         ids=[p[0] for p in PAIRS + WITT_ADJOINT])
def test_lie_differentials_equal_the_split_oracle(label, g, rep):
    """d0, d1 and d2, read off the cochain layout, equal the block form
    with the even action, odd action and bracket sums written out."""
    lie = CochainComplex(g, rep, "lie")
    for n in (0, 1, 2):
        src = lie_cochain_basis(g, rep.space, n)
        dst = lie_cochain_basis(g, rep.space, n + 1)
        split = split_lie_differential(g, rep, n)
        assert set(split) == set(dst.items), n
        want = MatGF.from_rows(
            [{src.index[it]: c for it, c in split[item].items()}
             for item in dst.items], src.dim, g.p)
        assert lie.d(n) == want, n


@pytest.mark.parametrize("label,g,rep", PAIRS + WITT_ADJOINT,
                         ids=[p[0] for p in PAIRS + WITT_ADJOINT])
def test_stacked_readers_equal_the_per_unit_oracles(label, g, rep):
    """The Psi-bar and obstruction readers and their matrices, read off
    the layout, equal the per-unit oracles on every unit cochain; so do
    the Lie Z^2 with its odd-cube rows and, but on W(1), whose pair model
    ``test_witt_pair_model_equals_the_oracle`` compares, the pair
    complex's cohomology."""
    lie = CochainComplex(g, rep, "lie")
    n1, n2 = lie.basis(1).dim, lie.basis(2).dim
    units1, units2 = np.eye(n1, dtype=np.int64), np.eye(n2, dtype=np.int64)
    want = np.array([psi_bar_per_unit(lie, u) for u in units1],
                    dtype=np.int64).reshape(n1, g.space.n_even, rep.dim)
    assert np.array_equal(psi_bar_on_cocycle(lie, units1), want)
    assert lie_psi_bar_matrix(lie) == MatGF.from_dense(
        want.reshape(n1, g.space.n_even * rep.dim).T, g.p)
    for x in g.space.even_indices():
        want = np.array([obstruction_per_unit(lie, u, x) for u in units2],
                        dtype=np.int64).reshape(n2, n1)
        assert np.array_equal(obstruction_cocycle(lie, units2, x), want)
        assert lie_obstruction_matrix(lie, x) == MatGF.from_dense(want.T, g.p)
    width = len(odd_cube_per_unit(lie, np.zeros(n2, dtype=np.int64)))
    cube = np.array([odd_cube_per_unit(lie, u) for u in units2],
                    dtype=np.int64).reshape(n2, width).T
    assert lie.kernel(2) == nullspace(MatGF.from_dense(
        np.vstack([lie.d(2).to_dense(), cube]), g.p))
    if not label.startswith("witt"):
        _assert_same_cohomology(_pair_cohomology(lie),
                                pair_model_per_unit(lie))


@pytest.mark.parametrize("label,g,rep", PAIRS[::7], ids=[p[0] for p in PAIRS[::7]])
def test_readers_are_linear_over_any_leading_axes(label, g, rep):
    """A (2, 3) stack of random cochains reads as its six cochains one by
    one, and a single cochain as a stack of none."""
    lie = CochainComplex(g, rep, "lie")
    rng = np.random.default_rng(11)
    h = rng.integers(0, g.p, (2, 3, lie.basis(1).dim))
    f = rng.integers(0, g.p, (2, 3, lie.basis(2).dim))
    psi = psi_bar_on_cocycle(lie, h)
    assert psi.shape == (2, 3, g.space.n_even, rep.dim)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(psi[i, j], psi_bar_per_unit(lie, h[i, j]))
        assert np.array_equal(psi[i, j], psi_bar_on_cocycle(lie, h[i, j]))
    for x in g.space.even_indices():
        k = obstruction_cocycle(lie, f, x)
        for i, j in np.ndindex(2, 3):
            assert tuple(k[i, j].tolist()) == obstruction_per_unit(lie, f[i, j], x)


@pytest.mark.parametrize("label,g,rep", PAIRS, ids=[p[0] for p in PAIRS])
def test_write_after_read_is_the_identity(label, g, rep):
    """Random cochains of degrees 1 and 2, one at a time and stacked, come
    back from their values unchanged."""
    lie = CochainComplex(g, rep, "lie")
    rng = np.random.default_rng(5)
    for n in (1, 2):
        vecs = rng.integers(0, g.p, (4, lie.basis(n).dim))
        values = lie.cochain_array(vecs, n)
        assert values.shape == (4,) + (g.dim,) * n + (rep.dim,)
        assert np.array_equal(lie.cochain_vector(values, n), vecs)
        assert np.array_equal(lie.cochain_vector(values[0], n), vecs[0])


def test_values_off_the_layout_raise(loaded_catalog):
    """A value on a parity-invalid entry, on a repeated even argument, or
    one that breaks alternation has no cochain coordinate."""
    _, g, modules = loaded_catalog["a3-heisenberg"]  # z even, y odd
    lie = CochainComplex(g, modules["k"], "lie")  # M = k even
    z, y = g.space.index("z"), g.space.index("y")
    one = lie.cochain_array(np.zeros(lie.basis(1).dim, dtype=np.int64), 1)
    one[y, 0] = 1  # an even map sends the odd y to M_0 only as zero
    with pytest.raises(InvariantViolationError):
        lie.cochain_vector(one, 1)
    for bad in ((z, z), (z, y)):
        two = np.zeros((g.dim, g.dim, 1), dtype=np.int64)
        two[bad] = 1
        with pytest.raises(InvariantViolationError):
            lie.cochain_vector(two, 2)
    two = np.zeros((g.dim, g.dim, 1), dtype=np.int64)
    two[y, y] = 1
    assert lie.cochain_vector(two, 2).any()  # y y is a basis item
    _, g2, modules2 = loaded_catalog["a6-abelian-plane"]  # x1, x2 even
    plane = CochainComplex(g2, modules2["k"], "lie")
    two = np.ones((2, 2, 1), dtype=np.int64) - np.eye(2, dtype=np.int64)[:, :, None]
    with pytest.raises(InvariantViolationError):  # f(x2, x1) = +f(x1, x2)
        plane.cochain_vector(two, 2)
    two[1, 0] = -1
    assert plane.cochain_vector(two, 2).tolist() == [1]


def test_obstruction_raises_on_a_value_that_breaks_parity(loaded_catalog,
                                                          monkeypatch):
    """An obstruction value off the C^1 layout raises: here a p-map that
    sends the even z onto the odd y makes f(y, z^[p]) an odd argument's
    value where f(y, y) has an even one."""
    _, g, modules = loaded_catalog["a3-heisenberg"]
    lie = CochainComplex(g, modules["k"], "lie")
    z, y = g.space.index("z"), g.space.index("y")
    pm = np.zeros((g.dim, g.dim), dtype=np.int64)
    pm[z, y] = 1
    monkeypatch.setattr(type(g), "pmap_basis", lambda self, i: pm[i])
    f = np.zeros((g.dim, g.dim, 1), dtype=np.int64)
    f[y, y] = 1
    with pytest.raises(InvariantViolationError):
        obstruction_cocycle(lie, lie.cochain_vector(f, 2), z)


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("module", ("k", "adjoint"))
def test_witt_pair_model_equals_the_oracle(p, module):
    """W(1) = span{e_i = x^{i+1} d : -1 <= i <= p - 2} with
    [e_a, e_b] = (b - a) e_{a+b} and e_0^[p] = e_0, from
    ``tests/data/witt-p{5,7}.json``: the pair complex's cohomology equals
    that of the per-unit pair model.  H^2_*(W(1), k) = p + 1 and
    H^2_*(W(1), W(1)) = 1 are the values this computes, pinned here; they
    have not been checked against Evans-Fialowski-Penkava (PAMS 2016)."""
    g, rep = _witt(p, module)
    lie = CochainComplex(g, rep, "lie")
    got = _pair_cohomology(lie)
    _assert_same_cohomology(got, pair_model_per_unit(lie))
    assert got[1].dim_h == (p + 1 if module == "k" else 1)

