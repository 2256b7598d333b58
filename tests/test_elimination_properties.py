"""Property tests of the GF(p) eliminators against two independent routes:
the plain dense elimination in ``oracles.dense_rank`` and sympy's
``DomainMatrix`` over GF(p).  Matrices mix sparse rows with rows more than
a quarter full, so heavy fill-in meets the eliminator's sparse rows and its
column index."""

import random

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import GF  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from supercoh.gflin import (  # noqa: E402
    Eliminator, MatGF, Subspace, nullspace, rref, solve,
)

from oracles import dense_rank  # noqa: E402

PROPS = settings(max_examples=80, deadline=None, database=None,
                 derandomize=True)


@st.composite
def sparse_matrices(draw):
    """(p, cols, row dicts): sparse rows, at most a quarter full, and dense
    rows past that, in a drawn order."""
    p = draw(st.sampled_from((3, 5, 7, 17)))
    cols = draw(st.integers(4, 24))
    limit = cols // 4
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        dense = draw(st.booleans())
        size = draw(st.integers(limit + 1, cols) if dense else st.integers(0, limit))
        support = draw(st.lists(st.integers(0, cols - 1), min_size=size,
                                max_size=size, unique=True))
        rows.append({j: draw(st.integers(1, p - 1)) for j in support})
    return p, cols, rows


def _dense(rows, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def _sympy_rref(rows, cols, p):
    K = GF(p)
    m = DomainMatrix([[K(v) for v in r] for r in _dense(rows, cols)],
                     (len(rows), cols), K)
    red, pivots = m.rref()
    echelon = [[int(v) % p for v in r] for r in red.to_list()][:len(pivots)]
    kernel = [[int(v) % p for v in r] for r in m.nullspace().to_list()]
    return echelon, list(pivots), kernel


def _check_against_sympy_and_dense_rank(p, cols, rows):
    m = MatGF.from_rows(rows, cols, p)
    red, rank, pivots = rref(m)
    echelon, sym_pivots, kernel = _sympy_rref(rows, cols, p)
    assert rank == dense_rank(_dense(rows, cols), cols, p) == len(sym_pivots)
    assert pivots == sym_pivots
    assert red.to_dense().tolist()[:rank] == echelon
    assert nullspace(m) == Subspace.from_vectors(kernel, cols, p)


@PROPS
@given(sparse_matrices())
def test_rref_and_nullspace_match_sympy_and_dense_rank(case):
    _check_against_sympy_and_dense_rank(*case)


def test_fill_in_turns_dict_rows_dense():
    """A sparse dict row whose reduction fills it stays a dict row that the
    column index tracks, and rows about nine tenths full still give the
    canonical RREF and kernel."""
    p, cols = 5, 12
    elim = Eliminator(cols, p)
    elim.add({0: 1, 3: 1})
    elim.add({j: 1 for j in range(3, cols)})
    assert all(isinstance(r, dict) for r in elim.rows.values())
    assert elim.rows[0] == {0: 1, **{j: 4 for j in range(4, cols)}}
    assert elim.column(4) == {0: 4, 3: 1}
    _check_against_sympy_and_dense_rank(
        p, cols, [{1: 1, 5: 2}, {j: 1 + j % 4 for j in range(1, cols)},
                  {0: 1, 3: 1}, {j: 1 for j in range(3, cols)}])
    rng = random.Random(4)
    for p, cols in ((3, 40), (5, 40), (17, 25)):
        rows = [{j: rng.randrange(1, p) for j in range(cols)
                 if rng.random() < 0.9} for _ in range(10)]
        _check_against_sympy_and_dense_rank(p, cols, rows)


@PROPS
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_elimination_is_row_order_independent(case, rnd):
    p, cols, rows = case
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    a, b = MatGF.from_rows(rows, cols, p), MatGF.from_rows(shuffled, cols, p)
    assert rref(a)[0] == rref(b)[0]
    assert nullspace(a) == nullspace(b)
    rhs = [rnd.randrange(p) for _ in rows]
    x = solve(a, rhs)
    if x is not None:
        assert list(a.matvec(x)) == rhs


@PROPS
@given(sparse_matrices())
def test_column_index_matches_a_full_scan(case):
    """After every insertion, the index-backed ``column`` equals a scan of
    all pivot rows, and no pivot row stores a zero."""
    p, cols, rows = case
    elim = Eliminator(cols, p)
    for row in rows:
        elim.add(row)
        assert all(all(r.values()) for r in elim.rows.values())
        for j in range(cols):
            scan = {pc: r[j] for pc, r in elim.rows.items() if j in r}
            assert elim.column(j) == scan
