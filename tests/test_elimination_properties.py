"""Property tests of the GF(p) eliminators against two independent routes:
the plain dense elimination in ``oracles.dense_rank`` and sympy's
``DomainMatrix`` over GF(p).  Matrices mix sparse rows with rows more than
a quarter full, so heavy fill-in meets the eliminator's sparse rows and its
column index.  The image and the solutions a ``RowReduction`` reads off
its row elimination are checked against the column route
``oracles.image_by_columns``, the augmented elimination
``oracles.solve_augmented``, sympy and the dense RREF of the transpose.
The CSR products of ``MatGF`` and ``Subspace`` are checked against the
dense int64 algebra they replaced (``oracles.mulmod`` and the
``oracles.dense_*`` routes)."""

import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import GF  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from supercoh.cohomology import CohomologyResult  # noqa: E402
from supercoh.errors import UsageError  # noqa: E402
from supercoh.gflin import (  # noqa: E402
    Eliminator, MatGF, RowReduction, Subspace, extend, image, nullspace,
    quotient_representatives, rref, solve, subspace_sum,
)

from oracles import (  # noqa: E402
    class_coords_two_step, dense_eliminate, dense_quotient_representatives,
    dense_rank, dense_rref, dense_subspace_sum, image_by_columns, mulmod,
    solve_augmented, subspace_eliminate,
)

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


def _check_row_reduction(p, cols, rows):
    """Kernel and image of one ``RowReduction`` against ``nullspace``,
    sympy, the column route and the dense RREF of m^T."""
    m = MatGF.from_rows(rows, cols, p)
    red = RowReduction(m)
    assert red.kernel == nullspace(m)
    if rows and cols:
        _, pivots, kernel = _sympy_rref(rows, cols, p)
        assert red.kernel == Subspace.from_vectors(kernel, cols, p)
        assert red.rank == len(pivots)
    transpose = [list(col) for col in zip(*_dense(rows, cols))]
    trows, tpivots = dense_rref(transpose, len(rows), p)
    assert red.image == image(m) == image_by_columns(m)
    assert red.image.basis_rows == tuple(trows)
    assert list(red.image.pivots) == tpivots
    assert red.rank == red.image.dim == cols - red.kernel.dim


@PROPS
@given(sparse_matrices())
def test_row_reduction_kernel_and_image(case):
    _check_row_reduction(*case)


def _tall(p, n, cols, rng):
    """n rows over cols columns, each a random combination of a few."""
    base = [{j: rng.randrange(1, p) for j in range(cols) if rng.random() < .5}
            for _ in range(3)]
    return [{j: v for j in range(cols)
             if (v := sum(rng.randrange(p) * b.get(j, 0) for b in base) % p)}
            for _ in range(n)]


@pytest.mark.parametrize("name", ["zero matrix", "zero rows", "no rows",
                                  "no columns", "wide", "tall", "full rank",
                                  "identity reversed"])
def test_row_reduction_shapes(name):
    rng = random.Random(name)
    p, cols, rows = {
        "zero matrix": (5, 6, [{} for _ in range(4)]),
        "zero rows": (7, 5, [{}, {1: 2, 3: 1}, {}, {}, {0: 1, 1: 3},
                             {1: 4, 3: 2}, {}]),
        "no rows": (3, 4, []),
        "no columns": (3, 0, [{}, {}]),
        "wide": (5, 20, [{j: rng.randrange(1, 5) for j in range(20)
                          if rng.random() < .3} for _ in range(3)]),
        "tall": (3, 6, _tall(3, 40, 6, rng)),
        "full rank": (17, 7, [{i: 1 + i, **{j: rng.randrange(17)
                                            for j in range(i + 1, 7)}}
                              for i in range(7)]),
        "identity reversed": (3, 5, [{4 - i: 1} for i in range(5)]),
    }[name]
    _check_row_reduction(p, cols, rows)


def _combo(vectors, p, rng):
    """A combination of {col: value} vectors with nonzero coefficients."""
    out = {}
    for v in vectors:
        c = rng.randrange(1, p)
        for j, x in v.items():
            out[j] = (out.get(j, 0) + c * x) % p
    return {j: x for j, x in out.items() if x}


def _tall_rows(name):
    """(p, cols, rows): several hundred rows, so ``RowReduction`` feeds its
    eliminator the first block and then only the later rows with a
    nonzero residue modulo the span of the rows before their block."""
    rng = random.Random(name)

    def vec(support, p):
        return {j: rng.randrange(1, p) for j in support if rng.random() < .6}

    if name == "lone last row":
        # 599 rows in a 3-dim span that misses the last column, then one of
        # them plus the last unit vector: the one pivot of the last, partial
        # block, its residue a single entry
        p, cols = 7, 10
        base = [vec(range(cols - 1), p) for _ in range(3)]
        rows = [_combo(rng.sample(base, rng.randint(1, 3)), p, rng)
                for _ in range(599)]
        return p, cols, rows + [{**rng.choice(rows), cols - 1: 1}]
    if name == "zero and repeated rows":
        # a third of the rows zero, the rest repeats of six rows, each
        # first seen at its own row, in the first block or a later one
        p, cols = 3, 9
        new = dict(zip((0, 10, 65, 130, 260, 449),
                       (vec(range(cols), p) for _ in range(6))))
        seen, rows = [], []
        for i in range(450):
            if i in new:
                seen.append(new[i])
                rows.append(dict(new[i]))
            else:
                rows.append({} if i % 3 == 0 else dict(rng.choice(seen)))
        return p, cols, rows
    # from row 64 on, rows outside the span of every earlier block, each
    # dependent on the earlier rows of its own block but for the new
    # vectors at rows 64, 100, 128, 200 and 256
    p, cols = 65521, 14
    span = [vec(range(7), p) for _ in range(3)]
    rows = [_combo(rng.sample(span, rng.randint(1, 3)), p, rng)
            for _ in range(64)]
    for i in range(64, 400):
        if i in (64, 100, 128, 200, 256):
            span.append(vec(range(cols), p))
            rows.append(dict(span[-1]))
        else:
            rows.append(_combo(span[-1:] + rng.sample(span, 2), p, rng))
    return p, cols, rows


@pytest.mark.parametrize("name", ["lone last row", "zero and repeated rows",
                                  "dependent in own block"])
def test_tall_row_reduction(name):
    """Kernel, image and ``solve`` of matrices that reach past the first
    block agree with sympy, the dense RREF, the column route and the
    augmented elimination, for right-hand sides in the image and random
    ones."""
    p, cols, rows = _tall_rows(name)
    _check_row_reduction(p, cols, rows)
    m = MatGF.from_rows(rows, cols, p)
    red = RowReduction(m)
    rng = random.Random(name)
    for _ in range(3):
        rhs = m.matvec([rng.randrange(p) for _ in range(cols)])
        x = red.solve(rhs)
        assert x == solve_augmented(m, rhs) and m.matvec(x) == rhs
        rhs = [rng.randrange(p) for _ in rows]
        assert red.solve(rhs) == solve_augmented(m, rhs)


def _sympy_solve(rows, cols, p, rhs):
    """The solution of m x = rhs with free variables zero, read off sympy's
    RREF of [m | rhs], or None when rhs is outside the image."""
    echelon, pivots, _ = _sympy_rref(
        [{**row, cols: b} for row, b in zip(rows, rhs)], cols + 1, p)
    if cols in pivots:
        return None
    x = [0] * cols
    for row, pc in zip(echelon, pivots):
        x[pc] = row[cols]
    return tuple(x)


@PROPS
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_solve_matches_the_augmented_route_and_sympy(case, rnd):
    """``RowReduction.solve`` and ``solve`` give the solution with free
    variables zero that the elimination of [m | rhs] gives, in gflin and in
    sympy, and None exactly where they do: for right-hand sides in the
    image (m times a random x) and random ones."""
    p, cols, rows = case
    m = MatGF.from_rows(rows, cols, p)
    red = RowReduction(m)
    for _ in range(4):
        if rnd.random() < .5:
            rhs = list(m.matvec([rnd.randrange(p) for _ in range(cols)]))
        else:
            rhs = [rnd.randrange(-p, 2 * p) for _ in rows]
        want = solve_augmented(m, rhs)
        assert red.solve(rhs) == solve(m, rhs) == want
        assert want == _sympy_solve(rows, cols, p, [b % p for b in rhs])
        if want is not None:
            assert list(m.matvec(want)) == [b % p for b in rhs]


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


@st.composite
def subspace_cases(draw):
    """(p, n, kind, Z spanning vectors, B spanning vectors, probes): Z is the
    span of the vectors, the zero or the full subspace; B is spanned by
    combinations of Z's vectors, so B lies in Z; probes are random vectors
    and combinations of Z's vectors."""
    p = draw(st.sampled_from((3, 7, 65521)))
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(("span", "span", "zero", "full")))

    def vec():
        return draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))

    if kind == "span":
        zvecs = [vec() for _ in range(draw(st.integers(0, 6)))]
    elif kind == "zero":
        zvecs = []
    else:
        zvecs = [[int(i == j) for j in range(n)] for i in range(n)]

    def combo():
        cs = [draw(st.integers(0, p - 1)) for _ in zvecs]
        return [sum(c * v[j] for c, v in zip(cs, zvecs)) % p
                for j in range(n)]

    bvecs = [combo() for _ in range(draw(st.integers(0, 4)))]
    probes = [vec() for _ in range(3)] + [combo() for _ in range(2)]
    return p, n, kind, zvecs, bvecs, probes


@PROPS
@given(subspace_cases(), st.randoms(use_true_random=False))
def test_subspace_agrees_with_coordinatewise_elimination(case, rnd):
    """``reduce``, ``coords``, ``contains``, ``quotient_representatives``,
    ``==`` and ``hash`` of the array-backed ``Subspace`` agree with plain
    elimination one coordinate at a time."""
    p, n, kind, zvecs, bvecs, probes = case
    Z = {"zero": Subspace.zero(n, p), "full": Subspace.full(n, p)}.get(
        kind) or Subspace.from_vectors(zvecs, n, p)
    zrows, zpiv = dense_rref(zvecs, n, p)
    assert Z.basis_rows == tuple(zrows) and list(Z.pivots) == zpiv
    for v in probes:
        res, cs = subspace_eliminate(zrows, zpiv, v, p)
        assert Z.reduce(v).tolist() == list(res)
        assert Z.contains(v) == (not any(res))
        assert Z.coords(v) == (None if any(res) else tuple(cs))
    # the same span from shuffled, rescaled generators, and from its RREF
    again = [[c * x % p for x in v]
             for v, c in zip(zvecs, (1 + rnd.randrange(p - 1) for _ in zvecs))]
    rnd.shuffle(again)
    for same in (Subspace.from_vectors(again, n, p), Subspace(n, p, zrows, zpiv)):
        assert same == Z and hash(same) == hash(Z)
    W = Subspace.from_vectors(probes, n, p)
    assert (W == Z) == (dense_rref(probes, n, p) == (zrows, zpiv))
    B = Subspace.from_vectors(bvecs, n, p)
    brows, bpiv = dense_rref(bvecs, n, p)
    want, _ = dense_rref([subspace_eliminate(brows, bpiv, z, p)[0]
                          for z in zrows], n, p)
    reps = quotient_representatives(Z, B)
    assert list(reps.basis_rows) == want
    if any(any(subspace_eliminate(zrows, zpiv, w, p)[0])
           for w in W.basis_rows):
        with pytest.raises(UsageError):
            quotient_representatives(Z, W)


@PROPS
@given(subspace_cases())
def test_class_coords_agrees_with_the_two_step_route(case):
    """``CohomologyResult.class_coords``, one reduction modulo B, gives the
    coordinates of ``oracles.class_coords_two_step`` (Z membership first,
    then the reduction) and raises UsageError exactly where it does: on
    random vectors, on Z vectors and on Z vectors plus a random vector."""
    p, n, kind, zvecs, bvecs, probes = case
    Z = {"zero": Subspace.zero(n, p), "full": Subspace.full(n, p)}.get(
        kind) or Subspace.from_vectors(zvecs, n, p)
    res = CohomologyResult.quotient(1, "lie", Z,
                                    Subspace.from_vectors(bvecs, n, p))
    probes = probes + [[(a + b) % p for a, b in zip(probes[0], z)]
                       for z in probes[3:]]
    for v in probes:
        try:
            want = class_coords_two_step(res, v)
        except UsageError:
            with pytest.raises(UsageError, match="not a cocycle"):
                res.class_coords(v)
        else:
            assert tuple(res.class_coords(v).tolist()) == want


def test_dense_oracle_products_stay_exact():
    """``oracles.mulmod`` sums its inner dimension in chunks reduced mod p,
    so it stays exact even at p = 2^31 - 1, where two products (p - 1)^2
    already near 2^63, and it rejects a modulus whose single product
    overflows int64."""
    rng = random.Random(31)
    q, n = 2 ** 31 - 1, 7
    a = [[rng.randrange(q) for _ in range(n)] for _ in range(3)]
    b = [[rng.randrange(q) for _ in range(4)] for _ in range(n)]
    want = [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)]
            for row in a]
    assert mulmod(np.array(a), np.array(b), q).tolist() == want
    with pytest.raises(UsageError):
        mulmod(np.ones((1, 2), dtype=np.int64), np.ones((2, 1), dtype=np.int64),
               4294967311)  # the least prime above 2^32


@PROPS
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_csr_matrices_match_the_dense_oracle(case, rnd):
    """A ``MatGF`` built from row dicts, a dense array, an entry dict, COO
    arrays or repeated terms is one matrix, with one hash, and its CSR
    ``matvec`` and ``matmul`` agree with the dense products of
    ``oracles.mulmod``, for inner dimensions 0 and up; ``RowReduction``'s
    image contains every column of m and ``solve`` answers m x = m y."""
    p, cols, rows = case
    m = MatGF.from_rows(rows, cols, p)
    dense = np.array(_dense(rows, cols), dtype=np.int64).reshape(len(rows), cols)
    r, c = np.nonzero(dense)
    v = dense[r, c]
    # every entry split into two terms, with multiples of p, shuffled
    split = [rnd.randrange(-3 * p, 3 * p) for _ in v]
    order = list(range(2 * len(v)))
    rnd.shuffle(order)
    terms = [np.concatenate(x)[order] for x in ((r, r), (c, c),
                                                (v - split, split))]
    routes = [MatGF.from_dense(dense, p), MatGF(len(rows), cols, p, m.entries),
              MatGF.from_coo(len(rows), cols, p, r, c, v),
              MatGF.from_terms(len(rows), cols, p, *terms)]
    for other in routes:
        assert other == m and hash(other) == hash(m)
    assert m.to_dense().tolist() == dense.tolist() and m.nnz == len(v)
    x = [rnd.randrange(-p, 2 * p) for _ in range(cols)]
    want = mulmod(dense, np.array(x, dtype=np.int64).reshape(cols, 1) % p, p)
    assert m.matvec(x) == tuple(want[:, 0].tolist())
    for k in (0, 1, rnd.randrange(2, 9)):
        other = np.array([[rnd.randrange(p) if rnd.random() < .4 else 0
                           for _ in range(k)] for _ in range(cols)],
                         dtype=np.int64).reshape(cols, k)
        prod = m.matmul(MatGF.from_dense(other, p))
        assert (prod.rows, prod.cols) == (len(rows), k)
        assert prod.to_dense().tolist() == mulmod(dense, other, p).tolist()
    red = RowReduction(m)
    assert not dense_eliminate(red.image, dense.T)[0].any()
    y = [rnd.randrange(p) for _ in range(cols)]
    sol = red.solve(m.matvec(y))
    assert m.matvec(sol) == m.matvec(y)


@PROPS
@given(subspace_cases(), st.randoms(use_true_random=False))
def test_csr_subspaces_match_the_dense_oracle(case, rnd):
    """``from_vectors`` gives the RREF of ``oracles.dense_rref``, and
    ``reduce``, ``coords``, ``contains``, ``subspace_sum`` and
    ``quotient_representatives`` of the CSR ``Subspace`` agree with the
    dense int64 algebra of ``oracles.dense_eliminate``,
    ``dense_subspace_sum`` and ``dense_quotient_representatives``, raising
    UsageError exactly where the dense route finds B outside Z: on spans,
    zero and full subspaces, in ambient dimension 0 too.  A sum or a
    quotient equals, and hashes as, the subspace the public constructor
    builds from the dense route's rows."""
    p, n, kind, zvecs, bvecs, probes = case
    Z = {"zero": Subspace.zero(n, p), "full": Subspace.full(n, p)}.get(
        kind) or Subspace.from_vectors(zvecs, n, p)
    B = Subspace.from_vectors(bvecs, n, p)
    W = Subspace.from_vectors(probes, n, p)
    vecs = np.array(probes, dtype=np.int64).reshape(len(probes), n)
    for S, spanned in ((B, bvecs), (W, probes)):
        assert (list(S.basis_rows), list(S.pivots)) == dense_rref(spanned, n, p)
    for S in (Z, B, W):
        assert S.basis.nnz == np.count_nonzero(S.rows)
        for v, res, cs in zip(probes, *dense_eliminate(S, vecs)):
            assert S.reduce(v).tolist() == res.tolist()
            assert S.contains(v) == (not res.any())
            assert S.coords(v) == (None if res.any() else tuple(cs.tolist()))
    zero, full = Subspace.zero(n, p), Subspace.full(n, p)
    for a, b in ((Z, B), (B, Z), (Z, W), (W, B), (zero, W), (W, full)):
        rows, pivots = dense_subspace_sum(a, b)
        S = subspace_sum(a, b)
        assert S.rows.tolist() == rows.tolist() and list(S.pivots) == pivots
        same = Subspace(n, p, rows, pivots)
        assert S == same and hash(S) == hash(same)
    for z, b in ((Z, B), (Z, W), (Z, Z), (Z, zero), (full, W), (W, Z)):
        want = dense_quotient_representatives(z, b)
        if want is None:
            with pytest.raises(UsageError, match="not contained"):
                quotient_representatives(z, b)
            continue
        R = quotient_representatives(z, b)
        assert R.rows.tolist() == want[0].tolist()
        assert list(R.pivots) == want[1]
        same = Subspace(n, p, want[0], want[1])
        assert R == same and hash(R) == hash(same)


def _image_case(shape, p, rng):
    """A random matrix of one shape: tall (past the reduction's first
    block), wide, rank-deficient (a product through 3 columns), zero or
    of full rank (unit upper triangular)."""
    if shape == "tall":
        a = rng.integers(0, p, (150, 7)) * (rng.random((150, 7)) < .4)
    elif shape == "wide":
        a = rng.integers(0, p, (5, 30)) * (rng.random((5, 30)) < .5)
    elif shape == "rank-deficient":
        a = rng.integers(0, p, (40, 3)) @ rng.integers(0, p, (3, 12))
    elif shape == "zero":
        a = np.zeros((6, 5), dtype=np.int64)
    else:
        a = np.triu(rng.integers(0, p, (9, 9)), 1) + np.eye(9, dtype=np.int64)
    return MatGF.from_dense(a % p, p)


IMAGE_SHAPES = ("tall", "wide", "rank-deficient", "zero", "full rank")


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("shape", IMAGE_SHAPES)
def test_image_reads_the_same_before_and_after_its_rows_are_written(shape, p):
    """``RowReduction.image`` knows its dim and pivots before its rows are
    written; ``reduce``, ``contains`` and ``coords``, which go through m
    and m[P, Q]^-1, give the same results before and after the write and
    agree with the span of m's columns (``oracles.image_by_columns``),
    whose rows the write gives.  ``reduce`` of the stack of probes, and of
    an empty stack, is the stack of the per-probe residues, on the held
    image and on the written span alike."""
    rng = np.random.default_rng([p, IMAGE_SHAPES.index(shape)])
    m = _image_case(shape, p, rng)
    red = RowReduction(m)
    img, want = red.image, image_by_columns(m)
    assert (img.dim, img.pivots) == (want.dim, want.pivots) == (
        red.rank, red._prows)
    if img.dim:
        assert img._basis is None
    probes = [rng.integers(0, p, m.rows) for _ in range(6)]
    probes += [np.array(m.matvec(rng.integers(0, p, m.cols).tolist()))
               for _ in range(3)]
    stacks = (np.array(probes), np.zeros((0, m.rows), dtype=np.int64))

    def reads(S):
        """Per probe (residue, contains, coords), then the residues of
        each stack, which must be the stack of the per-probe residues."""
        one = [(S.reduce(v).tolist(), S.contains(v), S.coords(v))
               for v in probes]
        many = [S.reduce(vs) for vs in stacks]
        for vs, got in zip(stacks, many):
            assert got.shape == vs.shape and got.dtype == np.int64
            assert got.tolist() == [S.reduce(v).tolist() for v in vs]
        return one, [got.tolist() for got in many]
    before = reads(img)
    assert before == reads(want)
    assert img.basis == want.basis and img == want and hash(img) == hash(want)
    assert before == reads(img)
    assert all(c for v, (_, c, _) in zip(probes[6:], before[0][6:]))


@PROPS
@given(subspace_cases())
def test_extend_gives_the_quotient_representatives(case):
    """``extend(B, vectors)`` gives R = quotient_representatives(Z, B) for
    Z = B + span(vectors), and a Z whose pivots, rows and reductions are
    those of ``subspace_sum``, for B written or held as an image; ``reduce``
    of the lazy Z on the stack of probes, and on an empty stack, is the
    stack of the per-probe residues."""
    p, n, _, zvecs, bvecs, probes = case
    written = Subspace.from_vectors(bvecs, n, p)
    held = RowReduction(MatGF.from_dense(np.array(
        bvecs, dtype=np.int64).reshape(len(bvecs), n).T, p)).image
    stacks = (np.array(probes, dtype=np.int64).reshape(len(probes), n),
              np.zeros((0, n), dtype=np.int64))
    for B in (written, held):
        Z, R = extend(B, np.array(zvecs, dtype=np.int64).reshape(len(zvecs), n))
        want = subspace_sum(B, Subspace.from_vectors(zvecs, n, p))
        assert (Z.dim, Z.pivots) == (want.dim, want.pivots)
        assert ([Z.reduce(v).tolist() for v in probes]
                == [want.reduce(v).tolist() for v in probes])
        for vs in stacks:  # a stack reads as the stack of its vectors
            got = Z.reduce(vs)
            assert got.shape == vs.shape and got.dtype == np.int64
            assert got.tolist() == [want.reduce(v).tolist() for v in vs]
        assert Z == want and R == quotient_representatives(want, B)
        assert (Z is B) == (R.dim == 0)
    assert held == written
