import random
from pathlib import Path

import numpy as np
import pytest

import supercoh
from supercoh import gflin
from supercoh.errors import UsageError
from supercoh.gflin import (
    Eliminator, MatGF, Subspace, check_modulus, image, is_odd_prime, matpow,
    nullspace, quotient_representatives, rref, solve, subspace_intersect,
    subspace_sum,
)

from oracles import dense_rank, dense_rref, subspace_eliminate


def rand_matrix(rng, p, rows, cols, density=0.6):
    ent = {(i, j): rng.randrange(1, p)
           for i in range(rows) for j in range(cols) if rng.random() < density}
    return MatGF(rows, cols, p, ent)


def test_modulus_checks():
    assert is_odd_prime(3) and is_odd_prime(7) and is_odd_prime(101)
    assert not is_odd_prime(2) and not is_odd_prime(9) and not is_odd_prime(1)
    # p < 2^16 keeps int64 products exact: the largest prime below 2^16 is
    # accepted, the least above it refused, and 2^89 - 1 is refused before
    # a trial division that would not end
    assert check_modulus(65521) == 65521 and is_odd_prime(65537)
    for p in (65537, 2 ** 31 - 1, 2 ** 89 - 1):
        with pytest.raises(UsageError, match="below 2"):
            check_modulus(p)
    with pytest.raises(UsageError):
        MatGF(1, 1, 4)
    with pytest.raises(UsageError):
        MatGF(2, 2, 3, {(0, 5): 1})


def test_rref_examples():
    z = MatGF.zeros(2, 2, 3)
    _, rank, _ = rref(z)
    assert rank == 0
    ident = MatGF.identity(3, 5)
    r, rank, piv = rref(ident)
    assert rank == 3 and piv == [0, 1, 2]
    m = MatGF.from_dense([[1, 2], [2, 1]], 3)  # second row = 2 * first mod 3
    _, rank, _ = rref(m)
    assert rank == 1


def test_nullspace_examples():
    assert nullspace(MatGF.identity(4, 3)).dim == 0
    assert nullspace(MatGF.zeros(2, 3, 3)).dim == 3
    ns = nullspace(MatGF.from_dense([[1, 2]], 3))
    assert ns.dim == 1
    assert ns.contains((1, 1))


def test_image_examples():
    assert image(MatGF.zeros(3, 2, 3)).dim == 0
    assert image(MatGF.identity(3, 3)) == Subspace.full(3, 3)
    im = image(MatGF.from_dense([[1], [2]], 3))
    assert im.dim == 1 and im.contains((1, 2))


def test_solve_examples():
    ident = MatGF.identity(3, 5)
    assert solve(ident, (1, 2, 3)) == (1, 2, 3)
    zero = MatGF.zeros(2, 2, 5)
    assert solve(zero, (1, 0)) is None
    assert solve(zero, (0, 0)) == (0, 0)


def test_subspace_lattice_examples():
    p = 3
    V = Subspace.from_vectors([(1, 0), (0, 1)], 2, p)
    zero = Subspace.zero(2, p)
    assert subspace_sum(V, zero) == V
    assert subspace_intersect(V, V) == V
    e1 = Subspace.from_vectors([(1, 0)], 2, p)
    e2 = Subspace.from_vectors([(0, 1)], 2, p)
    assert subspace_sum(e1, e2) == Subspace.full(2, p)
    with pytest.raises(UsageError):
        subspace_sum(e1, Subspace.zero(3, p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_nullity_and_rref_idempotent(p):
    rng = random.Random(p)
    for _ in range(60):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        m = rand_matrix(rng, p, rows, cols)
        R, rank, piv = rref(m)
        assert rank == dense_rank(m.to_dense().tolist(), cols, p)
        assert nullspace(m).dim + rank == cols
        R2, rank2, piv2 = rref(R)
        assert R2 == R and rank2 == rank and piv2 == piv
        for v in nullspace(m).basis_rows:
            assert not any(m.matvec(v))


@pytest.mark.parametrize("p", [3, 5])
def test_solve_round_trip_fuzz(p):
    rng = random.Random(10 + p)
    for _ in range(80):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = rand_matrix(rng, p, rows, cols)
        x = tuple(rng.randrange(p) for _ in range(cols))
        rhs = m.matvec(x)
        s = solve(m, rhs)
        assert s is not None and m.matvec(s) == rhs


@pytest.mark.parametrize("p", [3, 5])
def test_subspace_dimension_formula_fuzz(p):
    rng = random.Random(20 + p)
    for _ in range(60):
        n = rng.randrange(1, 7)
        A = Subspace.from_vectors(
            [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(4))], n, p)
        B = Subspace.from_vectors(
            [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(4))], n, p)
        S, I = subspace_sum(A, B), subspace_intersect(A, B)
        assert S.dim + I.dim == A.dim + B.dim
        for row in I.basis_rows:
            assert A.contains(row) and B.contains(row)
        for row in A.basis_rows:
            assert S.contains(row)


def test_dense_fallback_path():
    # rows nine tenths full, far past the sparse range, stay dict rows and
    # still produce the canonical echelon basis
    p = 3
    cols = 40
    rng = random.Random(4)
    rows = [{j: rng.randrange(1, p) for j in range(cols) if rng.random() < 0.9}
            for _ in range(10)]
    assert all(len(r) > cols // 4 for r in rows)
    m = MatGF.from_rows(rows, cols, p)
    R, rank, piv = rref(m)
    assert rank == dense_rank(m.to_dense().tolist(), cols, p)
    assert nullspace(m).dim == cols - rank


def test_from_vectors_checks_dict_vectors():
    """Dict vectors are reduced mod p, lose their zeros and have their
    coordinates bounds-checked, exactly like sequence vectors."""
    with pytest.raises(UsageError):
        Subspace.from_vectors([{5: 1}], 3, 3)
    with pytest.raises(UsageError):
        Subspace.from_vectors([{-1: 1}], 3, 3)
    with pytest.raises(UsageError):
        Subspace.from_vectors([(1, 0)], 3, 3)
    assert (Subspace.from_vectors([{0: 3, 1: 1}], 2, 3)
            == Subspace.from_vectors([(3, 1)], 2, 3)
            == Subspace.from_vectors([{0: 0, 1: -2}], 2, 3))
    assert Subspace.from_vectors([{1: 6}, (0, 3)], 2, 3).dim == 0


def test_subspace_rows_are_python_ints():
    """Rows handed to ``Subspace`` from outside are converted, and the rows
    ``from_vectors`` keeps from the eliminator are Python ints already."""
    arr = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
    for s in (Subspace(3, 3, arr, np.array([0, 1])),
              Subspace.from_vectors(arr, 3, 3),
              Subspace.from_vectors([{np.int64(2): np.int64(4)}], 3, 3)):
        assert all(type(x) is int for row in s.basis_rows for x in row)
        assert all(type(x) is int for x in s.pivots)
        assert all(type(row) is tuple for row in s.basis_rows)


def test_subspace_constructor_requires_rref():
    """The public constructor takes only rows in RREF at the given pivots,
    since reduction reads the coefficients off the pivot coordinates."""
    p = 5
    good = Subspace(4, p, [(1, 2, 0, 3), (0, 0, 1, 4)], (0, 2))
    assert good == Subspace.from_vectors([(1, 2, 0, 3), (2, 4, 1, 0)], 4, p)
    assert good.coords((3, 1, 2, 2)) == (3, 2)
    assert Subspace(4, p, [(6, 2, 5, 3)], (0,)) == Subspace(4, p, [(1, 2, 0, 3)], (0,))
    bad = [
        ([(2, 2, 0, 3)], (0,)),                  # pivot entry not 1
        ([(1, 2, 1, 3), (0, 0, 1, 4)], (0, 2)),  # nonzero in another pivot column
        ([(0, 1, 1, 3)], (2,)),                  # nonzero before the pivot
        ([(0, 0, 1, 4), (1, 2, 0, 3)], (2, 0)),  # pivots not increasing
        ([(1, 2, 0, 3)], (0, 2)),                # one pivot per row
        ([(1, 2, 0)], (0,)),                     # row length
        ([(0, 0, 0, 1)], (4,)),                  # pivot out of range
    ]
    for rows, pivots in bad:
        with pytest.raises(UsageError):
            Subspace(4, p, rows, pivots)


def test_subspace_products_stay_exact_for_large_moduli():
    """At the largest modulus allowed, p = 65521, a ``Subspace`` reduces
    and takes coordinates as plain elimination does, and CSR products stay
    exact where the sums outgrow float64: a row of 2^21 + 2^16 entries
    p - 1 = -1 against a vector of p - 1 sums about 2^53.04 before the
    reduction, and a product whose terms fill more than one chunk of
    ``gflin._CHUNK`` sums the chunks into the same entries.  A ``Subspace``
    refuses every p from 2^16 up."""
    p, n = 65521, 7
    rng = random.Random(31)
    vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(5)]
    S = Subspace.from_vectors(vecs, n, p)
    rows, pivots = dense_rref(vecs, n, p)
    assert S.basis_rows == tuple(rows)
    for _ in range(10):
        v = [rng.randrange(p) for _ in range(n)]
        res, cs = subspace_eliminate(rows, pivots, v, p)
        assert S.reduce(v).tolist() == list(res)
        assert S.coords(v) == (None if any(res) else tuple(cs))
    assert S.coords(vecs[2]) is not None
    k = 2 ** 21 + 2 ** 16
    assert k * (p - 1) ** 2 > 2 ** 53
    row = MatGF.from_terms(1, k, p, np.zeros(k, dtype=np.int64),
                           np.arange(k), np.full(k, p - 1))
    assert row.matvec(np.full(k, p - 1)) == (k % p,)
    del row
    inner = 2 * gflin._CHUNK // 500 + 1
    a = np.array([[rng.randrange(p) for _ in range(inner)] for _ in range(2)])
    b = np.array([[rng.randrange(p) for _ in range(500)] for _ in range(inner)])
    want = [[sum(x * y for x, y in zip(r, c)) % p for c in zip(*b.tolist())]
            for r in a.tolist()]
    assert MatGF.from_dense(a, p).matmul(
        MatGF.from_dense(b, p)).to_dense().tolist() == want
    for modulus in (2 ** 31 - 1, 4294967311):
        with pytest.raises(UsageError, match="below 2"):
            Subspace.from_vectors([(1, 2)], 2, modulus)


def test_inputs_are_left_unchanged():
    """Elimination reduces only its own copies: the caller's matrix and
    row dicts read the same before and after every operation."""
    p, cols = 5, 6
    rng = random.Random(5)
    rows = [{j: rng.randrange(1, p) for j in range(cols) if rng.random() < 0.6}
            for _ in range(7)]
    rows.append(dict(rows[0]))  # a dependent row that reduces to zero
    snapshot = [dict(r) for r in rows]
    m = MatGF.from_rows(rows, cols, p)
    entries = dict(m.entries)
    rref(m)
    nullspace(m)
    image(m)
    solve(m, [1] * m.rows)
    assert m.entries == entries
    Subspace.from_vectors(rows, cols, p)
    elim = Eliminator(cols, p)
    for row in rows:
        elim.reduce(row)
        elim.add(row)
    assert rows == snapshot


def test_from_coo_builds_and_checks():
    m = MatGF.from_coo(2, 3, 5, [1, 0, 1], [2, 0, 0], [4, 1, 3])
    assert m == MatGF(2, 3, 5, {(0, 0): 1, (1, 0): 3, (1, 2): 4})
    assert MatGF.from_coo(0, 4, 3, [], [], []) == MatGF.zeros(0, 4, 3)
    bad = [
        ([2], [0], [1]),              # row out of bounds
        ([-1], [0], [1]),             # negative row
        ([0], [3], [1]),              # column out of bounds
        ([0], [0], [0]),              # zero value
        ([0], [0], [5]),              # unreduced value
        ([0], [0], [-1]),             # negative value
        ([0, 1, 0], [1, 1, 1], [1, 2, 3]),  # repeated coordinate
        ([0, 1], [1], [1, 2]),        # length mismatch
    ]
    for r, c, v in bad:
        with pytest.raises(UsageError):
            MatGF.from_coo(2, 3, 5, r, c, v)
    with pytest.raises(UsageError):
        MatGF.from_coo(2, 3, 4, [0], [0], [1])


def test_from_columns_checks_column_lengths():
    m = MatGF.from_columns([(1, 0, 2), (0, 4, 0)], 3, 5)
    assert m == MatGF(3, 2, 5, {(0, 0): 1, (2, 0): 2, (1, 1): 4})
    assert MatGF.from_columns([], 3, 5) == MatGF.zeros(3, 0, 5)
    for cols in ([(1,)], [(1, 0, 0, 0)], [(1, 0, 0), (1, 0)]):
        with pytest.raises(UsageError, match="column length mismatch"):
            MatGF.from_columns(cols, 3, 5)


def test_determinism_of_rref_under_row_order():
    p = 5
    rng = random.Random(9)
    base = [{j: rng.randrange(1, p) for j in range(6) if rng.random() < 0.7}
            for _ in range(5)]
    m1 = MatGF.from_rows(base, 6, p)
    m2 = MatGF.from_rows(list(reversed(base)), 6, p)
    r1, _, _ = rref(m1)
    r2, _, _ = rref(m2)
    assert r1.entries == r2.entries  # canonical RREF is row-order independent


def test_quotient_representatives():
    p = 3
    Z = Subspace.from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, p)
    B = Subspace.from_vectors([(1, 1, 0)], 3, p)
    reps = quotient_representatives(Z, B)
    assert reps.dim == 2
    # representatives carry no component on B's pivot coordinate
    for r in reps.basis_rows:
        assert r[B.pivots[0]] == 0
    with pytest.raises(UsageError):
        quotient_representatives(B, Z)


def test_matmul_and_vector_ops():
    p = 5
    a = MatGF.from_dense([[1, 2], [3, 4]], p)
    b = MatGF.from_dense([[0, 1], [1, 0]], p)
    assert a.matmul(b).to_dense().tolist() == [[2, 1], [4, 3]]
    assert a.matvec((1, 1)) == (3, 2)


def test_matvec_matches_the_dense_product():
    """matvec reads its argument at the column indices only: a tuple, a list
    and an array give the dense product mod p, for matrices with fewer and
    with more nonzeros than columns and entries outside 0..p-1; a vector of
    another length is refused."""
    rng = random.Random(8)
    p = 7
    for rows, cols, density in ((3, 40, 0.05), (5, 4, 0.9), (0, 6, 0.5),
                                (4, 6, 0.0)):
        m = rand_matrix(rng, p, rows, cols, density)
        vec = [rng.randrange(-3 * p, 3 * p) for _ in range(cols)]
        want = tuple((m.to_dense() @ np.array(vec, dtype=np.int64) % p).tolist())
        for arg in (tuple(vec), vec, np.array(vec, dtype=np.int64)):
            assert m.matvec(arg) == want
        for bad in (vec[:-1], tuple(vec) + (1,), np.zeros(cols + 1, dtype=np.int64)):
            with pytest.raises(UsageError):
                m.matvec(bad)


def test_matpow_matches_exact_integer_powers():
    """Powers mod p agree with Python-integer powers reduced at the end, for
    primes and exponents where an int64 power reduced only at the end wraps."""
    rng = random.Random(17)
    for p in (3, 17, 31, 101):
        for n in (1, 3, 5):
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            for k in (0, 1, 2, p - 1, p, 2 * p + 1):
                exact = np.eye(n, dtype=object)
                for _ in range(k):
                    exact = exact.dot(np.array(a, dtype=object))
                assert (matpow(a, k, p) == exact % p).all(), (p, n, k)


def test_no_unreduced_matrix_power_in_src():
    """Every matrix power in the package goes through gflin.matpow."""
    for path in sorted(Path(supercoh.__file__).parent.glob("*.py")):
        assert "matrix_power" not in path.read_text(encoding="utf-8"), path.name
