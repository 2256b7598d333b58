"""Exact linear algebra over a prime field GF(p), p an odd prime.

Matrices are stored sparsely as ``{(row, col): value}`` with all stored
values nonzero and reduced mod p; ``MatGF.from_coo`` builds that dict once
from checked numpy coordinate arrays.  Gaussian elimination keeps every row
as a sparse ``{col: val}`` dict and reduces the eliminator's own copies in
place.  The eliminator indexes its pivot rows by column (which rows are
nonzero in a column), so inserting a pivot touches only the rows with an
entry in its lead column.  The reduced row echelon form of a row space is
unique, so every routine that derives its output from an RREF is
deterministic by construction.

A ``Subspace`` holds that canonical RREF basis as one read-only int64
numpy array.  Its pivot columns form an identity block, so the
coefficients of a vector on the basis are its pivot coordinates, and
reducing, testing membership and taking coordinates are one product
(``_mulmod``, which keeps every int64 sum below 2^63).

A ``RowReduction`` eliminates the rows of an n x k matrix m once and reads
both subspaces off it: the kernel from the RREF, and the column space
without eliminating m's (long) columns.  With P the rows the eliminator
accepts as new pivots, in order, and Q the pivot columns of the RREF,
m[P, Q] is invertible and T = m[:, Q] m[P, Q]^-1 has T[P] = I and
T[j, i] = 0 whenever P_i > j; so T^T is the canonical RREF basis of the
image, with pivots P.  ``image(m)`` spans the columns one by one, for the
small matrices where that is cheaper than inverting m[P, Q].
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UsageError


def is_odd_prime(p):
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def check_modulus(p):
    if not is_odd_prime(p):
        raise UsageError(f"modulus must be an odd prime >= 3, got {p!r}")
    return p


def inv_mod(a, p):
    a %= p
    if a == 0:
        raise UsageError("zero is not invertible")
    return pow(a, -1, p)


def matpow(a, k, p):
    """a^k mod p for a square integer matrix, by repeated squaring.

    Every product is reduced mod p before the next one, so no intermediate
    entry exceeds dim * p^2 and int64 stays exact; reducing only at the end
    wraps silently once p^k outgrows int64 (already for p = 17)."""
    a = np.asarray(a, dtype=np.int64) % p
    out = np.eye(a.shape[0], dtype=np.int64)
    while k:
        if k & 1:
            out = (out @ a) % p
        k >>= 1
        if k:
            a = (a @ a) % p
    return out


class Eliminator:
    """Incremental reduced-row-echelon accumulator over GF(p).

    Rows are fed one at a time as ``{col: val}`` dicts whose values are
    reduced mod p and nonzero and whose columns lie in ``0..cols-1``; the
    eliminator does not check this.  Its callers are the rows of a ``MatGF``
    (checked when the matrix is built) and ``Subspace.from_vectors`` (which
    checks every vector).  The stored pivot rows always form an RREF of the
    row space seen so far.  Pivoting is by leading column, so the result is
    the canonical RREF regardless of insertion order.  ``_occ`` maps a
    column to the pivots of the rows nonzero there, so ``column`` reads one
    column without scanning every pivot row.
    """

    def __init__(self, cols, p):
        self.cols = cols
        self.p = check_modulus(p)
        self.rows = {}  # pivot column -> row
        self._occ = {}  # column -> pivot columns of the rows nonzero there

    def column(self, j):
        """{pivot column: entry in column j} over the pivot rows nonzero at j."""
        rows = self.rows
        return {pc: rows[pc][j] for pc in self._occ.get(j, ())}

    def reduce(self, row):
        """Residue of a row after eliminating every pivot-column entry.

        The row is copied once and reduced in place, so the caller's dict is
        left as it was.  A pivot row is zero in every other pivot column, so
        subtracting it changes no other pivot-column entry, and one pass over
        the row's pivot-column support suffices.
        """
        p, rows = self.p, self.rows
        row = dict(row)
        for pc in sorted(row.keys() & rows.keys()):
            c = row[pc]
            for j, v in rows[pc].items():
                w = (row.get(j, 0) - c * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
        return row

    def add(self, row):
        """Insert a row; returns its pivot column or None if dependent."""
        p, rows, occ = self.p, self.rows, self._occ
        row = self.reduce(row)
        if not row:
            return None
        lead = min(row)
        inv = inv_mod(row[lead], p)
        for j in row:
            row[j] = row[j] * inv % p
        # clear column lead in the pivot rows nonzero there, in place; only
        # the columns of row's support change, so only they move in _occ
        for pc, c in self.column(lead).items():
            r = rows[pc]
            for j, v in row.items():
                w = (r.get(j, 0) - c * v) % p
                if not w:
                    del r[j]
                    occ[j].discard(pc)
                else:
                    if j not in r:
                        occ.setdefault(j, set()).add(pc)
                    r[j] = w
        rows[lead] = row
        for j in row:
            occ.setdefault(j, set()).add(lead)
        return lead

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class MatGF:
    """A rows x cols matrix over GF(p), stored as {(i, j): nonzero value}."""

    __slots__ = ("rows", "cols", "p", "entries")

    def __init__(self, rows, cols, p, entries=None):
        check_modulus(p)
        if rows < 0 or cols < 0:
            raise UsageError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.p = p
        clean = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise UsageError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
            v = int(v) % p
            if v:
                clean[(int(i), int(j))] = v
        self.entries = clean

    # construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, p):
        return cls(rows, cols, p)

    @classmethod
    def identity(cls, n, p):
        return cls(n, n, p, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_dense(cls, array, p):
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise UsageError("expected a 2-d array")
        arr = arr % p
        ent = {(int(i), int(j)): int(arr[i, j])
               for i, j in zip(*np.nonzero(arr))}
        return cls(arr.shape[0], arr.shape[1], p, ent)

    @classmethod
    def from_columns(cls, columns, rows, p):
        """Matrix whose c-th column is the dense sequence ``columns[c]``,
        each of length ``rows``."""
        if any(len(col) != rows for col in columns):
            raise UsageError("column length mismatch")
        return cls(rows, len(columns), p,
                   {(r, c): v for c, col in enumerate(columns)
                    for r, v in enumerate(col)})

    @classmethod
    def from_coo(cls, rows, cols, p, r, c, v):
        """Matrix with entry v[k] at (r[k], c[k]) from three equal-length
        integer arrays; every v[k] must already lie in 1..p-1 and no
        coordinate may repeat (a repeat shows as a dict shorter than the
        arrays).  The entry dict is built once, unlike ``__init__``, which
        copies and cleans the dict it is handed."""
        check_modulus(p)
        if rows < 0 or cols < 0:
            raise UsageError("negative matrix dimensions")
        r, c, v = (np.asarray(a, dtype=np.int64) for a in (r, c, v))
        if not r.ndim == c.ndim == v.ndim == 1 or not r.size == c.size == v.size:
            raise UsageError("coordinate arrays must be 1-d and of one length")
        if r.size and (r.min() < 0 or r.max() >= rows or c.min() < 0
                       or c.max() >= cols):
            raise UsageError(f"an entry is out of bounds for {rows}x{cols}")
        if r.size and (v.min() < 1 or v.max() >= p):
            raise UsageError(f"entry values must lie in 1..{p - 1}")
        out = cls.__new__(cls)
        out.rows, out.cols, out.p = rows, cols, p
        out.entries = dict(zip(zip(r.tolist(), c.tolist()), v.tolist()))
        if len(out.entries) != r.size:
            raise UsageError("repeated matrix coordinate")
        return out

    @classmethod
    def from_rows(cls, row_dicts, cols, p):
        ent = {}
        for i, row in enumerate(row_dicts):
            for j, v in row.items():
                v = int(v) % p
                if v:
                    ent[(i, j)] = v
        return cls(len(row_dicts), cols, p, ent)

    # views --------------------------------------------------------------

    def to_dense(self):
        arr = np.zeros((self.rows, self.cols), dtype=np.int64)
        for (i, j), v in self.entries.items():
            arr[i, j] = v
        return arr

    def row_dicts(self):
        out = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def col_dicts(self):
        out = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    @property
    def nnz(self):
        return len(self.entries)

    def __eq__(self, other):
        return (isinstance(other, MatGF) and self.rows == other.rows
                and self.cols == other.cols and self.p == other.p
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.p, frozenset(self.entries.items())))

    def __repr__(self):
        return f"MatGF({self.rows}x{self.cols} mod {self.p}, nnz={self.nnz})"

    def is_zero(self):
        return not self.entries

    # arithmetic -----------------------------------------------------------

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise UsageError("vector length mismatch")
        out = [0] * self.rows
        for (i, j), v in self.entries.items():
            c = vec[j]
            if c:
                out[i] = (out[i] + v * c) % self.p
        return tuple(out)

    def matmul(self, other):
        if not isinstance(other, MatGF):
            raise UsageError("matmul expects a MatGF")
        if self.p != other.p:
            raise UsageError("mixing moduli is rejected")
        if self.cols != other.rows:
            raise UsageError("inner dimension mismatch")
        brows = other.row_dicts()
        acc = {}
        for (i, k), a in self.entries.items():
            for j, b in brows[k].items():
                key = (i, j)
                acc[key] = (acc.get(key, 0) + a * b) % self.p
        return MatGF(self.rows, other.cols, self.p, acc)


# ---------------------------------------------------------------------------
# echelon subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of GF(p)^n held by its canonical RREF basis.

    ``rows`` is a read-only (dim, n) int64 array with entries in 0..p-1 and
    ``pivots`` the pivot column of each row, increasing.  Because the rows
    are in RREF (pivot entry 1, zero in every other pivot column), the
    coefficients of a vector on the basis are its pivot coordinates, and
    reducing vectors against the subspace is one product.  ``basis_rows``
    gives the rows as tuples of Python ints, built on each call.
    """

    __slots__ = ("ambient_dim", "p", "rows", "pivots")

    def __init__(self, ambient_dim, p, basis_rows, pivots):
        """Raises ``UsageError`` unless ``basis_rows`` (reduced mod p) are in
        RREF at ``pivots``: increasing pivots, each row zero before its
        pivot, pivot entry 1 and zero in every other pivot column."""
        check_modulus(p)
        pivots = tuple(int(x) for x in pivots)
        rows = (np.array(basis_rows, dtype=np.int64) % p if len(basis_rows)
                else np.zeros((0, ambient_dim), dtype=np.int64))
        if rows.shape != (len(pivots), ambient_dim):
            raise UsageError(f"{len(pivots)} rows of length {ambient_dim} "
                             f"expected, got shape {rows.shape}")
        if pivots and (pivots[0] < 0 or pivots[-1] >= ambient_dim or
                       any(x >= y for x, y in zip(pivots, pivots[1:]))):
            raise UsageError("pivots must increase within the ambient space")
        piv = np.array(pivots, dtype=np.int64)
        if (rows[:, piv] != np.eye(len(pivots), dtype=np.int64)).any() or (
                rows[np.arange(ambient_dim) < piv[:, None]]).any():
            raise UsageError("basis rows are not in RREF at their pivots")
        self._set(ambient_dim, p, rows, pivots)

    def _set(self, ambient_dim, p, rows, pivots):
        rows.setflags(write=False)
        self.ambient_dim, self.p, self.rows, self.pivots = \
            ambient_dim, p, rows, tuple(pivots)
        return self

    @classmethod
    def _rref(cls, ambient_dim, p, rows, pivots):
        """A subspace from rows the caller knows to be in RREF."""
        return cls.__new__(cls)._set(ambient_dim, p, rows, pivots)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim, p):
        """Span of vectors, each a sequence of length ambient_dim or a
        ``{coordinate: value}`` dict with coordinates in 0..ambient_dim-1."""
        elim = Eliminator(ambient_dim, p)
        for v in vectors:
            if isinstance(v, dict):
                if not all(0 <= j < ambient_dim for j in v):
                    raise UsageError(f"vector coordinate out of bounds for "
                                     f"dimension {ambient_dim}")
                row = {}
                for j, c in v.items():
                    c = int(c) % p
                    if c:
                        row[int(j)] = c
            else:
                v = np.asarray(v, dtype=np.int64)
                if v.shape != (ambient_dim,):
                    raise UsageError("vector length mismatch")
                v = v % p
                nz = np.flatnonzero(v)
                row = dict(zip(nz.tolist(), v[nz].tolist()))
            elim.add(row)
        pivots = elim.pivots()
        rows = np.zeros((len(pivots), ambient_dim), dtype=np.int64)
        for i, pc in enumerate(pivots):
            row = elim.rows[pc]
            rows[i, list(row)] = list(row.values())
        return cls._rref(ambient_dim, p, rows, pivots)

    @classmethod
    def zero(cls, ambient_dim, p):
        check_modulus(p)
        return cls(ambient_dim, p, (), ())

    @classmethod
    def full(cls, ambient_dim, p):
        check_modulus(p)
        return cls._rref(ambient_dim, p, np.eye(ambient_dim, dtype=np.int64),
                         range(ambient_dim))

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis_rows(self):
        """The basis rows as tuples of Python ints."""
        return tuple(map(tuple, self.rows.tolist()))

    def _eliminate(self, vecs):
        """(residues, coefficients) of the rows of a (k, n) array with
        entries in 0..p-1: each row minus its pivot coordinates times the
        basis, and those coordinates."""
        cs = vecs[:, list(self.pivots)]
        return (vecs - _mulmod(cs, self.rows, self.p)) % self.p, cs

    def _vector(self, vec):
        vec = np.asarray(vec, dtype=np.int64)
        if vec.shape != (self.ambient_dim,):
            raise UsageError("vector length mismatch")
        return vec[None, :] % self.p

    def reduce(self, vec):
        """Residue of vec after eliminating this subspace's pivot coordinates."""
        return tuple(self._eliminate(self._vector(vec))[0][0].tolist())

    def contains(self, vec):
        return not self._eliminate(self._vector(vec))[0].any()

    def coords(self, vec):
        """Coordinates of vec in the echelon basis, or None if outside."""
        out, cs = self._eliminate(self._vector(vec))
        if out.any():
            return None
        return tuple(cs[0].tolist())

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.p == other.p and self.pivots == other.pivots
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.ambient_dim, self.p, self.pivots, self.rows.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of GF({self.p})^{self.ambient_dim})"


def _mulmod(a, b, p):
    """(a @ b) mod p for int64 arrays with entries in 0..p-1.

    The inner dimension is summed in chunks of at most
    (2^63 - p) // (p - 1)^2 terms, and the running sum is reduced mod p
    after each, so no int64 accumulator exceeds 2^63 - 1 (one chunk for
    p < 2^16 up to an inner dimension of 2^31)."""
    step = (2 ** 63 - p) // (p - 1) ** 2
    if step < 1:
        raise UsageError(f"products mod {p} overflow int64")
    out = a[:, :step] @ b[:step]
    out %= p
    for lo in range(step, a.shape[1], step):
        out += a[:, lo:lo + step] @ b[lo:lo + step]
        out %= p
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def rref(m):
    """RREF of m; returns (matrix, rank, pivot columns).

    The returned matrix has the echelon rows on top and zero rows below,
    so it is row-equivalent to m and has m's shape.
    """
    elim = Eliminator(m.cols, m.p)
    for row in m.row_dicts():
        elim.add(row)
    rows = [elim.rows[pc] for pc in elim.pivots()]
    ent = {(i, j): row[j] for i, row in enumerate(rows) for j in sorted(row)}
    return MatGF(m.rows, m.cols, m.p, ent), elim.rank, elim.pivots()


class RowReduction:
    """One elimination of the rows of a matrix m (n x k, rank r over
    GF(p)), read two ways: ``kernel`` {x : m x = 0} in GF(p)^k and the
    column space ``image`` in GF(p)^n, each as a canonical ``Subspace``.

    The rows are fed to an ``Eliminator`` in order.  The ones it accepts as
    new pivots, P (increasing), are the rows outside the span of the rows
    before them; Q are the pivot columns of the RREF of the row space.
    The kernel is read off that RREF at once, and the eliminator is
    dropped.  The image is computed on first use, from m and (P, Q) alone:
    m[P, Q] is invertible, every row of m is t_j m[P, :] with
    t_j = m[j, Q] m[P, Q]^-1, and m = T m[P, :] with m[P, :] of full row
    rank, so the column space of m is that of T = m[:, Q] m[P, Q]^-1.
    Row j of T holds row j's coordinates on the pivot rows: T[P] = I, and
    T[j, i] = 0 whenever P_i > j, since row j lies in the span of the
    pivot rows before it.  So T^T is in RREF with pivots P, and it is the
    canonical basis of the image.
    """

    def __init__(self, m):
        elim = Eliminator(m.cols, m.p)
        prows = []
        for i, row in enumerate(m.row_dicts()):
            if elim.add(row) is not None:
                prows.append(i)
        self._m, self._prows, self._pcols = m, tuple(prows), elim.pivots()
        vectors = []
        for j in range(m.cols):
            if j not in elim.rows:
                vec = {j: 1}
                for pc, v in elim.column(j).items():
                    vec[pc] = (-v) % m.p
                vectors.append(vec)
        self.kernel = Subspace.from_vectors(vectors, m.cols, m.p)

    @property
    def rank(self):
        return len(self._prows)

    @functools.cached_property
    def image(self):
        """Column space of m as a Subspace of GF(p)^rows: the rows of
        T^T, T = m[:, Q] m[P, Q]^-1, summed one column of m[:, Q] at a
        time."""
        m, prows, r = self._m, self._prows, self.rank
        p, n = m.p, m.rows
        if not r:
            return Subspace.zero(n, p)
        # the columns Q of m as (rows, values) lists, and [m[P, Q] | I]
        at_q = {c: a for a, c in enumerate(self._pcols)}
        at_p = {i: a for a, i in enumerate(prows)}
        cols = [([], []) for _ in range(r)]
        block = [{r + a: 1} for a in range(r)]
        for (i, c), v in m.entries.items():
            a = at_q.get(c)
            if a is not None:
                cols[a][0].append(i)
                cols[a][1].append(v)
                if i in at_p:
                    block[at_p[i]][a] = v
        # m[P, Q]^-1 from the RREF [I | m[P, Q]^-1] of [m[P, Q] | I]
        elim = Eliminator(2 * r, p)
        for row in block:
            elim.add(row)
        # T^T = (m[P, Q]^-1)^T m[:, Q]^T: the inverse's entry w at (a, b)
        # adds w times column a of m[:, Q] to row b of T^T.  Column a is
        # added for all the inverse entries of row a at once; their targets
        # are distinct, so a plain fancy-indexed add is exact.  Only those
        # entries are written, so the pages of the zero-filled array that
        # T^T leaves zero are never touched
        rows = np.zeros((r, n), dtype=np.int64)
        out = rows.reshape(-1)
        for a, (i, v) in enumerate(cols):
            bw = np.array([(b - r, w) for b, w in elim.rows[a].items()
                           if b >= r], dtype=np.int64)
            i, v = np.array(i, dtype=np.int64), np.array(v, dtype=np.int64)
            at = (bw[:, :1] * n + i).ravel()
            out[at] = (out[at] + (bw[:, 1:] * v).ravel()) % p
        return Subspace._rref(n, p, rows, prows)


def nullspace(m):
    """Kernel {x : m x = 0} as a Subspace of GF(p)^cols."""
    return RowReduction(m).kernel


def image(m):
    """Column space of m as a Subspace of GF(p)^rows."""
    return Subspace.from_vectors(m.col_dicts(), m.rows, m.p)


def solve(m, rhs):
    """Some x with m x = rhs, or None when rhs is outside the image.

    Free variables are set to zero, which picks the lexicographically
    first echelon solution; downstream code relies on that determinism.
    """
    if len(rhs) != m.rows:
        raise UsageError("rhs length mismatch")
    aug = m.cols
    elim = Eliminator(m.cols + 1, m.p)
    rows = m.row_dicts()
    for i, row in enumerate(rows):
        r = dict(row)
        v = int(rhs[i]) % m.p
        if v:
            r[aug] = v
        elim.add(r)
    if aug in elim.rows:
        return None
    x = [0] * m.cols
    for pc, v in elim.column(aug).items():
        x[pc] = v
    return tuple(x)


def subspace_sum(a, b):
    """a + b.  The smaller basis is reduced against the larger one and its
    residues are eliminated; the larger basis is then cleared in their
    pivot columns, so it is never eliminated again and, when b lies in a,
    a itself is returned."""
    _check_pair(a, b)
    if b.dim > a.dim:
        a, b = b, a
    p = a.p
    res = Subspace.from_vectors(a._eliminate(b.rows)[0], a.ambient_dim, p)
    if not res.dim:
        return a
    pivots = a.pivots + res.pivots
    at = np.argsort(np.argsort(pivots))  # merged position of each row
    rows = np.empty((len(pivots), a.ambient_dim), dtype=np.int64)
    rows[at[:a.dim]] = a.rows
    rows[at[a.dim:]] = res.rows
    cs = a.rows[:, list(res.pivots)]
    hit = np.flatnonzero(cs.any(axis=1))
    rows[at[hit]] -= _mulmod(cs[hit], res.rows, p)
    rows[at[hit]] %= p
    return Subspace._rref(a.ambient_dim, p, rows, sorted(pivots))


def subspace_intersect(a, b):
    """Intersection, via the kernel of the stacked-basis relation matrix."""
    _check_pair(a, b)
    ra, rb, p = a.dim, b.dim, a.p
    if ra == 0 or rb == 0:
        return Subspace.zero(a.ambient_dim, p)
    # columns: coefficients (u | v) with u*A = v*B; rows: ambient coordinates
    rel = np.concatenate([a.rows, (-b.rows) % p]).T
    r, c = np.nonzero(rel)
    ker = nullspace(MatGF.from_coo(a.ambient_dim, ra + rb, p, r, c, rel[r, c]))
    return Subspace.from_vectors(_mulmod(ker.rows[:, :ra], a.rows, p),
                                 a.ambient_dim, p)


def _check_pair(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise UsageError("ambient dimension mismatch")
    if a.p != b.p:
        raise UsageError("mixing moduli is rejected")


def quotient_representatives(Z, B):
    """Canonical representatives of Z/B, for B a subspace of Z, as a
    (dim Z - dim B, n) int64 array in RREF.

    B's pivots are among Z's, and the representatives are the Z rows at
    the other pivots.  Each is zero in every B-pivot column, so B.reduce
    leaves it as it is, and every other Z row z_q differs from B's row b_q
    by a combination of them; so they are the RREF of the reduced Z rows
    and the choice is deterministic.  B lies in Z exactly when each b_q is
    z_q plus its entries in the representatives' pivot columns times
    those rows, which is one product of size dim B x (dim Z - dim B).
    """
    _check_pair(Z, B)
    p, bpiv = Z.p, set(B.pivots)
    at_b = [i for i, q in enumerate(Z.pivots) if q in bpiv]
    rest = [i for i, q in enumerate(Z.pivots) if q not in bpiv]
    reps = Z.rows[rest]
    if Z == B:
        return reps
    if len(at_b) != B.dim:
        raise UsageError("B is not contained in Z")
    diff = _mulmod(B.rows[:, [Z.pivots[i] for i in rest]], reps, p)
    for k, i in enumerate(at_b):  # row by row: no second B-sized array
        diff[k] += Z.rows[i]
    diff -= B.rows
    diff %= p
    if diff.any():
        raise UsageError("B is not contained in Z")
    return reps
