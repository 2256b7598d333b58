"""Exact linear algebra over a prime field GF(p), p an odd prime.

Every matrix is one CSR row store: ``MatGF`` holds its nonzeros as three
read-only int64 arrays, ``indptr``, ``indices`` (increasing within each
row) and ``data`` (values in 1..p-1), so equal matrices have equal arrays
and a matrix costs O(nnz + rows).  A ``Subspace`` holds its canonical RREF
basis as such a matrix.  Matrices are built by one segment sum: terms are
sorted by the key row * cols + col, equal keys summed mod p and zero sums
dropped.  Products pair every entry a[i, k] with row k of b and sum the
same way; a product of residues is below 2^32 for p < 2^16, so a sum of
fewer than 2^31 of them is exact in int64.

Gaussian elimination keeps every row as a sparse ``{col: val}`` dict and
reduces the eliminator's own copies in place.  The eliminator indexes its
pivot rows by column, so inserting a pivot touches only the rows with an
entry in its lead column.  The RREF of a row space is unique, so every
routine that derives its output from an RREF is deterministic.

A ``RowReduction`` is the one elimination of a ``MatGF``: its kernel, its
column space and the solutions of m x = b (see its docstring);
``nullspace``, ``image`` and ``solve`` are views of it.  It feeds m's rows
in blocks, each later one as tall as the rows before it, and reduces a
later block modulo the span so far by one sparse product, so only the rows
that can still add a pivot reach the dict eliminator: a tall differential
of rank r costs about r dict rows after its first block, not one per row
(structured elimination, after LaMacchia and Odlyzko).  Its image is held
without rows, as m and m[P, Q]^-1, until they are read, and vectors are
reduced against it through those two matrices.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import UsageError

# products summed at once by ``_product``; larger products go in chunks
_CHUNK = 1 << 18
# rows a ``RowReduction`` feeds to its eliminator as they are; each later
# block of rows is as tall as all the rows before it
_BLOCK = 64


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
    # p < 2^16 keeps every sum of up to 2^31 products of residues below 2^63
    if isinstance(p, int) and p >= 2 ** 16:
        raise UsageError(f"modulus must be below 2^16, got {p}")
    if not is_odd_prime(p):
        raise UsageError(f"modulus must be an odd prime >= 3, got {p!r}")
    return p


def inv_mod(a, p):
    a %= p
    if a == 0:
        raise UsageError("zero is not invertible")
    return pow(a, -1, p)


def matpow(a, k, p):
    """a^k mod p for a square integer matrix, or for each of a stack of
    them along the leading axes, by repeated squaring.

    Every product is reduced mod p before the next one, so no intermediate
    entry exceeds dim * p^2 and int64 stays exact; reducing only at the end
    wraps silently once p^k outgrows int64 (already for p = 17)."""
    a = np.asarray(a, dtype=np.int64) % p
    out = np.eye(a.shape[-1], dtype=np.int64)
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
    eliminator does not check this.  Its callers feed the CSR rows of a
    ``MatGF`` (checked when the matrix is built) and the vectors of
    ``Subspace.from_vectors`` (which checks every one).  The stored pivot
    rows always form an RREF of the row space seen so far, and ``span``
    stores them as the canonical ``Subspace``.  Pivoting is by leading
    column, so the result is the canonical RREF regardless of insertion
    order.  ``_occ`` maps a column to the pivots of the rows nonzero there,
    so ``column`` reads one column without scanning every pivot row.
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

    def span(self):
        """The row space seen so far as a ``Subspace``, its pivot rows
        written once as CSR rows with increasing columns."""
        pivots = self.pivots()
        indptr, indices, data = [0], [], []
        for pc in pivots:
            row = self.rows[pc]
            cols = sorted(row)
            indices += cols
            data += map(row.__getitem__, cols)
            indptr.append(len(indices))
        basis = MatGF._csr(len(pivots), self.cols, self.p, indptr, indices, data)
        return Subspace._rref(self.cols, self.p, basis, pivots)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class MatGF:
    """A rows x cols matrix over GF(p) in CSR form: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]``, all in 1..p-1, at the increasing
    columns ``indices[indptr[i]:indptr[i + 1]]``.  The arrays are read-only
    int64; ``entries``, a ``{(row, col): value}`` dict, is built on each
    read."""

    __slots__ = ("rows", "cols", "p", "indptr", "indices", "data")

    def __init__(self, rows, cols, p, entries=None):
        check_modulus(p)
        _check_shape(rows, cols)
        ent = {}
        for (i, j), x in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise UsageError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
            x = int(x) % p
            if x:
                ent[int(i), int(j)] = x
        items = sorted(ent.items())
        indptr = [0] * (rows + 1)
        for (i, _), _ in items:
            indptr[i + 1] += 1
        self._set(rows, cols, p, list(itertools.accumulate(indptr)),
                  [j for (_, j), _ in items], [x for _, x in items])

    def _keyed(self, rows, cols, p, key, data):
        """Set the matrix from increasing keys row * cols + col."""
        r = key // max(cols, 1)
        return self._set(rows, cols, p, r.searchsorted(np.arange(rows + 1)),
                         key - r * cols, data)

    def _set(self, rows, cols, p, indptr, indices, data):
        self.rows, self.cols, self.p = rows, cols, p
        self.indptr = indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = indices = np.asarray(indices, dtype=np.int64)
        self.data = data = np.asarray(data, dtype=np.int64)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        data.setflags(write=False)
        return self

    @classmethod
    def _csr(cls, rows, cols, p, indptr, indices, data):
        """A matrix from CSR arrays the caller knows to be valid."""
        return cls.__new__(cls)._set(rows, cols, p, indptr, indices, data)

    @classmethod
    def _sum(cls, rows, cols, p, key, val):
        """The matrix with entry (k // cols, k % cols) the sum mod p of the
        values at key k, for int64 keys and values."""
        return cls.__new__(cls)._keyed(rows, cols, p, *_segment_sum(key, val, p))

    # construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, p):
        return cls(rows, cols, p)

    @classmethod
    def identity(cls, n, p):
        return cls.from_terms(n, n, p, range(n), range(n), [1] * n)

    @classmethod
    def from_dense(cls, array, p):
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise UsageError("expected a 2-d array")
        arr = arr % p
        r, c = np.nonzero(arr)
        return cls.from_terms(arr.shape[0], arr.shape[1], p, r, c, arr[r, c])

    @classmethod
    def from_columns(cls, columns, rows, p):
        """Matrix whose c-th column is the dense sequence ``columns[c]``,
        each of length ``rows``."""
        if any(len(col) != rows for col in columns):
            raise UsageError("column length mismatch")
        return cls(rows, len(columns), p,
                   {(r, c): v for c, col in enumerate(columns)
                    for r, v in enumerate(col) if v})

    @classmethod
    def from_coo(cls, rows, cols, p, r, c, v):
        """Matrix with entry v[k] at (r[k], c[k]) from three equal-length
        integer arrays; every v[k] must already lie in 1..p-1 and no
        coordinate may repeat (a repeat shows as fewer entries than
        terms)."""
        check_modulus(p)
        v = np.asarray(v, dtype=np.int64)
        if v.size and (v.min() < 1 or v.max() >= p):
            raise UsageError(f"entry values must lie in 1..{p - 1}")
        out = cls.from_terms(rows, cols, p, r, c, v)
        if out.nnz != v.size:
            raise UsageError("repeated matrix coordinate")
        return out

    @classmethod
    def from_terms(cls, rows, cols, p, r, c, v):
        """Matrix whose entry (i, j) is the sum mod p of the v[k] with
        (r[k], c[k]) = (i, j), from three equal-length integer arrays:
        coordinates may repeat, and values may be any integers whose sums
        stay in int64."""
        check_modulus(p)
        _check_shape(rows, cols)
        r, c, v = (np.asarray(a, dtype=np.int64) for a in (r, c, v))
        if not r.ndim == c.ndim == v.ndim == 1 or not r.size == c.size == v.size:
            raise UsageError("coordinate arrays must be 1-d and of one length")
        if r.size and (r.min() < 0 or r.max() >= rows or c.min() < 0
                       or c.max() >= cols):
            raise UsageError(f"an entry is out of bounds for {rows}x{cols}")
        return cls._sum(rows, cols, p, r * cols + c, v)

    @classmethod
    def from_rows(cls, row_dicts, cols, p):
        return cls(len(row_dicts), cols, p,
                   {(i, j): v for i, row in enumerate(row_dicts)
                    for j, v in row.items()})

    # views --------------------------------------------------------------

    def _row_ids(self):
        """The row of every stored entry."""
        return np.arange(self.rows, dtype=np.int64).repeat(
            self.indptr[1:] - self.indptr[:-1])

    def to_dense(self):
        arr = np.zeros((self.rows, self.cols), dtype=np.int64)
        arr[self._row_ids(), self.indices] = self.data
        return arr

    @property
    def entries(self):
        """{(row, col): value} over the nonzeros, row by row."""
        return dict(zip(zip(self._row_ids().tolist(), self.indices.tolist()),
                        self.data.tolist()))

    def coo(self):
        """(rows, cols, values) int64 arrays of the nonzeros, row by row."""
        return self._row_ids(), self.indices, self.data

    @property
    def nnz(self):
        return self.data.size

    def __eq__(self, other):
        return (isinstance(other, MatGF) and self.rows == other.rows
                and self.cols == other.cols and self.p == other.p
                and self.nnz == other.nnz
                and self.indptr.tobytes() == other.indptr.tobytes()
                and self.indices.tobytes() == other.indices.tobytes()
                and self.data.tobytes() == other.data.tobytes())

    def __hash__(self):
        return hash((self.rows, self.cols, self.p, self.indptr.tobytes(),
                     self.indices.tobytes(), self.data.tobytes()))

    def __repr__(self):
        return f"MatGF({self.rows}x{self.cols} mod {self.p}, nnz={self.nnz})"

    def is_zero(self):
        return not self.data.size

    # arithmetic -----------------------------------------------------------

    def _mv(self, x):
        """m x mod p for int64 x (entries in 0..p-1), or a stack of them."""
        return self._row_sums(x.take(self.indices, axis=-1))

    def _row_sums(self, xs):
        """m x mod p from xs = x[..., indices]: the products of each row
        summed as differences of one running sum."""
        run = np.zeros(xs.shape[:-1] + (self.nnz + 1,), dtype=np.int64)
        (self.data * xs).cumsum(axis=-1, out=run[..., 1:])
        return (run.take(self.indptr[1:], axis=-1)
                - run.take(self.indptr[:-1], axis=-1)) % self.p

    def _vm(self, x):
        """x m mod p for int64 x (entries in 0..p-1), or a stack of them."""
        out = np.zeros(x.shape[:-1] + (self.cols,), dtype=np.int64)
        np.add.at(out, (..., self.indices),
                  x.repeat(self.indptr[1:] - self.indptr[:-1], axis=-1) * self.data)
        return out % self.p

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise UsageError("vector length mismatch")
        # read vec at the column indices only, unless it is already an
        # array or the matrix has more nonzeros than columns
        if isinstance(vec, np.ndarray) or self.nnz >= self.cols:
            xs = np.asarray(vec, dtype=np.int64)[self.indices]
        else:
            xs = np.array([vec[j] for j in self.indices.tolist()], dtype=np.int64)
        return tuple(self._row_sums(xs % self.p).tolist())

    def matmul(self, other):
        if not isinstance(other, MatGF):
            raise UsageError("matmul expects a MatGF")
        if self.p != other.p:
            raise UsageError("mixing moduli is rejected")
        if self.cols != other.rows:
            raise UsageError("inner dimension mismatch")
        return _product(self, other)


def _check_shape(rows, cols):
    if rows < 0 or cols < 0:
        raise UsageError("negative matrix dimensions")
    if rows * cols >= 2 ** 63:
        raise UsageError(f"a {rows}x{cols} matrix is too large")


def _segment_sum(key, val, p):
    """(increasing distinct keys, the sum mod p of each key's values), with
    the keys whose sum is zero dropped."""
    if key.size > 1:
        order = key.argsort()
        key, val = key[order], val[order]
        first = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
        key, val = key[first], np.add.reduceat(val, first)
    val = val % p
    nz = val.nonzero()[0]
    return key[nz], val[nz]


def index_runs(starts, counts):
    """(owner, position) of every element of the index runs
    starts[i] .. starts[i] + counts[i] - 1, run by run."""
    owner = np.arange(counts.size, dtype=np.int64).repeat(counts)
    ends = counts.cumsum()
    pos = np.arange(owner.size, dtype=np.int64)
    pos += (starts - ends + counts)[owner]
    return owner, pos


def _product(a, b, transposed=False):
    """a b as a MatGF, or (a b)^T when ``transposed``: entry a[i, k] times
    row k of b lands in row i.  The products are segment-summed, in chunks
    of about ``_CHUNK`` when there are more, and so are the chunks' sums."""
    p, n = a.p, b.cols
    shape = (n, a.rows) if transposed else (a.rows, n)
    if not (a.nnz and b.nnz):
        return MatGF._csr(*shape, p, np.zeros(shape[0] + 1, dtype=np.int64), (), ())
    lens = (b.indptr[1:] - b.indptr[:-1])[a.indices]
    bounds = [0, a.nnz]
    ends = lens.cumsum()
    if ends[-1] > _CHUNK:
        cuts = ends.searchsorted(np.arange(_CHUNK, ends[-1], _CHUNK))
        bounds[1:1] = np.unique(cuts).tolist()
    rows = a._row_ids()
    keys, vals = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        own, at = index_runs(b.indptr[a.indices[lo:hi]], lens[lo:hi])
        own += lo  # the entry of a each product comes from
        r, c, v = rows[own], b.indices[at], a.data[own] * b.data[at]
        del own, at  # freed before the sort, which sets the peak
        key, val = _segment_sum(c * a.rows + r if transposed else r * n + c,
                                v, p)
        keys.append(key)
        vals.append(val)
    if len(keys) == 1:
        return MatGF.__new__(MatGF)._keyed(*shape, p, keys[0], vals[0])
    return MatGF._sum(*shape, p, np.concatenate(keys), np.concatenate(vals))


def _coo(m, at=None, sign=1):
    """(rows, cols, values) of m's entries, rows renumbered by ``at``."""
    r, c, v = m.coo()
    return (r if at is None else at[r]), c, sign * v


def _terms(rows, cols, p, *parts):
    """The matrix summing (rows, cols, values) parts of entries."""
    r, c, v = (np.concatenate(x) for x in zip(*parts))
    return MatGF._sum(rows, cols, p, r * cols + c, v)


def _at_rows(m, rows, n):
    """The n x m.cols matrix whose row rows[t] is row t of m, for increasing
    rows, and zero elsewhere."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[np.asarray(rows, dtype=np.int64) + 1] = m.indptr[1:] - m.indptr[:-1]
    return MatGF._csr(n, m.cols, m.p, indptr.cumsum(), m.indices, m.data)


def _take(m, rows):
    """m[rows] for increasing rows."""
    rows = np.asarray(rows, dtype=np.int64)
    lens = (m.indptr[1:] - m.indptr[:-1])[rows]
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    lens.cumsum(out=indptr[1:])
    at = index_runs(m.indptr[rows], lens)[1]
    return MatGF._csr(rows.size, m.cols, m.p, indptr, m.indices[at], m.data[at])


def _dict_rows(m, lo=0, hi=None):
    """Rows lo..hi-1 of m (all by default) as {col: value} dicts, one at a
    time."""
    indptr = m.indptr[lo:hi if hi is None else hi + 1]
    a, b = indptr[0], indptr[-1]
    entries = zip(m.indices[a:b].tolist(), m.data[a:b].tolist())
    for n in (indptr[1:] - indptr[:-1]).tolist():
        yield dict(itertools.islice(entries, n))


def _span(rows, n, p):
    """The canonical Subspace spanned by {col: value} rows."""
    elim = Eliminator(n, p)
    for row in rows:
        elim.add(row)
    return elim.span()


# ---------------------------------------------------------------------------
# echelon subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of GF(p)^n held by its canonical RREF basis.

    ``basis`` is a dim x n ``MatGF``, one CSR row per basis vector, and
    ``pivots`` the pivot column of each row, increasing, so a subspace costs
    O(nnz + dim).  Because the rows are in RREF (pivot entry 1, zero in
    every other pivot column), the coefficients of a vector on the basis
    are its pivot coordinates, and reducing a vector against the subspace
    is one sparse product.  ``rows`` (a read-only dense array) and
    ``basis_rows`` (tuples of Python ints) are built on each read.

    A subspace may be held without its rows (``RowReduction.image``,
    ``extend``): its dim and pivots are known at once, ``basis`` is
    written on first read, and ``reduce``, ``contains`` and ``coords``
    take a route that needs no rows, whether or not they are written.
    """

    __slots__ = ("ambient_dim", "p", "pivots", "_basis", "_lazy")

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
        self._set(ambient_dim, p, MatGF.from_dense(rows, p), pivots)

    def _set(self, ambient_dim, p, basis, pivots, lazy=None):
        self.ambient_dim, self.p, self._basis, self.pivots, self._lazy = \
            ambient_dim, p, basis, tuple(pivots), lazy
        return self

    @classmethod
    def _rref(cls, ambient_dim, p, basis, pivots, lazy=None):
        """A subspace from a basis the caller knows to be in RREF, or, for
        basis None, from lazy = (write, residue): ``write()`` returns that
        basis on its first read, and ``residue(v)`` is ``reduce(v)`` of an
        int64 vector v with entries in 0..p-1, or of a stack of them."""
        return cls.__new__(cls)._set(ambient_dim, p, basis, pivots, lazy)

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
        return elim.span()

    @classmethod
    def zero(cls, ambient_dim, p):
        return cls._rref(ambient_dim, p, MatGF.zeros(0, ambient_dim, p), ())

    @classmethod
    def full(cls, ambient_dim, p):
        return cls._rref(ambient_dim, p, MatGF.identity(ambient_dim, p),
                         range(ambient_dim))

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis(self):
        """The basis as a dim x n ``MatGF``, written on the first read when
        the subspace is held without it."""
        if self._basis is None:
            self._basis = self._lazy[0]()
        return self._basis

    @property
    def rows(self):
        """The basis as a read-only (dim, n) int64 array."""
        out = self.basis.to_dense()
        out.setflags(write=False)
        return out

    @property
    def basis_rows(self):
        """The basis rows as tuples of Python ints."""
        return tuple(map(tuple, self.basis.to_dense().tolist()))

    def reduce(self, vecs):
        """The residue of a vector, or of each of a stack of them along the
        leading axes, as an int64 array: the vector minus its pivot
        coordinates times the basis rows, reduced mod p."""
        vecs = np.asarray(vecs, dtype=np.int64)
        if vecs.shape[-1:] != (self.ambient_dim,):
            raise UsageError("vector length mismatch")
        vecs = vecs % self.p
        if not vecs.size:  # an empty stack writes no rows and no inverse
            return vecs
        if self._lazy:
            return self._lazy[1](vecs)
        return (vecs - self.basis._vm(vecs.take(self.pivots, axis=-1))) % self.p

    def contains(self, vec):
        return not self.reduce(vec).any()

    def coords(self, vec):
        """Coordinates of vec in the echelon basis, its pivot coordinates,
        or None if outside."""
        vec = np.asarray(vec, dtype=np.int64) % self.p
        return None if self.reduce(vec).any() else tuple(vec[list(self.pivots)].tolist())

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.p == other.p and self.pivots == other.pivots
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.p, self.pivots, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of GF({self.p})^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class RowReduction:
    """One elimination of the rows of a matrix m (n x k, rank r over
    GF(p)), read three ways: its ``kernel`` {x : m x = 0} in GF(p)^k and
    column space ``image`` in GF(p)^n, each a canonical ``Subspace``, and
    ``solve``.

    m's rows are fed to an ``Eliminator`` in order: the first ``_BLOCK``
    as they are, then each later block, as tall as the rows before it, as
    its residues modulo the span so far, one sparse product, of which only
    the nonzero ones become dicts.  A residue differs from its row by a
    vector of that span, so it adds the same pivot or none.  The rows
    accepted as new pivots, P (increasing), are the rows outside the span
    of the rows before them; Q are the pivot columns of the RREF of the
    row space.  The kernel is read off that RREF at once, and the
    eliminator is dropped.  m[P, Q] is invertible, and its inverse,
    computed on first use, serves ``image`` and ``solve``.  Every row of m
    is t_j m[P, :] with t_j = m[j, Q] m[P, Q]^-1, so m = T m[P, :] with
    m[P, :] of full row rank, and the column space of m is that of
    T = m[:, Q] m[P, Q]^-1.  T[P] = I, and T[j, i] = 0 whenever P_i > j,
    since row j lies in the span of the pivot rows before it.  So T^T is in
    RREF with pivots P, the canonical basis of the image.  The image is
    held as (m, P, V), V = m[P, Q]^-1: its dim and pivots are known at
    once, its rows are written as CSR rows by one sparse product on their
    first read, and a vector v reduces to v - T v[P] = v - m (V v[P]),
    O(nnz m + nnz V), whether or not they are written."""

    def __init__(self, m):
        elim = Eliminator(m.cols, m.p)
        prows, self._block = [], []  # P and the rows m[P] as dicts
        lo, hi = 0, min(m.rows, _BLOCK)
        while lo < hi:
            if lo:  # only the rows with a nonzero residue modulo the span so far
                res = _terms(hi - lo, m.cols, m.p,
                             *_reduction(_take(m, range(lo, hi)), elim.span()))
                live = (res.indptr[1:] > res.indptr[:-1]).nonzero()[0]
                rows, part = (live + lo).tolist(), _dict_rows(_take(res, live))
            else:
                rows, part = range(hi), _dict_rows(m, 0, hi)
            for i, row in zip(rows, part):
                if elim.add(row) is not None:
                    prows.append(i)
                    self._block.append(next(_dict_rows(m, i, i + 1)) if lo else row)
            lo, hi = hi, min(m.rows, 2 * hi)
        self._m, self._prows, self._pcols = m, tuple(prows), elim.pivots()
        kernel = Eliminator(m.cols, m.p)
        for j in range(m.cols):
            if j not in elim.rows:
                vec = {j: 1}
                for pc, v in elim.column(j).items():
                    vec[pc] = (-v) % m.p
                kernel.add(vec)
        self.kernel = kernel.span()

    @property
    def rank(self):
        return len(self._prows)

    @functools.cached_property
    def _inverse(self):
        """The k x r MatGF V whose row Q_a is row a of m[P, Q]^-1, zero off
        Q, so that m V = T: m[P, Q]^-1 is the right half of the RREF
        [I | m[P, Q]^-1] of [m[P, Q] | I]."""
        m, r, at_q = self._m, self.rank, {q: a for a, q in enumerate(self._pcols)}
        block = ({**{at_q[c]: v for c, v in row.items() if c in at_q}, r + k: 1}
                 for k, row in enumerate(self._block))
        inv = _span(block, 2 * r, m.p).basis
        keep = (inv.indices >= r).nonzero()[0]  # all but each row's 1 in I
        return _at_rows(MatGF._csr(r, r, m.p, inv.indptr - np.arange(r + 1),
                                   inv.indices[keep] - r, inv.data[keep]),
                        self._pcols, m.cols)

    @functools.cached_property
    def image(self):
        """Column space of m as a Subspace of GF(p)^rows with pivots P: its
        rows, those of T^T, are written on first read by one product
        T = m V keyed by column, and a vector is reduced through m V."""
        m, P = self._m, list(self._prows)
        if not self.rank:
            return Subspace.zero(m.rows, m.p)
        return Subspace._rref(m.rows, m.p, None, P, (
            lambda: _product(m, self._inverse, transposed=True),
            lambda v: (v - m._mv(self._inverse._mv(v.take(P, axis=-1)))) % m.p))

    def solve(self, rhs):
        """Some x with m x = rhs, or None when rhs is outside the image.

        x = V rhs[P]: x_Q = m[P, Q]^-1 rhs[P] and x is zero off Q, so the
        free variables are zero, which picks the lexicographically first
        echelon solution; downstream code relies on that determinism."""
        m, p = self._m, self._m.p
        if len(rhs) != m.rows:
            raise UsageError("rhs length mismatch")
        rhs = np.array([int(v) % p for v in rhs], dtype=np.int64)
        x = self._inverse._mv(rhs[list(self._prows)])
        if (m._mv(x) != rhs).any():
            return None
        return tuple(x.tolist())


def rref(m):
    """RREF of m as (matrix of m's shape, echelon rows on top and zero rows
    below; rank; pivot columns)."""
    span = _span(_dict_rows(m), m.cols, m.p)
    e = span.basis
    indptr = np.concatenate([e.indptr, np.full(m.rows - span.dim, e.nnz)])
    return (MatGF._csr(m.rows, m.cols, m.p, indptr, e.indices, e.data),
            span.dim, list(span.pivots))


def nullspace(m):
    """Kernel {x : m x = 0} as a Subspace of GF(p)^cols."""
    return RowReduction(m).kernel


def image(m):
    """Column space of m as a Subspace of GF(p)^rows."""
    return RowReduction(m).image


def solve(m, rhs):
    """Some x with m x = rhs (free variables zero), or None when rhs is
    outside the image of m."""
    return RowReduction(m).solve(rhs)


def _reduction(m, s):
    """The COO parts of m's rows minus their coordinates at the pivots of
    the subspace s times s's basis rows."""
    return _coo(m), _coo(_product(m, _at_rows(s.basis, s.pivots, m.cols)),
                         sign=-1)


def subspace_sum(a, b):
    """a + b.  The smaller basis is reduced against the larger one and its
    residues are eliminated; the larger basis is then cleared in their
    pivot columns, so it is never eliminated again and, when b lies in a,
    a itself is returned."""
    _check_pair(a, b)
    if b.dim > a.dim:
        a, b = b, a
    if not b.dim:
        return a
    n, p = a.ambient_dim, a.p
    res = _span(_dict_rows(_terms(b.dim, n, p, *_reduction(b.basis, a))), n, p)
    if not res.dim:
        return a
    pivots = a.pivots + res.pivots
    at = np.argsort(np.argsort(pivots))  # merged position of each row
    (r, c, v), (rc, cc, vc) = _reduction(a.basis, res)
    return Subspace._rref(n, p, _terms(
        len(pivots), n, p, (at[r], c, v), (at[rc], cc, vc),
        _coo(res.basis, at[a.dim:])), sorted(pivots))


def extend(B, vectors):
    """(Z, R) for Z = B + span(vectors), a (k, n) stack: R is the RREF of
    their residues modulo B, which is ``quotient_representatives(Z, B)``,
    as both are the unique RREF basis of {z in Z : z is zero at B's pivots}.
    Z is B when R is zero; otherwise its pivots are B's and R's, its rows,
    ``subspace_sum(B, R)``, are written on first read, and a vector is
    reduced modulo B, then modulo R.  B's rows are never read."""
    n, p = B.ambient_dim, B.p
    R = Subspace.from_vectors(B.reduce(vectors), n, p)
    if not R.dim:
        return B, R
    return Subspace._rref(n, p, None, sorted(B.pivots + R.pivots), (
        lambda: subspace_sum(B, R).basis,
        lambda v: R.reduce(B.reduce(v)))), R


def subspace_intersect(a, b):
    """Intersection, via the kernel of the stacked-basis relation matrix."""
    _check_pair(a, b)
    ra, rb, p = a.dim, b.dim, a.p
    if ra == 0 or rb == 0:
        return Subspace.zero(a.ambient_dim, p)
    # columns: coefficients (u | v) with u*A = v*B; rows: ambient coordinates
    (ia, ca, va), (ib, cb, vb) = _coo(a.basis), _coo(b.basis, sign=-1)
    rel = _terms(a.ambient_dim, ra + rb, p, (ca, ia, va), (cb, ib + ra, vb))
    ker = nullspace(rel)
    return _span(_dict_rows(_product(ker.basis, _at_rows(a.basis, range(ra),
                                                         ra + rb))),
                 a.ambient_dim, p)


def _check_pair(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise UsageError("ambient dimension mismatch")
    if a.p != b.p:
        raise UsageError("mixing moduli is rejected")


def quotient_representatives(Z, B):
    """The canonical representatives of Z/B, for B a subspace of Z, as the
    Subspace R they span.

    B's pivots are among Z's, and the representatives are the Z rows at
    the other pivots.  Each is zero in every B-pivot column, so B.reduce
    leaves it as it is, and every other Z row z_q differs from B's row b_q
    by a combination of them; so they are the RREF of the reduced Z rows
    and the choice is deterministic.  B lies in Z exactly when every row of
    B reduces to zero modulo Z, which is one sparse product of B's entries
    in Z's pivot columns with Z's rows.
    """
    _check_pair(Z, B)
    if not B.dim:
        return Z
    if Z is B or Z == B:  # the first test reads no rows
        return Subspace.zero(Z.ambient_dim, Z.p)
    bpiv = set(B.pivots)
    if not bpiv <= set(Z.pivots) or _terms(
            B.dim, Z.ambient_dim, Z.p, *_reduction(B.basis, Z)).nnz:
        raise UsageError("B is not contained in Z")
    rest = [i for i, q in enumerate(Z.pivots) if q not in bpiv]
    return Subspace._rref(Z.ambient_dim, Z.p, _take(Z.basis, rest),
                          [Z.pivots[i] for i in rest])
