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
"""

from __future__ import annotations

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

    def dense_rows(self):
        """RREF rows as dense tuples, ordered by pivot column."""
        out = []
        for pc in sorted(self.rows):
            dense = [0] * self.cols
            for j, v in self.rows[pc].items():
                dense[j] = v
            out.append(tuple(dense))
        return out


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
    """A subspace of GF(p)^n held by its canonical RREF basis rows."""

    __slots__ = ("ambient_dim", "p", "basis_rows", "pivots")

    def __init__(self, ambient_dim, p, basis_rows, pivots):
        self.ambient_dim = ambient_dim
        self.p = p
        self.basis_rows = tuple(tuple(int(x) for x in r) for r in basis_rows)
        self.pivots = tuple(int(x) for x in pivots)

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
                items = v.items()
            else:
                if len(v) != ambient_dim:
                    raise UsageError("vector length mismatch")
                items = enumerate(v)
            row = {}
            for j, c in items:
                c = int(c) % p
                if c:
                    row[int(j)] = c
            elim.add(row)
        # the eliminator's rows and pivots are Python ints already, so they
        # skip the conversion __init__ applies to rows from outside
        out = cls.__new__(cls)
        out.ambient_dim, out.p = ambient_dim, p
        out.basis_rows = tuple(elim.dense_rows())
        out.pivots = tuple(elim.pivots())
        return out

    @classmethod
    def zero(cls, ambient_dim, p):
        check_modulus(p)
        return cls(ambient_dim, p, (), ())

    @classmethod
    def full(cls, ambient_dim, p):
        check_modulus(p)
        rows = []
        for i in range(ambient_dim):
            row = [0] * ambient_dim
            row[i] = 1
            rows.append(row)
        return cls(ambient_dim, p, rows, range(ambient_dim))

    @property
    def dim(self):
        return len(self.basis_rows)

    def _eliminate(self, vec):
        """(residue, coefficients): vec with this subspace's pivot
        coordinates eliminated, and the multiple of each basis row taken."""
        if len(vec) != self.ambient_dim:
            raise UsageError("vector length mismatch")
        out = [int(x) % self.p for x in vec]
        cs = []
        for row, piv in zip(self.basis_rows, self.pivots):
            c = out[piv]
            cs.append(c)
            if c:
                for j, v in enumerate(row):
                    if v:
                        out[j] = (out[j] - c * v) % self.p
        return out, cs

    def reduce(self, vec):
        """Residue of vec after eliminating this subspace's pivot coordinates."""
        return tuple(self._eliminate(vec)[0])

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coords(self, vec):
        """Coordinates of vec in the echelon basis, or None if outside."""
        out, cs = self._eliminate(vec)
        if any(out):
            return None
        return tuple(cs)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.p == other.p and self.basis_rows == other.basis_rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.p, self.basis_rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of GF({self.p})^{self.ambient_dim})"


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


def nullspace(m):
    """Kernel {x : m x = 0} as a Subspace of GF(p)^cols."""
    elim = Eliminator(m.cols, m.p)
    for row in m.row_dicts():
        elim.add(row)
    vectors = []
    for j in range(m.cols):
        if j not in elim.rows:
            vec = {j: 1}
            for pc, v in elim.column(j).items():
                vec[pc] = (-v) % m.p
            vectors.append(vec)
    return Subspace.from_vectors(vectors, m.cols, m.p)


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
    _check_pair(a, b)
    return Subspace.from_vectors(list(a.basis_rows) + list(b.basis_rows),
                                 a.ambient_dim, a.p)


def subspace_intersect(a, b):
    """Intersection, via the kernel of the stacked-basis relation matrix."""
    _check_pair(a, b)
    ra, rb = a.dim, b.dim
    if ra == 0 or rb == 0:
        return Subspace.zero(a.ambient_dim, a.p)
    # columns: coefficients (u | v) with u*A = v*B; rows: ambient coordinates
    ent = {}
    for k, row in enumerate(a.basis_rows):
        for j, v in enumerate(row):
            if v:
                ent[(j, k)] = v
    for k, row in enumerate(b.basis_rows):
        for j, v in enumerate(row):
            if v:
                ent[(j, ra + k)] = (-v) % a.p
    rel = MatGF(a.ambient_dim, ra + rb, a.p, ent)
    vecs = []
    for comb in nullspace(rel).basis_rows:
        u = comb[:ra]
        vec = [0] * a.ambient_dim
        for k, c in enumerate(u):
            if c:
                for j, v in enumerate(a.basis_rows[k]):
                    if v:
                        vec[j] = (vec[j] + c * v) % a.p
        vecs.append(vec)
    return Subspace.from_vectors(vecs, a.ambient_dim, a.p)


def _check_pair(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise UsageError("ambient dimension mismatch")
    if a.p != b.p:
        raise UsageError("mixing moduli is rejected")


def quotient_representatives(Z, B):
    """Canonical representatives of Z/B, for B a subspace of Z.

    Each representative is a Z-vector with every B-pivot coordinate
    eliminated; together they are in RREF, so the choice is deterministic.
    Returns a list of dense tuples.
    """
    _check_pair(Z, B)
    if Z == B:
        return []
    reps = Subspace.from_vectors([B.reduce(row) for row in Z.basis_rows],
                                 Z.ambient_dim, Z.p)
    if reps.dim != Z.dim - B.dim:
        raise UsageError("B is not contained in Z")
    return list(reps.basis_rows)
