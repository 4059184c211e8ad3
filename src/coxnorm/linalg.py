"""Exact linear algebra over Q(sqrt(5)).

Vectors are tuples of Q5, matrices are tuples of row tuples.  Everything is
small (dimension <= 8), so plain Gaussian elimination is used throughout.
Subspaces are stored by their reduced row echelon basis, which is canonical:
two equal subspaces have identical representations.

Work over many roots or group elements at once (the root table, signs of
every root on a subspace, element actions, Gram matrices of line sets) uses
integer pairs instead: rows of values p + q*sqrt5 held as two int64 arrays
(p, q).  A Q(sqrt5) row becomes a pair row after scaling by a positive
integer that clears its denominators (``to_pairs``); zero tests, signs and
ratios of such rows are unchanged by the scaling.  ``from_pairs`` turns pair
rows back into Q(sqrt5) rows for the eliminations.  Every pair operation
bounds its result first and raises RuntimeError where int64 could overflow,
so a sign is never silently wrong.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .qsqrt5 import ONE, Q5, ZERO, q5

Vec = tuple
Mat = tuple


def vec(entries) -> Vec:
    return tuple(q5(x) for x in entries)


def dot(u, v, gram=None):
    """Inner product of u and v; plain dot product unless a Gram matrix is given."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    if gram is None:
        s = ZERO
        for a, b in zip(u, v):
            s = s + a * b
        return s
    s = ZERO
    for i, a in enumerate(u):
        if not a:
            continue
        row = gram[i]
        for j, b in enumerate(v):
            if b:
                s = s + a * row[j] * b
    return s


def mat_identity(n) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def vec_mat(x, M):
    """Row vector times matrix."""
    out = [ZERO] * len(M[0])
    for i, c in enumerate(x):
        if not c:
            continue
        row = M[i]
        for j in range(len(out)):
            out[j] = out[j] + c * row[j]
    return tuple(out)


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        # zero entries and a unit pivot are left as they are; the pivot row
        # is zero left of c, so only the columns right of c change
        if m[r][c] != ONE:
            inv = m[r][c].inverse()
            m[r] = [x * inv if x else x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i][c + 1:] = [x - f * y if y else x
                                for x, y in zip(m[i][c + 1:], m[r][c + 1:])]
                m[i][c] = ZERO
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], pivots


def kernel(rows, ncols=None):
    """Basis (as rows) of {x : M x^T = 0} for the matrix with the given rows."""
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for empty matrix")
        return [tuple(ONE if j == i else ZERO for j in range(ncols))
                for i in range(ncols)]
    n = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


class Subspace:
    """A subspace of Q(sqrt5)^n in canonical reduced row echelon form."""

    __slots__ = ("rows", "n", "_pairs")

    def __init__(self, rows, n):
        red, _ = rref(rows) if rows else ([], [])
        self.rows = tuple(red)
        self.n = n
        self._pairs = None

    @property
    def dim(self):
        return len(self.rows)

    @property
    def pairs(self):
        """The echelon rows as integer pairs, each scaled by a positive integer."""
        if self._pairs is None:
            self._pairs = tuple(a.reshape(self.dim, self.n) for a in to_pairs(self.rows))
        return self._pairs

    def perp(self, gram):
        """Orthogonal complement with respect to the bilinear form gram."""
        if not self.rows:
            return Subspace(list(mat_identity(self.n)), self.n)
        conditions = [vec_mat(r, gram) for r in self.rows]
        return Subspace(kernel(conditions, ncols=self.n), self.n)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n})"


def span(vectors, n):
    return Subspace(list(vectors), n)


# ---------------------------------------------------------------------------
# Integer pairs p + q*sqrt5

_PAIR_LIMIT = 1 << 62   # bound on any product entry, so two of them still add safely


def _overflow(bound):
    if bound >= _PAIR_LIMIT:
        raise RuntimeError("integer pair arithmetic would overflow int64")


def _max_abs(a):
    """Largest absolute entry of an int64 array, or the absolute value of an int."""
    if isinstance(a, int):
        return abs(a)
    return int(np.abs(a).max()) if a.size else 0


def to_pairs(rows):
    """Integer pairs (p, q) of Q5 rows, each row scaled by a positive integer."""
    p, q = [], []
    for row in rows:
        scale = lcm(*(x.den for x in row))
        p.append([x.a * (scale // x.den) for x in row])
        q.append([x.b * (scale // x.den) for x in row])
    _overflow(max((abs(x) for r in p + q for x in r), default=0))
    return np.array(p, dtype=np.int64), np.array(q, dtype=np.int64)


def from_pairs(x, den=1):
    """Q(sqrt5) rows of the pair rows x, entry (p, q) read as (p + q*sqrt5)/den."""
    p, q = x
    return tuple(tuple(Q5(a, b, den) if a or b else ZERO for a, b in zip(rp, rq))
                 for rp, rq in zip(p.tolist(), q.tolist()))


def form_pairs(gram):
    """Integer pairs of 2*gram, unscaled: a right factor must keep its rows."""
    if any(2 * x.a % x.den or 2 * x.b % x.den for row in gram for x in row):
        raise ValueError("twice the form has entries outside Z[sqrt5]")
    p = np.array([[2 * x.a // x.den for x in row] for row in gram], dtype=np.int64)
    q = np.array([[2 * x.b // x.den for x in row] for row in gram], dtype=np.int64)
    return p, q


def pair_mul(x, y):
    """Entrywise (broadcast) product of pairs: (a + b r5)(c + d r5)."""
    (a, b), (c, d) = x, y
    A, B, C, D = (_max_abs(t) for t in (a, b, c, d))
    _overflow(max(A * C + 5 * B * D, A * D + B * C))
    return a * c + 5 * b * d, a * d + b * c


def pair_matmul(x, y):
    """Matrix product of pairs: (A + B r5)(C + D r5) = AC + 5BD + (AD + BC) r5."""
    (a, b), (c, d) = x, y
    A, B, C, D = (_max_abs(t) for t in (a, b, c, d))
    k = a.shape[-1]
    _overflow(k * max(A * C + 5 * B * D, A * D + B * C))
    return a @ c + 5 * (b @ d), a @ d + b @ c


def pair_sign(x):
    """Signs of p + q*sqrt5: the common sign of p and q, else that of the
    larger of p^2 and 5q^2."""
    p, q = x
    if _max_abs(p) >= 1 << 31 or _max_abs(q) >= 1 << 30:
        raise RuntimeError("integer pair too large to square in int64")
    sp, sq = np.sign(p), np.sign(q)
    return np.where(sp == sq, sp,
                    np.where(p * p > 5 * q * q, sp, sq)).astype(np.int8)
