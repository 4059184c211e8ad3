"""Exact linear algebra over Z[sqrt5], on integer pairs.

A row of values p + q*sqrt5 is held as a pair of int arrays (p, q).  A row
stands for its line in Q(sqrt5)^n, so zero tests, signs, ratios and spans
are unchanged by scaling it by a positive integer (the root rows hold
doubled halves).  Small work runs in plain Python ints: the one
elimination, ``rref``, is fraction-free Gauss-Jordan elimination (every
rank is at most 8), and ``exact_mul``, ``exact_dot``, ``exact_sign`` and
``exact_canonical`` (one row's key of ``canonical_rows``) serve
``actions.LineTable``.  ``rref``'s rows are canonical, the primitive
positive integer multiples of the reduced row echelon rows over Q(sqrt5):
a ``Subspace`` holds them, and ``kernel`` reads the kernel's canonical rows
off them.  Work over many roots or elements runs as numpy products of
int64 pairs; every pair operation bounds its result first and raises
RuntimeError where int64 could overflow (the scalar ones at the same
bound), so a sign is never silently wrong.  Q(sqrt5) values (``Q5``)
appear only at the public boundary: ``from_pairs`` reads pair rows as Q5
rows, ``form_pairs`` reads a Gram matrix, and ``dot`` is the inner product
of Q5 vectors.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul

import numpy as np

from .qsqrt5 import Q5, ZERO


def dot(u, v, gram=None):
    """Inner product of the vectors u and v (of Q5, Fraction or int values), under
    the Gram matrix if one is given."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    if gram is not None:
        u = [sum((a * row[j] for a, row in zip(u, gram) if a), ZERO) for j in range(len(v))]
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def _primitive(v):
    """The row v divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _twist(v, n):
    """sqrt5 times the row v of n p entries, then n q entries: 5q + p*sqrt5."""
    return [5 * y for y in v[n:]] + v[:n]


def exact_mul(x, y):
    """The product (a + b*sqrt5)(c + d*sqrt5) of two Python int pairs,
    refused past _PAIR_LIMIT as ``pair_mul`` refuses it."""
    (a, b), (c, d) = x, y
    p, q = a * c + 5 * b * d, a * d + b * c
    _overflow(max(abs(p), abs(q)))
    return p, q


def exact_dot(x, y):
    """The inner product of two rows of values p + q*sqrt5, each held as its
    p entries and its q entries in Python ints, refused as ``exact_mul`` is."""
    (a, b), (c, d) = x, y
    p = sum(map(mul, a, c)) + 5 * sum(map(mul, b, d))
    q = sum(map(mul, a, d)) + sum(map(mul, b, c))
    _overflow(max(abs(p), abs(q)))
    return p, q


def exact_sign(x):
    """The sign of p + q*sqrt5 for a Python int pair, as ``pair_sign`` reads it."""
    p, q = x
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    return sp if sp == sq or p * p > 5 * q * q else sq


def exact_canonical(x):
    """``canonical_rows``' key of one nonzero row, held as ``exact_dot``'s are."""
    p, q = x
    a, b = next((a, b) for a, b in zip(p, q) if a or b)
    s = 1 if a * a > 5 * b * b else -1
    row = ([s * (x * a - 5 * y * b) for x, y in zip(p, q)]
           + [s * (y * a - x * b) for x, y in zip(p, q)])
    _overflow(max(map(abs, row)))
    g = gcd(*row)
    return tuple(x // g for x in row)


def _pack(rows, n):
    """int64 pair arrays, shape (len(rows), n), of rows of n p entries, then n q entries."""
    _overflow(max(map(abs, chain.from_iterable(rows)), default=0))
    packed = np.array(rows, dtype=np.int64).reshape(-1, 2 * n)
    return packed[:, :n], packed[:, n:]


def rref(rows):
    """Canonical echelon rows of the pair rows (p, q), shape (k, n), and their pivots.

    The pivot row is multiplied by +-(a - b*sqrt5) for its pivot a + b*sqrt5,
    making the pivot the positive integer d = |a^2 - 5b^2|, and every other
    row i is cleared by d*row_i - f*row_r, f its pivot column entry.  A row
    is divided by the gcd of its entries whenever it changes, so each final
    row is the primitive positive integer multiple of its reduced row echelon
    row over Q(sqrt5).
    """
    n = rows[0].shape[1]
    m = [p + q for p, q in zip(rows[0].tolist(), rows[1].tolist())]
    pivots = []
    for c in range(n):
        r = len(pivots)
        for i in range(r, len(m)):
            if m[i][c] or m[i][n + c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        v = m[r]
        a, b = v[c], v[n + c]
        if b:
            s = 1 if a * a > 5 * b * b else -1
            v = [s * (a * x - b * y) for x, y in zip(v, _twist(v, n))]
        elif a < 0:
            v = [-x for x in v]
        v = m[r] = _primitive(v)
        d, tw = v[c], _twist(v, n)
        for k, u in enumerate(m):
            fa, fb = u[c], u[n + c]
            if k == r or not (fa or fb):
                continue
            if fb:
                m[k] = _primitive([d * x - fa * y - fb * z for x, y, z in zip(u, v, tw)])
            else:
                m[k] = _primitive([d * x - fa * y for x, y in zip(u, v)])
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return _pack(m[:len(pivots)], n), pivots


def kernel(rows):
    """Canonical rows (as ``rref``'s) of {x : M x^T = 0} for the pair rows M, shape (k, n).

    In the echelon form of M's columns in reverse order every pivot is as far
    right as it can be.  So the vector of free column j, with L at j and
    -(L/d) row[j] at the pivot column of each row with pivot d (L the lcm of
    the pivots), is zero left of j and at the other free columns: made
    primitive, these vectors are the kernel's canonical rows.
    """
    n = rows[0].shape[1]
    (P, Q), pivots = rref(tuple(x[:, ::-1] for x in rows))
    red = [p[::-1] + q[::-1] for p, q in zip(P.tolist(), Q.tolist())]
    pivots = [n - 1 - c for c in pivots]
    scale = lcm(*(v[c] for v, c in zip(red, pivots)))
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        x = [0] * (2 * n)
        x[j] = scale
        for v, c in zip(red, pivots):
            f = scale // v[c]
            x[c], x[n + c] = -f * v[j], -f * v[n + j]
        basis.append(_primitive(x))
    return _pack(basis, n)


class Subspace:
    """A subspace of Q(sqrt5)^n, held by the canonical pair rows of ``rref``."""

    __slots__ = ("pairs", "n")

    def __init__(self, rows, n):
        self.pairs = rref(tuple(np.asarray(x, dtype=np.int64).reshape(-1, n)
                                for x in rows))[0]
        self.n = n

    @classmethod
    def canonical(cls, pairs, n):
        """The subspace of rows that are already canonical, as ``kernel`` returns them."""
        X = cls.__new__(cls)
        X.pairs, X.n = pairs, n
        return X

    @property
    def dim(self):
        return len(self.pairs[0])

    def perp(self, form):
        """Orthogonal complement under the bilinear form given as pairs (e.g. ``rs.form``)."""
        return Subspace.canonical(kernel(pair_matmul(self.pairs, form)), self.n)

    def _key(self):
        return self.n, self.pairs[0].tobytes(), self.pairs[1].tobytes()

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n})"


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


def lex_signs(x):
    """Signs of the first nonzero entry along the last axis of the int array x,
    0 where there is none: the sign of x_1 + e x_2 + e^2 x_3 + ... for a small
    e > 0.  The entry is found by an argmax, so it is exact at any width."""
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1], dtype=np.int8)
    first = (x != 0).argmax(axis=-1)[..., None]
    return np.sign(np.take_along_axis(x, first, axis=-1)[..., 0]).astype(np.int8)


def canonical_rows(x):
    """The primitive key rows of the lines of the nonzero pair rows x, as an array.

    Each row is multiplied by the conjugate a - b*sqrt5 of its first nonzero
    entry a + b*sqrt5, which makes that entry the rational a^2 - 5b^2, then
    by the sign of that entry, and divided by the gcd of its 2n integers.
    Two rows on one line then differ by a positive rational, so they give
    the same primitive row: its p entries, then its q entries.
    """
    p, q = x
    k = np.arange(len(p))
    first = ((p != 0) | (q != 0)).argmax(axis=1)
    p, q = pair_mul(x, (p[k, first][:, None], -q[k, first][:, None]))
    rows = np.hstack((p, q)) * np.sign(p[k, first])[:, None]
    rows //= np.gcd.reduce(rows, axis=1)[:, None]
    return rows
