"""Exact root systems for all finite Coxeter types.

Vectors live in the basis of simple roots over Q(sqrt5), with the bilinear
form given by the Gram matrix of the chosen simple system.  Normalization:
long roots have norm 2 in the crystallographic types (B keeps two lengths,
short roots norm 1), and the H types are normalized to norm 2 with -phi on
the 5-bond.  In this basis a vector is a positive root iff all coordinates
are >= 0, and the simple roots are the unit coordinate vectors.

The roots are stored once, as a table of integer pairs (see ``linalg``):
coordinate k of root i is (p + q*sqrt5)/2 with (p, q) = root_pairs[.][i, k].
The factor 1/2 covers F4's -1/2 bond and the golden ratio phi = (1 +
sqrt5)/2.  The table is built by closing the simple roots under the simple
reflections, which need only the Cartan entries 2<a_j, a_i>/<a_i, a_i>, so
no Q(sqrt5) arithmetic runs per root.  Spans and fixed spaces are
``linalg.Subspace`` values, eliminated from the pair rows of the roots and
of their forms; ``fixed_projections`` spans a fixed space by orbit sums of
root rows instead, with no elimination.  Q(sqrt5) values (``Q5``) appear only in the n x n Gram
matrix and in the public ``root_vec`` and ``inner_product``.

Indexing: positive roots come first (the n simple roots are indices 0..n-1),
and the negative of root i is i + npos (mod 2*npos), so sign flips are O(1).

Reflections are permutations of the root indices.  The root build records
the n simple reflections as permutations, and every other reflection is a
conjugate of a simple one (r_{s(beta)} = s r_beta s), composed as index
arrays.

Orthogonality is read off the reflection permutations, the same way for
every family: roots a and b are orthogonal iff r_a fixes b.  It is one
boolean table per root system, built on first use from the permutations of
the positive-root reflections: row j marks the roots r_j fixes.  Bond
orders, the orders of the products r_a r_b, are one int8 table per root
system too, built on first use from the Gram form of the positive roots, one
integer-pair product, by the bond rule of ``diagrams.gram_bonds``; the order
of a product of two reflection permutations is its oracle.  The support of
a root, its simple roots with a nonzero coefficient, is a bitmask, and the
roots of a standard parabolic W_J are those supported in J (Humphreys,
Reflection Groups and Coxeter Groups, 1.10).  The signs of all roots on a
subspace are one product of integer pairs: the root forms, kept from the
build, times the subspace's rows; on the span of simple roots they are the
root forms' columns, with no product and no elimination.

Type I2(m) is not embedded in coordinates.  Its roots are indexed by residues
mod 2m (root k at angle k*pi/m), reflections act by index arithmetic, and its
subspaces are ``I2Subspace`` values: zero, a line, or the plane; its bonds
(with no table, as m is unbounded) and supports are index formulas.  Both
classes provide the geometry the layers above use (span and fixed space of
roots, bonds, and signs of the roots at a generic point of a subspace), so
nothing above this module branches on the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .diagrams import gram_bonds
from .groups import GroupElement
from .labels import CoxeterLabel, parse_label
from .linalg import (Subspace, canonical_rows, dot, form_pairs, from_pairs, kernel, lex_signs,
                     pair_matmul, pair_sign)
from .qsqrt5 import ONE, PHI, Q5, ZERO


def _gram_matrix(label: CoxeterLabel):
    """Gram matrix of the simple system, Bourbaki numbering."""
    n = label.rank
    fam = label.family
    G = [[ZERO] * n for _ in range(n)]

    def bond(i, j, val):
        G[i][j] = val
        G[j][i] = val

    for i in range(n):
        G[i][i] = Q5(2)
    if fam == "A":
        for i in range(n - 1):
            bond(i, i + 1, Q5(-1))
    elif fam == "B":
        # nodes 0..n-2 long, node n-1 short (norm 1); 4-bond at the end
        G[n - 1][n - 1] = ONE
        for i in range(n - 2):
            bond(i, i + 1, Q5(-1))
        bond(n - 2, n - 1, Q5(-1))
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1, Q5(-1))
        bond(n - 3, n - 1, Q5(-1))
    elif fam == "E":
        # chain 1-3-4-5-6(-7-8) with node 2 on node 4 (0-based: 0-2-3-4-5..)
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b, Q5(-1))
        bond(1, 3, Q5(-1))
    elif fam == "F":
        # 0-1=2-3 with 0,1 long and 2,3 short
        G[2][2] = ONE
        G[3][3] = ONE
        bond(0, 1, Q5(-1))
        bond(1, 2, Q5(-1))
        bond(2, 3, Q5(-1, 0, 2))
    elif fam == "H":
        bond(0, 1, -PHI)
        for i in range(1, n - 1):
            bond(i, i + 1, Q5(-1))
    else:
        raise ValueError(f"no Gram matrix for family {fam}")
    return tuple(tuple(row) for row in G)


def _e_basis(label: CoxeterLabel):
    """Simple roots in coordinate (e_i) form for the classical families.

    Used to bridge between signed permutations of points and root
    permutations.  Returns (number of points, list of simple-root e-vectors).
    """
    n = label.rank
    fam = label.family
    if fam == "A":
        pts = n + 1
        rows = []
        for i in range(n):
            v = [0] * pts
            v[i], v[i + 1] = 1, -1
            rows.append(tuple(v))
        return pts, rows
    if fam in ("B", "D"):
        pts = n
        rows = []
        for i in range(n - 1):
            v = [0] * pts
            v[i], v[i + 1] = 1, -1
            rows.append(tuple(v))
        last = [0] * pts
        if fam == "B":
            last[n - 1] = 1
        else:
            last[n - 2], last[n - 1] = 1, 1
        rows.append(tuple(last))
        return pts, rows
    raise ValueError("e-basis only for classical families")


class _Roots:
    """Index arithmetic shared by both root-system classes."""

    def neg(self, i):
        return (i + self.npos) % self.nroots

    @cached_property
    def negation(self):
        """Root negation as an index array: negation[i] == neg(i)."""
        return (np.arange(self.nroots) + self.npos) % self.nroots

    @cached_property
    def reflection_perms(self):
        """Index table, shape (npos + 1, nroots + 1): row j is the reflection
        in positive root j and row npos the identity, a row to pad with;
        column nroots, past the roots, is a sentinel position every row fixes."""
        perms = [self.reflection_perm(j) for j in range(self.npos)] + [np.arange(self.nroots)]
        return np.hstack((perms, np.full((self.npos + 1, 1), self.nroots))).astype(np.int16)

    @cached_property
    def sends_negative(self):
        """Boolean table, shape (npos, npos): entry (b, a) tells whether the
        reflection in positive root b sends positive root a != b negative."""
        table = self.reflection_perms[: self.npos, : self.npos] >= self.npos
        np.fill_diagonal(table, False)
        return table

    @cached_property
    def orthogonality(self):
        """Boolean table, shape (npos, nroots): row j marks the roots that the
        reflection in root j fixes, the roots orthogonal to root j."""
        return self.reflection_perms[: self.npos, : self.nroots] == np.arange(self.nroots)

    def orthogonal(self, i, j):
        """Roots i and j are orthogonal iff the reflection in i fixes j."""
        return bool(self.orthogonality[i % self.npos, j])

    def reflection(self, i) -> GroupElement:
        return GroupElement(self, self.reflection_perm(i).copy())

    def simple_reflections(self):
        return [self.reflection(i) for i in self.simple_roots]

    @property
    def group_order(self):
        return self.label.order


class RootSystem(_Roots):
    """A root system with exact coordinates (all families except I)."""

    is_vector = True
    orthogonal = _Roots.orthogonal  # bound per class: perfbench/tracer.py counts each

    def __init__(self, label: CoxeterLabel):
        if label.family == "I":
            raise ValueError("use I2RootSystem for family I")
        self.label = label
        self.n = label.rank
        self.simple_roots = tuple(range(self.n))
        self.gram = _gram_matrix(label)
        self.form = form_pairs(self.gram)   # 2 * gram as integer pairs
        self._build_roots()
        # the root forms <beta, .> of the positive roots, scaled by 4
        self._root_forms = pair_matmul(self.rows(range(self.npos)), self.form)
        self._refl_cache = {}
        self._e_coords = None

    # -- construction ------------------------------------------------------

    def _build_roots(self):
        """Close the simple roots under the simple reflections, on integer pairs.

        s_i changes only coordinate i of v, by the sum over j of v_j times
        the Cartan entry 2<a_j, a_i>/<a_i, a_i>.  A root is a tuple of 2n
        ints, its p entries then its q entries, each coordinate (p + q*sqrt5)/2.
        """
        n = self.n
        fp, fq = self.form
        diag = np.diagonal(fp)              # 2<a_i, a_i>, a rational integer
        cartan = (4 * fp // diag, 4 * fq // diag)   # column i: 2<a_j, a_i>/<a_i, a_i>, doubled
        simples = [tuple(2 * (j == i) for j in range(n)) + (0,) * n for i in range(n)]
        seen = set(simples)
        images = {}     # root -> its images under s_0 .. s_{n-1}
        parent = {}     # root w -> (v, i) with w = s_i(v) first reached from v
        frontier = simples
        while frontier:
            # v in halves times the doubled Cartan entries is 4 times the shift
            # of coordinate i under s_i; halved, it is in halves like v
            F = np.array(frontier, dtype=np.int64)
            shift = pair_matmul((F[:, :n], F[:, n:]), cartan)
            new = []
            for v, sp, sq in zip(frontier, (shift[0] // 2).tolist(), (shift[1] // 2).tolist()):
                images[v] = []
                for i in range(n):
                    w = list(v)
                    w[i] -= sp[i]
                    w[n + i] -= sq[i]
                    w = tuple(w)
                    images[v].append(w)
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
                        # positive roots are only ever reached from positive roots
                        parent[w] = (v, i)
            frontier = new
        roots = list(seen)
        R = np.array(roots, dtype=np.int64)
        positive = pair_sign((R[:, :n].sum(axis=1), R[:, n:].sum(axis=1))) > 0

        def q5_key(v):
            # the positive roots are ordered by their coordinates written as
            # reduced fractions (a + b*sqrt5)/den, compared as (a, b, den)
            key = []
            for p, q in zip(v[:n], v[n:]):
                g = gcd(p, q, 2)
                key.append((p // g, q // g, 2 // g))
            return tuple(key)

        rest = sorted((v for v, up in zip(roots, positive) if up and v not in simples),
                      key=q5_key)
        pos = simples + rest
        self.npos = len(pos)
        self.nroots = 2 * self.npos
        want = self.label.n_positive_roots
        if self.npos != want:
            raise RuntimeError(f"{self.label}: built {self.npos} positive roots, expected {want}")
        table = pos + [tuple(-x for x in v) for v in pos]
        index = {v: i for i, v in enumerate(table)}
        T = np.array(table, dtype=np.int64)
        self.root_pairs = (np.ascontiguousarray(T[:, :n]), np.ascontiguousarray(T[:, n:]))
        self._simple_perms = [
            np.array([index[images[v][i]] for v in table], dtype=np.int16) for i in range(n)]
        self._parent = {index[w]: (index[v], i) for w, (v, i) in parent.items()
                        if index[w] < self.npos}

    # -- geometry --------------------------------------------------------------

    def rows(self, indices):
        """The integer pair rows of the given roots, each coordinate (p + q*sqrt5)/2."""
        idx = np.fromiter(indices, dtype=np.intp)
        return self.root_pairs[0][idx], self.root_pairs[1][idx]

    def image_rows(self, elements):
        """The rows of the roots w(a_1), ..., w(a_n) of each element w, shape (k, n, n)."""
        idx = np.array([w.img[: self.n] for w in elements], dtype=np.intp).reshape(-1, self.n)
        return self.root_pairs[0][idx], self.root_pairs[1][idx]

    def root_vec(self, i):
        return from_pairs(self.rows([i]), 2)[0]

    @cached_property
    def bonds(self):
        """int8 table, shape (npos, npos): entry (a, b) is the order of r_a r_b,
        by the bond rule on the Gram form of the positive roots."""
        P, Q = (x[: self.npos] for x in self.root_pairs)
        bonds = gram_bonds(pair_matmul(self._root_forms, (P.T, Q.T)))
        if not bonds.all():
            raise RuntimeError(f"{self.label}: unrecognized bond ratio between roots")
        return bonds

    def bond(self, i, j):
        """Order of r_i r_j, read off the bond table."""
        return int(self.bonds[i % self.npos, j % self.npos])

    @cached_property
    def root_lines(self):
        """The line key (a row of ``linalg.canonical_rows``) of each positive root."""
        return [tuple(r) for r in canonical_rows(self.rows(range(self.npos))).tolist()]

    @cached_property
    def supports(self):
        """Bitmask per root of the simple roots in its support, shape (nroots,)."""
        nonzero = (self.root_pairs[0] != 0) | (self.root_pairs[1] != 0)
        return nonzero @ (1 << np.arange(self.n))

    def span(self, indices) -> Subspace:
        return Subspace(self.rows(indices), self.n)

    def fixed_space(self, indices) -> Subspace:
        """Common fixed space of the reflections in the given roots: the kernel
        of their root forms."""
        forms = np.fromiter((i % self.npos for i in indices), dtype=np.intp)
        return Subspace.canonical(
            kernel((self._root_forms[0][forms], self._root_forms[1][forms])), self.n)

    def fixed_projections(self, index_sets):
        """(projections, signs) of Fix(S) for a stack of linearly independent root sets S.

        The product c of the reflections in S fixes exactly Fix(S) (Carter
        1972, Lemma 2), and c is orthogonal, so the sum of c^t(a_i) over
        t < ord(c) is ord(c) times the orthogonal projection of the simple
        root a_i onto Fix(S).  That sum repeats the c-orbit of a_i, so the
        sum of the orbit's root rows is a positive multiple of the
        projection, with no elimination: each set's c is composed from the
        reflection permutations and its orbits walked on the root indices,
        and the orbit sums of all sets are one segmented sum of root rows.
        Each set's projections are its nonzero ones, pair rows in halves
        like the root rows, and span Fix(S); ``signs`` (k, nroots) are their
        lexicographic signs, the signs at a generic point of Fix(S), so the
        roots vanishing there are those of the parabolic closure of S.  The
        one pair product behind the signs also checks the rows orthogonal to
        S: a dependent S, whose c fixes more than Fix(S), raises RuntimeError.
        """
        k, n, npos = len(index_sets), self.n, self.npos
        member, start, in_s = [], [], ([], [])   # the orbits end to end, and where each starts
        for r, s in enumerate(index_sets):
            c = np.arange(self.nroots)
            for i in s:
                c = c[self.reflection_perm(i)]
                in_s[0].append(r)
                in_s[1].append(i % npos)
            c = c.tolist()
            for i in range(n):   # the simple roots are roots 0 .. n-1
                start.append(len(member))
                j = i
                while True:
                    member.append(j)
                    j = c[j]
                    if j == i:
                        break
        # row r * n + i: the orbit sum of a_i for set r
        P, Q = (np.add.reduceat(x[member], start, axis=0) for x in self.root_pairs)
        # the signs of the root forms on the rows; a zero row, as most are, has none
        moved = (P != 0).any(axis=1) | (Q != 0).any(axis=1)
        values = np.zeros((k * n, npos), dtype=np.int8)
        values[moved] = pair_sign(pair_matmul((P[moved], Q[moved]),
                                              tuple(f.T for f in self._root_forms)))
        values = values.reshape(k, n, npos).transpose(0, 2, 1)   # (k, npos, n)
        if values[in_s].any():
            raise RuntimeError("a projection onto the fixed space is not orthogonal to "
                               "the roots: they are linearly dependent")
        ends = np.cumsum(moved.reshape(k, n).sum(axis=1)).tolist()
        P, Q = P[moved], Q[moved]
        return [(P[a:b], Q[a:b]) for a, b in zip([0] + ends, ends)], self._lex_signs(values)

    def signs_at(self, X: Subspace):
        """Signs of all roots at a generic point of X, taken on its echelon
        rows; each pair row is a positive multiple of its echelon row over
        Q(sqrt5), which keeps every sign."""
        if X.n != self.n:
            raise ValueError("subspace of wrong ambient dimension")
        return self._lex_signs(pair_sign(pair_matmul(self._root_forms,
                                                     tuple(m.T for m in X.pairs))))

    def stacked_span_signs(self, index_sets):
        """Signs of all roots at a generic point of the span of each set of
        simple roots, shape (k, nroots), taken on those roots: their columns
        of the root forms, one gather for the stack.  The sets are padded to
        one width with the index of an appended zero column, on which every
        root form vanishes, so no lexicographic sign changes."""
        index = np.full((len(index_sets), max(map(len, index_sets), default=0)), self.n)
        for row, simples in zip(index, index_sets):
            row[: len(simples)] = list(simples)
        # the root forms' columns, then the zero column, as rows: (n + 1, npos)
        forms = tuple(np.vstack((f.T, np.zeros((1, self.npos), f.dtype)))[index]
                      for f in self._root_forms)
        return self._lex_signs(pair_sign(forms).transpose(0, 2, 1))

    def _lex_signs(self, values):
        """Signs at x_1 + e x_2 + e^2 x_3 + ... for rows x_k and a small e > 0, a
        lexicographically generic point of their span, from the signs
        (..., npos, k) of the root forms on the rows: a root's sign on the
        first row it does not vanish on, 0 if none; one sign row per stacked
        set of rows, by ``linalg.lex_signs``."""
        first = lex_signs(values)
        return np.concatenate((first, -first), axis=-1)

    # -- reflections and generators ------------------------------------------

    def reflection_perm(self, i):
        """Image array of the reflection in root i (cached).

        A non-simple positive root is s_j(beta) for a positive root beta one
        step nearer the simple roots, and r_{s_j(beta)} = s_j r_beta s_j.
        """
        i = i % self.npos
        perm = self._refl_cache.get(i)
        if perm is None:
            if i < self.n:
                perm = self._simple_perms[i]
            else:
                beta, j = self._parent[i]
                s = self._simple_perms[j]
                perm = s[self.reflection_perm(beta)[s]]
            self._refl_cache[i] = perm
        return perm

    # -- classical coordinates -------------------------------------------------

    def e_coords(self):
        """Map root index -> integer e-coordinate tuple (classical families)."""
        if self._e_coords is None:
            pts, simple_rows = _e_basis(self.label)
            coords = self.root_pairs[0] // 2 @ np.array(simple_rows, dtype=np.int64)
            self._e_coords = [tuple(c) for c in coords.tolist()]
        return self._e_coords

    def signed_permutation(self, images) -> GroupElement:
        """Element from a signed permutation of the points 1..N.

        ``images[v-1]`` is the signed image of point v; for family A all
        images are positive.  Family D requires an even number of sign flips.
        """
        coords = self.e_coords()
        pts = len(coords[0])
        if len(images) != pts:
            raise ValueError("signed permutation has wrong number of points")
        if sorted(abs(x) for x in images) != list(range(1, pts + 1)):
            raise ValueError("not a signed permutation")
        if self.label.family == "A" and any(x < 0 for x in images):
            raise ValueError("type A admits no sign flips")
        if self.label.family == "D" and sum(1 for x in images if x < 0) % 2:
            raise ValueError("type D requires an even number of sign flips")
        lookup = {c: i for i, c in enumerate(coords)}
        img = np.empty(self.nroots, dtype=np.int16)
        for i, c in enumerate(coords[: self.npos]):
            out = [0] * pts
            for k, x in enumerate(c):
                if x:
                    t = images[k]
                    out[abs(t) - 1] += x if t > 0 else -x
            j = lookup[tuple(out)]
            img[i] = j
            img[self.neg(i)] = self.neg(j)
        return GroupElement(self, img)

    def __repr__(self):
        return f"RootSystem({self.label})"


@dataclass(frozen=True)
class I2Subspace:
    """A subspace of the I2(m) plane: zero (dim 0), a line (dim 1), or the plane.

    A line is held by its double-angle residue t mod 2m: the line of root k
    has t = 2k, and the reflecting axis of root k has t = 2k + m.
    """

    m: int
    dim: int
    t: int | None = None


class I2RootSystem(_Roots):
    """Dihedral rank-2 system realized combinatorially mod 2m."""

    is_vector = False
    orthogonal = _Roots.orthogonal  # bound per class: perfbench/tracer.py counts each

    def __init__(self, label: CoxeterLabel):
        if label.family != "I":
            raise ValueError("I2RootSystem is only for family I")
        self.label = label
        self.n = 2
        self.m = label.m
        self.npos = self.m
        self.nroots = 2 * self.m
        # simple roots at angles 0 and pi - pi/m
        self.simple_roots = (0, self.m - 1)
        self._refl_cache = {}

    def bond(self, i, j):
        """Order of r_i r_j, the rotation by 2(i - j)pi/m: m / gcd(i - j, m)."""
        return self.m // gcd(i - j, self.m)

    @cached_property
    def supports(self):
        """Bitmask per root of the simple roots in its support: the simple
        roots 0 and m - 1 (and their negatives) have one, all others both."""
        k = np.arange(self.nroots) % self.m
        return np.where(k == 0, 1, np.where(k == self.m - 1, 2, 3))

    def span(self, indices) -> I2Subspace:
        lines = {i % self.m for i in indices}
        if len(lines) == 1:
            return I2Subspace(self.m, 1, 2 * lines.pop())
        return I2Subspace(self.m, min(len(lines), 2))

    def fixed_space(self, indices) -> I2Subspace:
        """The perpendicular of the span: a root's line turns into its axis."""
        X = self.span(indices)
        if X.dim == 1:
            return I2Subspace(self.m, 1, (X.t + self.m) % (2 * self.m))
        return I2Subspace(self.m, 2 - X.dim)

    def signs_at(self, X: I2Subspace):
        """Signs of all roots at a generic point of X.

        The plane's generic point is taken in the dominant chamber.  A line of
        double-angle residue t is the direction t*pi/2m, where root k (angle
        k*pi/m) has the sign of cos((2k - t)*pi/2m).
        """
        k = np.arange(self.nroots)
        if X.dim == 0:
            return np.zeros(self.nroots, dtype=np.int8)
        if X.dim == 2:
            return np.where(k < self.npos, 1, -1).astype(np.int8)
        d = (2 * k - X.t) % (4 * self.m)
        signs = np.where((d < self.m) | (d > 3 * self.m), 1, -1).astype(np.int8)
        signs[(d == self.m) | (d == 3 * self.m)] = 0
        return signs

    def stacked_span_signs(self, index_sets):
        """Signs of all roots at a generic point of the span of each set of
        roots, shape (k, nroots), by the index formula."""
        signs = [self.signs_at(self.span(indices)) for indices in index_sets]
        return np.array(signs, dtype=np.int8).reshape(len(signs), self.nroots)

    def fixed_projections(self, index_sets):
        """``RootSystem.fixed_projections`` by the index formula: each set's
        fixed space (an ``I2Subspace``, in place of projected rows) and the
        signs at a generic point of it.  A set with more roots than lines, or
        than two, is dependent and raises RuntimeError."""
        spaces = []
        for s in index_sets:
            if len({i % self.m for i in s}) != len(s) or len(s) > 2:
                raise RuntimeError("the roots are linearly dependent")
            spaces.append(self.fixed_space(s))
        signs = np.array([self.signs_at(X) for X in spaces], dtype=np.int8)
        return spaces, signs.reshape(len(spaces), self.nroots)

    def reflection_perm(self, i):
        i = i % self.npos
        perm = self._refl_cache.get(i)
        if perm is None:
            k = np.arange(self.nroots)
            perm = ((2 * i + self.m - k) % self.nroots).astype(np.int16)
            self._refl_cache[i] = perm
        return perm

    def __repr__(self):
        return f"I2RootSystem({self.m})"


_CACHE = {}


def build_root_system(label):
    """Construct (and memoize) the root system for a label or label string."""
    if isinstance(label, str):
        label = parse_label(label)
    if label not in _CACHE:
        _CACHE[label] = I2RootSystem(label) if label.family == "I" else RootSystem(label)
    return _CACHE[label]


def inner_product(rs: RootSystem, v, w):
    """Exact inner product of two coordinate vectors of rs."""
    if not rs.is_vector:
        raise ValueError("I2 systems carry no coordinate vectors")
    if len(v) != len(w) or len(v) != rs.n:
        raise ValueError("dimension mismatch")
    return dot(v, w, rs.gram)


def reflection_in_root(rs, root_index) -> GroupElement:
    """The reflection in the given root, as a root permutation."""
    if not 0 <= root_index < rs.nroots:
        raise ValueError(f"root index {root_index} out of range")
    return rs.reflection(root_index)
