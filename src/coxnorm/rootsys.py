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
sqrt5)/2.  Its positive half is built by closing the simple roots under
the simple reflections in Python ints, reading only the nonzero Cartan
entries 2<a_j, a_i>/<a_i, a_i>, and ordered by one lexsort; s_i permutes
the positive roots other than a_i, so the closure never expands
s_i(a_i) = -a_i, and the negative half is the negation of the positive one.
Spans and fixed spaces are ``linalg.Subspace`` values, eliminated from the
pair rows of the roots and of their forms; ``fixed_projections`` spans a
fixed space by orbit sums of root rows instead, with no elimination.
Q(sqrt5) values (``Q5``) appear only in the n x n Gram matrix and in the
public ``root_vec`` and ``inner_product``.  The simple-root pairs are the
only coordinates kept for a root.

Indexing: positive roots come first (the n simple roots are indices 0..n-1),
and the negative of root i is i + npos (mod 2*npos), so sign flips are O(1).

Reflections are permutations of the root indices.  The root build records
the n simple reflections as permutations, read off the closure on the
positive roots and by s_i(-v) = -s_i(v) on the negative ones, and every
other reflection is a conjugate of a simple one (r_{s(beta)} = s r_beta s),
composed as index arrays.

Orthogonality is read off the reflection permutations, the same way for
every family: roots a and b are orthogonal iff r_a fixes b.  It is one
boolean table per root system, built on first use from the permutations of
the positive-root reflections: row j marks the roots r_j fixes.  Bond
orders, the orders of the products r_a r_b, come from the bond rule of
``diagrams.gram_bonds``, whose oracle is the order of a product of two
reflection permutations.  ``simple_bonds`` is the n x n table of the simple
roots, read off the Gram matrix; set-up (the subset groupoid and the shape
catalog) reads only it.  ``bond`` answers for every pair of roots from one
int8 table over the positive roots, built on first use from their Gram
form, one integer-pair product.  The support of a root, its simple roots
with a nonzero coefficient, is a bitmask, and the roots of a standard
parabolic W_J are those supported in J (Humphreys, Reflection Groups and
Coxeter Groups, 1.10).  The signs of all roots on a
subspace are one product of integer pairs: the root forms, kept from the
build, times the subspace's rows; on the span of simple roots they are the
root forms' columns, with no product and no elimination.

Type I2(m) is not embedded in coordinates.  Its roots are indexed by residues
mod 2m (root k at angle k*pi/m), reflections act by index arithmetic, and its
subspaces are ``I2Subspace`` values: zero, a line, or the plane; its bonds
(with no table over all roots, as m is unbounded) and supports are index
formulas.  Both
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
from .linalg import (Subspace, dot, form_pairs, from_pairs, kernel, lex_signs, pair_matmul,
                     pair_sign)
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


class _Roots:
    """Index arithmetic shared by both root-system classes."""

    @cached_property
    def negation(self):
        """Root negation as an index array: negation[i] is the index of -root i."""
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

    # -- construction ------------------------------------------------------

    def _build_roots(self):
        """Close the simple roots under the simple reflections, in Python
        ints, over the positive roots only.

        s_i permutes the positive roots other than a_i and sends a_i to -a_i
        (Humphreys 1990, 1.4), so the positive roots are the closure of the
        simple roots that never expands -a_i, and each simple reflection
        acts on the negative half by s_i(-v) = -s_i(v).  s_i changes only
        coordinate i of v, by the sum over j of v_j times the Cartan entry
        2<a_j, a_i>/<a_i, a_i>, nonzero for a_i and its neighbours only.  A
        root is a tuple of 2n ints, its p entries then its q entries, each
        coordinate (p + q*sqrt5)/2.  The roots found breadth first are
        ordered, simple roots first, by their coordinates written as reduced
        fractions (a + b*sqrt5)/den, compared as (a, b, den), in one lexsort.
        """
        n = self.n
        fp, fq = self.form
        diag = np.diagonal(fp)              # 2<a_i, a_i>, a rational integer
        cp, cq = (4 * fp // diag).tolist(), (4 * fq // diag).tolist()   # the doubled Cartan
        columns = [[(j, cp[j][i], cq[j][i]) for j in range(n) if cp[j][i] or cq[j][i]]
                   for i in range(n)]
        roots = [tuple(2 * (j == i) for j in range(n)) + (0,) * n for i in range(n)]
        # the index of each root in the order found; -a_i = s_i(a_i), never expanded, is -1 - i
        found = {v: i for i, v in enumerate(roots)}
        found.update({tuple(-x for x in v): -1 - i for i, v in enumerate(roots)})
        images = []             # per root found, its images under s_0 .. s_{n-1}
        parent = [None] * n     # per root w found, (v, i) with w = s_i(v) first reached from v
        for k, v in enumerate(roots):   # the roots found are appended as they are read
            row = []
            for i, column in enumerate(columns):
                # v in halves times the doubled Cartan entries is 4 times the
                # shift of coordinate i; halved, it is in halves like v
                sp = sq = 0
                for j, p, q in column:
                    sp += v[j] * p + 5 * v[n + j] * q
                    sq += v[j] * q + v[n + j] * p
                if not (sp or sq):   # s_i fixes v
                    row.append(k)
                    continue
                w = (*v[:i], v[i] - sp // 2, *v[i + 1: n + i], v[n + i] - sq // 2, *v[n + i + 1:])
                if w not in found:
                    found[w] = len(roots)
                    roots.append(w)
                    parent.append((k, i))
                row.append(found[w])
            images.append(row)
        R = np.array(roots, dtype=np.int64)
        if not (pair_sign((R[:, :n].sum(axis=1), R[:, n:].sum(axis=1))) > 0).all():
            raise RuntimeError(f"{self.label}: a simple reflection sent a positive root "
                               "other than its own simple root negative")
        self.npos = len(roots)
        self.nroots = 2 * self.npos
        want = self.label.n_positive_roots
        if self.npos != want:
            raise RuntimeError(f"{self.label}: built {self.npos} positive roots, expected {want}")
        # coordinate (p + q*sqrt5)/2 is keyed (p/g, q/g, 2/g), g = gcd(p, q, 2);
        # lexsort's last key, that of coordinate 0, leads
        P, Q = R[n:, :n], R[n:, n:]
        g = 2 - ((P | Q) & 1)
        keys = np.stack((2 // g, Q // g, P // g), axis=2)[:, ::-1].reshape(len(P), 3 * n)
        order = np.concatenate((np.arange(n), n + np.lexsort(keys.T)))
        rank = np.argsort(order)
        self.root_pairs = tuple(np.vstack((X, -X)) for X in (R[order, :n], R[order, n:]))
        I = np.array(images)[order]
        on_pos = np.where(I >= 0, rank[I], self.npos - 1 - I).T   # (n, npos); -a_i is i + npos
        self._simple_perms = list(
            np.hstack((on_pos, (on_pos + self.npos) % self.nroots)).astype(np.int16))
        self._parent = {int(rank[k]): (int(rank[v]), i)
                        for k, (v, i) in enumerate(parent[n:], n)}

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
    def simple_bonds(self):
        """int8 table, shape (n, n): entry (i, j) is the order of s_i s_j, by
        the bond rule on the Gram matrix, with no table over the other roots."""
        bonds = gram_bonds(self.form)
        if not bonds.all():
            raise RuntimeError(f"{self.label}: unrecognized bond ratio between simple roots")
        return bonds

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
        """(projections, forms, signs) of Fix(S) for a stack of linearly
        independent root sets S.

        The product c of the reflections in S fixes exactly Fix(S) (Carter
        1972, Lemma 2), and c is orthogonal, so the sum of c^t(a_i) over
        t < ord(c) is ord(c) times the orthogonal projection of the simple
        root a_i onto Fix(S).  That sum repeats the c-orbit of a_i, so the
        sum of the orbit's root rows is a positive multiple of the
        projection, with no elimination: each set's c is composed from the
        reflection permutations and its orbits walked on the root indices,
        and the orbit sums of all sets are one segmented sum of root rows.
        Each set's projections are its nonzero ones, pair rows in halves
        like the root rows, and span Fix(S); its ``forms`` (npos, 2 * their
        number), p columns then q, are the positive roots' forms on them, a
        copy from one pair product; ``signs`` (k, nroots) are their
        lexicographic signs, the signs at a generic point of Fix(S), so the
        roots vanishing there are those of the parabolic closure of S.  The
        product also checks the rows orthogonal to S: a dependent S, whose c
        fixes more than Fix(S), raises RuntimeError.
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
        # the root forms on the rows and their signs; a zero row, as most are, has none
        moved = (P != 0).any(axis=1) | (Q != 0).any(axis=1)
        P, Q = P[moved], Q[moved]
        forms = pair_matmul((P, Q), tuple(f.T for f in self._root_forms))
        values = np.zeros((k * n, npos), dtype=np.int8)
        values[moved] = pair_sign(forms)
        values = values.reshape(k, n, npos).transpose(0, 2, 1)   # (k, npos, n)
        if values[in_s].any():
            raise RuntimeError("a projection onto the fixed space is not orthogonal to "
                               "the roots: they are linearly dependent")
        ends = np.cumsum(moved.reshape(k, n).sum(axis=1)).tolist()
        spans = list(zip([0] + ends, ends))
        return ([(P[a:b], Q[a:b]) for a, b in spans],
                [np.hstack((forms[0][a:b].T, forms[1][a:b].T)) for a, b in spans],
                self._lex_signs(values))

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
        simple roots, shape (k, nroots), taken on those roots: the signs of
        the root forms there, one gather of ``_form_signs`` for the stack (a
        lexicographic sign reads only the signs of its values).  The sets are
        padded to one width with the index of the appended zero row, on which
        every root form vanishes, so no lexicographic sign changes."""
        index = np.full((len(index_sets), max(map(len, index_sets), default=0)), self.n)
        for row, simples in zip(index, index_sets):
            row[: len(simples)] = list(simples)
        return self._lex_signs(self._form_signs[index].transpose(0, 2, 1))

    @cached_property
    def _form_signs(self):
        """The sign of each positive root's form on each simple root, then a
        zero row, as int8 rows: (n + 1, npos)."""
        return np.vstack((pair_sign(self._root_forms).T, np.zeros((1, self.npos), np.int8)))

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
    def simple_bonds(self):
        """The bonds of the simple roots 0 and m - 1: 1 on the diagonal, m off it."""
        return np.array([[1, self.m], [self.m, 1]])

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
        fixed space (an ``I2Subspace``, in place of projected rows), no root
        forms (None) and the signs at a generic point of it.  A set with more
        roots than lines, or than two, is dependent and raises RuntimeError."""
        spaces = []
        for s in index_sets:
            if len({i % self.m for i in s}) != len(s) or len(s) > 2:
                raise RuntimeError("the roots are linearly dependent")
            spaces.append(self.fixed_space(s))
        signs = np.array([self.signs_at(X) for X in spaces], dtype=np.int8)
        return spaces, [None] * len(spaces), signs.reshape(len(spaces), self.nroots)

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
