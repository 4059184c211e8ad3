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
no Q(sqrt5) arithmetic runs per root.  Q(sqrt5) values appear only in the
n x n Gram matrix, in the rank-sized eliminations of ``linalg`` and in the
public ``root_vec`` and ``inner_product``.

Indexing: positive roots come first (the n simple roots are indices 0..n-1),
and the negative of root i is i + npos (mod 2*npos), so sign flips are O(1).

Reflections are permutations of the root indices.  The root build records
the n simple reflections as permutations, and every other reflection is a
conjugate of a simple one (r_{s(beta)} = s r_beta s), composed as index
arrays.

Orthogonality and bond orders are read off the reflection permutations, the
same way for every family: roots a and b are orthogonal iff r_a fixes b, and
the bond order of a and b is the order of r_a r_b.  The signs of all roots
on a subspace are one product of integer pairs: the root forms, kept from
the build, times the subspace's rows.  An element acts on pair rows through
the root table (``apply_to_pairs``).

Type I2(m) is not embedded in coordinates.  Its roots are indexed by residues
mod 2m (root k at angle k*pi/m), reflections act by index arithmetic, and its
subspaces are ``I2Subspace`` values: zero, a line, or the plane.  Both classes
provide the geometry the layers above use (span and fixed space of roots,
signs of the roots at a generic point of a subspace, and whether an element
fixes a subspace pointwise), so nothing above this module branches on the
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .groups import GroupElement
from .labels import CoxeterLabel, parse_label
from .linalg import (Subspace, dot, form_pairs, from_pairs, kernel, pair_matmul, pair_sign,
                     vec)
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

    def orthogonal(self, i, j):
        """Roots i and j are orthogonal iff the reflection in i fixes j."""
        return int(self.reflection_perm(i)[j]) == j

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

    def span(self, indices) -> Subspace:
        return Subspace(from_pairs(self.rows(indices), 2), self.n)

    def fixed_space(self, indices) -> Subspace:
        """Common fixed space of the reflections in the given roots: the kernel
        of their root forms."""
        forms = np.fromiter((i % self.npos for i in indices), dtype=np.intp)
        rows = from_pairs((self._root_forms[0][forms], self._root_forms[1][forms]))
        return Subspace(kernel(rows, ncols=self.n), self.n)

    def fixes_pointwise(self, w: GroupElement, X: Subspace) -> bool:
        # apply_to_pairs doubles the rows it fixes
        p, q = X.pairs
        image = apply_to_pairs(w, X.pairs)
        return bool((image[0] == 2 * p).all() and (image[1] == 2 * q).all())

    def signs_at(self, X: Subspace):
        """Signs of all roots at a lexicographically generic point of X.

        The point is x_1 + e x_2 + e^2 x_3 + ... for the echelon rows x_k of
        X and a small e > 0, so a root takes the sign of its value on the
        first row it does not vanish on, and 0 when it vanishes on X.  The
        values are one integer-pair product of the root forms with X.
        """
        if X.n != self.n:
            raise ValueError("subspace of wrong ambient dimension")
        signs = np.zeros(self.nroots, dtype=np.int8)
        if not X.rows:
            return signs
        rows = tuple(m.T for m in X.pairs)
        values = pair_sign(pair_matmul(self._root_forms, rows))
        first = values[np.arange(self.npos), (values != 0).argmax(axis=1)]
        signs[: self.npos] = first
        signs[self.npos:] = -first
        return signs

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

    def fixes_pointwise(self, w: GroupElement, X: I2Subspace) -> bool:
        # w fixes X pointwise iff it maps the facet of a generic point of X
        # to itself, that is, iff it keeps the signs of all roots there
        signs = self.signs_at(X)
        return bool((signs[w.img] == signs).all())

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
    return dot(vec(v), vec(w), rs.gram)


def apply_to_pairs(w: GroupElement, x):
    """Images of the pair rows x under w (right action), scaled by 2.

    Row v maps to the sum of v_i w(a_i), and w(a_i) is the root w.img[i] of
    the table, whose entries are halves; so the identity doubles every row.
    """
    return pair_matmul(x, w.rs.rows(w.img[: w.rs.n]))


def reflection_in_root(rs, root_index) -> GroupElement:
    """The reflection in the given root, as a root permutation."""
    if not 0 <= root_index < rs.nroots:
        raise ValueError(f"root index {root_index} out of range")
    return rs.reflection(root_index)
