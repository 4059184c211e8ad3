"""Exact root systems for all finite Coxeter types.

Vectors live in the basis of simple roots over Q(sqrt5), with the bilinear
form given by the Gram matrix of the chosen simple system.  Normalization:
long roots have norm 2 in the crystallographic types (B keeps two lengths,
short roots norm 1), and the H types are normalized to norm 2 with -phi on
the 5-bond.  In this basis a vector is a positive root iff all coordinates
are >= 0, and the simple roots are the unit coordinate vectors.

Indexing: positive roots come first (the n simple roots are indices 0..n-1),
and the negative of root i is i + npos (mod 2*npos), so sign flips are O(1).

Reflections are permutations of the root indices.  Exact arithmetic is used
only while the roots are built: that pass records the n simple reflections
as permutations, and every other reflection is a conjugate of a simple one
(r_{s(beta)} = s r_beta s), composed as index arrays.

Orthogonality and bond orders are read off the reflection permutations, the
same way for every family: roots a and b are orthogonal iff r_a fixes b, and
the bond order of a and b is the order of r_a r_b.  The signs of all roots
on a subspace are one product of integer pairs (see ``linalg.to_pairs``):
the root forms 2<beta, .>, kept from the build, times the subspace's rows.

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
from fractions import Fraction

import numpy as np

from .groups import GroupElement
from .labels import CoxeterLabel, parse_label
from .linalg import Subspace, dot, form_pairs, pair_matmul, pair_sign, to_pairs, vec
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
        self._build_roots()
        # the root forms 2<beta, .> of the positive roots, as integer pairs
        self._root_forms = pair_matmul(to_pairs(self.vectors[: self.npos]),
                                       form_pairs(self.gram))
        self._refl_cache = {}
        self._e_coords = None

    # -- construction ------------------------------------------------------

    def _simple_reflect_vec(self, v, i):
        # s_i in simple-root coordinates changes only coordinate i
        num = dot(v, self._unit(i), self.gram)
        c = (num + num) / self.gram[i][i]
        w = list(v)
        w[i] = w[i] - c
        return tuple(w)

    def _unit(self, i):
        v = [ZERO] * self.n
        v[i] = ONE
        return tuple(v)

    def _build_roots(self):
        n = self.n
        simples = [self._unit(i) for i in range(n)]
        seen = set(simples)
        images = {}     # vector -> its images under s_0 .. s_{n-1}
        parent = {}     # root w -> (v, i) with w = s_i(v) first reached from v
        frontier = list(simples)
        while frontier:
            new = []
            for v in frontier:
                images[v] = [self._simple_reflect_vec(v, i) for i in range(n)]
                for i, w in enumerate(images[v]):
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
                        # positive roots are only ever reached from positive roots
                        parent[w] = (v, i)
            frontier = new
        positives = [v for v in seen if all(c >= ZERO for c in v)]
        rest = sorted((v for v in positives if v not in set(simples)),
                      key=lambda v: tuple((c.a, c.b, c.den) for c in v))
        pos = simples + rest
        self.npos = len(pos)
        self.nroots = 2 * self.npos
        self.vectors = pos + [tuple(-c for c in v) for v in pos]
        self.index = {v: i for i, v in enumerate(self.vectors)}
        want = self.label.n_positive_roots
        if self.npos != want:
            raise RuntimeError(f"{self.label}: built {self.npos} positive roots, expected {want}")
        self._simple_perms = [
            np.array([self.index[images[v][i]] for v in self.vectors], dtype=np.int16)
            for i in range(n)]
        self._parent = {self.index[w]: (self.index[v], i) for w, (v, i) in parent.items()
                        if self.index[w] < self.npos}

    # -- geometry --------------------------------------------------------------

    def root_vec(self, i):
        return self.vectors[i]

    def span(self, indices) -> Subspace:
        return Subspace([self.vectors[i] for i in indices], self.n)

    def fixed_space(self, indices) -> Subspace:
        """Common fixed space of the reflections in the given roots."""
        return self.span(indices).perp(self.gram)

    def fixes_pointwise(self, w: GroupElement, X: Subspace) -> bool:
        return all(apply_to_vector(w, row) == row for row in X.rows)

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
        rows = tuple(m.T for m in to_pairs(X.rows))
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
            coords = []
            for v in self.vectors:
                acc = [Fraction(0)] * pts
                for c, row in zip(v, simple_rows):
                    if c:
                        f = Fraction(c.a, c.den)
                        for k, x in enumerate(row):
                            if x:
                                acc[k] += f * x
                coords.append(tuple(int(x) for x in acc))
            self._e_coords = coords
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

    def intersect(self, other):
        if self.dim == 2 or self == other:
            return other
        if other.dim == 2:
            return self
        return I2Subspace(self.m, 0)


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


def apply_to_vector(w: GroupElement, v):
    """Image of a coordinate vector under w (right action)."""
    rs = w.rs
    out = [ZERO] * rs.n
    for i, c in enumerate(v):
        if not c:
            continue
        tgt = rs.root_vec(int(w.img[i]))
        for j, x in enumerate(tgt):
            if x:
                out[j] = out[j] + c * x
    return tuple(out)


def reflection_in_root(rs, root_index) -> GroupElement:
    """The reflection in the given root, as a root permutation."""
    if not 0 <= root_index < rs.nroots:
        raise ValueError(f"root index {root_index} out of range")
    return rs.reflection(root_index)
