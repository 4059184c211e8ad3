"""Restriction of normalizer subgroups to the three invariant subspaces.

For a parabolic P with orthogonal complement Q the ambient space splits as
X_perp + (X n Y) + Y_perp, where X, Y are the fixed spaces of P, Q.  The
normalizer acts on each summand; the action is described by the subgroup
generated by all elements restricting to reflections (a finite reflection
group, recognized by its diagram) together with the index of that subgroup
in the full image.  Index 1 is a plain reflection action; larger index means
part of the image acts as diagram automorphisms; an image {1, -1} with
dim > 1 is the scalar action -1.

Subspace bases are not orthonormalized; restrictions are computed against
the restricted Gram form, so everything stays in Q(sqrt5).
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (_classify_component, _component_sort_key, component_nodes,
                       components_string)
from .linalg import Subspace, dot, kernel, mat_identity, solve_coords
from .qsqrt5 import ONE, Q5, ZERO
from .rootsys import apply_to_vector


class SpaceRestriction:
    """Restriction of group elements to a subspace spanned by given basis rows."""

    def __init__(self, rs, basis_rows, basis_roots=None):
        self.rs = rs
        self.basis = [tuple(r) for r in basis_rows]
        self.dim = len(self.basis)
        self.gram_r = tuple(tuple(dot(u, v, rs.gram) for v in self.basis)
                            for u in self.basis)
        self.basis_roots = basis_roots  # root indices when the basis consists of roots
        self._root_coords = None
        self._proj = None

    def _projector(self):
        """n x k matrix M with coords(v) = v M for v in the span.

        M = G B^T (B G B^T)^{-1}, using the ambient Gram form G; exact, and
        only valid on the span (callers guarantee invariance).
        """
        if self._proj is None:
            B = self.basis
            G = self.rs.gram
            BG = tuple(tuple(dot(b,
                                 tuple(ONE if j == c else Q5(0)
                                       for j in range(self.rs.n)), G)
                             for c in range(self.rs.n)) for b in B)
            # BG[i][c] = <b_i, e_c>_G ; gram_r = B G B^T
            k = self.dim
            inv = _invert_small(self.gram_r)
            # M[c][j] = sum_i BG[i][c] * inv[i][j]
            M = tuple(tuple(sum((BG[i][c] * inv[i][j] for i in range(k)), Q5(0))
                            for j in range(k)) for c in range(self.rs.n))
            self._proj = M
        return self._proj

    def coords(self, v):
        M = self._projector()
        out = [Q5(0)] * self.dim
        for c, x in enumerate(v):
            if x:
                row = M[c]
                for j in range(self.dim):
                    out[j] = out[j] + x * row[j]
        return tuple(out)

    # -- exact coordinates of roots lying in the span --------------------------

    def root_coords(self):
        """Map root index -> coordinate tuple, for every root in the span."""
        if self._root_coords is None:
            table = {}
            for i in range(self.rs.npos):
                v = self.rs.root_vec(i)
                try:
                    c = solve_coords(self.basis, v)
                except ValueError:
                    continue
                table[i] = c
                table[self.rs.neg(i)] = tuple(-x for x in c)
            self._root_coords = table
        return self._root_coords

    def matrix(self, w):
        """Restriction matrix of w (rows = images of basis vectors)."""
        if self.basis_roots is not None:
            coords = self.root_coords()
            return tuple(coords[int(w.img[b])] for b in self.basis_roots)
        return tuple(self.coords(apply_to_vector(w, b)) for b in self.basis)

    def is_identity_matrix(self, M):
        return M == mat_identity(self.dim)

    def is_minus_identity(self, M):
        I = mat_identity(self.dim)
        return M == tuple(tuple(-x for x in row) for row in I)

    def reflection_line(self, M):
        """Direction of the -1 eigenvector if M is a reflection, else None."""
        if self.dim == 0:
            return None
        sq = _mat_mul_small(M, M)
        if not self.is_identity_matrix(sq) or self.is_identity_matrix(M):
            return None
        tr = ZERO
        for i in range(self.dim):
            tr = tr + M[i][i]
        if tr != Q5(self.dim - 2):
            return None
        # left eigenvector: x (M + I) = 0
        MpI = tuple(tuple(M[i][j] + (ONE if i == j else ZERO)
                          for j in range(self.dim)) for i in range(self.dim))
        null = kernel(list(zip(*MpI)), ncols=self.dim)
        assert len(null) == 1
        return canonical_line(null[0])


def _mat_mul_small(A, B):
    n = len(A)
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(n)), ZERO)
                       for j in range(n)) for i in range(n))


def _invert_small(M):
    """Inverse of a small nonsingular matrix by Gauss-Jordan."""
    n = len(M)
    aug = [list(M[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    from .linalg import rref
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


def canonical_line(v):
    """Scale so the first nonzero coordinate is 1 (lines are unsigned)."""
    for x in v:
        if x:
            inv = x.inverse()
            return tuple(inv * y for y in v)
    raise ValueError("zero vector has no direction")


def diagram_of_lines(lines, gram):
    """Coxeter diagram of the reflection group with the given reflection lines.

    The lines must be the complete set of reflection lines of the group (the
    callers collect them by exhaustive scan, so the set is closed under all
    the reflections).  Returns the component name tuple.
    """
    lines = sorted(set(lines), key=lambda v: tuple((x.a, x.b, x.den) for x in v))
    if not lines:
        return ()
    dim = len(lines[0])

    def form(u, v):
        return dot(u, v, gram)

    def reflect(v, u):
        c = (form(v, u) + form(v, u)) / form(u, u)
        return tuple(x - c * y for x, y in zip(v, u))

    # generic functional nonzero on every line: f(v) = sum v_i * t^i
    t = 1
    while True:
        weights = [Q5(t ** i) for i in range(dim)]

        def f(v):
            s = ZERO
            for w, x in zip(weights, v):
                s = s + w * x
            return s

        if all(f(v) for v in lines):
            break
        t += 1
        if t > 50:
            raise RuntimeError("no generic functional found for the line set")

    pos = [v if f(v) > ZERO else tuple(-x for x in v) for v in lines]
    simples = []
    for b in pos:
        if all(a == b or f(reflect(a, b)) > ZERO for a in pos):
            simples.append(b)
    adj = {i: {} for i in range(len(simples))}
    from .diagrams import bond_from_ratio
    for i in range(len(simples)):
        for j in range(i + 1, len(simples)):
            u, v = simples[i], simples[j]
            c = form(u, v)
            if not c:
                continue
            ratio = (c * c * Q5(4)) / (form(u, u) * form(v, v))
            m = bond_from_ratio(ratio)
            if m is None:
                raise ValueError(f"unrecognized bond ratio {ratio}")
            adj[i][j] = m
            adj[j][i] = m
    names = [_classify_component(c, adj) for c in component_nodes(adj)]
    return tuple(sorted(names, key=_component_sort_key))


@dataclass(frozen=True)
class ActionCell:
    """Action of the normalizer on one invariant subspace."""

    role: str                 # "x_perp" | "x_cap_y" | "y_perp"
    subgroup: str             # which product acts: "PD", "D", "QD"
    dim: int
    diagram: tuple            # reflection part components ("" when none)
    quotient: int             # index of the reflection part in the image
    minus_identity: bool
    image_order: int

    @property
    def classification(self):
        if self.dim == 0 or self.image_order == 1:
            return "trivial"
        if self.minus_identity:
            return "minus-identity"
        if self.quotient == 1:
            return "reflection"
        if self.diagram:
            return "diagram-automorphism"
        return "non-reflection"

    def descriptor(self) -> str:
        """Compact cell string: '', '-1', 'B3', or 'q(B3)'."""
        if self.dim == 0 or self.image_order == 1:
            return ""
        if self.minus_identity:
            return "-1"
        base = components_string(self.diagram) if self.diagram else "?"
        if self.quotient == 1:
            return base
        return f"{self.quotient}({base})"

    def to_json(self):
        out = {"role": self.role, "subgroup": self.subgroup,
               "classification": self.classification}
        if self.classification in ("reflection", "diagram-automorphism"):
            out["diagram"] = list(self.diagram)
        if self.classification == "diagram-automorphism":
            out["quotient"] = self.quotient
        return out


def invariant_split(P, Q):
    """The three pairwise orthogonal invariant subspaces (X_perp, X n Y, Y_perp)."""
    rs = P.rs
    xperp = rs.span(P.pos)
    yperp = rs.span(Q.pos)
    mid = P.witness.intersect(Q.witness)
    if xperp.dim + mid.dim + yperp.dim != rs.n:
        raise RuntimeError("invariant split does not fill the space")
    return xperp, mid, yperp


def restrict(subgroup, subspace: Subspace):
    """Exact restriction matrices of a set of elements to an invariant subspace.

    Raises ValueError with a witness element if the subspace is not invariant.
    """
    elements = list(subgroup)
    if not elements:
        return []
    rs = elements[0].rs
    sr = SpaceRestriction(rs, subspace.rows)
    out = []
    for w in elements:
        for b in sr.basis:
            img = apply_to_vector(w, b)
            try:
                solve_coords(sr.basis, img)
            except ValueError:
                raise ValueError(f"subspace not invariant under {w.canonical()}")
        out.append(sr.matrix(w))
    return out
