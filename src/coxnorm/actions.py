"""Restriction of normalizer subgroups to the three invariant subspaces.

For a parabolic P with orthogonal complement Q the ambient space splits as
X_perp + (X n Y) + Y_perp, where X, Y are the fixed spaces of P, Q.  The
normalizer acts on each summand; the action is described by the subgroup
generated by all elements restricting to reflections (a finite reflection
group, recognized by its diagram) together with the index of that subgroup
in the full image.  Index 1 is a plain reflection action; larger index means
part of the image acts as diagram automorphisms; an image {1, -1} with
dim > 1 is the scalar action -1.

Restrictions stay in the ambient simple-root coordinates: an element is
represented on a subspace by the images of the subspace's basis rows, and
reflecting lines are ambient lines measured with the ambient Gram form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (_classify_component, _component_sort_key, bond_from_ratio,
                       component_nodes, components_string)
from .linalg import Subspace, dot, solve_coords, vec_mat
from .qsqrt5 import Q5, ZERO
from .rootsys import apply_to_vector


class SpaceRestriction:
    """Restriction of group elements to a subspace spanned by given basis rows.

    Every caller restricts orthogonal elements to a subspace they preserve,
    so the images of the basis rows determine the restriction.
    """

    def __init__(self, rs, basis_rows, basis_roots=None):
        self.rs = rs
        self.basis = tuple(tuple(r) for r in basis_rows)
        self.dim = len(self.basis)
        self.basis_roots = basis_roots  # root indices when the basis consists of roots

    def matrix(self, w):
        """Images of the basis rows under w, in ambient coordinates.

        Equal images mean equal restrictions, since the rows are a basis.
        The name is kept because perfbench/tracer.py patches it.
        """
        if self.basis_roots is not None:
            return tuple(self.rs.root_vec(int(w.img[b])) for b in self.basis_roots)
        return tuple(apply_to_vector(w, b) for b in self.basis)

    def is_minus_identity(self, M):
        return all(m == tuple(-x for x in b) for b, m in zip(self.basis, M))

    def reflection_line(self, M):
        """The reflecting line if M restricts a reflection, else None.

        An orthogonal map of the span is a reflection iff w - 1 has rank one
        there, so the nonzero differences b - w(b) must all lie on one line;
        that line is the one reflected.
        """
        line = None
        for b, m in zip(self.basis, M):
            if m == b:
                continue
            d = canonical_line(tuple(x - y for x, y in zip(b, m)))
            if line is None:
                line = d
            elif d != line:
                return None
        return line


def canonical_line(v):
    """Scale so the first nonzero coordinate is 1 (lines are unsigned)."""
    for x in v:
        if x:
            inv = x.inverse()
            return tuple(inv * y for y in v)
    raise ValueError("zero vector has no direction")


def diagram_of_lines(lines, gram):
    """Coxeter diagram of the reflection group with the given reflection lines.

    The lines must be the complete set of reflection lines of the group, so
    that the set is closed under all the reflections; the normalizer's action
    cells get completeness from a conjugation argument (see
    ``normalizer._reflection_lines``).  ``gram`` is the form in their
    coordinates.  Returns the component name tuple.
    """
    lines = sorted(set(lines), key=lambda v: tuple((x.a, x.b, x.den) for x in v))
    if not lines:
        return ()
    dim = len(lines[0])

    # generic functional nonzero on every line: f(v) = sum v_i * t^i
    t = 1
    while True:
        weights = tuple(Q5(t ** i) for i in range(dim))
        values = [dot(v, weights) for v in lines]
        if all(values):
            break
        t += 1
        if t > 50:
            raise RuntimeError("no generic functional found for the line set")

    pos = [v if f > ZERO else tuple(-x for x in v) for v, f in zip(lines, values)]
    fpos = [f if f > ZERO else -f for f in values]
    G = [[dot(r, v) for v in pos] for r in (vec_mat(u, gram) for u in pos)]
    # a positive line is simple iff its reflection keeps every other one positive
    simples = []
    for j in range(len(pos)):
        k = (fpos[j] + fpos[j]) / G[j][j]
        if all(i == j or fpos[i] - G[i][j] * k > ZERO for i in range(len(pos))):
            simples.append(j)
    adj = {a: {} for a in range(len(simples))}
    for a in range(len(simples)):
        for b in range(a + 1, len(simples)):
            i, j = simples[a], simples[b]
            c = G[i][j]
            if not c:
                continue
            ratio = (c * c * Q5(4)) / (G[i][i] * G[j][j])
            m = bond_from_ratio(ratio)
            if m is None:
                raise ValueError(f"unrecognized bond ratio {ratio}")
            adj[a][b] = m
            adj[b][a] = m
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

    Row k of a matrix holds the coordinates, in the subspace's basis, of the
    image of basis row k.  Raises ValueError with a witness element if the
    subspace is not invariant.
    """
    out = []
    for w in subgroup:
        rows = []
        for b in subspace.rows:
            try:
                rows.append(solve_coords(subspace.rows, apply_to_vector(w, b)))
            except ValueError:
                raise ValueError(f"subspace not invariant under {w.canonical()}")
        out.append(tuple(rows))
    return out
