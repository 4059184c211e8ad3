"""Restriction of normalizer subgroups to the three invariant subspaces.

For a parabolic P with orthogonal complement Q the ambient space splits as
X_perp + (X n Y) + Y_perp, where X, Y are the fixed spaces of P, Q.  The
normalizer acts on each summand; the action is described by the subgroup
generated by all elements restricting to reflections (a finite reflection
group, recognized by its diagram) together with the index of that subgroup
in the full image.  Index 1 is a plain reflection action; larger index means
part of the image acts as diagram automorphisms; an image {1, -1} with
dim > 1 is the scalar action -1.

Restrictions stay in the ambient simple-root coordinates, on integer pairs
(see ``linalg``): an element is represented on a subspace by the images of
the subspace's basis rows, and a reflecting line by a canonical integer pair
on it, measured with the root system's doubled Gram form.  Both are keys:
tuples of ints holding each row's p entries, then its q entries.  A set of
elements is restricted as a batch, one pair product for all of them.  The
reflection part of an action is named from its reflecting lines: their
simple lines, the bonds among those, and the type by
``diagrams.diagram_of_bonds``, the classifier of every Coxeter type.  The
one path that names lines is the root system's ``LineTable``
(``line_table``): it tests each pair of lines once per root system, in
exact Python ints, keeps the result, and names a set of lines from its own
pairs; a line of a root or of a difference of two roots takes its row and
its image under the form off the root rows and root forms.  Its simple test
reads signs in the lexicographic order, so no value it computes grows with
the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .diagrams import components_string, diagram_of_bonds, pair_bond
from .linalg import (_overflow, canonical_rows, exact_canonical, exact_dot, exact_mul, exact_sign,
                     pair_matmul)


_BATCH = 4096   # elements restricted per pair product, to bound its memory


def split_keys(keys, n):
    """Pair rows (p, q) of keys of n-entry rows, given as a sequence or array."""
    rows = np.asarray(keys, dtype=np.int64)
    return rows[..., :n], rows[..., n:]


def image_keys(images):
    """The restriction keys of a stack of ``SpaceRestriction.images``."""
    return [tuple(r) for r in images.reshape(len(images), -1).tolist()]


class SpaceRestriction:
    """Restriction of group elements to a subspace spanned by given basis rows.

    The basis is given as integer pair rows.  Every caller restricts
    orthogonal elements to a subspace they preserve, so the images of the
    basis rows determine the restriction.  Elements are restricted in a
    batch: one pair product of the basis rows with the stacked root rows
    w(a_1), ..., w(a_n) of every element, and one rank-one test over all the
    rows the elements move.  The root rows hold halves, so the images are
    doubled, and the identity's key is that of twice the basis.
    """

    def __init__(self, rs, basis):
        self.rs = rs
        self.basis = basis
        self.dim, self._n = basis[0].shape
        self._twice = 2 * np.hstack(basis)
        self.identity = tuple(self._twice.ravel().tolist())

    def images(self, elements):
        """The images of the basis rows under each element, shape (k, dim, 2n).

        Row i of entry w holds the p entries, then the q entries, of the image
        of basis row i under w: flattened, it is the key of w's restriction.
        """
        return np.concatenate(pair_matmul(self.basis, self.rs.image_rows(elements)), axis=2)

    def restrictions(self, elements):
        """{w.key: (key of w's restriction, reflecting line or None)}, in
        batches of _BATCH elements.

        Equal keys mean equal restrictions, since the rows are a basis.
        """
        elements, out = list(elements), {}
        for start in range(0, len(elements), _BATCH):
            batch = elements[start:start + _BATCH]
            images = self.images(batch)
            cells = zip(image_keys(images), _reflecting_lines(self._twice, images))
            out.update((w.key, cell) for w, cell in zip(batch, cells))
        return out

    def matrix(self, w):
        """Key of the images of the basis rows under w, in ambient coordinates.

        The name is kept because perfbench/tracer.py patches it.
        """
        return image_keys(self.images([w]))[0]

    def reflection_line(self, M):
        """The reflecting line of the restriction with key M, or None."""
        images = np.array(M, dtype=np.int64).reshape(1, *self._twice.shape)
        return _reflecting_lines(self._twice, images)[0]


def _reflecting_lines(twice, images):
    """The reflecting line of the restriction each image gives, or None.

    An orthogonal map of the span is a reflection iff w - 1 has rank one
    there, so the nonzero differences b - w(b) (doubled) of the basis rows
    must all lie on one line; that line, as a row of ``canonical_rows``, is
    the one reflected.  One ``linalg.canonical_rows`` call takes the lines of
    every row the images move.
    """
    k, dim, width = images.shape
    if not dim:
        return [None] * k
    moved = (twice - images).reshape(-1, width)
    nonzero = moved.any(axis=1)
    lines = np.zeros_like(moved)
    lines[nonzero] = canonical_rows(split_keys(moved[nonzero], width // 2))
    nonzero, lines = nonzero.reshape(k, dim), lines.reshape(images.shape)
    lead = lines[np.arange(k), nonzero.argmax(axis=1)]
    rank_one = nonzero.any(axis=1) & (
        (lines == lead[:, None]).all(axis=2) | ~nonzero).all(axis=1)
    return [tuple(line) if ok else None
            for line, ok in zip(lead.tolist(), rank_one.tolist())]


_line_tables = {}


def line_table(rs):
    """The root system's line table, kept by its label."""
    if rs.label not in _line_tables:
        _line_tables[rs.label] = LineTable(rs)
    return _line_tables[rs.label]


class LineTable:
    """Names the reflection groups generated by sets of lines, testing each
    pair of lines once.

    Each line is a key of a nonzero pair row on it, measured with the root
    system's ``form``.  A set passed to ``diagram`` must be reflection
    lines of the group they generate and hold its simple lines at every
    functional positive on W's positive roots (root coordinates are
    nonnegative) and nonzero on the lines: a line that is not simple sends
    some simple line negative.  The normalizer's action cells pass such sets
    by the lemma in ``normalizer._action_cell``.  The functional used is
    f_e = sum e^i x_i for a small e > 0, the lexicographic order: its sign
    on a row is that of the row's first nonzero entry, so it is nonzero on
    every line and none of its values is computed.  The tests are
    homogeneous in each line, so the scale of the row chosen on a line
    changes none of them.

    The simple test and the bond rule are tests of pairs of lines.  In exact
    Python ints, the table keeps each line's row oriented positive at f_e,
    its image under the form and its norm, and each unordered pair's two
    simple tests and bond (``diagrams.pair_bond``), each made on first
    request; naming a set reads only its own pairs.  Lines of mutually
    orthogonal spaces share the root system's table (``line_table``), since
    a set of one space reads no pair of another.  Values past
    ``linalg._PAIR_LIMIT`` raise RuntimeError, as in the int64 layer.
    ``root_line`` keys the line of a root or of a difference of two
    positive roots by ``linalg.exact_canonical`` of that root row, its row.
    """

    def __init__(self, rs):
        self._form = list(zip(rs.form[0].tolist(), rs.form[1].tolist()))
        self._rs = rs
        self._index = {}
        self.rows = []      # per line: its row at f_e > 0, its image, its norm
        self.pairs = {}     # (i, j), i < j: (j keeps i, i keeps j, bond)
        self.root_lines = {}    # (i, j): the key of a_i - a_j's line, (i, None): a_i's

    def _row(self, line, v=None, image=None):
        """The index of a line among ``rows``, made on first request from its
        key, or from a row v on it and its image."""
        i = self._index.get(line)
        if i is None:
            if v is None:
                n = len(self._form)
                v = line[:n], line[n:]
                _overflow(max(map(abs, line)))
                image = list(zip(*(exact_dot(v, row) for row in self._form)))   # symmetric
            if exact_sign(next(x for x in zip(*v) if any(x))) < 0:
                v, image = ([[-x for x in y] for y in z] for z in (v, image))
            i = self._index[line] = len(self.rows)
            self.rows.append((v, image, exact_dot(image, v)))
        return i

    def root_line(self, i, j=None):
        """The key of the line of positive root i, or of a_i - a_j."""
        line = self.root_lines.get((i, j))
        if line is None:
            rows = [(x[i] if j is None else x[i] - x[j]).tolist()
                    for x in self._rs.root_pairs + self._rs._root_forms]
            line = self.root_lines[i, j] = exact_canonical(rows[:2])
            self._row(line, rows[:2], rows[2:])
        return line

    def _test_pair(self, i, j):
        """(line j keeps line i positive, line i keeps line j, bond) of lines i and j."""
        (vi, image, gii), (vj, _, gjj) = self.rows[i], self.rows[j]
        g = exact_dot(image, vj)
        return _keeps(vi, vj, gjj, g), _keeps(vj, vi, gii, g), pair_bond(g, gii, gjj)

    def diagram(self, lines):
        """Coxeter diagram of the reflection group generated by the given lines."""
        rows = sorted({self._row(line) for line in lines})
        if len(rows) <= 1:
            return ("A1",) * len(rows)
        # line j is simple iff its reflection keeps every other line positive
        simple = set(rows)
        for i, j in combinations(rows, 2):
            tests = self.pairs.get((i, j))
            if tests is None:
                tests = self.pairs[i, j] = self._test_pair(i, j)
            if not tests[0]:
                simple.discard(j)
            if not tests[1]:
                simple.discard(i)
        bonds = [[1] * len(simple) for _ in simple]
        for (a, i), (b, j) in combinations(enumerate(sorted(simple)), 2):
            bonds[a][b] = bonds[b][a] = self.pairs[i, j][2]
        if not all(map(all, bonds)):
            raise ValueError("unrecognized bond ratio among the simple lines")
        return diagram_of_bonds(bonds)


def _keeps(a, b, gbb, gab):
    """Does the reflection in line b keep line a positive: is G_bb v_a -
    2 G_ab v_b, which is G_bb r_b(v_a) != 0, lexicographically positive?"""
    if not any(gab):
        return True
    twice = (2 * gab[0], 2 * gab[1])
    for pa, qa, pb, qb in zip(*a, *b):
        x, y = exact_mul(gbb, (pa, qa)), exact_mul(twice, (pb, qb))
        if x != y:
            return exact_sign((x[0] - y[0], x[1] - y[1])) > 0
    return False


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
        kind = self.classification
        if kind == "trivial":
            return ""
        if kind == "minus-identity":
            return "-1"
        base = components_string(self.diagram) if self.diagram else "?"
        return base if kind == "reflection" else f"{self.quotient}({base})"

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
    xperp = rs.span(P.simples)
    yperp = rs.span(Q.simples)
    mid = rs.fixed_space(P.simples + Q.simples)   # Fix(P) n Fix(Q)
    if xperp.dim + mid.dim + yperp.dim != rs.n:
        raise RuntimeError("invariant split does not fill the space")
    return xperp, mid, yperp
