"""Normalizers of parabolic subgroups and their structured decomposition.

For a parabolic P with normalizer N, orthogonal complement Q and the three
invariant subspaces X_perp, X n Y, Y_perp, the decomposition computed here is

    N  =  (P x Q) : (A x B) : C

where the complement D of PQ in N consists of the elements preserving the
positive system of PQ (relative length zero), A is the part of D fixing
Y_perp pointwise (equivalently the complement of P in its orthogonal
closure), B is the part fixing X n Y (the complement of PQ in its parabolic
closure), and C is a complement of A x B in D, of order at most 2.

D comes from the subset groupoid (see ``parabolic.SubsetGroupoid``): for a
standard P = W_J the groupoid's loops at J, with the reflections of Q,
generate N_J, with N = P : N_J.  Since PQ is normal in N, reducing each
loop to its relative-length-zero representative modulo PQ is a homomorphism
onto D, so those reductions generate D, and D is closed by enumeration; the
loops the groupoid skips are reflections of Q, which reduce to 1.  D is
small, and it is the only group ``decompose`` enumerates: |N| = |P||Q||D|,
and the action cells on X_perp, X n Y and Y_perp are read off the
restrictions of D: to X n Y by one batched product on the simple roots
projected onto Fix(PQ), and to X_perp and Y_perp off D's images of the
simple roots of P and of Q, which it permutes (see ``_Restricted``; that
gather is also the one check that D is relative-length-zero).  Q,
its class, those projections and the class of the parabolic closure of PQ
are the shape's row of the catalog's Galois table (``galois.galois_row``),
so no fixed space is eliminated; |N| alone reads Q there too, at the
representative of P's class.  The reflection parts of P:D and Q:D are
named from the simple root lines of P or Q and the lines of D, with neither
enumerated (see ``_action_cell``).
Each action cell, and the name and marker of A, B and C (subsets of D),
classify image summaries (``_Restricted.image``) read off those tables, and
every diagram of a row is read off one line table.  The Goursat sections of
an explicit N restrict it in batches the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actions import (ActionCell, LineTable, SpaceRestriction, canonical_lines,
                      image_keys, invariant_split, split_keys)
from .diagrams import components_order, components_string
from .galois import galois_row, galois_rows, orthogonal_complement
from .groups import BRUTE_LIMIT, GroupElement, generate, identity, relative_length
from .linalg import pair_matmul
from .parabolic import (ReflectionSubgroup, Shape, orthogonal_join, shape_catalog,
                        standard_conjugate, standard_parabolic, standard_subset,
                        subset_groupoid)

MARKER_TOKENS = {"heart": "HEART", "diamond": "DIAMOND", "club": "CLUB", "spade": "SPADE"}


# ---------------------------------------------------------------------------
# Howlett complements


def descend_to_complement(w: GroupElement, sub: ReflectionSubgroup) -> GroupElement:
    """The unique relative-length-zero representative in the coset (sub)w."""
    rs = w.rs
    npos = rs.npos
    simples = sub.simples
    while True:
        beta = next((b for b in simples if int(w.img[b]) >= npos), None)
        if beta is None:
            return w
        w = rs.reflection(beta) * w


def howlett_complement(sub: ReflectionSubgroup, ambient) -> list:
    """Complement {a : relative length 0} of a normal reflection subgroup.

    ``ambient`` lists the elements of a group.  The subgroup must be normal
    in it; violations are rejected with a witness element.
    """
    rs = sub.rs
    refl = {rs.reflection(i).key for i in sub.pos}
    for g in ambient:
        for i in sub.pos:
            conj = (g.inverse() * rs.reflection(i)) * g
            if conj.key not in refl:
                raise ValueError(
                    f"subgroup not normal: conjugate of reflection {i} by "
                    f"{g.canonical()} leaves the subgroup")
    return [w for w in ambient if relative_length(w, sub.pos) == 0]


# ---------------------------------------------------------------------------
# Goursat sections

_BATCH = 4096   # elements restricted per pair product, to bound its memory


@dataclass
class GoursatSections:
    """Kernels and section data of L inside O(V1) x O(V2)."""

    kernels: tuple            # (G2 elements, H2 elements)  (G2 = L n ker(->V2))
    complements: tuple        # (G0 matrices, H0 matrices) or None
    matched_pairs: list       # [(matrix on V1, matrix on V2)] for all of L


def goursat_sections(L, V1, V2, complement=None) -> GoursatSections:
    """Goursat data for a group of elements preserving V1 and V2 = V1^perp.

    ``L`` is an iterable of elements; each is restricted to V1 and V2 as the
    keys of the images of their basis rows (see ``SpaceRestriction``), in
    batches.  When a complement (e.g. the Howlett complement D) is supplied,
    its restriction pair realizes the section isomorphism on complements.
    Raises ValueError when V2 is not V1^perp or when an element does not
    preserve the split.
    """
    elements = list(L)
    rs = elements[0].rs
    if V2 != V1.perp(rs.form):
        raise ValueError("V2 is not the orthogonal complement of V1")
    s1 = SpaceRestriction(rs, V1.pairs)
    s2 = SpaceRestriction(rs, V2.pairs)
    # w is orthogonal, so w(V1) perp V2 gives w(V1) = V1 and w(V2) = V2
    v2_forms = tuple(m.T for m in pair_matmul(V2.pairs, rs.form))
    pairs = []
    for start in range(0, len(elements), _BATCH):
        batch = elements[start:start + _BATCH]
        on_v1 = s1.images(batch)
        products = pair_matmul(split_keys(on_v1, rs.n), v2_forms)
        broken = products[0].any(axis=(1, 2)) | products[1].any(axis=(1, 2))
        if broken.any():
            raise ValueError(f"split not invariant under {batch[broken.argmax()].canonical()}")
        pairs += zip(image_keys(on_v1), image_keys(s2.images(batch)))
    G2 = [w for w, p in zip(elements, pairs) if p[1] == s2.identity]
    H2 = [w for w, p in zip(elements, pairs) if p[0] == s1.identity]
    comp = None
    if complement is not None:
        comp = (image_keys(s1.images(complement)), image_keys(s2.images(complement)))
    return GoursatSections((G2, H2), comp, pairs)


# ---------------------------------------------------------------------------
# The decomposition


@dataclass
class Decomposition:
    """Full record for one parabolic: N = (P x Q) : ((A x B) : C)."""

    rs: object
    shape: Shape
    P: ReflectionSubgroup
    Q: ReflectionSubgroup
    q_index: int
    n_order: int
    D: list
    A: list
    B: list
    C: list
    a_name: str
    b_name: str
    c_name: str
    pq_closure_index: int       # class of the parabolic closure of PQ
    pq_closure_is_pq: bool
    pq_closure_is_w: bool
    actions: dict               # role -> ActionCell
    involution_centralizer: bool

    @property
    def spaces(self):
        """(X_perp, X n Y, Y_perp) as echelon subspaces (see ``invariant_split``)."""
        return invariant_split(self.P, self.Q)

    @property
    def d_order(self):
        return len(self.D)

    @property
    def p_order(self):
        return self.P.order

    @property
    def q_order(self):
        return self.Q.order

    @property
    def closure_index(self) -> int:
        """Class of the orthogonal closure of P: perp(perp(P)) on the shape maps."""
        return galois_row(shape_catalog(self.rs), self.q_index).perp_index

    def pq_closure_cell(self) -> str:
        if self.pq_closure_is_w:
            return "W"
        if self.pq_closure_is_pq:
            return f"({self.pq_closure_index})"
        return str(self.pq_closure_index)

    def to_json(self):
        return {
            "group": str(self.rs.label),
            "shape_index": self.shape.index,
            "P": self.shape.label,
            "Q_shape": self.q_index,
            "D_order": self.d_order,
            "A_type": self.a_name,
            "B_type": self.b_name,
            "C_order": len(self.C),
            "closure_shape": self.closure_index,
            "pq_closure_shape": self.pq_closure_cell(),
            "actions": {role: self.actions[role].to_json()
                        for role in ("x_perp", "x_cap_y", "y_perp")},
            "involution_centralizer": self.involution_centralizer,
        }


def normalizer(P: ReflectionSubgroup) -> list:
    """The elements of the normalizer of a parabolic, in key order.

    N_W(W_J) is generated by the simple reflections of J and of its
    orthogonal complement and the groupoid loops at J (the loops the
    groupoid skips are reflections of that complement); for a parabolic P
    that is not standard, these generators are conjugated by the element
    carrying W_J onto P.  Refused with RuntimeError, before anything is
    enumerated, when |N| exceeds BRUTE_LIMIT.
    """
    rs = P.rs
    WJ, w = _standard_form(P)
    catalog = shape_catalog(rs)
    order = _normalizer_order_at(catalog, catalog.class_of_subset(standard_subset(WJ)))
    if order > BRUTE_LIMIT:
        raise RuntimeError(f"normalizer too large to enumerate ({order} > {BRUTE_LIMIT})")
    gens = WJ.simple_reflections() + orthogonal_complement(WJ).simple_reflections()
    gens += subset_groupoid(rs).loops(standard_subset(WJ))
    w_inv = w.inverse()
    N = generate({g.key: w_inv * g * w for g in gens}.values(), rs=rs)
    if len(N) != order:
        raise RuntimeError("normalizer enumeration incomplete")
    return N


def normalizer_order(P: ReflectionSubgroup) -> int:
    """|N_W(P)|, a class invariant, computed at the representative of P's class."""
    catalog = shape_catalog(P.rs)
    return _normalizer_order_at(catalog, catalog.shape_of(P).index)


def _standard_form(P):
    """(W_J, w): P itself when it is standard, else a standard parabolic W_J
    and w carrying the roots of W_J onto those of P."""
    if standard_subset(P) is not None:
        return P, identity(P.rs)
    subset, w = standard_conjugate(P.rs, P.roots)
    return standard_parabolic(P.rs, subset), w


def _normalizer_order_at(catalog, i):
    """|N_W(W_J)| = |W_J||Q||D| for shape i's representative W_J, with its
    orthogonal complement Q read off the catalog's Galois table."""
    shape = catalog[i]
    Q = galois_row(catalog, i).perp
    D = _complement_D(catalog.rs, shape.rep_subset, orthogonal_join(shape.parabolic, Q))
    return shape.order * Q.order * len(D)


def _complement_D(rs, subset, pq_sub):
    """The complement D of PQ in N_W(W_J), from the groupoid loops at J.

    Each loop descends to its representative modulo PQ; the loops the
    groupoid skips are reflections of Q, which descend to 1.
    """
    gens = {}
    for g in subset_groupoid(rs).loops(subset):
        d = descend_to_complement(g, pq_sub)
        if not d.is_identity():
            gens.setdefault(d.key, d)
    return generate(gens.values(), rs=rs)


_ROLE_SUBGROUP = {"x_perp": "PD", "x_cap_y": "D", "y_perp": "QD"}


@dataclass(frozen=True)
class _Image:
    """The image of a subgroup K of D on one space, read off D's restriction table.

    ``size`` counts K's distinct restrictions and ``reflecting`` holds the
    keys of the elements of K that restrict to reflections.  ``diagram`` is
    the type of the group their lines (and a base group) generate, empty when
    there are none.  ``minus`` tells whether -1 is among the restrictions.
    """

    size: int
    reflecting: frozenset
    diagram: tuple
    minus: bool

    @property
    def is_reflection_group(self):
        return bool(self.diagram) and components_order(self.diagram) == self.size


class _Restricted:
    """D's restriction to each nonzero space of the invariant split, and one line table.

    ``spaces`` maps each role, X n Y first, to a basis of its space: the
    projections of the simple roots onto X n Y, as pair rows, and Delta_P
    and Delta_Q, as root indices, on X_perp and Y_perp.  ``tables`` maps it
    to D's restriction table there, {d.key: (key of d's restriction,
    reflecting line or None)}, and ``identities`` to the identity's key;
    every image of a subgroup of D is read off them.

    Only X n Y is restricted by a pair product (``SpaceRestriction``).
    Lemma: on X_perp and Y_perp, D acts by permuting Delta_P and Delta_Q.
    Proof: D normalizes P and Q and keeps their positive roots positive,
    so d maps P's positive system onto itself, and so its simple roots.
    So d's key there is its row of images of Delta, one gather of D's
    images for both spaces, and the identity's key is Delta.  Conversely,
    Phi_P+ is the set of roots in the nonnegative span of Delta_P, so an
    element permuting Delta_P normalizes P and keeps Phi_P+ positive, and
    the same holds for Q; so permuting both is D's defining property,
    relative length zero in the normalizer of PQ, and the gather, which
    refuses any other element with RuntimeError, is ``decompose``'s one
    check of D (with |D| = 1 or both spaces zero it cannot fail).  A
    permutation of a basis fixes a subspace whose dimension is its number
    of cycles, so d reflects there iff it moves exactly two simple roots, a
    transposition (a_i a_j), and the line reflected is that of a_i - a_j.
    No simple root goes negative, so -1 is not a restriction there.  The
    line table holds D's lines on all the spaces and the simple root lines
    of P and Q, read off ``rs.root_lines``; lines of different spaces are
    orthogonal, so one table names the lines of every image (see
    ``actions.LineTable``).
    """

    def __init__(self, rs, D, spaces):
        self.rs = rs
        self.D = D
        self.spaces = spaces
        self.tables, self.identities = {}, {}
        if "x_cap_y" in spaces:
            self._mid = SpaceRestriction(rs, spaces["x_cap_y"])
            self.tables["x_cap_y"] = self._mid.restrictions(D)
            self.identities["x_cap_y"] = self._mid.identity
        roles = [role for role in ("x_perp", "y_perp") if role in spaces]
        if not roles:
            return
        images = np.array([d.img for d in D])
        rows, swapped, moved_from, moved_to = {}, {}, [], []
        for role in roles:
            delta = np.array(spaces[role])
            rows[role] = images[:, delta]
            if (np.sort(rows[role], axis=1) != np.sort(delta)).any():
                raise RuntimeError(f"{role}: D does not permute the simple roots")
            moved = rows[role] != delta
            swapped[role] = moved.sum(axis=1) == 2
            first = moved[swapped[role]].argmax(axis=1)   # a_i, moved to a_j
            moved_from.append(delta[first])
            moved_to.append(rows[role][swapped[role]][np.arange(len(first)), first])
        i, j = np.concatenate(moved_from), np.concatenate(moved_to)
        p, q = rs.root_pairs
        lines = iter(canonical_lines((p[i] - p[j], q[i] - q[j])) if len(i) else [])
        for role in roles:
            self.tables[role] = {d.key: (tuple(row), next(lines) if swap else None)
                                 for d, row, swap in zip(D, rows[role].tolist(),
                                                         swapped[role].tolist())}
            self.identities[role] = tuple(spaces[role])

    def kernel(self, role):
        """The elements of D that fix the space pointwise (all of D on a zero space)."""
        if role not in self.tables:
            return self.D
        table, identity = self.tables[role], self.identities[role]
        return [d for d in self.D if table[d.key][0] == identity]

    def image(self, K, role, base=None) -> _Image:
        """K's image summary on the space of a role.

        A base group's simple root lines join the lines of K's reflecting
        elements (see ``_action_cell``); with none, the diagram is the base's own.
        """
        table = self.tables[role]
        cells = [table[k.key] for k in K]
        mats = {M for M, _ in cells}
        lines = {line for _, line in cells} - {None}
        if lines:
            if base is not None and base.simples:
                lines.update(self._base_lines[role])
            diagram = self._line_table.diagram(lines)
        else:
            diagram = base.components if base is not None else ()
        minus = role == "x_cap_y" and any(self._mid.is_minus_identity(M) for M in mats)
        return _Image(len(mats), frozenset(k.key for k, (_, line) in zip(K, cells) if line is not None),
                      diagram, minus)

    @cached_property
    def _base_lines(self):
        """The simple root lines of P on X_perp and of Q on Y_perp."""
        root_lines = self.rs.root_lines
        return {role: [root_lines[i] for i in self.spaces[role]]
                for role in ("x_perp", "y_perp") if role in self.spaces}

    @cached_property
    def _line_table(self):
        lines = {line for table in self.tables.values() for _, line in table.values()} - {None}
        for base_lines in self._base_lines.values():
            lines.update(base_lines)
        return LineTable(lines, self.rs.form)


def _action_cell(role, base: ReflectionSubgroup, image_order, dim, restricted):
    """Action cell of (base)D on a space V: P on X_perp, D on X n Y, Q on Y_perp.

    ``restricted`` holds D's restriction to V (a ``_Restricted``).  Lemma: the
    group R the reflections of (base)D generate is <base, T> = base : <T>, for
    T the lines of the elements of D that reflect on V, and R's simple lines
    at a functional f positive on W's positive roots lie in Delta_base u T.
    Proof:
    D keeps P's and Q's positive roots, so it fixes the base chamber C, and a
    reflection of R outside the base, its wall meeting a base chamber, is
    base-conjugate to one fixing C, a restriction of D.  <T> fixes C, so it
    meets the normal base trivially and T holds all its lines.  f lies in C,
    whose |R|/|base| = |<T>| R-chambers <T> permutes simply transitively, each
    with its <T>-chamber; so the <T>-chamber of f meets C in one R-chamber,
    whose walls, R's simple lines at f, are lines of Delta_base or of T.  So
    R is named from Delta_base u T on the row's line table, whose functional
    f_e = sum e^i x_i, for a small e > 0, is such an f: it is positive on
    W's positive roots and nonzero on every line.
    """
    subgroup = _ROLE_SUBGROUP[role]
    if dim == 0:
        return ActionCell(role, subgroup, 0, (), 1, False, 1)
    if image_order == base.order:  # D acts on the space through the base group
        return ActionCell(role, subgroup, dim, base.components, 1, False, image_order)
    image = restricted.image(restricted.D, role, base)
    if image.size * base.order != image_order:
        raise RuntimeError(f"{role}: restrictions of D times the base order "
                           "differ from the image order")
    if not image.diagram:
        return ActionCell(role, subgroup, dim, (), image_order,
                          image_order == 2 and image.minus, image_order)
    r_order = components_order(image.diagram)
    if image_order % r_order:
        raise RuntimeError("reflection part order does not divide the image order")
    return ActionCell(role, subgroup, dim, image.diagram, image_order // r_order,
                      False, image_order)


# Names of the subgroups with no image that is a reflection group, by order
ABSTRACT_NAMES = {2: "A1", 8: "B2"}


def _name_and_marker(K, restricted, AB):
    """Coxeter type name and idiosyncrasy marker of A, B or C, a subgroup K of D.

    ``restricted`` holds D's restriction to each nonzero space, X n Y first
    (a ``_Restricted``); K's image on each is read, and a trivial image is
    no action.  K is named by the type of its first image that is a
    reflection group, or, when none is, by its order.  Its marker is that of
    the first rule that holds.
    """
    if len(K) <= 1:
        return "", ""
    images = {role: restricted.image(K, role) for role in restricted.tables}
    moved = {role: im for role, im in images.items() if im.size > 1}
    full = [im for im in moved.values() if im.is_reflection_group]
    if full:
        name = components_string(full[0].diagram)
    elif len(K) in ABSTRACT_NAMES:
        name = ABSTRACT_NAMES[len(K)]
    else:
        raise RuntimeError(f"no abstract type rule for order {len(K)}")
    # K fixes Y_perp, so K is A (B and C meet A trivially, so when nontrivial
    # they move Y_perp), and moves X_perp by no reflection
    bare = "y_perp" not in moved and "x_perp" in moved and not moved["x_perp"].reflecting
    rules = (   # (marker, holds), in the order README lists them
        ("heart", not full and not any(im.reflecting for im in moved.values())),
        ("spade", not full),
        ("spade", len({components_string(im.diagram) for im in full}) > 1),
        ("club", len({im.reflecting for im in full}) > 1),
        ("diamond", bare and len(AB) > len(K)
         and restricted.image(AB, "x_perp").is_reflection_group),
        ("heart", bare and len(K) == 8),
        ("", True),
    )
    return name, next(marker for marker, holds in rules if holds)


def _format_subgroup(name, marker):
    if not name:
        return ""
    return f"{name}:{MARKER_TOKENS[marker]}" if marker else name


def decompose(rs, parabolic) -> Decomposition:
    """The full normalizer decomposition of a standard parabolic subgroup.

    A Shape is read as its representative.
    """
    catalog = shape_catalog(rs)
    P = getattr(parabolic, "parabolic", parabolic)
    subset = standard_subset(P)
    if subset is None:
        raise ValueError("decompose takes a Shape or a standard parabolic "
                         "(one generated by simple reflections)")
    shape = catalog[catalog.class_of_subset(subset)]
    # the shape's Galois row; another standard parabolic of the class has its own
    row = (galois_row(catalog, shape.index) if subset == shape.rep_subset
           else galois_rows(catalog, [P])[0])
    Q, q_index = row.perp, row.perp_index
    p_order, q_order = P.order, Q.order
    D = _complement_D(rs, subset, orthogonal_join(P, Q))

    # D's restriction to each nonzero space of the invariant split, X n Y
    # first (D is trivial for every dihedral shape); A, B, the action cells and
    # the names of A, B and C, all subsets of D, are read off it.  The simple
    # roots of P and of Q, as root indices, are bases of X_perp and Y_perp.
    # Delta_P is orthogonal to Delta_Q, so together they are independent and
    # X n Y = Fix(PQ) has the rest of the dimension; the row's nonzero
    # projections, checked orthogonal to both when computed, span it.
    if not rs.orthogonality[list(P.simples)][:, list(Q.simples)].all():
        raise RuntimeError("invariant split does not fill the space")
    dims = {"x_cap_y": rs.n - len(P.simples) - len(Q.simples),
            "x_perp": len(P.simples), "y_perp": len(Q.simples)}
    spaces = {}
    if len(D) > 1:
        bases = (("x_cap_y", row.projections), ("x_perp", P.simples), ("y_perp", Q.simples))
        spaces = {role: basis for role, basis in bases if dims[role]}
    restricted = _Restricted(rs, D, spaces)

    # A and B are the kernels of D on Y_perp and on X n Y
    A, B = restricted.kernel("y_perp"), restricted.kernel("x_cap_y")
    AB = [a * b for a in A for b in B]
    ab_keys = {ab.key for ab in AB}
    if len(ab_keys) != len(AB):
        raise RuntimeError("A and B do not intersect trivially")
    if len(ab_keys) == len(D):
        C = [identity(rs)]
    else:
        if len(D) != 2 * len(ab_keys):
            raise RuntimeError("A x B has index > 2 in D; complement search failed")
        cands = [d for d in D if d.key not in ab_keys and d.is_involution()]
        if not cands:
            raise RuntimeError("no involution completes A x B to D")
        C = [identity(rs), min(cands, key=lambda w: w.canonical())]

    # asterisk: the longest element of P acts as -1 on the span of its roots
    asterisk = subset_groupoid(rs).longest_element(subset).negates(P.pos)

    cells = {role: _action_cell(role, base, image_order, dims[role], restricted)
             for role, base, image_order in (
                 ("x_perp", P, p_order * len(D)),
                 ("x_cap_y", ReflectionSubgroup(rs, ()), len(D) // len(B)),
                 ("y_perp", Q, q_order * len(D) // len(A)))}
    a_name, b_name, c_name = (_format_subgroup(*_name_and_marker(K, restricted, AB))
                              for K in (A, B, C))

    return Decomposition(
        rs=rs, shape=shape, P=P, Q=Q, q_index=q_index, n_order=p_order * q_order * len(D),
        D=D, A=A, B=B, C=C, a_name=a_name, b_name=b_name, c_name=c_name,
        pq_closure_index=row.closure_index,
        pq_closure_is_pq=bool(row.closure_roots.sum() == len(P.roots) + len(Q.roots)),
        pq_closure_is_w=bool(row.closure_roots.all()),
        actions=cells,
        involution_centralizer=asterisk,
    )


# ---------------------------------------------------------------------------
# Whole-group tables


def decomposition_row(dec: Decomposition) -> dict:
    return {
        "index": dec.shape.index,
        "asterisk": dec.involution_centralizer,
        "label": dec.shape.label,
        "q_index": dec.q_index,
        "d_order": dec.d_order,
        "closure": dec.pq_closure_cell(),
        "a": dec.a_name,
        "b": dec.b_name,
        "c": dec.c_name,
        "x_perp": dec.actions["x_perp"].descriptor(),
        "x_cap_y": dec.actions["x_cap_y"].descriptor(),
        "y_perp": dec.actions["y_perp"].descriptor(),
    }


def compute_table(rs):
    """Decomposition rows for every shape of the group, in catalog order."""
    return [decomposition_row(decompose(rs, s)) for s in shape_catalog(rs)]


# ---------------------------------------------------------------------------
# Theorem-level verification


def verify_theorem13(dec: Decomposition) -> dict:
    """Check that PQAB is normal of index <= 2 in N, with the right index."""
    rs = dec.rs
    idx = len(dec.C)
    report = {"shape": dec.shape.label, "group": str(rs.label),
              "index": idx, "ok": True, "witness": None}
    if idx not in (1, 2):
        report["ok"] = False
        report["witness"] = "index"
        return report
    # PQAB is generated by P, Q and AB; conjugation by N-generators must
    # stay inside.  N is generated by P, Q and D; P, Q, AB normalize PQAB
    # trivially, so only D-conjugates of the AB part need checking.
    ab = {x.key: x for x in (a * b for a in dec.A for b in dec.B)}
    pq = orthogonal_join(dec.P, dec.Q)
    for d in dec.D:
        for x in list(ab.values()):
            dd = descend_to_complement((d.inverse() * x) * d, pq)
            if dd.key not in ab:
                report["ok"] = False
                report["witness"] = (d.canonical(), x.canonical())
                return report
    expected = _c_nontrivial_expected(rs, dec)
    if (idx == 2) != expected:
        report["ok"] = False
        report["witness"] = f"index {idx} but expected nontrivial={expected}"
    return report


def _c_nontrivial_expected(rs, dec: Decomposition) -> bool:
    """The classified pairs (W, P) with C of order 2.

    Type D: a partition of n that is not even, with at least two singleton
    parts and an odd part > 1 (the regime where the extra sign-change element
    completes A x B).  Exceptional cases: (E7, A2A1), (E7, A4), (E8, A4A1).
    """
    fam = rs.label.family
    n = rs.label.rank
    if fam == "D":
        lam = dec.shape.partition
        block = dec.shape.block
        if lam is None or block is None or block[1] != 0:
            return False
        ones = sum(1 for p in lam if p == 1)
        return ones >= 2 and any(p > 1 and p % 2 == 1 for p in lam)
    if fam == "E" and n == 7:
        return dec.shape.type_label in ("A2A1", "A4")
    if fam == "E" and n == 8:
        return dec.shape.type_label == "A4A1"
    return False
