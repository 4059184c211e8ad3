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
generate N_J = Q : D, with N = P : N_J.  D permutes Delta_J, and only 1 in
D fixes it (the pointwise stabilizer of span Delta_J is Q), so D is its
permutation image D_pi, which the groupoid's walk on index tuples gives
with no group element made: |N| = |P||Q||D_pi| (``normalizer_order_at``).
``decompose`` makes only the loops of a greedy generating set of D_pi.
Each loop lies in N_J, so its relative-length-zero representative modulo
Q is its part in D; reducing modulo Q is a homomorphism from N_J onto D,
so those reductions generate D, which is enumerated and must have the
order of D_pi.  D is the only group ``decompose`` enumerates, and no pair
product runs over it:
D permutes Delta_P, Delta_Q and the labels of the roots' projections onto
X n Y, and its restrictions to X_perp, Y_perp and X n Y, A, B and A x B
are read off those permutations (``_Restricted``).  Q and its class are
read off the catalog's map perp on shapes (``galois.perp_map``), and the
projections, the roots' forms on them (the labels) and the class of the
parabolic closure of PQ off its second map (``galois.pq_closure``), so no
fixed space is eliminated and no root is projected per row.  The
reflection parts of P:D and Q:D are named from the simple root lines of P
or Q and the lines of D, with neither enumerated (see ``_action_cell``).
Each action cell, and the name and marker of A, B and C (subsets of D),
classify image summaries (``_Restricted.image``), and every diagram is read
off the root system's line table, which tests each pair of lines once.
The Goursat sections of an explicit N restrict it by pair products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import (_BATCH, ActionCell, SpaceRestriction, image_keys, invariant_split,
                      line_table, split_keys)
from .diagrams import components_order, components_string
from .galois import complements, orthogonal_complement, perp_map, pq_closure
from .groups import (BRUTE_LIMIT, GroupElement, _dimino, generate, identity,
                     permutation_group, relative_length)
from .linalg import pair_matmul
from .parabolic import (ReflectionSubgroup, Shape, shape_catalog, standard_conjugate,
                        standard_parabolic, standard_subset, subset_groupoid)

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
        return perp_map(shape_catalog(self.rs)).index[self.q_index]

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
    orthogonal complement and the groupoid loops at J whose permutations of
    Delta_J generate D_pi (see ``_permutation_image``); for a parabolic P
    that is not standard, these generators are conjugated by the element
    carrying W_J onto P.  Refused with RuntimeError, before anything is
    enumerated, when |N| exceeds BRUTE_LIMIT.
    """
    rs = P.rs
    WJ, w = _standard_form(P)
    Q = orthogonal_complement(WJ)
    image, tree, edges = _permutation_image(rs, standard_subset(WJ))
    order = WJ.order * Q.order * len(image)
    if order > BRUTE_LIMIT:
        raise RuntimeError(f"normalizer too large to enumerate ({order} > {BRUTE_LIMIT})")
    gens = WJ.simple_reflections() + Q.simple_reflections()
    gens += subset_groupoid(rs).loop_elements(tree, edges)
    w_inv = w.inverse()
    N = generate({g.key: w_inv * g * w for g in gens}.values(), rs=rs)
    if len(N) != order:
        raise RuntimeError("normalizer enumeration incomplete")
    return N


def normalizer_order(P: ReflectionSubgroup) -> int:
    """|N_W(P)|, a class invariant, computed at the representative of P's class."""
    catalog = shape_catalog(P.rs)
    return normalizer_order_at(catalog, catalog.shape_of(P).index)


def _standard_form(P):
    """(W_J, w): P itself when it is standard, else a standard parabolic W_J
    and w carrying the roots of W_J onto those of P."""
    if standard_subset(P) is not None:
        return P, identity(P.rs)
    subset, w = standard_conjugate(P.rs, P.roots)
    return standard_parabolic(P.rs, subset), w


def normalizer_order_at(catalog, i):
    """|N_W(W_J)| = |W_J||Q||D| for shape i's representative W_J, with its
    orthogonal complement Q read off the catalog's map perp on shapes and
    |D| = |D_pi|; no group element is made."""
    shape = catalog[i]
    Q = perp_map(catalog).complement[i]
    return shape.order * Q.order * len(_permutation_image(catalog.rs, shape.rep_subset)[0])


def _permutation_image(rs, subset):
    """D_pi, D's permutation group on J's positions, with the groupoid walk's
    tree and the edges (K, s) of a greedy generating set of its loops.

    d -> its permutation of Delta_J is injective on D, since the pointwise
    stabilizer of span Delta_J is Q (Steinberg) and D meets Q trivially.  A
    loop lies in N_J = Q : D and permutes Delta_J as its part in D does.
    """
    tree, loops = subset_groupoid(rs).walk(subset)
    image, kept = permutation_group([perm for perm, _, _ in loops], len(set(subset)))
    return image, tree, [loops[k][1:] for k in kept]


def _complement_D(rs, subset, Q):
    """The complement D of PQ in N_W(W_J), from the loops at J that generate D_pi.

    Each loop lies in N_J = Q : D (Q = perp(W_J)), so it sends no simple root
    of W_J negative and descends modulo Q alone to its part in D, which
    permutes Delta_J as the loop does; the descents generate D.  D is
    enumerated from them and must have the order of D_pi: each mechanism
    checks the other.
    """
    image, tree, edges = _permutation_image(rs, subset)
    D = generate([descend_to_complement(g, Q)
                  for g in subset_groupoid(rs).loop_elements(tree, edges)], rs=rs)
    if len(D) != len(image):
        raise RuntimeError("D differs from its permutation image")
    return D


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
    """D's restriction to each nonzero space of the invariant split, read off
    D's permutations of the roots, with no pair product over D.

    ``spaces`` maps each role, X n Y first, to a basis: the projections of
    the simple roots onto X n Y (pair rows), with the positive roots' forms
    on them in ``forms``, Delta_P or Delta_Q (root indices).  ``keys`` maps
    it to each element's restriction key, in D's order, and ``reflecting``
    to {key: witness} for the reflections.  D is read in batches, a key
    being a slice of one gather's bytes.

    Lemma: D permutes Delta_P and Delta_Q.  Proof: it keeps the positive
    roots of P and Q positive.  Conversely, Phi_P+ is the nonnegative span
    of Delta_P in Phi, so permuting both is D's defining property, and the
    refusal of any other element (RuntimeError) is ``decompose``'s one
    check of D.  A permutation of a basis fixes one dimension per cycle, so
    d reflects there iff it is a transposition (a_i a_j), its witness, in
    the line of a_i - a_j (kept with the line table), and is never -1.

    d commutes with the orthogonal projection pi onto X n Y, so its
    restriction is fixed by pi(d(a_i)) = d(pi(a_i)), and d's key is the
    labels (``_root_labels``) of d(a_1), ..., d(a_n); -1's is those of
    -a_1, ..., -a_n.  d reflects there iff d^2's key is the identity's and
    its trace there is dim - 2 (``_mid_traces``).  The first such element
    of a key is its witness; lines are read only for an image of two or
    more, by ``SpaceRestriction`` on witnesses, which must be rank one.
    """

    def __init__(self, rs, D, spaces, forms):
        self.rs, self.D, self.spaces, self.lines = rs, D, spaces, {}
        self.position = {d.key: i for i, d in enumerate(D)}
        self.keys = {role: [] for role in spaces}
        self.reflecting = {role: {} for role in spaces}
        if not spaces:
            return
        deltas = {role: list(spaces[role]) for role in ("x_perp", "y_perp") if role in spaces}
        if "x_cap_y" in spaces:
            n, labels = rs.n, _root_labels(forms)
            self.identity, self.minus = labels[:n].tobytes(), labels[rs.npos:rs.npos + n].tobytes()
            trace = 2 * (n - sum(map(len, deltas.values())) - 2)   # twice a reflection's
        for start in range(0, len(D), _BATCH):
            batch = D[start:start + _BATCH]
            images = np.array([d.img for d in batch])
            for role, delta in deltas.items():
                on_delta = images[:, delta]
                if (np.sort(on_delta, axis=1) != sorted(delta)).any():
                    raise RuntimeError(f"{role}: D does not permute the simple roots")
                keys, w = on_delta.tobytes(), on_delta.itemsize * len(delta)
                for i, moved in enumerate((on_delta != delta).sum(axis=1).tolist()):
                    key = keys[i * w:(i + 1) * w]
                    self.keys[role].append(key)
                    if moved == 2 and key not in self.reflecting[role]:
                        self.reflecting[role][key] = next(
                            (a, b) for a, b in zip(delta, on_delta[i].tolist()) if a != b)
            if "x_cap_y" in spaces:
                first = images[:, :n]
                square = labels[images[np.arange(len(batch))[:, None], first]].tobytes()
                p, q = _mid_traces(rs, images, deltas)
                keys, w = labels[first].tobytes(), labels.itemsize * n
                traced = ((p == trace) & (q == 0)).ravel().tolist()
                for i, d in enumerate(batch):
                    key = keys[i * w:(i + 1) * w]
                    self.keys["x_cap_y"].append(key)
                    if (traced[i] and key != self.identity
                            and square[i * w:(i + 1) * w] == self.identity):
                        self.reflecting["x_cap_y"].setdefault(key, d)

    def _cells(self, K, role):
        """The key of each element of K's restriction to the space of a role."""
        keys, position = self.keys[role], self.position
        return keys if K is self.D else [keys[position[k.key]] for k in K]

    def preimage(self, role, K):
        """The elements of D that restrict to the space of a role as some
        element of K does (all of D on a zero space)."""
        if role not in self.keys:
            return self.D
        found = set(self._cells(K, role))
        return [d for d, key in zip(self.D, self.keys[role]) if key in found]

    def _lines(self, role, found):
        """The lines of the reflecting restrictions with the given keys, each read once."""
        lines, witness = self.lines.setdefault(role, {}), self.reflecting[role]
        new = [key for key in found if key not in lines]
        if new and role == "x_cap_y":
            elements = [witness[key] for key in new]
            table = SpaceRestriction(self.rs, self.spaces[role]).restrictions(elements)
            lines.update((key, table[d.key][1]) for key, d in zip(new, elements))
            if None in lines.values():
                raise RuntimeError("x_cap_y: a witness of the trace test is not a reflection")
        elif new:
            table = line_table(self.rs)
            lines.update((key, table.root_line(*sorted(witness[key]))) for key in new)
        return {lines[key] for key in found}

    def image(self, K, role, base=None) -> _Image:
        """K's image summary on the space of a role.

        A base group's simple root lines join the lines of K's reflecting
        elements (see ``_action_cell``); with none, the diagram is the
        base's own.  One line is A1, with no line read."""
        cells = self._cells(K, role)
        distinct = set(cells)
        found = distinct & self.reflecting[role].keys()
        simples = base.simples if base is not None else ()
        if not found:
            diagram = base.components if base is not None else ()
        elif len(found) + len(simples) == 1:
            diagram = ("A1",)
        else:
            table = line_table(self.rs)
            diagram = table.diagram(self._lines(role, found) | set(map(table.root_line, simples)))
        return _Image(len(distinct), frozenset(k.key for k, c in zip(K, cells) if c in found),
                      diagram, role == "x_cap_y" and self.minus in distinct)


def _root_labels(forms):
    """A label per root, equal for two roots iff their inner products with
    the projection rows are: the distinct rows of the positive roots' forms
    on them (``galois.pq_closure``) and of their negatives, ranked."""
    rows = np.concatenate((forms, -forms))
    order = np.lexsort(rows.T)
    ranked = rows[order]
    labels = np.empty(len(rows), dtype=np.int16)
    labels[order] = np.concatenate(([0], (ranked[1:] != ranked[:-1]).any(axis=1))).cumsum()
    return labels


def _mid_traces(rs, images, deltas):
    """Twice the trace on X n Y of each element of a stack of root images, as
    (p, q) columns: on V, read off the root table in halves, less twice the
    fixed points of each Delta of ``deltas``, the traces on X_perp, Y_perp."""
    first, fixed = images[:, :rs.n], [j for delta in deltas.values() for j in delta]
    p, q = (x[first, np.arange(rs.n)].sum(axis=1, keepdims=True) for x in rs.root_pairs)
    return p - 2 * (images[:, fixed] == fixed).sum(axis=1, keepdims=True), q


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
    R is named from Delta_base u T on the root system's line table, whose
    functional f_e = sum e^i x_i, for a small e > 0, is such an f: it is
    positive on W's positive roots and nonzero on every line.
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
    images = {role: restricted.image(K, role) for role in restricted.keys}
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
    # perp(P) and the closure of PQ off the catalog's maps; another standard
    # parabolic of the class computes its own
    i = shape.index if subset == shape.rep_subset else None
    if i:
        perp = perp_map(catalog)
        Q, q_index = perp.complement[i], perp.index[i]
    else:
        (Q,), (q_index,) = complements(catalog, [P])
    projections, forms, closure, closure_index = pq_closure(catalog, P, Q, i)
    p_order, q_order = P.order, Q.order
    D = _complement_D(rs, subset, Q)

    # D's restriction to each nonzero space of the invariant split, X n Y
    # first (D is trivial for every dihedral shape); A, B, the action cells and
    # the names of A, B and C, all subsets of D, are read off it.  The simple
    # roots of P and of Q, as root indices, are bases of X_perp and Y_perp.
    # Delta_P is orthogonal to Delta_Q (checked with perp(P)), so together
    # they are independent and X n Y = Fix(PQ) has the rest of the dimension;
    # the closure's nonzero projections, checked orthogonal to both, span it.
    dims = {"x_cap_y": rs.n - len(P.simples) - len(Q.simples),
            "x_perp": len(P.simples), "y_perp": len(Q.simples)}
    spaces = {}
    if len(D) > 1:
        bases = (("x_cap_y", projections), ("x_perp", P.simples), ("y_perp", Q.simples))
        spaces = {role: basis for role, basis in bases if dims[role]}
    restricted = _Restricted(rs, D, spaces, forms)

    # A and B are the kernels of D on Y_perp and on X n Y, both normal in D;
    # AB is the set of elements that act on Y_perp as some b in B does (then
    # b^-1 d lies in A), of order |A||B|/|A n B|
    A, B = (restricted.preimage(role, [identity(rs)]) for role in ("y_perp", "x_cap_y"))
    AB = restricted.preimage("y_perp", B)
    if len(AB) != len(A) * len(B):
        raise RuntimeError("A and B do not intersect trivially")
    if len(AB) == len(D):
        C = [identity(rs)]
    else:
        if len(D) != 2 * len(AB):
            raise RuntimeError("A x B has index > 2 in D; complement search failed")
        ab_keys = {ab.key for ab in AB}
        cands = [d for d in D if d.key not in ab_keys and d.is_involution()]
        if not cands:
            raise RuntimeError("no involution completes A x B to D")
        C = [identity(rs), min(cands, key=lambda w: w.canonical())]

    # asterisk: the longest element of P acts as -1 on the span of its roots
    asterisk = subset_groupoid(rs).longest_is_minus_one(subset)

    trivial = ReflectionSubgroup(rs, ())   # D acts on X n Y alone
    trivial.simples = ()
    cells = {role: _action_cell(role, base, image_order, dims[role], restricted)
             for role, base, image_order in (
                 ("x_perp", P, p_order * len(D)),
                 ("x_cap_y", trivial, len(D) // len(B)),
                 ("y_perp", Q, q_order * len(D) // len(A)))}
    a_name, b_name, c_name = (_format_subgroup(*_name_and_marker(K, restricted, AB))
                              for K in (A, B, C))

    return Decomposition(
        rs=rs, shape=shape, P=P, Q=Q, q_index=q_index, n_order=p_order * q_order * len(D),
        D=D, A=A, B=B, C=C, a_name=a_name, b_name=b_name, c_name=c_name,
        pq_closure_index=closure_index,
        pq_closure_is_pq=bool(closure.sum() == len(P.roots) + len(Q.roots)),
        pq_closure_is_w=bool(closure.all()),
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
    # N is generated by P, Q and the loops at J that generate D_pi, which
    # normalize PQ, so PQAB is normal iff each loop conjugates each generator
    # of AB (an element of A or B the ones before it do not generate, as
    # Dimino keeps them) into AB modulo PQ.  A loop and AB lie in N_J, so
    # the conjugate keeps Delta_J, and its descent modulo Q is that modulo PQ.
    candidates = dec.A + dec.B
    group, kept = _dimino(candidates, identity(rs), GroupElement.__mul__)
    generators, ab = [candidates[k] for k in kept], {g.key for g in group}
    _, tree, edges = _permutation_image(rs, standard_subset(dec.P))
    for d in subset_groupoid(rs).loop_elements(tree, edges):
        for x in generators:
            dd = descend_to_complement((d.inverse() * x) * d, dec.Q)
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
