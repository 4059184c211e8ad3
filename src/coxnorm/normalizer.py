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
standard P = W_J the groupoid's loops at J generate N_J, with N = P : N_J.
Since PQ is normal in N, reducing each loop to its relative-length-zero
representative modulo PQ is a homomorphism onto D, so those reductions
generate D, and D is closed by enumeration.  D is small, and it is the only
group ``decompose`` enumerates: |N| = |P||Q||D|, and the action cells on
X_perp, X n Y and Y_perp are read off the restrictions of D (see
``_reflection_lines``), so neither N, W, P nor Q is enumerated.  D is
restricted to each of the three spaces once, in one batched product (see
``actions.SpaceRestriction.restrictions``); the cells and the names of A, B
and C, all subsets of D, are looked up in those three tables.  The Goursat
sections of an explicit N restrict it in batches the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (ActionCell, SpaceRestriction, canonical_lines,
                      diagram_of_lines, image_keys, invariant_split, split_keys)
from .diagrams import components_order, components_string
from .galois import orthogonal_complement
from .groups import (BRUTE_LIMIT, GroupElement, GroupSet, generate, identity,
                     parabolic_longest_element, relative_length)
from .linalg import pair_matmul
from .parabolic import (ReflectionSubgroup, Shape, pointwise_stabilizer,
                        shape_catalog, standard_conjugate, standard_parabolic,
                        standard_subset, subset_groupoid)

MARKER_TOKENS = {"heart": "HEART", "diamond": "DIAMOND", "club": "CLUB", "spade": "SPADE"}


# ---------------------------------------------------------------------------
# Howlett complements


def subsystem_longest_element(rs, sub: ReflectionSubgroup) -> GroupElement:
    """Longest element of a reflection subgroup (sends its positives negative).

    A standard parabolic's is the one the subset groupoid kept; callers must
    not mutate it.
    """
    subset = standard_subset(sub)
    if subset is None:
        return parabolic_longest_element(rs, sub.simples)
    return subset_groupoid(rs).longest_element(subset)


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


def howlett_complement(sub: ReflectionSubgroup, ambient: GroupSet) -> GroupSet:
    """Complement {a : relative length 0} of a normal reflection subgroup.

    The subgroup must be normal in the ambient group; violations are rejected
    with a witness element.
    """
    rs = sub.rs
    refl = {rs.reflection(i).key for i in sub.pos}
    for g in ambient.gens or list(ambient):
        for i in sub.pos:
            conj = (g.inverse() * rs.reflection(i)) * g
            if conj.key not in refl:
                raise ValueError(
                    f"subgroup not normal: conjugate of reflection {i} by "
                    f"{g.canonical()} leaves the subgroup")
    members = [w for w in ambient if relative_length(w, sub.pos) == 0]
    return GroupSet(members, [])


# ---------------------------------------------------------------------------
# Goursat sections

_BATCH = 4096   # elements restricted per pair product, to bound its memory


@dataclass
class GoursatSections:
    """Projections, kernels and section data of L inside O(V1) x O(V2)."""

    projections: tuple        # (G1 matrices, H1 matrices)
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
    G1 = sorted({p[0] for p in pairs})
    H1 = sorted({p[1] for p in pairs})
    G2 = [w for w, p in zip(elements, pairs) if p[1] == s2.identity]
    H2 = [w for w, p in zip(elements, pairs) if p[0] == s1.identity]
    comp = None
    if complement is not None:
        comp = (image_keys(s1.images(complement)), image_keys(s2.images(complement)))
    return GoursatSections((G1, H1), (G2, H2), comp, pairs)


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
    closure_index: int          # class of the orthogonal closure of P
    pq_closure_index: int       # class of the parabolic closure of PQ
    pq_closure_is_pq: bool
    pq_closure_is_w: bool
    actions: dict               # role -> ActionCell
    involution_centralizer: bool
    spaces: tuple = None        # (X_perp, X n Y, Y_perp)

    @property
    def d_order(self):
        return len(self.D)

    @property
    def p_order(self):
        return self.P.order

    @property
    def q_order(self):
        return self.Q.order

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


def normalizer(P: ReflectionSubgroup, limit=BRUTE_LIMIT) -> GroupSet:
    """The normalizer of a parabolic as an explicit group.

    N_W(W_J) is generated by the simple reflections of J and the groupoid
    loops at J; for a parabolic P that is not standard, these generators
    are conjugated by the element carrying W_J onto P.  Refused with
    RuntimeError, before anything is enumerated, when |N| exceeds limit.
    """
    rs = P.rs
    subset, w = _standard_form(P)
    order = _normalizer_order_at(rs, subset)
    if order > limit:
        raise RuntimeError(f"normalizer too large to enumerate ({order} > {limit})")
    gens = [rs.reflection(rs.simple_roots[i]) for i in subset]
    gens += subset_groupoid(rs).loops(subset)
    w_inv = w.inverse()
    N = generate({g.key: w_inv * g * w for g in gens}.values(), rs=rs)
    if len(N) != order:
        raise RuntimeError("normalizer enumeration incomplete")
    return N


def normalizer_order(P: ReflectionSubgroup) -> int:
    """|N_W(P)| = |P||Q||D|, computed on a standard parabolic conjugate to P."""
    return _normalizer_order_at(P.rs, _standard_form(P)[0])


def _standard_form(P):
    """(J, w) with w carrying the roots of W_J onto those of P."""
    subset = standard_subset(P)
    if subset is not None:
        return subset, identity(P.rs)
    return standard_conjugate(P.rs, P.roots)


def _normalizer_order_at(rs, subset):
    catalog = shape_catalog(rs)
    P = standard_parabolic(rs, subset)
    Q = orthogonal_complement(P)
    D = _complement_D(rs, subset, ReflectionSubgroup(rs, P.roots | Q.roots))
    return catalog[catalog.class_of_subset(subset)].order * Q.order * len(D)


def _complement_D(rs, subset, pq_sub):
    """The complement D of PQ in N_W(W_J), from the groupoid loops at J."""
    gens = {}
    for g in subset_groupoid(rs).loops(subset):
        d = descend_to_complement(g, pq_sub)
        if not d.is_identity():
            gens.setdefault(d.key, d)
    return generate(gens.values(), rs=rs)


def _root_span(rs, simples):
    return SpaceRestriction(rs, rs.rows(simples))


_ROLE_SUBGROUP = {"x_perp": "PD", "x_cap_y": "D", "y_perp": "QD"}


def _reflection_lines(rs, base: ReflectionSubgroup, restricted):
    """Reflection lines of (base)D acting on a space that D preserves.

    D fixes the positive chamber of the base on its span (D sends the
    positive roots of P and of Q to positive roots).  A reflection t of
    (base)D outside the base has a wall that is not a wall of the base, so
    the wall meets the interior of some base chamber c; conjugating t by the
    base element mapping c to the positive chamber gives a reflection fixing
    the positive chamber, and the elements of (base)D fixing it are exactly
    the restrictions of D.  So every line is a base root line or lies in the
    base orbit of the line of a d in D that restricts to a reflection.

    ``restricted`` is the restriction table of D on the space (see
    ``SpaceRestriction.restrictions``).  Each round of the orbit closure is
    one product of the new lines with every simple reflection of the base.
    """
    lines = set(canonical_lines(rs.rows(base.pos)))
    simple = rs.image_rows(rs.reflection(i) for i in base.simples)
    frontier = {line for _, line in restricted.values()} - {None} - lines
    while frontier:
        lines |= frontier
        images = pair_matmul(split_keys(list(frontier), rs.n), simple)
        frontier = set(canonical_lines(tuple(t.reshape(-1, rs.n) for t in images))) - lines
    return lines


def _action_cell(rs, role, base: ReflectionSubgroup, image_order, dim, space, restricted):
    """Action cell of (base)D on a space: P on X_perp, D on X n Y, Q on Y_perp.

    ``restricted`` is the restriction table of D on the space.
    """
    subgroup = _ROLE_SUBGROUP[role]
    if dim == 0:
        return ActionCell(role, subgroup, 0, (), 1, False, 1)
    if image_order == base.order:  # D acts on the space through the base group
        return ActionCell(role, subgroup, dim, base.components, 1, False, image_order)
    mats = {M for M, _ in restricted.values()}
    if len(mats) * base.order != image_order:
        raise RuntimeError(f"{role}: restrictions of D times the base order "
                           "differ from the image order")
    lines = _reflection_lines(rs, base, restricted)
    if not lines:
        minus = image_order == 2 and any(space.is_minus_identity(M) for M in mats)
        return ActionCell(role, subgroup, dim, (), image_order, minus, image_order)
    diagram = diagram_of_lines(lines, rs.form)
    r_order = components_order(diagram)
    if image_order % r_order:
        raise RuntimeError("reflection part order does not divide the image order")
    return ActionCell(role, subgroup, dim, diagram, image_order // r_order,
                      False, image_order)


def _subgroup_space_info(K, restricted):
    """(restriction keys, reflecting key -> line, line set) of K on a space.

    ``restricted`` is a restriction table on the space covering K.
    """
    mats = set()
    refl = {}
    for k in K:
        M, line = restricted[k.key]
        mats.add(M)
        if line is not None:
            refl[k.key] = line
    return mats, refl, set(refl.values())


def _name_and_marker(tag, K, tables, B=None, AB=None):
    """Coxeter type name and idiosyncrasy marker for A, B or C.

    ``tables`` maps role -> the restriction table of D on that space, or
    None for a zero space (only roles the subgroup can act on); K, B and AB
    are subsets of D.  The name is the reflection type of the action,
    preferring X n Y; a marker is attached when the actions conflict with
    the plain reading.
    """
    if len(K) <= 1:
        return "", ""
    form = K[0].rs.form
    fully = {}       # role -> (type components, reflecting key set)
    nontrivial = {}  # role -> has nontrivial image
    partial = {}     # role -> has some reflections but not fully reflective
    for role, restricted in tables.items():
        if restricted is None:
            continue
        mats, refl, lines = _subgroup_space_info(K, restricted)
        size = len(mats)
        if size == 1:
            continue
        nontrivial[role] = True
        if lines:
            diagram = diagram_of_lines(lines, form)
            if components_order(diagram) == size:
                fully[role] = (diagram, frozenset(refl))
            else:
                partial[role] = True
    order = len(K)

    def abstract_name():
        if order == 2:
            return "A1"
        if order == 8:
            return "B2"
        raise RuntimeError(f"no abstract type rule for order {order}")

    if not fully:
        return abstract_name(), ("spade" if partial else "heart")
    types = {components_string(d) for d, _ in fully.values()}
    if len(types) > 1:
        name = components_string(fully["x_cap_y"][0])
        return name, "spade"
    name_role = "x_cap_y" if "x_cap_y" in fully else sorted(fully)[0]
    name = components_string(fully[name_role][0])
    refl_sets = {r: s for r, (_, s) in fully.items()}
    if len({s for s in refl_sets.values()}) > 1:
        return name, "club"
    if (tag == "A" and "x_perp" in nontrivial and "x_perp" not in fully
            and "x_perp" not in partial):
        if B is not None and len(B) > 1 and AB is not None:
            mats, _, lines = _subgroup_space_info(AB, tables["x_perp"])
            if lines:
                diagram = diagram_of_lines(lines, form)
                if components_order(diagram) == len(mats):
                    return name, "diamond"
        if order == 8:
            return name, "heart"
    return name, ""


def _format_subgroup(name, marker):
    if not name:
        return ""
    return f"{name}:{MARKER_TOKENS[marker]}" if marker else name


def decompose(rs, shape_or_parabolic) -> Decomposition:
    """Compute the full normalizer decomposition for one parabolic subgroup."""
    catalog = shape_catalog(rs)
    if isinstance(shape_or_parabolic, Shape):
        shape = shape_or_parabolic
        subset = shape.rep_subset
        P = ReflectionSubgroup(rs, shape.roots, shape.components)
    else:
        P = shape_or_parabolic
        subset = standard_subset(P)
        if subset is None:
            raise ValueError("decompose takes a Shape or a standard parabolic "
                             "(one generated by simple reflections)")
        shape = catalog[catalog.class_of_subset(subset)]

    Q = orthogonal_complement(P)
    q_index = catalog.class_of_roots(Q.roots)
    Q.components = catalog[q_index].components   # its shape's, not recognized again
    p_order, q_order = P.order, Q.order
    pq_sub = ReflectionSubgroup(rs, P.roots | Q.roots)
    # in canonical order: the choice of C below takes its first candidate
    D = sorted(_complement_D(rs, subset, pq_sub), key=lambda w: w.canonical())
    n_order = p_order * q_order * len(D)

    # A fixes Y_perp pointwise (equivalently every root of Q)
    A = [d for d in D if all(int(d.img[q]) == q for q in Q.simples)]

    # D's restriction table on each nonzero space of the invariant split (D is
    # trivial for every dihedral shape); B, the action cells and the names of
    # A, B, C and AB, all subsets of D, are read off them
    xperp, mid, yperp = invariant_split(P, Q)
    xsp = ysp = mid_space = None
    tables = dict.fromkeys(("x_perp", "x_cap_y", "y_perp"))
    if len(D) > 1:
        xsp = _root_span(rs, P.simples)
        ysp = _root_span(rs, Q.simples)
        mid_space = SpaceRestriction(rs, mid.pairs) if mid.dim else None
        for role, space in (("x_perp", xsp), ("x_cap_y", mid_space), ("y_perp", ysp)):
            if space is not None and space.dim:
                tables[role] = space.restrictions(D)

    # B fixes X n Y pointwise: all of D when X n Y = 0 or D = 1
    B = D if tables["x_cap_y"] is None else [
        d for d in D if tables["x_cap_y"][d.key][0] == mid_space.identity]
    ab_keys = {(a * b).key for a in A for b in B}
    if len(ab_keys) != len(A) * len(B):
        raise RuntimeError("A and B do not intersect trivially")
    if len(ab_keys) == len(D):
        C = [identity(rs)]
    else:
        if len(D) != 2 * len(ab_keys):
            raise RuntimeError("A x B has index > 2 in D; complement search failed")
        cands = [d for d in D if d.key not in ab_keys and d.is_involution()]
        if not cands:
            raise RuntimeError("no involution completes A x B to D")
        C = [identity(rs), cands[0]]

    # closure data
    perpQ = orthogonal_complement(Q)
    closure_index = catalog.class_of_roots(perpQ.roots)
    pq_closure = pointwise_stabilizer(rs, mid)  # Fix(PQ) = X n Y
    pq_idx = catalog.class_of_roots(pq_closure.roots)
    pq_is_pq = len(pq_closure.roots) == len(P.roots) + len(Q.roots)
    pq_is_w = len(pq_closure.roots) == rs.nroots

    # asterisk: the longest element of P acts as -1 on the span of its roots
    asterisk = subsystem_longest_element(rs, P).negates(P.pos)

    cell_x = _action_cell(rs, "x_perp", P, p_order * len(D), xperp.dim,
                          xsp, tables["x_perp"])
    cell_m = _action_cell(rs, "x_cap_y", ReflectionSubgroup(rs, ()), len(D) // len(B),
                          mid.dim, mid_space, tables["x_cap_y"])
    cell_y = _action_cell(rs, "y_perp", Q, q_order * len(D) // len(A), yperp.dim,
                          ysp, tables["y_perp"])
    AB = [a * b for a in A for b in B]
    a_name = _format_subgroup(*_name_and_marker(
        "A", A, {r: tables[r] for r in ("x_perp", "x_cap_y")}, B=B, AB=AB))
    b_name = _format_subgroup(*_name_and_marker(
        "B", B, {r: tables[r] for r in ("x_perp", "y_perp")}))
    c_name = _format_subgroup(*_name_and_marker("C", C, tables))

    dec = Decomposition(
        rs=rs, shape=shape, P=P, Q=Q, q_index=q_index, n_order=n_order,
        D=D, A=A, B=B, C=C, a_name=a_name, b_name=b_name, c_name=c_name,
        closure_index=closure_index, pq_closure_index=pq_idx,
        pq_closure_is_pq=pq_is_pq, pq_closure_is_w=pq_is_w,
        actions={"x_perp": cell_x, "x_cap_y": cell_m, "y_perp": cell_y},
        involution_centralizer=asterisk,
        spaces=(xperp, mid, yperp),
    )
    _validate(dec)
    return dec


def _validate(dec: Decomposition):
    rs = dec.rs
    if dec.n_order != dec.p_order * dec.q_order * len(dec.D):
        raise RuntimeError("|N| != |P||Q||D|")
    if len(dec.D) != len(dec.A) * len(dec.B) * len(dec.C):
        raise RuntimeError("|D| != |A||B||C|")
    # D normalizes P and Q and preserves the positive system of PQ
    p_roots, q_roots = dec.P.roots, dec.Q.roots
    pq_pos = sorted(set(dec.P.pos) | set(dec.Q.pos))
    for d in dec.D:
        if any(int(d.img[i]) not in p_roots for i in dec.P.pos):
            raise RuntimeError("D does not normalize P")
        if any(int(d.img[i]) not in q_roots for i in dec.Q.pos):
            raise RuntimeError("D does not normalize Q")
        if relative_length(d, pq_pos):
            raise RuntimeError("D is not relative-length-zero")


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
    ab = {(a * b).key: a * b for a in dec.A for b in dec.B}
    pq = ReflectionSubgroup(rs, dec.P.roots | dec.Q.roots)
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
