"""Involution centralizers as parabolic normalizers.

An involution u negates the roots lying in its (-1)-eigenspace; the parabolic
generated by the reflections in those roots is the pointwise stabilizer of
Fix(u), and the centralizer of u coincides with the normalizer of that
parabolic.  The involution classes of W correspond to the shapes marked with
an asterisk in the decomposition tables: those whose representative's longest
element acts as -1 on the span of its roots (Richardson 1982).  That is read
off the opposition sigma_C of the representative's components
(``SubsetGroupoid.longest_is_minus_one``), as ``decompose`` reads its
asterisk, and so is whether -1 lies in W; a longest element is made only
for a record's involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .galois import orthogonal_complement, perp_map, pq_map
from .groups import GroupElement
from .normalizer import normalizer_order_at
from .parabolic import ReflectionSubgroup, shape_catalog, subset_groupoid


def negated_roots(u: GroupElement):
    return frozenset(np.flatnonzero(u.img == u.rs.negation).tolist())


def fixed_parabolic(u: GroupElement) -> ReflectionSubgroup:
    """The parabolic whose root system is the set of roots negated by u."""
    if not u.is_involution():
        raise ValueError("element is not an involution")
    return ReflectionSubgroup(u.rs, negated_roots(u))


@dataclass
class InvolutionRecord:
    element: GroupElement
    degree: int
    shape_index: int
    parabolic: ReflectionSubgroup   # the shape's representative, fixed by element

    @cached_property
    def centralizer_order(self) -> int:
        """|C_W(u)| = |N_W(P)|, read at the record's own shape on first read."""
        return normalizer_order_at(shape_catalog(self.element.rs), self.shape_index)


def involution_class_representatives(rs):
    """One involution per conjugacy class: the longest elements of the marked shapes.

    Every involution of a finite reflection group is the longest element of
    the parabolic it determines, so the classes correspond exactly to the
    shapes whose normalizer is an involution centralizer (the identity
    corresponds to the trivial shape and is skipped).  A shape is marked when
    sigma_C is the identity on each component C of J; its w0(J) is then -1
    on span Delta_J and fixes its orthogonal complement, so its (-1)-space
    is span Delta_J and its degree is |J|.
    """
    groupoid = subset_groupoid(rs)
    return [InvolutionRecord(groupoid.longest_element(shape.rep_subset), len(shape.rep_subset),
                             shape.index, shape.parabolic)
            for shape in shape_catalog(rs)
            if shape.roots and groupoid.longest_is_minus_one(shape.rep_subset)]


def mark_involution_shapes(rs):
    """Indices of shapes whose normalizer is an involution centralizer."""
    return _marked(involution_class_representatives(rs))


def _marked(records):
    # the trivial parabolic comes from the identity involution
    return sorted({1, *(rec.shape_index for rec in records)})


def has_central_minus_one(rs) -> bool:
    """Does -1 lie in W: is w0 of W -1 on the span of all simple roots?"""
    return subset_groupoid(rs).longest_is_minus_one(range(rs.n))


def section8_checks(rs) -> dict:
    """The observation suite: per-bullet pass/fail with witnesses.

    Complements and closures are read off the catalog's map perp on shapes,
    and the classes of the closures of P perp(P) off its ``galois.PQMap``.
    """
    catalog = shape_catalog(rs)
    groupoid = subset_groupoid(rs)
    records = involution_class_representatives(rs)
    marked = set(_marked(records))
    perp = perp_map(catalog).index
    closure_of = {i: perp[j] for i, j in perp.items()}
    closed = {i for i, c in closure_of.items() if c == i}
    minus_one = has_central_minus_one(rs)
    report = {"group": str(rs.label), "minus_one_central": minus_one, "checks": {}}

    def record(name, ok, witness=None):
        report["checks"][name] = {"ok": ok, "witness": witness}

    # at most one involution centralizer per closure group (all groups)
    per_group = {}
    bad = None
    for idx in marked:
        g = closure_of[idx]
        per_group.setdefault(g, []).append(idx)
    for g, members in per_group.items():
        if len(members) > 1:
            bad = (g, members)
    record("at_most_one_per_closure_group", bad is None, bad)

    if minus_one:
        # involution centralizers are exactly the orthogonally closed shapes
        # in type B; in general (with -1 central) they are closed, and the
        # complement of a marked shape is marked
        not_closed = sorted(marked - closed)
        record("centralizers_closed", not_closed == [], not_closed or None)
        bad = [i for i in marked if perp[i] not in marked]
        record("complement_marked", bad == [], bad or None)
        if rs.label.family == "B":
            extra = sorted(closed - marked)
            record("closed_iff_centralizer", extra == [], extra or None)
        # w0 central and P closed implies the closure of PQ is W, the last class
        pq = pq_map(catalog).index
        bad = next((i for i in sorted(closed) if pq[i] != len(catalog)), None)
        record("closed_implies_pq_closure_full", bad is None, bad)

        # fixed parabolic of -u is the orthogonal complement of that of u
        negation = GroupElement(rs, rs.negation.astype(np.int16))
        bad = None
        for rec in records:
            u = rec.element
            minus_u = u * negation
            P_u = fixed_parabolic(u)
            P_mu = fixed_parabolic(minus_u)
            if P_mu.roots != orthogonal_complement(P_u).roots:
                bad = rec.shape_index
                break
        record("minus_u_complement", bad is None, bad)

    # longest element of a marked P is conjugate to that of its closure
    bad = None
    for idx in sorted(marked):
        shape = catalog[idx]
        cl = catalog[closure_of[idx]]
        if not shape.roots:
            if cl.roots:
                bad = idx
                break
            continue
        u = groupoid.longest_element(shape.rep_subset)
        v = groupoid.longest_element(cl.rep_subset)
        # involutions are conjugate iff their fixed parabolics are
        iu = catalog.class_of_roots(negated_roots(u))
        iv = catalog.class_of_roots(negated_roots(v))
        if iu != iv:
            bad = (idx, iu, iv)
            break
    record("longest_element_conjugate_to_closure", bad is None, bad)

    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report
