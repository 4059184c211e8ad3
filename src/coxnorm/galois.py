"""The orthogonality Galois connection on parabolic subgroups.

Two distinct reflections are orthogonal iff they commute iff their roots are
perpendicular.  The orthogonal complement of a reflection subgroup U is the
subgroup generated by all reflections orthogonal to every reflection of U;
it is always parabolic, and U -> perp(U) is a Galois connection whose closure
operator is perp(perp(.)).  A pair of mutually complementary orthogonally
closed parabolics is a parabolic concept.

Orthogonality is the root system's boolean table (row j marks the roots
the reflection in root j fixes), the same for every family.  A root is
outside perp(U) iff some positive root of U is not orthogonal to it, so
``perp_masks`` takes the complements of a stack of root masks in one boolean
product with the negated table; one subgroup's complement is its one-row
case.  The commutation characterization lives in the oracle module as an
independent cross-check that never reads the table.

perp commutes with conjugation (Howlett 1980), so on classes it is a map on
shape indices, computed once per shape on first use and kept with the
catalog; the closure class of shape i is perp(perp(i)).  perp(W_J) fixes
the span of J's simple roots pointwise, so its class is read at a generic
point of that span, with no elimination.  The class of the parabolic closure
of P perp(P) is kept the same way, read at a generic point of Fix(P perp(P)).
"""

from __future__ import annotations

import numpy as np

from .parabolic import (ReflectionSubgroup, fixed_space, orthogonal_join, shape_catalog,
                        subset_groupoid)


def perp_masks(rs, masks):
    """The complements of a stack of root sets, as boolean masks of shape (k, nroots)."""
    return ~(masks[:, : rs.npos] @ ~rs.orthogonality)


def orthogonal_complement(U: ReflectionSubgroup) -> ReflectionSubgroup:
    """Parabolic generated by all reflections orthogonal to every reflection of U."""
    mask = np.zeros((1, U.rs.nroots), dtype=bool)
    mask[0, list(U.roots)] = True
    return ReflectionSubgroup(U.rs, np.flatnonzero(perp_masks(U.rs, mask)[0]).tolist())


def orthogonal_closure(P: ReflectionSubgroup) -> ReflectionSubgroup:
    """perp(perp(P)); contains P, idempotent."""
    return orthogonal_complement(orthogonal_complement(P))


def perp_of_shape(catalog, i: int):
    """(perp(P), its class) for P shape i's representative; computed once per
    shape, on first use.  Callers must not mutate perp(P)."""
    hit = catalog.perp.get(i)
    if hit is None:
        P = catalog[i].parabolic
        Q = orthogonal_complement(P)
        j = catalog.class_of_roots(Q.roots, lambda: catalog.rs.span_signs(P.simples))
        Q.components = catalog[j].components   # its shape's, not recognized again
        hit = catalog.perp[i] = (Q, j)
    return hit


def perp_index(catalog, i: int) -> int:
    """Catalog index of the orthogonal complement of shape i."""
    return perp_of_shape(catalog, i)[1]


def pq_closure_index(catalog, i: int) -> int:
    """Catalog index of the parabolic closure of P perp(P), P shape i's
    representative; computed once per shape, on first use."""
    if i not in catalog.pq_closure:
        PQ = orthogonal_join(catalog[i].parabolic, perp_of_shape(catalog, i)[0])
        signs = catalog.rs.signs_at(fixed_space(PQ))
        catalog.pq_closure[i] = catalog.class_of_roots(np.flatnonzero(signs == 0).tolist(),
                                                       signs)
    return catalog.pq_closure[i]


def parabolic_concepts(rs):
    """All parabolic concepts up to conjugacy, as shape index pairs (i <= j).

    A concept is a pair of shapes whose representatives are mutual orthogonal
    complements, both orthogonally closed.  Each unordered pair is listed
    once, with the smaller catalog index on the left.
    """
    catalog = shape_catalog(rs)
    out = []
    for s in catalog:
        i, j = s.index, perp_index(catalog, s.index)
        if perp_index(catalog, j) == i and i <= j:
            out.append((i, j))
    return sorted(out)


def shape_closure_graph(rs):
    """Shape poset Hasse diagram plus closure edges.

    Returns a dict with nodes (index, label, closed flag), hasse edges
    (i covers j, i above), and closure edges (i -> closure of i) for the
    non-closed shapes.
    """
    catalog = shape_catalog(rs)
    groupoid = subset_groupoid(rs)
    # the class of every subset mask; below a shape, those of the subsets of its J
    classes = np.array([catalog.class_of_subset(c[0]) for c in groupoid.components])
    classes = classes[groupoid.component_of_mask]
    masks = np.arange(len(classes))
    below = {s.index: set(classes[(masks & ~sum(1 << k for k in s.rep_subset)) == 0].tolist())
             - {s.index} for s in catalog}   # strictly contained classes
    hasse = []
    for s in catalog:
        covered = set(below[s.index])
        for j in below[s.index]:
            covered -= below[j]
        for j in sorted(covered):
            hasse.append((s.index, j))
    closure = {}
    for s in catalog:
        c = perp_index(catalog, perp_index(catalog, s.index))
        if c != s.index:
            closure[s.index] = c
    nodes = [{"index": s.index, "label": s.label,
              "closed": s.index not in closure} for s in catalog]
    return {"nodes": nodes, "hasse": sorted(hasse), "closure": sorted(closure.items())}


def graph_to_dot(graph) -> str:
    lines = ["digraph shapes {"]
    for node in graph["nodes"]:
        shape = "box" if node["closed"] else "ellipse"
        lines.append(f'  n{node["index"]} [label="{node["label"]}", shape={shape}];')
    for i, j in graph["hasse"]:
        lines.append(f"  n{i} -> n{j} [style=solid, arrowhead=none, kind=hasse];")
    for i, j in graph["closure"]:
        lines.append(f"  n{i} -> n{j} [style=bold, color=blue, kind=closure];")
    lines.append("}")
    return "\n".join(lines)
