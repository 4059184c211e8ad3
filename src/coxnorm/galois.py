"""The orthogonality Galois connection on parabolic subgroups.

Two distinct reflections are orthogonal iff they commute iff their roots are
perpendicular.  The orthogonal complement of a reflection subgroup U is the
subgroup generated by all reflections orthogonal to every reflection of U;
it is always parabolic, and U -> perp(U) is a Galois connection whose closure
operator is perp(perp(.)).  A pair of mutually complementary orthogonally
closed parabolics is a parabolic concept.

Orthogonality is the root system's boolean table (row j marks the roots
the reflection in root j fixes), the same for every family, so the
complement of U is one row reduction: the roots marked in every row of U's
positive roots.  The commutation characterization lives in the oracle
module as an independent cross-check that never reads the table.

perp commutes with conjugation (Howlett 1980), so on classes it is a map on
shape indices, computed once per shape on first use and kept with the
catalog; the closure class of shape i is perp(perp(i)).  The class of the
parabolic closure of P perp(P) is kept the same way.
"""

from __future__ import annotations

import numpy as np

from .parabolic import (ReflectionSubgroup, orthogonal_join, parabolic_closure,
                        shape_catalog)


def orthogonal_complement(U: ReflectionSubgroup) -> ReflectionSubgroup:
    """Parabolic generated by all reflections orthogonal to every reflection of U."""
    fixed = U.rs.orthogonality[list(U.pos)].all(axis=0)
    return ReflectionSubgroup(U.rs, np.flatnonzero(fixed).tolist())


def orthogonal_closure(P: ReflectionSubgroup) -> ReflectionSubgroup:
    """perp(perp(P)); contains P, idempotent."""
    return orthogonal_complement(orthogonal_complement(P))


def perp_of_shape(catalog, i: int):
    """(perp(P), its class) for P shape i's representative; computed once per
    shape, on first use.  Callers must not mutate perp(P)."""
    hit = catalog.perp.get(i)
    if hit is None:
        Q = orthogonal_complement(catalog[i].parabolic)
        j = catalog.class_of_roots(Q.roots)
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
        catalog.pq_closure[i] = catalog.class_of_roots(parabolic_closure(PQ).roots)
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
    below = {s.index: set() for s in catalog}  # strictly contained classes
    for s in catalog:
        rep = s.rep_subset
        seen = set()
        for mask in range(1 << len(rep)):
            subset = tuple(rep[k] for k in range(len(rep)) if mask >> k & 1)
            idx = catalog.class_of_subset(subset)
            if idx != s.index:
                seen.add(idx)
        below[s.index] = seen
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
