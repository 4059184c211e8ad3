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

perp commutes with conjugation (Howlett 1980), so on classes it is one map
on shape indices per catalog (``PerpMap``): ``perp_map`` computes it for
every shape's representative P on first read, as one stack, and keeps it
with the catalog.  That stack is one boolean product for the complements,
one ``classes_of`` for their classes, read at generic points of the spans
of the Delta_P (perp(P) fixes span(Delta_P) pointwise; the signs of the rows
the class cache misses are one gather, ``stacked_span_signs``, and one
``dominant_descent``), and one product for their simple systems
(``diagrams.simple_masks``).  The orthogonal closure of shape i is
perp(perp(i)), two reads of the map; concepts, the closure graph and
|N| read nothing else.

The parabolic closure of P perp(P) is a second map per catalog
(``PQMap``), which ``pq_map`` computes for every shape as one stack
(``pq_closures``): the simple roots projected onto Fix(P perp(P)), the
orbit sums of a Coxeter element of Delta_P u Delta_perp(P), the positive
roots' forms on them (a copy per shape), and the roots
and class of the closure, read at the projections' lexicographic signs; no
elimination runs.  A set of n roots sums no orbit: its Fix(P perp(P)) is 0
and its closure W.  Every decomposition and the section-8 suite read the
map (``pq_closure``), but for a full set or a parabolic that is not its
class's representative, which are one-row stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagrams import simple_masks
from .parabolic import ReflectionSubgroup, root_masks, shape_catalog, subset_groupoid


def perp_masks(rs, masks):
    """The complements of a stack of root sets, as boolean masks of shape (k, nroots)."""
    return ~(masks[:, : rs.npos] @ ~rs.orthogonality)


def orthogonal_complement(U: ReflectionSubgroup) -> ReflectionSubgroup:
    """Parabolic generated by all reflections orthogonal to every reflection of U."""
    mask = perp_masks(U.rs, root_masks(U.rs, [U.roots]))[0]
    return ReflectionSubgroup(U.rs, np.flatnonzero(mask).tolist())


def orthogonal_closure(P: ReflectionSubgroup) -> ReflectionSubgroup:
    """perp(perp(P)); contains P, idempotent."""
    return orthogonal_complement(orthogonal_complement(P))


@dataclass(frozen=True)
class PerpMap:
    """perp on the shapes of one catalog, for each shape i's representative P_i.

    ``index[i]`` is the class of perp(P_i), so the orthogonal closure of
    shape i is ``index[index[i]]``; ``complement[i]`` is perp(P_i) itself,
    typed as its shape (callers must not mutate it).
    """

    index: dict
    complement: dict


def complements(catalog, parabolics):
    """perp(P) and its class for each standard parabolic P of the list, as
    one stack (see the module docstring): two lists, the complements, each
    typed as its class's shape, and their classes.  One gather of
    ``rs.orthogonality`` checks every Delta_P orthogonal to Delta_perp(P)."""
    rs = catalog.rs
    perps = perp_masks(rs, root_masks(rs, [P.roots for P in parabolics]))
    classes = catalog.classes_of(
        perps, lambda miss: rs.stacked_span_signs([parabolics[r].simples for r in miss]))
    Qs = []
    for row, simples, j in zip(perps, simple_masks(rs, perps[:, : rs.npos]), classes):
        Q = ReflectionSubgroup(rs, np.flatnonzero(row).tolist())
        Q.simples = tuple(np.flatnonzero(simples).tolist())
        Q.components = catalog[j].components   # its shape's, not recognized again
        Qs.append(Q)
    pairs = [(a, b) for P, Q in zip(parabolics, Qs) for a in P.simples for b in Q.simples]
    if pairs and not rs.orthogonality[tuple(np.array(pairs).T)].all():
        raise RuntimeError("a simple root of P is not orthogonal to one of perp(P)")
    return Qs, classes


def perp_map(catalog) -> PerpMap:
    """The catalog's ``PerpMap``, computed for every shape as one stack on first read."""
    if catalog.perp is None:   # the shapes are indexed 1, 2, ... in catalog order
        Qs, classes = complements(catalog, [s.parabolic for s in catalog])
        catalog.perp = PerpMap(dict(enumerate(classes, 1)), dict(enumerate(Qs, 1)))
    return catalog.perp


def _full(rs, simples) -> bool:
    """Does Delta_P u Delta_perp(P) hold n roots (the full-set rule of ``pq_closures``)?"""
    return rs.is_vector and len(simples) == rs.n


def pq_closures(catalog, parabolics, perps):
    """The parabolic closure of P perp(P) for each standard parabolic P of
    the list, with perp(P) from ``perps`` (``complements``), as one stack:
    the projections, the root forms on them, the closures' root masks
    (k, nroots) and their classes.

    The projections and forms are what ``rs.fixed_projections`` gives for
    Delta_P u Delta_perp(P): the nonzero projections of the simple roots,
    pair rows spanning Fix(P perp(P)), or its ``I2Subspace`` in type I2; the
    closure's roots are those vanishing at their signs, and its class is read
    there (one ``classes_of``).  The full-set rule: a set of n roots, two
    orthogonal independent sets, spans the space, so Fix(P perp(P)) = 0,
    its projections and forms are empty and its closure is W, the last
    class, with no orbit summed and no class looked up.  Type I2 keeps its
    index formula.
    """
    rs = catalog.rs
    sets = [P.simples + Q.simples for P, Q in zip(parabolics, perps)]
    projections = [(np.zeros((0, rs.n), dtype=np.int64),) * 2] * len(sets)
    forms = [np.zeros((rs.npos, 0), dtype=np.int64)] * len(sets)
    closures = np.ones((len(sets), rs.nroots), dtype=bool)
    classes = [len(catalog)] * len(sets)
    rest = [r for r, s in enumerate(sets) if not _full(rs, s)]
    if rest:
        found, on_roots, signs = rs.fixed_projections([sets[r] for r in rest])
        closures[rest] = signs == 0
        for r, x, f, j in zip(rest, found, on_roots, catalog.classes_of(closures[rest], signs)):
            projections[r], forms[r], classes[r] = x, f, j
    return projections, forms, closures, classes


@dataclass(frozen=True)
class PQMap:
    """The closure of P_i perp(P_i) for each shape i's representative P_i,
    as its row of ``pq_closures`` (callers must not mutate them)."""

    projections: dict
    forms: dict
    roots: dict
    index: dict


def pq_map(catalog) -> PQMap:
    """The catalog's ``PQMap``, computed for every shape as one stack on first read."""
    if catalog.pq is None:
        perp = perp_map(catalog)
        rows = pq_closures(catalog, [s.parabolic for s in catalog],
                           [perp.complement[s.index] for s in catalog])
        catalog.pq = PQMap(*(dict(enumerate(column, 1)) for column in rows))
    return catalog.pq


def pq_closure(catalog, P, Q, i=None):
    """``pq_closures``'s row for P with perp(P) = Q: shape i's representative
    reads the ``PQMap``; any other P, and a full set (so that a full row
    fills no map), is the one-row stack."""
    if i is None or _full(catalog.rs, P.simples + Q.simples):
        return tuple(column[0] for column in pq_closures(catalog, [P], [Q]))
    pq = pq_map(catalog)
    return pq.projections[i], pq.forms[i], pq.roots[i], pq.index[i]


def parabolic_concepts(rs):
    """All parabolic concepts up to conjugacy, as shape index pairs (i <= j).

    A concept is a pair of shapes whose representatives are mutual orthogonal
    complements, both orthogonally closed.  Each unordered pair is listed
    once, with the smaller catalog index on the left.
    """
    perp = perp_map(shape_catalog(rs)).index
    return sorted((i, j) for i, j in perp.items() if perp[j] == i and i <= j)


def shape_closure_graph(rs):
    """Shape poset Hasse diagram plus closure edges.

    Returns a dict with nodes (index, label, closed flag), hasse edges
    (i covers j, i above), and closure edges (i -> closure of i) for the
    non-closed shapes.
    """
    catalog = shape_catalog(rs)
    perp = perp_map(catalog).index
    groupoid = subset_groupoid(rs)
    # the class of every subset mask; below a shape, those of the subsets of its J
    classes = np.array([catalog.class_of_subset(rep) for rep in groupoid.representatives])
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
        c = perp[perp[s.index]]
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
