"""Coxeter diagram recognition: simple systems, bonds, and type classification.

A subsystem of a root system is given by a closed set of root indices.  Its
simple system is extracted by the standard criterion (a positive root is
simple iff its reflection keeps the other positives of the subsystem
positive), bond orders are read off the Gram form of the simple roots, and
``diagram_of_bonds`` matches the bond matrix against the classification.
It is the one classifier: a reflection subgroup's type and the normalizer's
action cells (``actions.LineTable``, which tests each pair of lines once
per root system, in Python ints) both go through it, and it keeps the
names of each bond matrix it classifies.  B and C diagrams are not
distinguished; the rank-2 types with bonds 4, 5, 6 print as B2, H2, G2.

The bonds come from the Gram form by one bond rule: ``gram_bonds`` applies
it to a whole Gram matrix, and ``pair_bond`` to one pair of reflection
lines, from the same table of ratios.  A standard parabolic's roots are
read off the root supports (``parabolic.standard_parabolic``);
``close_root_masks`` closes any stack of generating sets at once, as one
fixpoint of gathers.  The simple systems of a stack of closed subsystems
are one boolean product (``simple_masks``), of which
``parabolic.ReflectionSubgroup.simples`` is the one-row case.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .labels import component_order, rank2_name
from .linalg import exact_mul, pair_mul


def close_root_masks(rs, masks):
    """Root masks (k, nroots) of the reflection subgroups generated by the
    roots of each row of a stack.

    Each row, with the negatives of its roots, is closed under the
    reflections in its own roots: every root g held by some row maps the
    rows holding it onto their images under r_g, one gather of those rows,
    and the pass repeats until no row grows.  Only ``rs.reflection_perms``
    is read.
    """
    perms = rs.reflection_perms[: rs.npos, : rs.nroots]
    closed = masks | masks[:, rs.negation]
    grown = True
    while grown:
        grown = False
        held = closed[:, : rs.npos]   # a row holds a root iff it holds its negative
        for g in np.flatnonzero(held.any(axis=0)):
            rows = np.flatnonzero(held[:, g])
            sub = closed[rows]
            image = sub | sub[:, perms[g]]
            if (image != sub).any():
                closed[rows] = image
                grown = True
    return closed


def positive_part(rs, roots):
    return tuple(sorted(i for i in roots if i < rs.npos))


def simple_masks(rs, pos):
    """Simple systems of a stack of closed subsystems, as masks (k, npos) of
    their positive roots ``pos`` (k, npos).

    Root b is simple iff its reflection sends no other root of its row
    negative; a subsystem is closed, so no image leaves it.  With
    ``rs.sends_negative`` as K, that is one boolean product: pos & ~(pos K^T).
    """
    return pos & ~(pos @ rs.sends_negative.T)


# 2r for the ratios r = 4cos^2(k*pi/m), gcd(k, m) = 1, of the bonds m that
# occur, as integer pairs p + q*sqrt5: r = 4 for parallel rows (r_a r_a = 1),
# both 5-bond values and both 10-bond values
_BONDS = np.array([1, 3, 4, 6, 5, 5, 10, 10], dtype=np.int8)
_BOND_TWICE_RATIO = (np.array([8, 2, 4, 6, 3, 3, 5, 5])[:, None, None],
                     np.array([0, 0, 0, 0, 1, -1, 1, -1])[:, None, None])


def gram_bonds(G):
    """Orders of the products r_a r_b of reflections, from the Gram matrix G of
    their rows, as integer pairs under any positive multiple of the form.

    r_a r_b has order m where 4cos^2 of the angle between a and b is r(m),
    that is, where 8 G_ab^2 = 2r(m) G_aa G_bb; orthogonal rows give 2 and
    parallel rows, the diagonal among them, 1.  An entry that no bond
    matches is 0.
    """
    d = (np.diagonal(G[0]), np.diagonal(G[1]))
    square = pair_mul(pair_mul((8, 0), G), G)
    norms = pair_mul((d[0][:, None], d[1][:, None]), d)
    rhs = pair_mul(_BOND_TWICE_RATIO, norms)
    hits = (square[0] == rhs[0]) & (square[1] == rhs[1])   # distinct ratios: one hit at most
    return np.where(hits.any(axis=0), _BONDS[hits.argmax(axis=0)],
                    np.where((G[0] == 0) & (G[1] == 0), 2, 0)).astype(np.int8)


_RATIOS = list(zip(_BONDS.tolist(), zip(_BOND_TWICE_RATIO[0].ravel().tolist(),
                                        _BOND_TWICE_RATIO[1].ravel().tolist())))


def pair_bond(g, norm_a, norm_b):
    """``gram_bonds`` for one pair of rows, in Python ints: the order of r_a r_b
    from G_ab and the norms G_aa and G_bb, each a pair p + q*sqrt5."""
    if not any(g):
        return 2
    square = exact_mul((8 * g[0], 8 * g[1]), g)
    norms = exact_mul(norm_a, norm_b)
    return next((m for m, ratio in _RATIOS if exact_mul(ratio, norms) == square), 0)


def _classify_component(nodes, adj):
    """Name one connected component of a Coxeter graph."""
    k = len(nodes)
    if k == 1:
        return "A1"
    if k == 2:
        i, j = nodes
        return rank2_name(adj[i].get(j, 2))
    degrees = {i: len(adj[i]) for i in nodes}
    branch = [i for i in nodes if degrees[i] >= 3]
    bonds = sorted(m for i in nodes for j, m in adj[i].items() if i < j)
    if branch:
        if len(branch) > 1 or degrees[branch[0]] > 3 or any(m != 3 for m in bonds):
            raise ValueError("unclassifiable branched diagram")
        b = branch[0]
        arms = []
        for start in adj[b]:
            ln, prev, cur = 1, b, start
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                ln += 1
            arms.append(ln)
        arms.sort()
        if arms[:2] == [1, 1]:
            return f"D{k}"
        if arms == [1, 2, 2]:
            return "E6"
        if arms == [1, 2, 3]:
            return "E7"
        if arms == [1, 2, 4]:
            return "E8"
        raise ValueError(f"unclassifiable fork with arms {arms}")
    # a path; read the bond orders along it
    ends = [i for i in nodes if degrees[i] == 1]
    if len(ends) != 2:
        raise ValueError("diagram is not a path or fork")
    path = [ends[0]]
    prev = None
    while len(path) < k:
        cur = path[-1]
        nxt = [x for x in adj[cur] if x != prev]
        prev = cur
        path.append(nxt[0])
    orders = [adj[path[i]][path[i + 1]] for i in range(k - 1)]
    if all(m == 3 for m in orders):
        return f"A{k}"
    special = [(i, m) for i, m in enumerate(orders) if m != 3]
    if len(special) != 1:
        raise ValueError(f"unclassifiable path with bonds {orders}")
    pos, m = special[0]
    at_end = pos in (0, k - 2)
    if m == 4 and at_end:
        return f"B{k}"
    if m == 4 and k == 4:
        return "F4"
    if m == 5 and at_end and k in (3, 4):
        return f"H{k}"
    raise ValueError(f"unclassifiable path with bonds {orders}")


def component_nodes(adj):
    """Connected components of the graph, each as a sorted node list."""
    left = set(adj)
    comps = []
    while left:
        start = min(left)
        comp = {start}
        frontier = [start]
        while frontier:
            new = []
            for i in frontier:
                for j in adj[i]:
                    if j not in comp:
                        comp.add(j)
                        new.append(j)
            frontier = new
        left -= comp
        comps.append(sorted(comp))
    return comps


def diagram_of_bonds(bonds):
    """Component type names (sorted) of the Coxeter diagram with the given
    k x k matrix of bond orders, as nested lists of ints; an entry below 3
    is no edge.  A matrix is classified once, unless it raises."""
    return _classify(tuple(map(tuple, bonds)))


@cache
def _classify(bonds):
    adj = {a: {b: m for b, m in enumerate(row) if m >= 3} for a, row in enumerate(bonds)}
    names = [_classify_component(c, adj) for c in component_nodes(adj)]
    return tuple(sorted(names, key=_component_sort_key))


def _component_sort_key(name):
    if name.startswith("I2("):
        return (-2, "I", int(name[3:-1]))
    return (-int(name[1:]), name[0], 0)


def components_string(names):
    """Canonical printed form of a component multiset, e.g. A3A1^2."""
    if not names:
        return "∅"
    out = []
    i = 0
    names = sorted(names, key=_component_sort_key)
    while i < len(names):
        j = i
        while j < len(names) and names[j] == names[i]:
            j += 1
        out.append(names[i] + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return "".join(out)


def components_order(names):
    n = 1
    for name in names:
        n *= component_order(name)
    return n
