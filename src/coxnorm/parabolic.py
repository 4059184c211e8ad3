"""Reflection subgroups, fixed spaces, parabolic closure, and shapes.

A reflection subgroup is stored by its closed set of roots.  Being
parabolic is a property such a subgroup may have, not a second type: a
parabolic subgroup is a ``ReflectionSubgroup`` whose witness, the subspace
it fixes pointwise, is the common fixed space of its reflections, computed
on first use.  Spans, fixed spaces and signs at a generic point come from
the root system, so nothing here branches on the family.  The shape
catalog lists one entry per conjugacy class of parabolic subgroups, ordered
by (rank, group order, label); indices are 1-based.  The classes are the
components of the subset groupoid on the subsets of the simple reflections,
whose edges are read off the opposition of connected subdiagrams with bit
operations: its set-up makes one group element per connected subset, w0 of
it, replaying steps kept per Coxeter matrix, and labels the components in
array passes over the edge targets.  A walk of a component follows the
simple roots on index tuples, and the elements of the edges are made only
for the loops a caller asks for.

Classical labels follow the partition transversal: type A uses partitions of
the point count; types B and D use a sign-change block B_l / D_l plus a
partition of the permuted points, with D2 and D3 kept as block labels.  Even
partitions of n in type D give two classes, distinguished as "+" and "-";
"+" is the class containing the representative built on consecutive chain
nodes starting at the first one.  Non-conjugate classes with equal type
strings in the exceptional groups are distinguished by primes in catalog
order of their representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diagrams import (components_order, components_string, diagram_of_bonds, positive_part,
                       simple_masks)
from .groups import GroupElement, identity, parabolic_longest_element


class ReflectionSubgroup:
    """A subgroup generated by reflections, stored by its closed root set.

    A caller that knows its simple roots or its type (a shape's) sets
    ``simples`` or ``components``, so they are not derived again.
    """

    def __init__(self, rs, roots):
        self.rs = rs
        self.roots = frozenset(roots)
        self.pos = positive_part(rs, self.roots)

    @cached_property
    def simples(self):
        """The simple roots: the one-row case of ``diagrams.simple_masks``."""
        row = np.zeros((1, self.rs.npos), dtype=bool)
        row[0, list(self.pos)] = True
        return tuple(np.flatnonzero(simple_masks(self.rs, row)[0]).tolist())

    @cached_property
    def components(self):
        """Coxeter type: the diagram of the bonds among the simple roots."""
        simples = self.simples
        return diagram_of_bonds([[self.rs.bond(i, j) for j in simples] for i in simples])

    @cached_property
    def witness(self):
        """The subspace fixed pointwise: the common fixed space of the reflections."""
        return fixed_space(self)

    @property
    def order(self):
        return components_order(self.components)

    def simple_reflections(self):
        return [self.rs.reflection(i) for i in self.simples]

    def key(self):
        return (self.rs.label, self.roots)

    def __eq__(self, other):
        return isinstance(other, ReflectionSubgroup) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ReflectionSubgroup({self.rs.label}, {components_string(self.components)})"


def fixed_space(U: ReflectionSubgroup):
    """Common fixed space of a reflection subgroup (intersection of its walls).

    The simple roots span the same space as all the roots, with fewer rows.
    """
    return U.rs.fixed_space(U.simples)


def pointwise_stabilizer(rs, X) -> ReflectionSubgroup:
    """Parabolic subgroup fixing the subspace X pointwise: the roots vanishing on X."""
    return ReflectionSubgroup(rs, np.flatnonzero(rs.signs_at(X) == 0).tolist())


def parabolic_closure(U: ReflectionSubgroup) -> ReflectionSubgroup:
    """Smallest parabolic subgroup containing U."""
    return pointwise_stabilizer(U.rs, fixed_space(U))


def standard_parabolic(rs, subset) -> ReflectionSubgroup:
    """W_J: the one-row case of ``standard_parabolics``."""
    return standard_parabolics(rs, [subset])[0][0]


def standard_parabolics(rs, subsets):
    """(subgroups, masks): W_J of each subset J and the root masks, shape
    (k, nroots), of them, one comparison of the root supports with the
    subsets' bitmasks.  The roots of W_J are the roots whose support lies
    in J, its simple roots those of J."""
    masks = (rs.supports & ~np.array([_mask(J) for J in subsets], dtype=np.int64)[:, None]) == 0
    subgroups = []
    for J, row in zip(subsets, masks):
        P = ReflectionSubgroup(rs, np.flatnonzero(row).tolist())
        P.simples = tuple(rs.simple_roots[i] for i in sorted(set(J)))
        subgroups.append(P)
    return subgroups, masks


# ---------------------------------------------------------------------------
# Shapes


@dataclass(frozen=True)
class Shape:
    """One conjugacy class of parabolic subgroups, held by its representative.

    The representative is the standard W_J of ``rep_subset``.  Its roots,
    type and simple roots are read through ``parabolic``, which callers
    share and must not mutate.
    """

    index: int                    # 1-based position in the catalog
    rep_subset: tuple             # simple indices J of the standard representative
    parabolic: ReflectionSubgroup  # the representative W_J
    label: str                    # full label incl. primes/sign and partition
    type_label: str               # label without the partition suffix
    block: tuple | None = None    # ("B"|"D", l) for classical types
    partition: tuple | None = None
    decoration: str = ""          # "", "'", "''", "+", "-"

    @property
    def roots(self) -> frozenset:
        return self.parabolic.roots

    @property
    def components(self) -> tuple:
        """Diagram component names."""
        return self.parabolic.components

    @property
    def order(self) -> int:
        return self.parabolic.order

    @property
    def rank(self) -> int:
        return len(self.rep_subset)

    def __str__(self):
        return self.label


def _partition_string(parts):
    return "[" + " ".join(str(p) for p in parts) + "]"


def _decorated(type_str, decoration):
    if not decoration:
        return type_str
    composite = sum(1 for ch in type_str if ch.isupper()) > 1 or "^" in type_str
    if composite:
        return f"({type_str}){decoration}"
    return type_str + decoration


def _classical_transversal(rs):
    """(label data, subset) pairs for the classical partition transversal."""
    fam = rs.label.family
    n = rs.label.rank

    def partitions(k):
        def gen(k, mx):
            if k == 0:
                yield ()
                return
            for p in range(min(k, mx), 0, -1):
                for rest in gen(k - p, p):
                    yield (p,) + rest
        return list(gen(k, k))

    out = []
    if fam == "A":
        pts = n + 1
        for lam in partitions(pts):
            subset = _chain_subset(lam, 0)
            out.append((("A", 0, lam, ""), subset))
        return out
    pts = n
    if fam == "B":
        ms = range(0, n + 1)
    else:
        ms = [m for m in range(0, n + 1) if m != n - 1]
    for m in ms:
        block = tuple(range(m, n)) if m < n else ()
        for lam in partitions(m):
            subset = _chain_subset(lam, 0) + block
            if fam == "D" and m == n and lam and all(p % 2 == 0 for p in lam):
                out.append((("D", 0, lam, "+"), subset))
                minus = tuple(sorted(set(subset) - {n - 2} | {n - 1}))
                out.append((("D", 0, lam, "-"), minus))
            else:
                out.append(((fam, n - m, lam, ""), subset))
    return out


def _chain_subset(lam, start):
    """Chain nodes for parts placed consecutively from the given point."""
    nodes = []
    p = start
    for part in lam:
        nodes.extend(range(p, p + part - 1))
        p += part
    return tuple(nodes)


def _classical_label(fam, l, lam, decoration, n):
    ordered = [f"{fam}{l}"] if l > 0 else []
    ordered += [f"A{p - 1}" for p in sorted(lam, reverse=True) if p >= 2]
    out = []
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j] == ordered[i]:
            j += 1
        out.append(ordered[i] + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    type_str = "".join(out) if out else "∅"
    pts = n + 1 if fam == "A" else n
    full = tuple(sorted(lam, reverse=True)) + (1,) * (pts - l - sum(lam))
    type_dec = _decorated(type_str, decoration)
    label = f"{type_dec} {_partition_string(full)}"
    return type_dec, label, full


class SubsetGroupoid:
    """Conjugacy of standard parabolics, by elementary moves on subsets of S.

    The vertices are the subsets J of the simple indices, held as bitmasks.
    For s not in K there is one edge (K, s).  Let C be the connected
    component of s in the diagram of K u {s} and sigma_C = -w0(C) its
    opposition.  The edge carries nu = w0(C - {s}) w0(C) (w0(C - {s})
    applied first), which maps the simple roots of K onto those of the
    target K u {s} - {sigma_C(s)}: the other components of K u {s} commute
    with C, so w0(K) w0(K u {s}) reduces to nu.  W_J and W_J' are conjugate
    iff J and J' lie in one connected component, and the loops at J
    generate N_J = {w : w(Delta_J) = Delta_J}, with N_W(W_J) = W_J : N_J
    (Deodhar 1982; Howlett 1980; Brink-Howlett 1999).

    Set-up climbs w0(C) of every connected C, each from w0(C minus its
    largest member) by the steps ``_CLIMBS`` keeps for C's bond matrix,
    searched once per matrix; sigma_C is read off the images of C's simple
    roots, which must be negative simple roots.  It labels the components
    from the edge targets alone, in array passes: ``component_of_mask``
    gives each mask's component and ``representatives`` each component's
    least member, in the order of sorted index tuples (a prefix first),
    with no member listed per mask.  Every other w0(J),
    the product of the commuting w0 of J's components, and every nu are
    computed on first use and kept; callers must not mutate them.

    Set-up also keeps sigma_C of each connected C, so that an edge maps the
    simple roots of its vertex as a map of nodes (``_move``) and
    ``longest_is_minus_one`` answers whether w0(J) is -1 on span Delta_J
    with no w0(J) made; the edge targets gather it from one row per
    connected C.  ``walk`` follows a component on index tuples, and
    ``loop_elements`` makes the loops of chosen edges only.
    """

    def __init__(self, rs):
        self.rs = rs
        n = rs.n
        simple = list(rs.simple_roots)
        flip = np.full(rs.nroots, -1)   # per root, the node of its negative, or -1
        flip[rs.negation[simple]] = np.arange(n)
        self._neighbours = [   # per node, the mask of the nodes bonded to it
            sum(1 << j for j, m in enumerate(row) if m > 2) for row in rs.simple_bonds.tolist()]
        bonded = np.zeros(1 << n, dtype=np.int32)   # per mask, the nodes bonded to one of it
        for s, nb in enumerate(self._neighbours):
            bonded[1 << s: 2 << s] = bonded[: 1 << s] | nb
        masks = np.arange(1 << n, dtype=np.int32)[:, None]
        grown = masks | (1 << np.arange(n, dtype=np.int32))
        # entry (K, s): the component of s in K u {s}, grown from s
        comp = np.broadcast_to(1 << np.arange(n, dtype=np.int32), grown.shape)
        while True:
            step = comp | (bonded[comp] & grown)
            if (step == comp).all():
                break
            comp = step
        self._component = comp
        # w0(C) of each connected C, climbed from w0(C minus its largest member)
        self._longest = {0: identity(rs)}
        self._opposite = {}   # connected C -> {j: sigma_C(j)} on C's nodes
        connected = np.flatnonzero((comp == masks).any(axis=1))
        opposite = np.zeros((len(connected), n), dtype=np.int32)   # row r: the r-th C's sigma
        bonds = rs.simple_bonds.tolist()
        reflect = [rs.reflection_perm(i) for i in simple]
        for r, C in enumerate(connected.tolist()):
            members = _members(C, n)
            simples = [simple[i] for i in members]
            start = self._w0(C ^ 1 << members[-1], keep=False)
            key = tuple(tuple(bonds[i][j] for j in members) for i in members)
            if key not in _CLIMBS:   # a new matrix: climb by search, keeping the steps
                parabolic_longest_element(rs, simples, start, steps := [])
                _CLIMBS[key] = steps
            img = start.img
            for k in _CLIMBS[key]:
                img = img[reflect[members[k]]]
            w0 = GroupElement(rs, img)
            sigma = flip[w0.img[simples]].tolist()
            if min(sigma) < 0:
                raise RuntimeError(f"{rs.label}: the climb to w0 of "
                                   + ",".join(f"s{i + 1}" for i in members)
                                   + " sends a simple root of it to no negative simple root")
            opposite[r, members] = sigma
            self._longest[C] = w0
            self._opposite[C] = dict(zip(members, sigma))
        # entry (K, s): the target of edge (K, s), or K itself when s is in K
        rows = np.zeros(1 << n, dtype=np.int32)   # per connected C, its row of opposite
        rows[connected] = np.arange(len(connected))
        sigma = opposite[rows[comp], np.arange(n)]
        self._targets = np.where(grown == masks, masks, grown ^ (1 << sigma))
        self._nu = {}   # (C, s) -> nu, computed on first use
        self._moves = {}   # (C, s) -> the edge's map of nodes, made on first use
        # the least mask of each mask's component: every edge has an inverse, so
        # each label drops to its label's label and its targets' until none moves
        least, step = None, np.arange(1 << n, dtype=np.int32)
        while not np.array_equal(step, least):
            least, step = step, step[step]
            for column in self._targets.T:
                np.minimum(step, step[column], out=step)
        # the components numbered in the order of their least masks
        number = np.cumsum(least == np.arange(1 << n)) - 1
        self.component_of_mask, count = number[least], int(number[-1]) + 1
        # the least member of each component, in the order of sorted index tuples
        by_rank = np.lexsort((_tuple_ranks(n), self.component_of_mask))
        firsts = np.searchsorted(self.component_of_mask[by_rank], np.arange(count))
        self.representatives = [_members(m, n) for m in by_rank[firsts].tolist()]

    def component_of(self, subset) -> int:
        return int(self.component_of_mask[_mask(subset)])

    def longest_element(self, subset) -> GroupElement:
        """The longest element w0(J) of the standard parabolic W_J."""
        return self._w0(_mask(subset))

    def longest_is_minus_one(self, subset) -> bool:
        """Does w0(J) act as -1 on span Delta_J: is sigma_C the identity on
        each component C of J, as w0(C) sends a_j to -a_{sigma_C(j)}?"""
        mask = _mask(subset)
        comps = self._component[mask].tolist()   # the component of each j in J
        return all(self._opposite[comps[j]][j] == j for j in _members(mask, self.rs.n))

    def _w0(self, mask, keep=True):
        """w0 of a mask: the product of its components' w0, which commute;
        kept unless ``keep`` is false."""
        w0 = self._longest.get(mask)
        if w0 is None:
            comps = self._component[mask]
            rest = mask
            while rest:
                C = int(comps[(rest & -rest).bit_length() - 1])
                w0 = self._longest[C] if w0 is None else w0 * self._longest[C]
                rest &= ~C
            if keep:
                self._longest[mask] = w0
        return w0

    def nu(self, mask, s) -> GroupElement:
        """The element of edge (K, s), w0(C - {s}) w0(C); it maps Delta_K onto
        Delta of the target and depends on (C, s) only."""
        C = int(self._component[mask, s])
        if (C, s) not in self._nu:
            self._nu[C, s] = self._w0(C ^ 1 << s) * self._longest[C]
        return self._nu[C, s]

    def _move(self, C, s):
        """Edge (K, s)'s map of K's nodes, a tuple over all n nodes: nu sends
        a_j to a_{sigma_C(sigma_{C - {s}}(j))} for j in C - {s}, and fixes
        the other simple roots of K.  Depends on (C, s) only, and is kept."""
        move = self._moves.get((C, s))
        if move is None:
            move, outer, rest = list(range(self.rs.n)), self._opposite[C], C ^ 1 << s
            comps = self._component[rest].tolist()
            while rest:
                part = comps[(rest & -rest).bit_length() - 1]
                inner = self._opposite[part]
                for j in inner:
                    move[j] = outer[inner[j]]
                rest &= ~part
            move = self._moves[C, s] = tuple(move)
        return move

    def walk(self, subset):
        """BFS of J's component on index tuples: (tree, loops).

        Each K keeps where t_K sends Delta_J, as {node: J's position}, and
        ``tree`` maps it to the (parent, s) of its tree edge (J to None).
        ``loops`` lists (permutation of J's positions, K, s) for each other
        edge whose s is bonded to K and whose loop t_K nu t_K2^-1 moves
        Delta_J.  A reverse tree edge carries nu^-1 (w0(C) conjugates
        W_{C - {s}} onto W_{C - {sigma_C(s)}}), so it is skipped unread.
        """
        J, n = _mask(subset), self.rs.n
        position = {J: {j: i for i, j in enumerate(_members(J, n))}}
        tree, loops, order = {J: None}, [], [J]
        unmoved = tuple(range(len(position[J])))
        for K in order:
            at, comps, targets = position[K], self._component[K].tolist(), self._targets[K].tolist()
            parent = tree[K] and tree[K][0]
            for s in _added_nodes(K, n):
                K2, move = targets[s], self._move(comps[s], s)
                if K2 not in tree:
                    tree[K2] = (K, s)
                    position[K2] = {move[j]: i for j, i in at.items()}
                    order.append(K2)
                elif K2 != parent and self._neighbours[s] & K:
                    where = position[K2]
                    perm = tuple(where[move[j]] for j in at)
                    if perm != unmoved:
                        loops.append((perm, K, s))
        return tree, loops

    def loop_elements(self, tree, edges):
        """The loops t_K nu t_K2^-1 at J of the given edges (K, s) of a walk's tree."""
        t = {next(iter(tree)): identity(self.rs)}

        def along(K):   # t_K, which maps Delta_J onto Delta_K
            path = []
            while K not in t:
                path.append(K)
                K = tree[K][0]
            for K2 in reversed(path):
                t[K2] = t[K] * self.nu(*tree[K2])
                K = K2
            return t[K]

        return [along(K) * self.nu(K, s) * along(int(self._targets[K, s])).inverse()
                for K, s in edges]


def root_masks(rs, root_sets):
    """Boolean root masks, shape (k, nroots), of the given root sets."""
    masks = np.zeros((len(root_sets), rs.nroots), dtype=bool)
    for row, roots in zip(masks, root_sets):
        row[list(roots)] = True
    return masks


def _mask(subset):
    """The bitmask of a subset; a repeated index sets its bit once."""
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


def _members(mask, n):
    return tuple(i for i in range(n) if mask >> i & 1)


def _tuple_ranks(n):
    """The rank of every subset mask of n nodes in the order of sorted index
    tuples, a prefix first.

    A tuple ending at t prefixes 2^(n-1-t) tuples, itself among them, so the
    tuples before T = (t_1 < ... < t_k) number k + 2^n - r - 2^(n-1-t_k),
    where r is the mask with its n bits reversed; 2^(n-1-t_k) is r's lowest
    bit.  The empty tuple is first.
    """
    masks = np.arange(1 << n)
    r, popcount = np.zeros_like(masks), np.zeros_like(masks)
    for i in range(n):
        bit = masks >> i & 1
        r |= bit << (n - 1 - i)
        popcount += bit
    ranks = popcount + (1 << n) - r - (r & -r)
    ranks[0] = 0
    return ranks


def _added_nodes(mask, n):
    """The nodes outside a subset, in the order of its edges."""
    return _members(mask ^ ((1 << n) - 1), n)


_groupoids = {}
# a connected C's bond matrix in member order -> the positions in C of the steps
# that climb w0(C) from w0(C minus its largest member), which depend on the
# matrix only: w(a_s) > 0 iff l(ws) > l(w) (Humphreys 1990, 1.6-1.8)
_CLIMBS = {}


def subset_groupoid(rs) -> SubsetGroupoid:
    if rs.label not in _groupoids:
        _groupoids[rs.label] = SubsetGroupoid(rs)
    return _groupoids[rs.label]


def dominant_descent(rs, signs):
    """Carry a stack of sign rows, shape (k, nroots), into the dominant chamber.

    Row r holds the signs of all roots at a point x_r.  Each step applies to
    every row the reflection in its first simple root that is negative there,
    as one gather for all rows.  A sentinel column, negative in every row
    and fixed by every step, follows the simple roots, so a dominant row
    picks it and steps by the identity.  The stabilizer of a dominant point
    is the standard W_J of the simple roots vanishing there (Bourbaki, Lie
    Groups Ch. V section 3).  A step makes one positive root positive and
    keeps the others' signs, so a row takes as many steps as it has
    negative positive roots; -x_r vanishes on the same roots as x_r, so a
    row with more negative than positive ones starts from -x_r.  Returns the
    masks of J, shape (k, n), and the word (steps, k) of the simple indices
    applied to each row, n for the identity: the product w of its
    reflections, in order, has w(Phi_J) = the roots vanishing at x_r.
    """
    k, width = len(signs), rs.nroots + 1
    # the rows laid end to end, row r's entry j at r * width + j; a step
    # gathers each row by its simple reflection, or the identity, shifted there
    start = (np.arange(k) * width)[:, None]
    columns = start + (list(rs.simple_roots) + [rs.nroots])
    perms = rs.reflection_perms[list(rs.simple_roots) + [rs.npos]]
    flip = np.where(signs[:, : rs.npos].sum(axis=1) < 0, -1, 1)[:, None]
    at = np.hstack((signs * flip, np.full((k, 1), -1)))
    word = []
    while True:
        step = (at.take(columns) < 0).argmax(axis=1)
        if (step == rs.n).all():
            return at.take(columns[:, :-1]) == 0, np.array(word, dtype=np.intp).reshape(len(word), k)
        word.append(step)
        at = at.take(perms[step] + start)


def generic_signs(rs, roots):
    """Signs of all roots at a generic point of the fixed space of the
    reflection subgroup with the given roots, read off its simple roots'
    projections (``fixed_projections``), with no elimination."""
    return rs.fixed_projections([ReflectionSubgroup(rs, roots).simples])[2][0]


def standard_conjugate(rs, roots):
    """(J, w): the standard W_J conjugate to a parabolic, and w with w(Phi_J) = roots.

    The signs of all roots at a generic point of its fixed space
    (``generic_signs``) are carried into the dominant chamber: this is the
    one-row case of ``dominant_descent``.  Raises ValueError when the roots
    are not those vanishing at the point (not those of a parabolic
    subgroup).
    """
    signs = generic_signs(rs, roots)
    if set(np.flatnonzero(signs == 0).tolist()) != set(roots):
        raise ValueError("root set is not that of a parabolic subgroup")
    J, word = dominant_descent(rs, signs[None])
    img = np.arange(rs.nroots, dtype=np.int16)
    for s in word[:, 0].tolist():
        img = img[rs.reflection_perm(rs.simple_roots[s])]
    return tuple(np.flatnonzero(J[0]).tolist()), GroupElement(rs, img)


def standard_subset(P: ReflectionSubgroup):
    """The simple indices J with P = W_J, or None when P is not standard."""
    position = {r: i for i, r in enumerate(P.rs.simple_roots)}
    if all(b in position for b in P.simples):
        return tuple(sorted(position[b] for b in P.simples))
    return None


class ShapeCatalog:
    """All shapes of one group, with class lookup for arbitrary parabolics.

    The classes are the components of the subset groupoid.  Parabolics given
    by their root sets are looked up as a stack (``classes_of``): the cache
    of root masks seen, then one ``dominant_descent`` of the rest, which
    names standard parabolics W_J conjugate to them, and J's component.

    The catalog also keeps perp, which commutes with conjugation, as one
    map on shape indices: ``perp`` holds the ``galois.PerpMap`` that
    ``galois.perp_map`` computes for every shape on first read, and ``pq``
    the ``galois.PQMap`` of the closures of P perp(P), from ``galois.pq_map``.
    """

    def __init__(self, rs):
        self.rs = rs
        self.shapes, self._class_cache = self._build()
        self.perp = self.pq = None   # the galois maps, filled on first read
        groupoid = subset_groupoid(rs)
        self._by_component = {groupoid.component_of(s.rep_subset): s.index
                              for s in self.shapes}

    def __len__(self):
        return len(self.shapes)

    def __iter__(self):
        return iter(self.shapes)

    def __getitem__(self, index):
        return self.shapes[index - 1]

    def _build(self):
        """The shapes in catalog order, and the class cache of their root masks.

        The representatives' types are read off the simple bonds, with no
        bond table over the other roots."""
        rs = self.rs
        groupoid = subset_groupoid(rs)
        # each class is represented by its lexicographically least subset
        reps = groupoid.representatives
        parabolics, masks = standard_parabolics(rs, reps)
        bonds = rs.simple_bonds.tolist()
        for rep, P in zip(reps, parabolics):
            P.components = diagram_of_bonds([[bonds[i][j] for j in rep] for i in rep])
        subgroups = dict(zip(reps, parabolics))
        # each shape's fields but its index, which the catalog order gives
        labeled = []
        if rs.label.family in ("A", "B", "D"):
            label_of = {}   # component -> its transversal label data
            for data, subset in _classical_transversal(rs):
                component = groupoid.component_of(subset)
                if component in label_of:
                    raise RuntimeError(f"two transversal labels in one class of {rs.label}")
                label_of[component] = data
            if len(set(label_of.values())) != len(label_of):
                raise RuntimeError(f"duplicate transversal label in {rs.label}")
            for component, rep in enumerate(reps):
                if component not in label_of:
                    raise RuntimeError(f"class without transversal label in {rs.label}")
                fam, l, lam, dec = label_of[component]
                type_str, label, full = _classical_label(fam, l, lam, dec, rs.label.rank)
                labeled.append((rep, subgroups[rep], label, type_str, (fam, l), tuple(lam), dec))
        else:
            by_type = {}
            for rep in reps:
                by_type.setdefault(subgroups[rep].components, []).append(rep)
            for comps, same in sorted(by_type.items(), key=repr):
                same.sort()
                primes = ["'", "''", "'''"]
                for k, rep in enumerate(same):
                    dec = primes[k] if len(same) > 1 else ""
                    type_str = _decorated(components_string(comps), dec)
                    labeled.append((rep, subgroups[rep], type_str, type_str, None, None, dec))
        labeled.sort(key=lambda f: (len(f[0]), f[1].order, f[2]))
        shapes = [Shape(i, *fields) for i, fields in enumerate(labeled, 1)]
        key = {rep: mask.tobytes() for rep, mask in zip(reps, masks)}
        return shapes, {key[s.rep_subset]: s.index for s in shapes}

    # -- class lookup -------------------------------------------------------

    def classes_of(self, masks, signs) -> list:
        """Catalog indices of the classes of a stack of parabolics, by root masks (k, nroots).

        Each row is looked up in the class cache; the rows it misses are
        carried into the dominant chamber together (``dominant_descent``)
        from their signs at a generic point of a subspace whose pointwise
        stabilizer the row is.  ``signs`` is the (k, nroots) stack of them,
        or a function of the missed rows' positions returning their rows,
        called only when a row misses.  Raises ValueError when a missed
        row's roots are not those vanishing at its point (not those of a
        parabolic).
        """
        flat, width = masks.tobytes(), masks.shape[1]
        keys = [flat[r * width: (r + 1) * width] for r in range(len(masks))]
        out = [self._class_cache.get(key) for key in keys]
        miss = [r for r, hit in enumerate(out) if hit is None]
        if miss:
            at = signs(miss) if callable(signs) else signs[miss]
            if ((at == 0) != masks[miss]).any():
                raise ValueError("root set is not that of a parabolic subgroup")
            J, _ = dominant_descent(self.rs, at)
            components = subset_groupoid(self.rs).component_of_mask[J @ (1 << np.arange(self.rs.n))]
            for r, c in zip(miss, components.tolist()):
                out[r] = self._class_cache[keys[r]] = self._by_component[c]
        return out

    def class_of_roots(self, roots) -> int:
        """Catalog index of the class of a parabolic subgroup, by its root set:
        the one-row case of ``classes_of``, at ``generic_signs``.

        Raises ValueError when the roots are not those of a parabolic.
        """
        roots = list(roots)
        return self.classes_of(root_masks(self.rs, [roots]),
                               lambda _: generic_signs(self.rs, roots)[None])[0]

    def class_of_subset(self, subset) -> int:
        """Catalog index of the class of the standard parabolic W_J."""
        return self._by_component[subset_groupoid(self.rs).component_of(subset)]

    def shape_of(self, P: ReflectionSubgroup) -> Shape:
        return self[self.class_of_roots(P.roots)]

    def by_selector(self, text: str) -> Shape:
        """Find a shape by index, label, type string, partition, or standard
        subset: simple reflections numbered from 1, as in "s1,s3" or "s2"."""
        text = text.strip()
        if text.startswith("s") and ("," in text or text[1:].isdigit()):
            try:
                subset = tuple(sorted(int(tok.strip()[1:]) - 1 for tok in text.split(",")))
            except ValueError:
                raise KeyError(text)
            if any(i < 0 or i >= self.rs.n for i in subset):
                raise KeyError(text)
            return self[self.class_of_subset(subset)]
        if text.isdigit():
            idx = int(text)
            if 1 <= idx <= len(self.shapes):
                return self[idx]
            raise KeyError(text)
        compact = text.replace(" ", "")
        matches = []
        for s in self.shapes:
            cands = {s.label.replace(" ", ""), s.type_label.replace(" ", "")}
            if s.partition is not None:
                pstr = "[" + "".join(str(p) for p in s.partition) + "]"
                pstr2 = "[" + " ".join(str(p) for p in s.partition) + "]"
                cands.add(pstr)
                cands.add(pstr2.replace(" ", ""))
                cands.add((s.type_label + pstr).replace(" ", ""))
            if compact in cands:
                matches.append(s)
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(text)
        raise KeyError(f"ambiguous selector {text!r}: matches "
                       + ", ".join(s.label for s in matches))


_catalogs = {}


def shape_catalog(rs) -> ShapeCatalog:
    if rs.label not in _catalogs:
        _catalogs[rs.label] = ShapeCatalog(rs)
    return _catalogs[rs.label]


def shapes(rs):
    """The ordered shape catalog (one entry per conjugacy class)."""
    return list(shape_catalog(rs))


def shape_of(P: ReflectionSubgroup) -> Shape:
    return shape_catalog(P.rs).shape_of(P)
