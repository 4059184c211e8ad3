"""Reference oracles that only the tests read, for the test modules to share.

Each recomputes a fact of the library by a second, independent route:

- ``neg`` is the index of a root's negative, one root at a time (the
  library reads the whole ``negation`` array);
- ``close_roots`` closes a generating set of roots by a BFS over the
  reflection permutations (the library closes stacks of root masks with
  ``diagrams.close_root_masks``); ``generated_by`` is the reflection
  subgroup it closes;
- ``bfs_generate`` closes a generating set of group elements breadth
  first, forming |G| products per generator (the library's ``generate``
  enumerates whole cosets by Dimino's algorithm, making each element once);
- ``bond_order`` is the order of a product of two reflection permutations,
  the oracle of the bond rule ``diagrams.gram_bonds``;
- ``line_tests`` tests every pair of a set of lines at once, as stacked
  int64 pair products (the library's line table tests each pair it is asked
  for once per root system, in Python ints);
- ``edge_target`` reads the subset groupoid's edge table at one edge;
  ``groupoid_components`` numbers its components by a breadth-first search
  from each mask not yet reached (the library lowers every mask's label to
  its targets' in array passes);
  ``schreier_loops`` makes the loop of every edge of a component as a group
  element, and ``schreier_complement`` generates D from the descents of
  all of them modulo ``orthogonal_join(P, Q)`` (the library walks index
  tuples, makes a generating set only and descends modulo Q);
  ``simple_permutation`` reads an element's permutation of Delta_J off
  its images;
- ``negates`` compares an element's images of some roots with their
  negatives (the library reads whether w0(J) is -1 on span Delta_J off the
  opposition sigma_C, with no w0(J) made);
- ``regrown_generators`` keeps a greedy generating set by regenerating the
  group after each new generator (the library keeps Dimino's);
- ``to_pairs`` converts Q(sqrt5) rows to integer pairs, the inverse of
  ``linalg.from_pairs`` up to a positive scale per row;
- ``degree`` is the rank of the roots an involution negates (the library
  reads |J| off the marked shape);
- ``classical_normalizer_order`` is |N| of a shape of A_n, B_n or D_n in
  closed form, read off its partition and block (the library walks the
  subset groupoid and closes D_pi);
- ``brute_normalizer`` and ``brute_orthogonal_complement`` filter a full
  enumeration and take the literal commutation definition;
- ``centralizer_equals_normalizer`` checks C_W(u) = N_W(fixed parabolic of
  u) by double inclusion;
- the e-basis (``e_basis``, ``e_coords``, ``signed_permutation``) writes the
  roots of types A, B, D in the coordinates of the points 1..N, and
  ``ClassicalGenerators`` builds the Howlett complement of a classical shape
  from explicit signed permutations of those points.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, lcm, prod

import numpy as np

from coxnorm.actions import split_keys
from coxnorm.diagrams import gram_bonds
from coxnorm.groups import BRUTE_LIMIT, GroupElement, generate, identity
from coxnorm.involutions import fixed_parabolic
from coxnorm.linalg import _overflow, lex_signs, pair_matmul, pair_mul, pair_sign
from coxnorm.normalizer import _c_nontrivial_expected, _permutation_image, descend_to_complement
from coxnorm.oracle import commutation_table, normalizing, positive_images
from coxnorm.parabolic import ReflectionSubgroup, Shape, standard_subset, subset_groupoid


def neg(rs, i):
    """The index of the negative of root i: the negatives follow the positive roots."""
    return (i + rs.npos) % rs.nroots


def close_roots(rs, indices):
    """Roots of the reflection subgroup generated by the given roots.

    Every reflection of the subgroup is conjugate in it to a generator, so
    its roots are the orbit of the given roots under the given reflections.
    """
    perms = [rs.reflection_perm(i) for i in indices]
    S = set(indices) | {neg(rs, i) for i in indices}
    frontier = list(S)
    while frontier:
        new = []
        for p in perms:
            for b in frontier:
                c = int(p[b])
                if c not in S:
                    S.add(c)
                    new.append(c)
        frontier = new
    return frozenset(S)


def generated_by(rs, root_indices):
    return ReflectionSubgroup(rs, close_roots(rs, root_indices))


def bfs_generate(gens, rs=None):
    """The group the generators generate (``rs`` supplies the identity when
    there are none), by breadth-first closure, listed in key order."""
    gens = list(gens)
    e = identity(gens[0].rs if gens else rs)
    seen = {e.key: e}
    frontier = [e]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = w * g
                if x.key not in seen:
                    seen[x.key] = x
                    new.append(x)
        frontier = new
    return [seen[k] for k in sorted(seen)]


def bond_order(rs, i, j):
    """Order m(i,j) of the product of the reflections in roots i and j: the
    oracle of the bond rule."""
    return (rs.reflection(i) * rs.reflection(j)).order()


def line_tests(lines, form):
    """({line: row}, Gram matrix, simple test, bonds) of every pair of the lines.

    Each row is oriented by the sign of its first nonzero entry, positive at
    f_e = sum e^i x_i for a small e > 0, and G is the Gram matrix of those
    rows under ``form``.  Entry [i, j] of the simple test tells whether line
    j keeps line i positive: whether G_jj v_i - 2 G_ij v_j, which is
    G_jj r_j(v_i), is lexicographically positive.  The bonds are those of
    ``diagrams.gram_bonds`` on G.
    """
    index = {line: i for i, line in enumerate(set(lines))}
    L = split_keys(list(index), len(form[0]))
    signs = lex_signs(pair_sign(L))[:, None]
    v = (L[0] * signs, L[1] * signs)
    G = pair_matmul(pair_matmul(v, form), (v[0].T, v[1].T))
    lhs = pair_mul((v[0][:, None], v[1][:, None]),
                   (np.diagonal(G[0])[:, None], np.diagonal(G[1])[:, None]))
    rhs = pair_mul(pair_mul((2, 0), (G[0][..., None], G[1][..., None])), v)
    keep = lex_signs(pair_sign((lhs[0] - rhs[0], lhs[1] - rhs[1]))) > 0
    np.fill_diagonal(keep, True)
    return index, G, keep, gram_bonds(G)


def edge_target(groupoid, mask, s) -> int:
    """The mask that edge (K, s) leads to, K u {s} - {sigma_C(s)}."""
    return int(groupoid._targets[mask, s])


def groupoid_components(groupoid) -> list:
    """The component of every subset mask, numbered in the order of their
    least masks, by a breadth-first search along the edge targets."""
    targets = groupoid._targets.tolist()
    label, count = [-1] * len(targets), 0
    for mask in range(len(targets)):
        if label[mask] < 0:
            label[mask], order = count, [mask]
            for K in order:
                for K2 in targets[K]:
                    if label[K2] < 0:
                        label[K2] = count
                        order.append(K2)
            count += 1
    return label


def schreier_loops(groupoid, subset):
    """(K, s, t_K nu t_K2^-1) for every edge (K, s) of J's component, each
    loop made as a group element: the full Schreier enumeration of the loops
    at J, with t_K the product of the edge elements along a BFS tree.  The
    library walks index tuples instead and makes only a generating set."""
    rs, start = groupoid.rs, sum(1 << i for i in subset)
    tree, order = {start: identity(rs)}, [start]
    for K in order:
        for s in (s for s in range(rs.n) if not K >> s & 1):
            K2 = edge_target(groupoid, K, s)
            if K2 not in tree:
                tree[K2] = tree[K] * groupoid.nu(K, s)
                order.append(K2)
    return [(K, s, tree[K] * groupoid.nu(K, s) * tree[edge_target(groupoid, K, s)].inverse())
            for K in order for s in range(rs.n) if not K >> s & 1]


def orthogonal_join(P: ReflectionSubgroup, Q: ReflectionSubgroup) -> ReflectionSubgroup:
    """PQ for orthogonal reflection subgroups P and Q.

    Each reflection of one fixes every root of the other, so the roots of PQ
    are P's together with Q's, and so are its simple roots.
    """
    PQ = ReflectionSubgroup(P.rs, P.roots | Q.roots)
    PQ.simples = tuple(sorted(P.simples + Q.simples))
    return PQ


def schreier_complement(rs, subset, pq):
    """D generated by the descents modulo PQ of every loop at J."""
    return generate([descend_to_complement(g, pq)
                     for _, _, g in schreier_loops(subset_groupoid(rs), subset)], rs=rs)


def negates(w: GroupElement, roots) -> bool:
    """Does w send each of the given roots to its negative?"""
    idx = list(roots)
    return bool((w.img[idx] == w.rs.negation[idx]).all())


def regrown_generators(elements, rs):
    """(generators, keys of the group): each element the ones kept before it
    do not generate is kept, and the group is regenerated from all kept."""
    generators, keys = [], {identity(rs).key}
    for x in elements:
        if x.key not in keys:
            generators.append(x)
            keys = {g.key for g in generate(generators, rs=rs)}
    return generators, keys


def regrown_theorem13(dec) -> dict:
    """``verify_theorem13``'s report, with the generators of AB regrown and
    each conjugate descended modulo PQ."""
    rs, idx = dec.rs, len(dec.C)
    report = {"shape": dec.shape.label, "group": str(rs.label),
              "index": idx, "ok": True, "witness": None}
    if idx not in (1, 2):
        return {**report, "ok": False, "witness": "index"}
    generators, ab = regrown_generators(dec.A + dec.B, rs)
    pq = orthogonal_join(dec.P, dec.Q)
    _, tree, edges = _permutation_image(rs, standard_subset(dec.P))
    for d in subset_groupoid(rs).loop_elements(tree, edges):
        for x in generators:
            if descend_to_complement((d.inverse() * x) * d, pq).key not in ab:
                return {**report, "ok": False, "witness": (d.canonical(), x.canonical())}
    expected = _c_nontrivial_expected(rs, dec)
    if (idx == 2) != expected:
        return {**report, "ok": False, "witness": f"index {idx} but expected nontrivial={expected}"}
    return report


def simple_permutation(d, subset):
    """The permutation of J's positions by which d permutes Delta_J."""
    simple = [d.rs.simple_roots[j] for j in subset]
    return tuple(simple.index(int(d.img[r])) for r in simple)


def to_pairs(rows):
    """Integer pairs (p, q) of Q5 rows, each row scaled by a positive integer."""
    p, q = [], []
    for row in rows:
        scale = lcm(*(x.den for x in row))
        p.append([x.a * (scale // x.den) for x in row])
        q.append([x.b * (scale // x.den) for x in row])
    _overflow(max((abs(x) for r in p + q for x in r), default=0))
    return np.array(p, dtype=np.int64), np.array(q, dtype=np.int64)


# ---------------------------------------------------------------------------
# Brute force


def degree(u: GroupElement) -> int:
    """Dimension of the (-1)-eigenspace of an involution.

    The negated roots form a closed subsystem spanning that eigenspace, so
    its dimension is the rank of the subsystem, its number of simple roots.
    """
    return len(fixed_parabolic(u).simples)


def classical_normalizer_order(shape: Shape) -> int:
    """|N_W(W_J)| for a shape of A_n, B_n or D_n, in closed form (Howlett
    1980, the classical types), from the shape's partition lambda, 1-parts
    included, with m_k parts of size k, and its block of rank l.

    Type A: prod_k (k!)^m_k m_k!, the permutations of the points that keep
    the blocks.  Type B_n, block B_l, lambda of n - l: 2^l l! times prod_k
    (k!)^m_k 2^m_k m_k!, signed permutations that keep the blocks.  Type
    D_n, block D_l (l = 0 for none): the type-B value, halved unless l = 0
    and every part is even.
    """
    family, l = shape.block
    counts = Counter(shape.partition)
    order = prod(factorial(k) ** m * factorial(m) for k, m in counts.items())
    if family == "A":
        return order
    order *= 2 ** l * factorial(l) * 2 ** sum(counts.values())
    if family == "D" and (l or any(k % 2 for k in counts)):
        order //= 2
    return order


def brute_normalizer(P: ReflectionSubgroup, W=None):
    """Normalizer by filtering a full enumeration (guarded), in W's order."""
    rs = P.rs
    if rs.group_order > BRUTE_LIMIT:
        raise RuntimeError(f"group too large for the brute oracle ({rs.group_order})")
    W = list(generate(rs.simple_reflections()) if W is None else W)
    return [W[i] for i in np.flatnonzero(normalizing(P, positive_images(W)))]


def brute_orthogonal_complement(U: ReflectionSubgroup):
    """Literal commutation definition: reflections commuting with all of U,
    from the commutation table's rows of U's positive roots."""
    rs = U.rs
    if rs.group_order > BRUTE_LIMIT:
        raise RuntimeError(f"group too large for the brute oracle ({rs.group_order})")
    rows = commutation_table(rs)[list(U.pos)]
    return generated_by(rs, np.flatnonzero(rows.all(axis=0)).tolist())


def centralizer(W, u: GroupElement):
    return [w for w in W if (w * u).key == (u * w).key]


def centralizer_equals_normalizer(u: GroupElement, W=None) -> dict:
    """Assert C_W(u) = N_W(fixed parabolic of u), by double inclusion.

    Requires the full group (enumerated here when not supplied); intended for
    the brute-force tiers.
    """
    rs = u.rs
    if W is None:
        W = generate(rs.simple_reflections())
    cent = centralizer(W, u)
    norm = brute_normalizer(fixed_parabolic(u), W)
    report = {"ok": True, "witness": None, "centralizer_order": len(cent)}
    for inner, outer, what in ((cent, norm, "centralizer outside normalizer"),
                               (norm, cent, "normalizer outside centralizer")):
        keys = {w.key for w in outer}
        w = next((w for w in inner if w.key not in keys), None)
        if w is not None:
            report.update(ok=False, witness=(what, w.canonical()))
            return report
    return report


# ---------------------------------------------------------------------------
# The e-basis of the classical families


def e_basis(label):
    """Simple roots in coordinate (e_i) form for the classical families.

    Used to bridge between signed permutations of points and root
    permutations.  Returns (number of points, list of simple-root e-vectors).
    """
    n = label.rank
    fam = label.family
    if fam == "A":
        pts = n + 1
        rows = []
        for i in range(n):
            v = [0] * pts
            v[i], v[i + 1] = 1, -1
            rows.append(tuple(v))
        return pts, rows
    if fam in ("B", "D"):
        pts = n
        rows = []
        for i in range(n - 1):
            v = [0] * pts
            v[i], v[i + 1] = 1, -1
            rows.append(tuple(v))
        last = [0] * pts
        if fam == "B":
            last[n - 1] = 1
        else:
            last[n - 2], last[n - 1] = 1, 1
        rows.append(tuple(last))
        return pts, rows
    raise ValueError("e-basis only for classical families")


def e_coords(rs):
    """Map root index -> integer e-coordinate tuple (classical families)."""
    pts, simple_rows = e_basis(rs.label)
    coords = rs.root_pairs[0] // 2 @ np.array(simple_rows, dtype=np.int64)
    return [tuple(c) for c in coords.tolist()]


def signed_permutation(rs, images) -> GroupElement:
    """Element from a signed permutation of the points 1..N.

    ``images[v-1]`` is the signed image of point v; for family A all
    images are positive.  Family D requires an even number of sign flips.
    """
    coords = e_coords(rs)
    pts = len(coords[0])
    if len(images) != pts:
        raise ValueError("signed permutation has wrong number of points")
    if sorted(abs(x) for x in images) != list(range(1, pts + 1)):
        raise ValueError("not a signed permutation")
    if rs.label.family == "A" and any(x < 0 for x in images):
        raise ValueError("type A admits no sign flips")
    if rs.label.family == "D" and sum(1 for x in images if x < 0) % 2:
        raise ValueError("type D requires an even number of sign flips")
    lookup = {c: i for i, c in enumerate(coords)}
    img = np.empty(rs.nroots, dtype=np.int16)
    for i, c in enumerate(coords[: rs.npos]):
        out = [0] * pts
        for k, x in enumerate(c):
            if x:
                t = images[k]
                out[abs(t) - 1] += x if t > 0 else -x
        j = lookup[tuple(out)]
        img[i] = j
        img[neg(rs, i)] = neg(rs, j)
    return GroupElement(rs, img)


# ---------------------------------------------------------------------------
# Explicit complement generators for the classical families
#
# For a standard parabolic with partition label lambda in type A, B or D, the
# Howlett complement is generated by explicit signed permutations:
#
#     x_i   swaps the blocks of two equal adjacent parts,
#     y_i   negates and reverses one part (types B and D; in D only for even
#           parts),
#     z_i   negates and reverses an odd part and additionally negates the
#           last sign-change-block point (type D with a block),
#     y'_i = x_i y_i y_{i+1}  negates and reverses across two equal odd parts,
#     z'_ij = y_i y_j         negates and reverses two distinct odd parts.
#
# Parts are placed consecutively from the first point; the B_l / D_l block
# occupies the last l points.  The generator sets below sort these elements
# into the Q, A, B, C factors of the normalizer decomposition; the "-" class
# of an even partition in type D is handled by conjugating everything with
# the sign change of the last point (a graph automorphism of the chain
# placement).


def _compose(p, q):
    """Composite signed permutation: apply p first, then q."""
    out = []
    for v in range(1, len(p) + 1):
        t = p[v - 1]
        s = q[abs(t) - 1]
        out.append(s if t > 0 else -s)
    return tuple(out)


def _identity(n):
    return tuple(range(1, n + 1))


def _conjugate_by_last_flip(p):
    """tau p tau for tau = sign change of the last point."""
    n = len(p)
    tau = list(range(1, n + 1))
    tau[n - 1] = -n
    return _compose(_compose(tuple(tau), p), tuple(tau))


class ClassicalGenerators:
    """The x/y/z elements and the Q, A, B, C generator sets for one shape."""

    def __init__(self, rs, shape: Shape):
        fam = rs.label.family
        if fam not in ("A", "B", "D"):
            raise ValueError("classical generators exist only for A, B, D")
        if shape.partition is None:
            raise ValueError("shape carries no partition label")
        self.rs = rs
        self.shape = shape
        self.fam = fam
        self.pts = rs.label.rank + 1 if fam == "A" else rs.label.rank
        self.parts = list(shape.partition)
        self.m = sum(self.parts)
        self.l = self.pts - self.m  # block size (0 in type A)
        self.offsets = []
        u = 0
        for p in self.parts:
            self.offsets.append(u)
            u += p
        self._build()

    # -- the involutions -------------------------------------------------------

    def x(self, i):
        """Swap parts i and i+1 (0-based; requires equal adjacent parts)."""
        k = self.parts[i]
        if self.parts[i + 1] != k:
            raise ValueError("x needs two equal adjacent parts")
        u = self.offsets[i]
        img = list(_identity(self.pts))
        for v in range(u + 1, u + k + 1):
            img[v - 1] = v + k
            img[v + k - 1] = v
        return tuple(img)

    def y(self, i):
        """Negate and reverse part i."""
        u, k = self.offsets[i], self.parts[i]
        img = list(_identity(self.pts))
        for v in range(u + 1, u + k + 1):
            img[v - 1] = -(2 * u + k + 1 - v)
        return tuple(img)

    def z(self, i):
        """y(i) together with the sign change of the last block point.

        Negating the last point permutes the positive roots of the block, so
        the element has relative length zero and lies in the canonical
        complement (negating any earlier block point would not).
        """
        if self.l == 0:
            raise ValueError("z needs a sign-change block")
        img = list(self.y(i))
        img[self.pts - 1] = -self.pts
        return tuple(img)

    def y_prime(self, i):
        """Negate and reverse across equal parts i, i+1."""
        return _compose(self.x(i), _compose(self.y(i), self.y(i + 1)))

    def z_prime(self, i, j):
        """Negate and reverse the distinct odd parts i and j."""
        return _compose(self.y(i), self.y(j))

    # -- the generator sets -----------------------------------------------------

    def _build(self):
        parts = self.parts
        pairs = [i for i in range(len(parts) - 1) if parts[i] == parts[i + 1]]
        fam, l = self.fam, self.l
        Q, A, B, C = [], [], [], []
        if fam == "A":
            Q = [self.x(i) for i in pairs if parts[i] == 1]
            A = [self.x(i) for i in pairs if parts[i] > 1]
        elif fam == "B":
            Q = ([self.x(i) for i in pairs if parts[i] == 1]
                 + [self.y(j) for j in range(len(parts)) if parts[j] <= 2])
            A = ([self.x(i) for i in pairs if parts[i] > 2]
                 + [self.y(j) for j in range(len(parts)) if parts[j] > 2])
            B = [self.x(i) for i in pairs if parts[i] == 2]
        else:
            a1 = sum(1 for p in parts if p == 1)
            evens = all(p % 2 == 0 for p in parts)
            odd_idx = [j for j in range(len(parts)) if parts[j] % 2 == 1]
            if l == 0 and evens and parts:
                Q = [self.y(j) for j in range(len(parts)) if parts[j] == 2]
                A = ([self.x(i) for i in pairs if parts[i] > 2]
                     + [self.y(j) for j in range(len(parts)) if parts[j] > 2])
                B = [self.x(i) for i in pairs if parts[i] == 2]
            elif l >= 2:
                if a1 <= 1:
                    Q = [self.y(j) for j in range(len(parts)) if parts[j] == 2]
                    A = ([self.x(i) for i in pairs if parts[i] > 2]
                         + [self.y(j) for j in range(len(parts))
                            if parts[j] > 2 and parts[j] % 2 == 0]
                         + [self.z(j) for j in odd_idx])
                    B = [self.x(i) for i in pairs if parts[i] == 2]
                else:
                    ones = [i for i in pairs if parts[i] == 1]
                    Q = ([self.x(i) for i in ones]
                         + [self.y_prime(ones[0])]
                         + [self.y(j) for j in range(len(parts)) if parts[j] == 2])
                    A = ([self.x(i) for i in pairs if parts[i] > 2]
                         + [self.y(j) for j in range(len(parts))
                            if parts[j] > 2 and parts[j] % 2 == 0]
                         + [self.z(j) for j in odd_idx if parts[j] > 2])
                    # the last singleton: negating any earlier one is not
                    # length-zero for the D-part of Q on the free points
                    last_one = max(j for j in range(len(parts)) if parts[j] == 1)
                    B = ([self.x(i) for i in pairs if parts[i] == 2]
                         + [self.z(last_one)])
            else:
                # l == 0, some odd part
                even_pairs = [i for i in pairs if parts[i] > 2 and parts[i] % 2 == 0]
                odd_pairs = [i for i in pairs if parts[i] > 2 and parts[i] % 2 == 1]
                if a1 <= 1:
                    Q = [self.y(j) for j in range(len(parts)) if parts[j] == 2]
                    zp = [self.z_prime(p, q)
                          for pi, p in enumerate(odd_idx)
                          for q in odd_idx[pi + 1:]
                          if parts[p] != parts[q]]
                    A = ([self.x(i) for i in even_pairs]
                         + [self.y(j) for j in range(len(parts))
                            if parts[j] > 2 and parts[j] % 2 == 0]
                         + [self.x(i) for i in odd_pairs]
                         + [self.y_prime(i) for i in odd_pairs]
                         + zp)
                    B = [self.x(i) for i in pairs if parts[i] == 2]
                else:
                    ones = [i for i in pairs if parts[i] == 1]
                    Q = ([self.x(i) for i in ones]
                         + [self.y_prime(ones[0])]
                         + [self.y(j) for j in range(len(parts)) if parts[j] == 2])
                    zp = [self.z_prime(p, q)
                          for pi, p in enumerate(odd_idx)
                          for q in odd_idx[pi + 1:]
                          if parts[p] != parts[q] and parts[p] > 2 and parts[q] > 2]
                    A = ([self.x(i) for i in even_pairs]
                         + [self.y(j) for j in range(len(parts))
                            if parts[j] > 2 and parts[j] % 2 == 0]
                         + [self.x(i) for i in odd_pairs]
                         + [self.y_prime(i) for i in odd_pairs]
                         + zp)
                    B = [self.x(i) for i in pairs if parts[i] == 2]
                    big_odd = [j for j in odd_idx if parts[j] > 1]
                    if big_odd:
                        r = big_odd[-1]
                        last = len(parts) - 1
                        C = [self.z_prime(r, last)]
        if self.shape.decoration == "-":
            Q = [_conjugate_by_last_flip(p) for p in Q]
            A = [_conjugate_by_last_flip(p) for p in A]
            B = [_conjugate_by_last_flip(p) for p in B]
            C = [_conjugate_by_last_flip(p) for p in C]
        self.q_gens = Q
        self.a_gens = A
        self.b_gens = B
        self.c_gens = C

    def embedded(self, which):
        """The generator set as root permutations (GroupElements)."""
        return [signed_permutation(self.rs, p)
                for p in getattr(self, f"{which}_gens")]


def classical_complement_generators(rs, shape: Shape) -> ClassicalGenerators:
    """Generator record for the Q/A/B/C factors of a classical shape."""
    return ClassicalGenerators(rs, shape)
