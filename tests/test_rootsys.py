from collections import Counter
import hashlib
from math import gcd
import random
import sys

import numpy as np
import pytest

from coxnorm import parabolic
from coxnorm.actions import invariant_split
from coxnorm.galois import orthogonal_complement, parabolic_concepts, shape_closure_graph
from coxnorm.groups import generate, identity
from coxnorm.labels import parse_label
from coxnorm.linalg import Subspace, dot, from_pairs, pair_matmul, pair_sign
from coxnorm.normalizer import compute_table
from coxnorm.parabolic import pointwise_stabilizer, shape_catalog, standard_parabolic
from coxnorm.qsqrt5 import Q5
from coxnorm.rootsys import (I2Subspace, RootSystem, build_root_system, inner_product,
                             reflection_in_root)
from coxnorm.verify import verify_galois, verify_section8

from fixture_groups import FIXTURE_GROUPS
from oracles import bond_order, neg, signed_permutation


def _vectors(rs):
    return [rs.root_vec(i) for i in range(rs.nroots)]


def vec_mat(x, M):
    """Row vector times matrix, over Q(sqrt5)."""
    return tuple(dot(x, tuple(row[j] for row in M)) for j in range(len(M[0])))


def test_label_round_trips():
    for text in ["E7", "I2(7)", "A1", "B2", "H4", "D5", "F4"]:
        assert str(parse_label(text)) == text
    assert str(parse_label("e7")) == "E7"
    assert str(parse_label("i2(11)")) == "I2(11)"


@pytest.mark.parametrize("alias, label", [("G2", "I2(6)"), ("g2", "I2(6)"), ("H2", "I2(5)"),
                                          (" h2 ", "I2(5)")])
def test_rank2_diagram_names_parse_as_dihedral_labels(alias, label):
    assert parse_label(alias) == parse_label(label) and str(parse_label(alias)) == label


@pytest.mark.parametrize("bad", ["D3", "D2", "B1", "A0", "E5", "F3", "H5",
                                 "I2(2)", "G2x", "X4", "I3(5)"])
def test_label_rejects_noncanonical(bad):
    with pytest.raises(ValueError):
        parse_label(bad)


def test_d3_rejection_names_convention():
    with pytest.raises(ValueError, match="A3"):
        parse_label("D3")


def test_root_counts():
    # closure of the simple reflections on the simple roots until stable,
    # written directly on vectors (independent of the library's indexing)
    from coxnorm.linalg import dot
    for name, total, pos in [("A3", 12, 6), ("B2", 8, 4), ("A1", 2, 1),
                             ("D4", 24, 12), ("F4", 48, 24), ("H3", 30, 15)]:
        rs = build_root_system(name)
        assert rs.nroots == total and rs.npos == pos
        simples = [rs.root_vec(i) for i in range(rs.n)]

        def reflect(v, a):
            c = (dot(v, a, rs.gram) + dot(v, a, rs.gram)) / dot(a, a, rs.gram)
            return tuple(x - c * y for x, y in zip(v, a))

        seen = set(simples)
        frontier = list(seen)
        while frontier:
            new = []
            for v in frontier:
                for a in simples:
                    w = reflect(v, a)
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
            frontier = new
        full = seen | {tuple(-c for c in v) for v in seen}
        assert len(full) == total
        assert full == set(_vectors(rs))


def _norm(rs, i):
    return inner_product(rs, rs.root_vec(i), rs.root_vec(i))


def test_b2_has_two_lengths():
    rs = build_root_system("B2")
    norms = {repr(_norm(rs, i)) for i in range(rs.npos)}
    assert norms == {"1", "2"}
    # a long root has norm 2 under the normalization
    long_roots = [i for i in range(rs.npos) if _norm(rs, i) == Q5(2)]
    assert long_roots


def test_inner_product_contract():
    rs = build_root_system("B2")
    a = rs.root_vec(0)
    assert inner_product(rs, a, tuple(-c for c in a)) == -inner_product(rs, a, a)
    with pytest.raises(ValueError):
        inner_product(rs, a, a[:-1])
    # commuting simple pair inside D4's fork is orthogonal
    d4 = build_root_system("D4")
    assert inner_product(d4, d4.root_vec(2), d4.root_vec(3)) == Q5(0)


def test_reflections_are_involutions_and_permute_roots():
    for name in ["A2", "B3", "H3", "D4"]:
        rs = build_root_system(name)
        for i in range(rs.npos):
            s = reflection_in_root(rs, i)
            assert s.is_involution()
            assert int(s.img[i]) == neg(rs, i)
            assert sorted(int(x) for x in s.img) == list(range(rs.nroots))


def test_a2_reflection_formula():
    rs = build_root_system("A2")
    s1 = reflection_in_root(rs, 0)
    expected = tuple(a + b for a, b in zip(rs.root_vec(0), rs.root_vec(1)))
    assert rs.root_vec(int(s1.img[1])) == expected


def test_positive_roots_have_nonnegative_coordinates():
    for name in ["A4", "B4", "D5", "F4", "H4", "E6"]:
        rs = build_root_system(name)
        for i in range(rs.npos):
            assert all(c >= Q5(0) for c in rs.root_vec(i))


def _full_closure(label):
    """(root_pairs, npos, simple perms, reflection perms) of the closure of
    the simple roots under the simple reflections over all roots, positive
    and negative, with the positive half picked out by sign afterwards.

    The reference for the positive-only build: the same integer pairs, the
    same order of the positive roots (simple roots first, then by their
    coordinates as reduced fractions), every simple permutation read off the
    closure's images of both halves, and each other reflection composed as
    r_{s_i(beta)} = s_i r_beta s_i along the tree of first images.
    """
    rs = RootSystem(label)
    n = rs.n
    fp, fq = rs.form
    diag = np.diagonal(fp)
    cartan = (4 * fp // diag, 4 * fq // diag)
    simples = [tuple(2 * (j == i) for j in range(n)) + (0,) * n for i in range(n)]
    seen, images, parent = set(simples), {}, {}
    frontier = simples
    while frontier:
        F = np.array(frontier, dtype=np.int64)
        shift = pair_matmul((F[:, :n], F[:, n:]), cartan)
        new = []
        for v, sp, sq in zip(frontier, (shift[0] // 2).tolist(), (shift[1] // 2).tolist()):
            images[v] = []
            for i in range(n):
                w = list(v)
                w[i] -= sp[i]
                w[n + i] -= sq[i]
                w = tuple(w)
                images[v].append(w)
                if w not in seen:
                    seen.add(w)
                    new.append(w)
                    parent[w] = (v, i)
        frontier = new
    roots = list(seen)
    R = np.array(roots, dtype=np.int64)
    positive = pair_sign((R[:, :n].sum(axis=1), R[:, n:].sum(axis=1))) > 0

    def key(v):
        out = []
        for p, q in zip(v[:n], v[n:]):
            g = gcd(p, q, 2)
            out.append((p // g, q // g, 2 // g))
        return tuple(out)

    pos = simples + sorted((v for v, up in zip(roots, positive) if up and v not in simples),
                           key=key)
    table = pos + [tuple(-x for x in v) for v in pos]
    index = {v: i for i, v in enumerate(table)}
    T = np.array(table, dtype=np.int64)
    simple_perms = [np.array([index[images[v][i]] for v in table]) for i in range(n)]
    perms = dict(enumerate(simple_perms))

    def perm(k):
        if k not in perms:
            v, i = parent[table[k]]
            s = simple_perms[i]
            perms[k] = s[perm(index[v])[s]]
        return perms[k]

    return (T[:, :n], T[:, n:]), len(pos), simple_perms, [perm(k) for k in range(len(pos))]


@pytest.mark.parametrize("name", [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 10)]
                         + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8", "F4", "H3", "H4"])
def test_positive_closure_matches_the_full_closure(name):
    # the build closes only the positive roots and negates them; its table,
    # simple permutations and reflections must be those of the closure over
    # all roots
    label = parse_label(name)
    rs = RootSystem(label)
    pairs, npos, simple_perms, perms = _full_closure(label)
    assert rs.npos == npos and rs.nroots == 2 * npos
    assert all(np.array_equal(a, b) for a, b in zip(rs.root_pairs, pairs))
    assert all(np.array_equal(rs.reflection_perm(i), p) for i, p in enumerate(simple_perms))
    for j in range(rs.nroots):
        assert np.array_equal(rs.reflection_perm(j), perms[j % npos]), j


def test_i2_backend():
    rs = build_root_system("I2(7)")
    s, t = rs.simple_reflections()
    assert (s * t).order() == 7
    assert not rs.orthogonal(0, 3)
    rs8 = build_root_system("I2(8)")
    assert rs8.orthogonal(0, 4) and not rs8.orthogonal(0, 3)


def test_signed_permutation_embedding():
    rs = build_root_system("B3")
    w = signed_permutation(rs, [-3, -2, -1])
    assert w.is_involution()
    with pytest.raises(ValueError):
        signed_permutation(rs, [1, 2, 2])
    d4 = build_root_system("D4")
    with pytest.raises(ValueError):
        signed_permutation(d4, [-1, 2, 3, 4])  # odd number of sign flips
    a3 = build_root_system("A3")
    assert signed_permutation(a3, [2, 1, 3, 4]) == a3.reflection(0)


@pytest.mark.parametrize("name", ["B6", "E8", "F4", "H4"])
def test_reflection_perms_match_gram_form(name):
    # r_a(v) = v - 2<v,a>/<a,a> a, evaluated exactly in the Gram form
    rs = build_root_system(name)
    where = {v: i for i, v in enumerate(_vectors(rs))}
    for i in range(rs.npos):
        a = rs.root_vec(i)
        ga = vec_mat(a, rs.gram)
        nn = dot(a, ga)
        expected = []
        for v in _vectors(rs)[: rs.npos]:
            c = (dot(v, ga) * 2) / nn
            expected.append(where[tuple(x - c * y for x, y in zip(v, a))])
        expected += [neg(rs, j) for j in expected]
        assert rs.reflection_perm(i).tolist() == expected, i
        assert rs.reflection_perm(neg(rs, i)).tolist() == expected, i


# bond order from the ratio 4cos^2 of the angle between two roots; every
# value is realizable in Q(sqrt5)
BOND_FROM_RATIO = {
    Q5(1): 3,
    Q5(2): 4,
    Q5(3): 6,
    Q5(3, 1, 2): 5,    # 4 cos^2(pi/5)
    Q5(3, -1, 2): 5,   # 4 cos^2(2pi/5), same product order
    Q5(5, 1, 2): 10,   # 4 cos^2(pi/10)
    Q5(5, -1, 2): 10,  # 4 cos^2(3pi/10)
}


def _inner_table(rs):
    """Exact <a, b> over the positive roots: the public inner product of a
    with each simple root, extended linearly in b."""
    vecs = _vectors(rs)[: rs.npos]
    units = [[int(k == c) for c in range(rs.n)] for k in range(rs.n)]
    with_simple = [[inner_product(rs, u, e) for e in units] for u in vecs]
    return {(a, b): sum((x * y for x, y in zip(with_simple[a], v) if y), Q5(0))
            for a in range(rs.npos) for b, v in enumerate(vecs)}


@pytest.mark.parametrize("name", ["B6", "D6", "E7", "F4", "H4"])
def test_orthogonal_and_bond_order_match_the_gram_form(name):
    # r_a fixes b iff <a, b> = 0, and r_a r_b has the order that 4 cos^2 of
    # the angle between a and b names; both are invariant under a -> -a; the
    # bonds from the Gram form agree with the order of the permutation
    # product everywhere
    rs = build_root_system(name)
    inner = _inner_table(rs)
    for i in range(rs.nroots):
        for j in range(rs.nroots):
            a, b = i % rs.npos, j % rs.npos
            c = inner[a, b]
            assert rs.orthogonal(i, j) == (a != b and not c), (i, j)
            order = bond_order(rs, i, j)
            assert rs.bond(i, j) == order, (i, j)
            if a != b:
                expected = BOND_FROM_RATIO.get(c * c * 4 / (inner[a, a] * inner[b, b])) if c else 2
                assert order == expected, (i, j)


def test_e8_orthogonal_matches_the_gram_form():
    rs = build_root_system("E8")
    inner = _inner_table(rs)
    for i in range(rs.nroots):
        for j in range(rs.nroots):
            a, b = i % rs.npos, j % rs.npos
            assert rs.orthogonal(i, j) == (a != b and not inner[a, b]), (i, j)
            assert rs.bond(i, j) == bond_order(rs, i, j), (i, j)


@pytest.mark.parametrize("m", [7, 8, 12])
def test_i2_orthogonal_and_bond_order_index_formulas(m):
    # root k lies at angle k*pi/m: two roots are orthogonal iff their angles
    # differ by pi/2, and r_i r_j is the rotation by 2(i - j)pi/m
    rs = build_root_system(f"I2({m})")
    for i in range(rs.nroots):
        for j in range(rs.nroots):
            d = (i - j) % m
            assert rs.orthogonal(i, j) == (2 * d == m), (i, j)
            assert bond_order(rs, i, j) == m // gcd(d, m), (i, j)
            assert rs.bond(i, j) == bond_order(rs, i, j), (i, j)


@pytest.mark.parametrize("m", [127, 128, 129, 256])
def test_i2_bonds_hold_orders_past_the_int8_range(m):
    # bonds up to m must not wrap in a narrow dtype: the simple roots of
    # I2(m) carry the bond m, so the whole group is I2(m) of order 2m
    rs = build_root_system(f"I2({m})")
    simples = list(rs.simple_roots)
    for i in simples:
        for j in range(rs.nroots):
            assert rs.bond(i, j) == bond_order(rs, i, j), (i, j)
    whole = parabolic.standard_parabolic(rs, (0, 1))
    assert whole.components == (f"I2({m})",)
    assert whole.order == 2 * m


def _i2_fixes_pointwise(w, X):
    """w fixes X pointwise iff it maps the facet of a generic point of X to
    itself, that is, iff it keeps the signs of all roots there."""
    signs = w.rs.signs_at(X)
    return bool((signs[w.img] == signs).all())


@pytest.mark.parametrize("m", [5, 6])
def test_i2_geometry(m):
    # the axis of root k has residue 2k + m; zero is fixed by every element,
    # the axis of root k by 1 and r_k, and any other line or the plane by 1
    rs = build_root_system(f"I2({m})")
    for k in range(rs.nroots):
        assert rs.span([k]) == I2Subspace(m, 1, 2 * k % (2 * m))
        assert rs.fixed_space([k]) == I2Subspace(m, 1, (2 * k + m) % (2 * m))
        assert rs.fixed_space([k]) != rs.span([k])
    assert rs.span([0, 1]) == rs.fixed_space([]) == I2Subspace(m, 2)
    W = list(generate(rs.simple_reflections()))
    spaces = [I2Subspace(m, 0), I2Subspace(m, 2)]
    spaces += [I2Subspace(m, 1, t) for t in range(2 * m)]
    for X in spaces:
        if X.dim == 0:
            axis_of = list(range(m))
            expected = {w.key for w in W}
        else:
            axis_of = [k for k in range(m) if X.dim == 1 and (2 * k + m) % (2 * m) == X.t]
            expected = {identity(rs).key} | {rs.reflection(k).key for k in axis_of}
        assert {w.key for w in W if _i2_fixes_pointwise(w, X)} == expected, X
        roots = {r for k in axis_of for r in (k, neg(rs, k))}
        assert pointwise_stabilizer(rs, X).roots == roots, X


def _signs_by_dot(rs, X):
    """Reference signs at a generic point of X: each positive root's value on
    the first echelon row of X it does not vanish on, in Q(sqrt5).  The rows
    are read back from their pairs, each a positive multiple of the echelon
    row, which keeps every sign."""
    return _lex_signs_by_dot(rs, from_pairs(X.pairs))


def _lex_signs_by_dot(rs, rows):
    """Each positive root's sign on the first of the Q(sqrt5) rows it does
    not vanish on, 0 if none; the negative roots take the opposite signs."""
    forms = [vec_mat(row, rs.gram) for row in rows]
    signs = []
    for v in _vectors(rs)[: rs.npos]:
        values = [dot(f, v) for f in forms]
        signs.append(next((x.sign() for x in values if x), 0))
    return signs + [-s for s in signs]


@pytest.mark.parametrize("name", ["B6", "D6", "E7", "E8", "F4", "H3", "H4"])
def test_signs_at_match_the_exact_inner_products(name):
    rs = build_root_system(name)
    rng = random.Random(name)
    spaces = [rs.fixed_space(rng.sample(range(rs.nroots), rng.randint(0, rs.n)))
              for _ in range(12)]
    for shape in shape_catalog(rs):
        P = standard_parabolic(rs, shape.rep_subset)
        spaces.extend(invariant_split(P, orthogonal_complement(P)))
    # the echelon rows have denominators (except in B6, where all are
    # integral) and, in H3 and H4, sqrt5 entries: a pair row is its echelon
    # row times the least common denominator, which is its pivot, the first
    # nonzero entry; sqrt5 parts stay nonzero under the scaling
    pivots = [int(row[row.nonzero()[0][0]]) for X in spaces for row in X.pairs[0]]
    assert (name == "B6") != any(d > 1 for d in pivots)
    assert (name[0] == "H") == any(X.pairs[1].any() for X in spaces)
    for X in spaces:
        assert rs.signs_at(X).tolist() == _signs_by_dot(rs, X), X


@pytest.mark.parametrize("name", ["B6", "E8", "F4", "H4"])
def test_span_signs_match_the_exact_inner_products(name):
    # the point a_1 + e a_2 + ... of the given simple roots in their order; it
    # vanishes exactly where the span does
    rs = build_root_system(name)
    rng = random.Random(name)
    for _ in range(12):
        simples = rng.sample(rs.simple_roots, rng.randint(0, rs.n))
        signs = rs.stacked_span_signs([simples])[0]
        assert signs.tolist() == _lex_signs_by_dot(rs, [rs.root_vec(r) for r in simples])
        assert ((signs == 0) == (rs.signs_at(rs.span(simples)) == 0)).all(), simples


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_stacked_span_signs_match_one_set_at_a_time(name):
    # every standard subset in one stack, the shorter sets padded, against
    # each subset alone
    rs = build_root_system(name)
    subsets = [[rs.simple_roots[i] for i in range(rs.n) if mask >> i & 1]
               for mask in range(1 << rs.n)]
    stacked = rs.stacked_span_signs(subsets)
    assert stacked.shape == (len(subsets), rs.nroots)
    for signs, simples in zip(stacked, subsets):
        assert signs.tolist() == rs.stacked_span_signs([simples])[0].tolist(), simples



def _random_parabolics(rs, rng, count):
    """Parabolics w(W_J) for random standard W_J and random words w."""
    simple = rs.simple_reflections()
    out = []
    for _ in range(count):
        w = identity(rs)
        for _ in range(rng.randint(0, 3 * rs.npos)):
            w = w * rng.choice(simple)
        P = standard_parabolic(rs, rng.sample(range(rs.n), rng.randint(0, rs.n)))
        out.append(parabolic.ReflectionSubgroup(rs, {int(w.img[r]) for r in P.roots}))
    return out


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_fixed_projections_against_the_eliminated_fixed_space(name):
    # Delta_P u Delta_perp(P) of every shape and the simple roots of random
    # parabolics: the projections span the kernel that rref computes, and the
    # roots vanishing at their signs are those vanishing on it
    rs = build_root_system(name)
    sets = []
    for shape in shape_catalog(rs):
        sets.append(shape.parabolic.simples + orthogonal_complement(shape.parabolic).simples)
    sets += [U.simples for U in _random_parabolics(rs, random.Random(name), 20)]
    # the forms of each set are the positive roots' inner products with its
    # projections, a copy of their own (no view of the whole stack's product)
    projections, forms, signs = rs.fixed_projections(sets)
    assert signs.shape == (len(sets), rs.nroots)
    for S, pi, on_roots, row in zip(sets, projections, forms, signs):
        X = rs.fixed_space(S)
        assert (pi if isinstance(pi, I2Subspace) else Subspace(pi, rs.n)) == X, S
        assert ((row == 0) == (rs.signs_at(X) == 0)).all(), S
        assert (rs.fixed_projections([S])[2][0] == row).all(), S   # one set at a time
        if rs.is_vector:
            want = np.hstack(pair_matmul(rs._root_forms, tuple(m.T for m in pi)))
            assert np.array_equal(on_roots, want) and on_roots.base is None, S
        else:
            assert on_roots is None


@pytest.mark.parametrize("name", ["A2", "I2(5)"])
def test_fixed_projections_refuse_dependent_roots(name):
    # {a1, a2, a1 + a2}: the product of the three reflections is a reflection,
    # whose fixed line is not orthogonal to all three roots
    rs = build_root_system(name)
    a, b = rs.simple_roots
    both = next(r for r in range(rs.npos) if r not in (a, b))
    rs.fixed_projections([[a, b]])
    with pytest.raises(RuntimeError, match="dependent"):
        rs.fixed_projections([[a, b], [a, b, both]])


# sha256 of the positive roots, as (a, b, den) per coordinate, and of the
# simple reflection permutations; root indices are part of every output
ROOT_ORDER_SHA256 = {
    "H3": "5f1cf91cfc410e912ad946ac4f1d180ee7b73946678d6344d88530c8c8bfdd55",
    "H4": "0cd3f4a27265b93905ef81807e18e274c0586d2e651201b56552ea81396ca28f",
    "F4": "28ddc94eb0f0c348bd0b0b03bb0731a8eea2e6f5373463419f5a25d64eea4f32",
    "E8": "9cd0775d3d284e5f05ec988dd1db07d20d6a89214dc2cd78c2e687b68dc07df1",
}


@pytest.mark.parametrize("name", sorted(ROOT_ORDER_SHA256))
def test_root_order_is_pinned(name):
    rs = build_root_system(name)
    roots = [tuple((c.a, c.b, c.den) for c in rs.root_vec(i)) for i in range(rs.npos)]
    perms = [rs.reflection_perm(i).tolist() for i in rs.simple_roots]
    digest = hashlib.sha256(repr((roots, perms)).encode()).hexdigest()
    assert digest == ROOT_ORDER_SHA256[name]


# the only place a Q5 may be built while a root system, its table and its
# lattice suites are computed: the Gram matrix
Q5_SITES = {("rootsys", "_gram_matrix")}


def test_no_q5_per_root_or_per_element(monkeypatch):
    # a fresh root system and fresh catalogs, outside every cache
    monkeypatch.setattr(parabolic, "_catalogs", {})
    monkeypatch.setattr(parabolic, "_groupoids", {})
    outside = Counter()
    built = 0
    init = Q5.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        frame, first = sys._getframe(1), None
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("coxnorm.") and module != "coxnorm.qsqrt5":
                site = (module[len("coxnorm."):], frame.f_code.co_qualname)
                first = first or site
                if site in Q5_SITES:
                    break
            frame = frame.f_back
        if frame is None:
            outside[first] += 1
        init(self, *args)

    monkeypatch.setattr(Q5, "__init__", counted)
    for name in ["H4", "E7"]:
        rs = RootSystem(parse_label(name))
        compute_table(rs)
        parabolic_concepts(rs)
        shape_closure_graph(rs)
        assert verify_galois(rs)["ok"] and verify_section8(rs)["ok"]
    assert built and not outside, outside.most_common(5)
