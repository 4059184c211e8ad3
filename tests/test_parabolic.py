import itertools
import random

import numpy as np
import pytest

from coxnorm.diagrams import close_root_masks, close_roots, positive_part, simple_masks
from coxnorm.groups import BRUTE_LIMIT
from coxnorm.linalg import Subspace
from coxnorm.oracle import commutation_table
from coxnorm.parabolic import (ReflectionSubgroup, fixed_space,
                               parabolic_closure, pointwise_stabilizer,
                               root_masks, shape_catalog, standard_parabolic)
from coxnorm.galois import orthogonal_complement
from coxnorm.rootsys import build_root_system, inner_product

from fixture_groups import FIXTURE_GROUPS


def test_fixed_space_dimensions():
    rs = build_root_system("A3")
    assert fixed_space(ReflectionSubgroup(rs, frozenset())).dim == 3
    assert fixed_space(ReflectionSubgroup.generated_by(rs, [0])).dim == 2
    # worked example: rank-9 model, P = <s5, s7, s9> fixes a 6-dimensional space
    a9 = build_root_system("A9")
    P = standard_parabolic(a9, (4, 6, 8))
    assert P.witness.dim == 6


def test_pointwise_stabilizer_extremes():
    rs = build_root_system("B3")
    zero = Subspace(([], []), rs.n)
    full = Subspace((np.eye(rs.n), np.zeros((rs.n, rs.n))), rs.n)
    assert len(pointwise_stabilizer(rs, zero).roots) == rs.nroots
    assert len(pointwise_stabilizer(rs, full).roots) == 0


def test_pointwise_stabilizer_of_root_line():
    # no root of A2 is perpendicular to a root, so the stabilizer is trivial
    rs = build_root_system("A2")
    line = rs.span([0])
    assert len(pointwise_stabilizer(rs, line).roots) == 0


def test_parabolic_closure():
    rs = build_root_system("B3")
    for subset in [(0,), (0, 2), (1, 2)]:
        P = standard_parabolic(rs, subset)
        cl = parabolic_closure(P)
        assert cl.roots == P.roots  # parabolics are closed
    # a non-parabolic reflection subgroup: <s_{e1+e2}, s_{e1-e2}> inside B2
    b2 = build_root_system("B2")
    long_roots = [i for i in range(b2.npos)
                  if inner_product(b2, b2.root_vec(i), b2.root_vec(i)) == 2]
    U = ReflectionSubgroup.generated_by(b2, long_roots)
    cl = parabolic_closure(U)
    assert cl.roots == frozenset(range(b2.nroots))  # closure jumps to W
    cl2 = parabolic_closure(cl)
    assert cl2.roots == cl.roots  # idempotent


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_standard_roots_by_support_are_the_closure_of_the_simple_roots(name):
    # Phi_J is the set of roots supported in J; the oracle closes the simple
    # roots of J under their reflections
    rs = build_root_system(name)
    for mask in range(1 << rs.n):
        subset = tuple(i for i in range(rs.n) if mask >> i & 1)
        closed = close_roots(rs, [rs.simple_roots[i] for i in subset])
        assert standard_parabolic(rs, subset).roots == closed, subset


def test_repeated_simple_index_selects_the_subset_once():
    rs = build_root_system("B3")
    assert standard_parabolic(rs, (1, 1)).roots == standard_parabolic(rs, (1,)).roots
    catalog = shape_catalog(rs)
    assert catalog.class_of_subset((1, 1)) == catalog.class_of_subset((1,))
    assert catalog.class_of_subset((0, 0, 0)) == catalog.class_of_subset((0,))


def reference_simples(rs, pos):
    """The simple system by the criterion, one root pair at a time: b is simple
    iff its reflection maps every other root of ``pos`` into ``pos``."""
    pos_set = set(pos)
    simples = []
    for b in pos:
        perm = rs.reflection_perm(b)
        ok = True
        for a in pos:
            if a != b and int(perm[a]) not in pos_set:
                ok = False
                break
        if ok:
            simples.append(b)
    return tuple(simples)


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_gathered_simple_systems_match_the_pairwise_reference(name):
    # every shape's representative, its orthogonal complement, and the
    # closures of random root pairs, parabolic or not
    rs = build_root_system(name)
    rng = random.Random(name)
    subsystems = []
    for shape in shape_catalog(rs):
        P = ReflectionSubgroup(rs, shape.roots)
        subsystems += [P.roots, orthogonal_complement(P).roots]
        # standard_parabolic names the simple roots of J without the gather
        standard = standard_parabolic(rs, shape.rep_subset)
        assert standard.simples == reference_simples(rs, standard.pos), shape.label
    subsystems += [close_roots(rs, rng.sample(range(rs.nroots), 2)) for _ in range(20)]
    want = []
    for roots in subsystems:
        pos = positive_part(rs, roots)
        want.append(reference_simples(rs, pos))
        assert ReflectionSubgroup(rs, roots).simples == want[-1], sorted(roots)
    # the whole list as one stack
    stacked = simple_masks(rs, root_masks(rs, subsystems)[:, : rs.npos])
    assert [tuple(np.flatnonzero(row).tolist()) for row in stacked] == want


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_closed_root_masks_match_the_breadth_first_closure(name):
    # random sets of 1-3 roots and the simple roots of every J, which are not
    # closed, so the fixpoint takes several passes, and the commuting set of
    # every W_J (brute-force groups)
    rs = build_root_system(name)
    rng = random.Random(name)
    generators = [rng.sample(range(rs.nroots), rng.randint(1, 3)) for _ in range(200)]
    commute = commutation_table(rs) if rs.group_order <= BRUTE_LIMIT else None
    for mask in range(1 << rs.n):
        W_J = standard_parabolic(rs, [i for i in range(rs.n) if mask >> i & 1])
        generators.append(list(W_J.simples))
        if commute is not None:
            generators.append(np.flatnonzero(commute[list(W_J.pos)].all(axis=0)).tolist())
    masks = root_masks(rs, generators)
    closed = close_root_masks(rs, masks)
    for k, gens in enumerate(generators):
        want = close_roots(rs, gens)
        assert set(np.flatnonzero(closed[k]).tolist()) == want, gens
        # alone, a row gets no help from the generators of the others
        assert set(np.flatnonzero(close_root_masks(rs, masks[k: k + 1])[0]).tolist()) == want


def test_galois_pair_laws_small_rank():
    for name in ["A3", "B3", "A4", "B4", "D4"]:
        rs = build_root_system(name)
        subsets = [tuple(i for i in range(rs.n) if mask >> i & 1)
                   for mask in range(1 << rs.n)]
        for I in subsets:
            U = standard_parabolic(rs, I)
            X = fixed_space(U)
            GU = pointwise_stabilizer(rs, X)
            assert U.roots <= GU.roots
            assert fixed_space(GU) == X  # F G F = F
        for I, J in itertools.combinations(subsets, 2):
            if set(I) <= set(J):
                UI = standard_parabolic(rs, I)
                UJ = standard_parabolic(rs, J)
                # one fixed space contains the other: adding it changes nothing
                XI, XJ = fixed_space(UI), fixed_space(UJ)
                both = Subspace(tuple(np.vstack(rows) for rows in zip(XI.pairs, XJ.pairs)),
                                rs.n)
                assert both == XI or both == XJ


def test_shape_counts():
    for name, want in [("A7", 22), ("B5", 19), ("B6", 30), ("D5", 14),
                       ("D6", 26), ("E6", 17), ("E7", 32), ("F4", 12),
                       ("H3", 6), ("H4", 10)]:
        assert len(shape_catalog(build_root_system(name))) == want


def test_shape_of_conjugates():
    rs = build_root_system("B4")
    cat = shape_catalog(rs)
    from coxnorm.groups import generate
    W = list(generate(rs.simple_reflections()))
    for shape in cat:
        P = standard_parabolic(rs, shape.rep_subset)
        w = W[len(W) // 3]
        conj_roots = frozenset(int(w.img[i]) for i in P.roots)
        assert cat.class_of_roots(conj_roots) == shape.index


def test_d_type_sign_classes_not_conjugate():
    rs = build_root_system("D6")
    cat = shape_catalog(rs)
    plus = [s for s in cat if s.label.startswith("(A1^3)+")]
    minus = [s for s in cat if s.label.startswith("(A1^3)-")]
    assert len(plus) == 1 and len(minus) == 1
    assert plus[0].index != minus[0].index
    assert plus[0].components == minus[0].components


def test_every_parabolic_is_conjugate_to_standard():
    # enumerate pointwise stabilizers of all root-spanned subspaces, rank <= 3
    for name in ["A3", "B3"]:
        rs = build_root_system(name)
        cat = shape_catalog(rs)
        for k in range(0, rs.n + 1):
            for comb in itertools.combinations(range(rs.npos), k):
                X = fixed_space(ReflectionSubgroup.generated_by(rs, comb)) \
                    if comb else None
                P = (pointwise_stabilizer(rs, X) if X is not None
                     else ReflectionSubgroup(rs, frozenset()))
                cat.class_of_roots(P.roots)  # must resolve without error


def test_selector_lookup():
    rs = build_root_system("A7")
    cat = shape_catalog(rs)
    assert cat.by_selector("[2222]").index == 8
    assert cat.by_selector("A1^4").index == 8
    assert cat.by_selector("8").index == 8
    assert cat.by_selector("∅").index == 1
    with pytest.raises(KeyError):
        cat.by_selector("Z9")


def test_subset_selector_reads_simple_reflections_from_one():
    rs = build_root_system("A5")
    cat = shape_catalog(rs)
    a1_squared = cat.by_selector("s1,s3")
    assert a1_squared.index == cat.class_of_subset((0, 2))
    assert a1_squared.type_label == "A1^2"
    assert cat.by_selector(" s1, s3 ") is cat.by_selector("s3,s1") is a1_squared
    assert cat.by_selector("s2") is cat.by_selector("s5") is cat[cat.class_of_subset((0,))]
    # no such simple reflection, an empty or unnumbered token, or a bare s
    for text in ("s9", "s0", "s1,s6", "s1,,s2", "s", "sx", "s1,sx"):
        with pytest.raises(KeyError):
            cat.by_selector(text)


def test_b5_shape_index_8_closure_example():
    # P of shape index 8 (B1A1^2, [2 2]): the closure of PQ is the whole group
    rs = build_root_system("B5")
    cat = shape_catalog(rs)
    shape = cat[8]
    assert shape.type_label == "B1A1^2"
    P = standard_parabolic(rs, shape.rep_subset)
    Q = orthogonal_complement(P)
    pq = ReflectionSubgroup(rs, P.roots | Q.roots)
    assert len(parabolic_closure(pq).roots) == rs.nroots
