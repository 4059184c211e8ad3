from coxnorm.groups import generate, identity
from coxnorm.involutions import negated_roots
from coxnorm.normalizer import decompose, normalizer_order_at
from coxnorm.parabolic import shape_catalog
from coxnorm.rootsys import build_root_system

import pytest

from oracles import (ClassicalGenerators, classical_complement_generators,
                     classical_normalizer_order, close_roots)


def shape_by_partition(rs, parts, decoration=""):
    for s in shape_catalog(rs):
        if s.partition == parts and s.decoration == decoration:
            return s
    raise KeyError(parts)


def test_x1_block_swap():
    # two leading parts of size 3: x1 swaps {1,2,3} and {4,5,6}
    rs = build_root_system("A5")
    gens = ClassicalGenerators(rs, shape_by_partition(rs, (3, 3)))
    assert gens.x(0) == (4, 5, 6, 1, 2, 3)


def test_y1_negate_reverse():
    # B5 with a single part of size 5: y1 maps v to -(6 - v)
    rs = build_root_system("B5")
    gens = ClassicalGenerators(rs, shape_by_partition(rs, (5,)))
    assert gens.y(0) == (-5, -4, -3, -2, -1)


def test_y_prime_two_odd_parts():
    # equal odd parts of size 3: y'_1 negates and reverses all six points
    rs = build_root_system("D6")
    gens = ClassicalGenerators(rs, shape_by_partition(rs, (3, 3)))
    assert gens.y_prime(0) == (-6, -5, -4, -3, -2, -1)


def test_z_prime_distinct_odd_parts():
    # parts 5 and 3: z'_12 negates and reverses both blocks
    rs = build_root_system("D8")
    gens = ClassicalGenerators(rs, shape_by_partition(rs, (5, 3)))
    assert gens.z_prime(0, 1) == (-5, -4, -3, -2, -1, -8, -7, -6)


def test_z_with_block():
    # D5 with one part of size 3 and a block on {4,5}: the odd part is
    # negated and reversed and the last block point changes sign (the
    # canonical length-zero choice of the extra sign change)
    rs = build_root_system("D5")
    gens = ClassicalGenerators(rs, shape_by_partition(rs, (3,)))
    assert gens.z(0) == (-3, -2, -1, 4, -5)


def test_rejects_non_classical():
    rs = build_root_system("F4")
    with pytest.raises(ValueError):
        classical_complement_generators(rs, shape_catalog(rs)[2])


def check_shape(rs, shape):
    dec = decompose(rs, shape)
    gens = classical_complement_generators(rs, shape)
    roots = set()
    for g in gens.embedded("q"):
        roots |= negated_roots(g)
    q_roots = close_roots(rs, roots) if roots else frozenset()
    assert q_roots == dec.Q.roots, (shape.label, "Q")
    for name, want in (("a", dec.A), ("b", dec.B), ("c", dec.C)):
        g = gens.embedded(name)
        got = {identity(rs).key} if not g else {w.key for w in generate(g)}
        assert got == {w.key for w in want}, (shape.label, name)


def test_generator_sets_match_decompose_small():
    for name in ["A4", "B3", "D4", "D5"]:
        rs = build_root_system(name)
        for shape in shape_catalog(rs):
            check_shape(rs, shape)


def test_d6_three_regimes():
    rs = build_root_system("D6")
    cat = shape_catalog(rs)
    # even partition of n (both sign classes), block case with a1 > 1,
    # and the odd-partition complement with nontrivial C
    for selector in ["(A1^3)+", "(A1^3)-", "[211]", "[3111]", "[321]", "[51]"]:
        check_shape(rs, cat.by_selector(selector))


# every classical group up to rank 14: 3,881 shapes
CLASSICAL_UP_TO_14 = ([f"A{n}" for n in range(1, 15)] + [f"B{n}" for n in range(2, 15)]
                      + [f"D{n}" for n in range(4, 15)])


def test_normalizer_orders_match_the_closed_forms_up_to_rank_14():
    # |N| is read off D_pi, which the groupoid walk closes; the closed form
    # lists nothing, so it checks |N| past the brute-force limit, and a walk
    # that loses a loop of D_pi fails it at any rank
    checked = 0
    for name in CLASSICAL_UP_TO_14:
        catalog = shape_catalog(build_root_system(name))
        for shape in catalog:
            assert normalizer_order_at(catalog, shape.index) == classical_normalizer_order(
                shape), (name, shape.label)
            checked += 1
    assert checked == 3881
