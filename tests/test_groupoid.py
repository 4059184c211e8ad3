"""The subset groupoid against the root-set orbit computations it replaced."""

import numpy as np
import pytest

from coxnorm.galois import orthogonal_complement
from coxnorm.groups import GroupElement, OrbitStabilizer, identity, parabolic_longest_element
from coxnorm.involutions import involution_class_representatives
from coxnorm.normalizer import (_complement_D, _permutation_image, decompose,
                                normalizer_order)
from coxnorm.oracle import load_fixture
from coxnorm.parabolic import (ReflectionSubgroup, SubsetGroupoid, _tuple_ranks,
                               orthogonal_join, shape_catalog, standard_parabolic,
                               standard_subset, subset_groupoid)
from coxnorm.rootsys import build_root_system

from fixture_groups import FIXTURE_GROUPS, ORACLE_GROUPS
from oracles import (degree, edge_target, generated_by, neg, schreier_complement,
                     schreier_loops, simple_permutation)


GROUPS = ["A7", "B6", "D6", "E6", "E7", "F4", "H4"]


@pytest.mark.parametrize("name", GROUPS)
def test_normalizer_orders_match_orbit_stabilizer(name):
    rs = build_root_system(name)
    for shape in shape_catalog(rs):
        P = standard_parabolic(rs, shape.rep_subset)
        size = OrbitStabilizer(rs, rs.simple_reflections(), P.roots).orbit_size
        assert rs.group_order % size == 0
        expected = rs.group_order // size
        assert decompose(rs, shape).n_order == expected, shape.label
        assert normalizer_order(P) == expected, shape.label


@pytest.mark.parametrize("name", GROUPS)
def test_components_match_root_set_conjugacy(name):
    rs = build_root_system(name)
    catalog = shape_catalog(rs)
    groupoid = subset_groupoid(rs)
    assert len(groupoid.representatives) == len(catalog)
    for mask in range(len(groupoid.component_of_mask)):
        subset = [i for i in range(rs.n) if mask >> i & 1]
        roots = standard_parabolic(rs, subset).roots
        assert catalog.class_of_roots(roots) == catalog.class_of_subset(subset)


@pytest.mark.parametrize("name", ["B4", "E6", "H3", "I2(5)", "I2(8)"])
def test_edges_map_simple_roots_onto_simple_roots(name):
    rs = build_root_system(name)
    groupoid = subset_groupoid(rs)
    for mask in range(1 << rs.n):
        J = [r for i, r in enumerate(rs.simple_roots) if mask >> i & 1]
        for s in (s for s in range(rs.n) if not mask >> s & 1):
            nu, target = groupoid.nu(mask, s), edge_target(groupoid, mask, s)
            K = {r for i, r in enumerate(rs.simple_roots) if target >> i & 1}
            assert {int(nu.img[r]) for r in J} == K


@pytest.mark.parametrize("name", FIXTURE_GROUPS + ["A9", "D9", "D11"])
def test_edge_targets_match_the_longest_elements_of_the_full_masks(name):
    # the edge (K, s) read off the opposition of one component agrees with
    # w0(K) w0(K u {s}), both climbed from the identity; odd D_n, E6 and
    # odd I2(m) are among the groups, where the opposition moves nodes
    rs = build_root_system(name)
    groupoid = SubsetGroupoid(rs)
    w0 = [parabolic_longest_element(rs, [r for i, r in enumerate(rs.simple_roots) if mask >> i & 1])
          for mask in range(1 << rs.n)]
    position = {r: i for i, r in enumerate(rs.simple_roots)}
    for mask in range(1 << rs.n):
        J = [r for i, r in enumerate(rs.simple_roots) if mask >> i & 1]
        for s in (s for s in range(rs.n) if not mask >> s & 1):
            nu = w0[mask] * w0[mask | 1 << s]
            target = sum(1 << position[int(nu.img[r])] for r in J)
            assert edge_target(groupoid, mask, s) == target, (mask, s)
            assert groupoid.nu(mask, s) == nu, (mask, s)


def test_set_up_keeps_longest_elements_of_connected_subsets_only():
    # A12's 4,096 subsets hold 78 connected ones, the intervals of the chain
    rs = build_root_system("A12")
    groupoid = SubsetGroupoid(rs)
    held, stack = {}, list(vars(groupoid).values())
    while stack:
        x = stack.pop()
        if isinstance(x, GroupElement):
            held[id(x)] = x
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
    intervals = [range(i, j) for i in range(rs.n) for j in range(i + 1, rs.n + 1)]
    expected = {identity(rs).key} | {
        parabolic_longest_element(rs, [rs.simple_roots[k] for k in J]).key for J in intervals}
    assert len(intervals) == 78 and len(held) <= 79
    assert {g.key for g in held.values()} == expected


def test_decompose_rejects_non_standard_parabolic():
    rs = build_root_system("A3")
    # the reflection in the highest root generates a parabolic that is not standard
    highest = max(range(rs.npos), key=lambda i: sum(c.a for c in rs.root_vec(i)))
    P = ReflectionSubgroup(rs, frozenset({highest, neg(rs, highest)}))
    with pytest.raises(ValueError, match="standard parabolic"):
        decompose(rs, P)
    assert normalizer_order(P) == normalizer_order(standard_parabolic(rs, (0,)))


def test_e8_d_column_matches_fixture():
    rs = build_root_system("E8")
    rows = load_fixture("E8").rows
    catalog = shape_catalog(rs)
    assert len(catalog) == len(rows) == 41
    for shape, row in zip(catalog, rows):
        P = standard_parabolic(rs, shape.rep_subset)
        d_order = normalizer_order(P) // (P.order * orthogonal_complement(P).order)
        assert (shape.index, d_order) == (row.index, row.d_order), shape.label


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_kept_longest_elements_match_a_climb_from_the_identity(name):
    # the groupoid climbs w0(C) of each connected C from w0(C minus its largest
    # member) and multiplies the w0 of J's components on first read
    rs = build_root_system(name)
    groupoid = subset_groupoid(rs)
    for mask in range(1 << rs.n):
        subset = tuple(i for i in range(rs.n) if mask >> i & 1)
        kept = groupoid.longest_element(subset)
        fresh = parabolic_longest_element(rs, [rs.simple_roots[i] for i in subset])
        assert kept.img.dtype == fresh.img.dtype and np.array_equal(kept.img, fresh.img), subset


def test_longest_element_of_a_non_standard_subsystem_climbs():
    rs = build_root_system("D5")
    highest = max(range(rs.npos), key=lambda i: sum(c.a for c in rs.root_vec(i)))
    sub = generated_by(rs, [highest, rs.simple_roots[1], rs.simple_roots[3]])
    assert standard_subset(sub) is None
    w0 = parabolic_longest_element(rs, sub.simples)
    assert (w0.img[list(sub.pos)] >= rs.npos).all()
    # it lies in the subgroup: it is an involution that fixes every root orthogonal to it
    assert w0.is_involution()
    outside = [i for i in range(rs.nroots) if all(rs.orthogonal(i, j) for j in sub.simples)]
    assert (w0.img[outside] == outside).all()


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_skipped_loops_are_reflections_of_the_orthogonal_complement(name):
    # the walk skips the loop of every edge whose added node s is orthogonal
    # to K, which must be a reflection in a root of Q = perp(W_J); every other
    # loop must permute Delta_J as the walk's index tuples say (reverse tree
    # edges, skipped unread, by the identity); and D must be the same from
    # the loops of every edge
    rs = build_root_system(name)
    groupoid = subset_groupoid(rs)
    reflections = {rs.reflection(i).key: i for i in range(rs.npos)}
    for shape in shape_catalog(rs):
        subset = shape.rep_subset
        P = standard_parabolic(rs, subset)
        Q = orthogonal_complement(P)
        _, loops = groupoid.walk(subset)
        walked = {(K, s): perm for perm, K, s in loops}
        unmoved = tuple(range(len(subset)))
        for K, s, g in schreier_loops(groupoid, subset):
            if any(rs.bond(rs.simple_roots[s], rs.simple_roots[j]) > 2
                   for j in range(rs.n) if K >> j & 1):
                assert simple_permutation(g, subset) == walked.get((K, s), unmoved), (K, s)
            else:
                assert (K, s) not in walked
                assert g.is_identity() or reflections.get(g.key) in Q.roots, (name, shape.label)
        pq = orthogonal_join(P, Q)
        assert ([d.key for d in _complement_D(rs, subset, P, Q)]
                == [d.key for d in schreier_complement(rs, subset, pq)]), (name, shape.label)


@pytest.mark.parametrize("name", FIXTURE_GROUPS + ["A8", "B7", "D7", "D8"])
def test_d_is_its_permutation_image_on_the_simple_roots_of_p(name):
    # |N| and the centralizer orders read |D| as |D_pi|, the group the walk's
    # permutations of Delta_J generate; d -> its permutation of Delta_J must
    # be a bijection from D, enumerated from the loops of every edge, onto it
    rs = build_root_system(name)
    catalog = shape_catalog(rs)
    for shape in catalog:
        subset = shape.rep_subset
        P = shape.parabolic
        D = schreier_complement(rs, subset, orthogonal_join(P, orthogonal_complement(P)))
        image = _permutation_image(rs, subset)[0]
        assert len(image) == len(D), (name, shape.label)
        assert {simple_permutation(d, subset) for d in D} == image, (name, shape.label)
    for rec in involution_class_representatives(rs):
        assert rec.degree == degree(rec.element), (name, rec.shape_index)
        assert rec.centralizer_order == normalizer_order(rec.parabolic), (name, rec.shape_index)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_longest_element_is_minus_one_as_the_opposition_table_says(name):
    # decompose's asterisk reads w0(J) = -1 on span Delta_J off sigma_C of
    # J's components, with no w0(J) made; the element itself must negate
    # every positive root of W_J exactly when the table says so
    rs = build_root_system(name)
    groupoid = subset_groupoid(rs)
    for shape in shape_catalog(rs):
        J = shape.rep_subset
        assert (groupoid.longest_is_minus_one(J)
                == groupoid.longest_element(J).negates(shape.parabolic.pos)), (name, shape.label)


def test_tuple_ranks_are_the_positions_in_the_order_of_sorted_tuples():
    for n in range(1, 11):
        ordered = sorted(range(1 << n), key=lambda m: tuple(i for i in range(n) if m >> i & 1))
        assert [ordered[r] for r in _tuple_ranks(n).tolist()] == list(range(1 << n)), n


@pytest.mark.parametrize("name", FIXTURE_GROUPS + ["A9", "D9", "D11"])
def test_representatives_are_the_least_members_of_their_components(name):
    # the groupoid keeps each component's least member, in the order of
    # sorted index tuples, not the sorted members of every component
    rs = build_root_system(name)
    groupoid = subset_groupoid(rs)
    least = {}
    for mask, c in enumerate(groupoid.component_of_mask.tolist()):
        members = tuple(i for i in range(rs.n) if mask >> i & 1)
        least[c] = min(least.get(c, members), members)
    assert groupoid.representatives == [least[c] for c in range(len(least))]
