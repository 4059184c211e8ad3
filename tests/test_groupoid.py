"""The subset groupoid against the root-set orbit computations it replaced."""

import numpy as np
import pytest

from coxnorm.galois import orthogonal_complement
from coxnorm.groups import parabolic_longest_element, set_stabilizer
from coxnorm.normalizer import (decompose, normalizer_order,
                                subsystem_longest_element)
from coxnorm.oracle import load_fixture
from coxnorm.parabolic import (ReflectionSubgroup, shape_catalog,
                               standard_parabolic, standard_subset,
                               subset_groupoid)
from coxnorm.rootsys import build_root_system

from fixture_groups import FIXTURE_GROUPS

GROUPS = ["A7", "B6", "D6", "E6", "E7", "F4", "H4"]


@pytest.mark.parametrize("name", GROUPS)
def test_normalizer_orders_match_orbit_stabilizer(name):
    rs = build_root_system(name)
    for shape in shape_catalog(rs):
        P = standard_parabolic(rs, shape.rep_subset)
        _, expected = set_stabilizer(rs, rs.simple_reflections(), sorted(P.roots),
                                     rs.group_order)
        assert decompose(rs, shape).n_order == expected, shape.label
        assert normalizer_order(P) == expected, shape.label


@pytest.mark.parametrize("name", GROUPS)
def test_components_match_root_set_conjugacy(name):
    rs = build_root_system(name)
    catalog = shape_catalog(rs)
    groupoid = subset_groupoid(rs)
    assert len(groupoid.components) == len(catalog)
    for members in groupoid.components:
        for subset in members:
            roots = standard_parabolic(rs, subset).roots
            assert catalog.class_of_roots(roots) == catalog.class_of_subset(subset)


@pytest.mark.parametrize("name", ["B4", "E6", "H3", "I2(5)", "I2(8)"])
def test_edges_map_simple_roots_onto_simple_roots(name):
    rs = build_root_system(name)
    groupoid = subset_groupoid(rs)
    for mask, edges in enumerate(groupoid.edges):
        J = [r for i, r in enumerate(rs.simple_roots) if mask >> i & 1]
        for nu, target in edges:
            K = {r for i, r in enumerate(rs.simple_roots) if target >> i & 1}
            assert {int(nu.img[r]) for r in J} == K


def test_decompose_rejects_non_standard_parabolic():
    rs = build_root_system("A3")
    # the reflection in the highest root generates a parabolic that is not standard
    highest = max(range(rs.npos), key=lambda i: sum(c.a for c in rs.root_vec(i)))
    P = ReflectionSubgroup(rs, frozenset({highest, rs.neg(highest)}))
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
    # the groupoid climbs w0(J) from w0(J minus its largest member) and keeps it
    rs = build_root_system(name)
    groupoid = subset_groupoid(rs)
    for mask in range(1 << rs.n):
        subset = tuple(i for i in range(rs.n) if mask >> i & 1)
        kept = groupoid.longest_element(subset)
        fresh = parabolic_longest_element(rs, [rs.simple_roots[i] for i in subset])
        assert kept.img.dtype == fresh.img.dtype and np.array_equal(kept.img, fresh.img), subset
        assert subsystem_longest_element(rs, standard_parabolic(rs, subset)) is kept


def test_longest_element_of_a_non_standard_subsystem_climbs():
    rs = build_root_system("D5")
    highest = max(range(rs.npos), key=lambda i: sum(c.a for c in rs.root_vec(i)))
    sub = ReflectionSubgroup.generated_by(rs, [highest, rs.simple_roots[1], rs.simple_roots[3]])
    assert standard_subset(sub) is None
    w0 = subsystem_longest_element(rs, sub)
    assert (w0.img[list(sub.pos)] >= rs.npos).all()
    assert np.array_equal(w0.img, parabolic_longest_element(rs, sub.simples).img)
