from coxnorm import involutions
from coxnorm.groups import generate, identity, parabolic_longest_element
from coxnorm.involutions import (fixed_parabolic, has_central_minus_one,
                                 involution_class_representatives, mark_involution_shapes,
                                 negated_roots, section8_checks)
from coxnorm.parabolic import shape_catalog, subset_groupoid
from coxnorm.rootsys import build_root_system

import pytest

from fixture_groups import FIXTURE_GROUPS
from oracles import centralizer_equals_normalizer, degree, neg, negates


def test_fixed_parabolic_basics():
    rs = build_root_system("B2")
    assert fixed_parabolic(identity(rs)).roots == frozenset()
    w0 = subset_groupoid(rs).longest_element(range(rs.n))
    assert fixed_parabolic(w0).roots == frozenset(range(rs.nroots))
    s = rs.reflection(0)
    assert fixed_parabolic(s).roots == frozenset({0, neg(rs, 0)})
    with pytest.raises(ValueError):
        fixed_parabolic(rs.reflection(0) * rs.reflection(1))


def test_degree_plus_fixed_dim_is_rank():
    rs = build_root_system("B3")
    W = generate(rs.simple_reflections())
    for w in W:
        if w.is_involution() and not w.is_identity():
            P = fixed_parabolic(w)
            assert degree(w) + P.witness.dim == rs.n


def test_centralizer_equals_normalizer_exhaustive():
    for name in ["A3", "F4"]:
        rs = build_root_system(name)
        W = generate(rs.simple_reflections())
        for w in W:
            if w.is_involution() and not w.is_identity():
                rep = centralizer_equals_normalizer(w, W)
                assert rep["ok"], (name, rep)


def test_marked_shapes():
    assert mark_involution_shapes(build_root_system("A7")) == [1, 2, 3, 5, 8]
    b5 = mark_involution_shapes(build_root_system("B5"))
    assert len(b5) == 12 and 19 in b5  # includes the whole group
    assert mark_involution_shapes(build_root_system("A1")) == [1, 2]


def test_involution_class_count_vs_brute():
    for name in ["A3", "B3", "D4", "H3"]:
        rs = build_root_system(name)
        W = generate(rs.simple_reflections())
        brute = sum(1 for w in W if w.is_involution() and not w.is_identity())
        recs = involution_class_representatives(rs)
        total = 0
        from coxnorm.normalizer import normalizer_order
        for rec in recs:
            total += rs.group_order // rec.centralizer_order
        assert total == brute


def test_section8_minus_one_groups():
    for name in ["B4", "D4", "F4", "H3"]:
        rep = section8_checks(build_root_system(name))
        assert rep["minus_one_central"]
        assert rep["ok"], rep


def test_section8_e6_only_weak_bullets():
    rep = section8_checks(build_root_system("E6"))
    assert not rep["minus_one_central"]
    assert rep["checks"]["at_most_one_per_closure_group"]["ok"]
    assert rep["ok"]


def test_b6_closed_iff_centralizer():
    rep = section8_checks(build_root_system("B6"))
    assert rep["checks"]["closed_iff_centralizer"]["ok"]
    assert rep["ok"]


@pytest.mark.parametrize("name", ["B6", "D6", "E7", "F4", "H4"])
def test_degree_is_the_dimension_of_the_span_of_the_negated_roots(name):
    rs = build_root_system(name)
    records = involution_class_representatives(rs)
    assert records
    for rec in records:
        u = rec.element
        assert degree(u) == rec.degree == rs.span(negated_roots(u)).dim



def test_section8_finds_the_involution_classes_once(monkeypatch):
    calls = []
    original = involutions.involution_class_representatives
    monkeypatch.setattr(involutions, "involution_class_representatives",
                        lambda rs: calls.append(rs) or original(rs))
    report = section8_checks(build_root_system("F4"))
    # F4 has -1 central, so the records are also read for minus_u_complement
    assert report["ok"] and "minus_u_complement" in report["checks"]
    assert len(calls) == 1


# (shape index, centralizer order) of every involution class, as computed
# through normalizer_order before the orders were read on demand
CENTRALIZER_ORDERS = {
    "F4": [(2, 96), (3, 96), (4, 16), (7, 64), (10, 96), (11, 96), (12, 1152)],
    "E7": [(2, 46080), (3, 3072), (5, 768), (6, 9216), (9, 768), (15, 9216), (21, 3072),
           (30, 46080), (32, 2903040)],
}


@pytest.mark.parametrize("name", sorted(CENTRALIZER_ORDERS))
def test_section8_reads_no_centralizer_order(monkeypatch, name):
    calls = []
    original = involutions.normalizer_order_at
    monkeypatch.setattr(involutions, "normalizer_order_at",
                        lambda catalog, i: calls.append(i) or original(catalog, i))
    rs = build_root_system(name)
    assert section8_checks(rs)["ok"]
    assert calls == []
    records = involution_class_representatives(rs)
    assert [(r.shape_index, r.centralizer_order) for r in records] == CENTRALIZER_ORDERS[name]
    assert len(calls) == len(records)


@pytest.mark.parametrize("name", FIXTURE_GROUPS + ["A9", "D9", "D11", "I2(5)", "I2(6)", "I2(7)"])
def test_marks_and_central_minus_one_match_the_negation_of_a_climbed_w0(name):
    # the marks and -1 in W are read off sigma_C with no w0 made; w0(J),
    # climbed here by search, must negate every positive root of W_J exactly
    # for the marked shapes, and w0 of W every positive root iff -1 lies in W
    # (I2(m) has -1 for even m only)
    rs = build_root_system(name)
    marked = [1] + [shape.index for shape in shape_catalog(rs) if shape.roots and negates(
        parabolic_longest_element(rs, shape.parabolic.simples), shape.parabolic.pos)]
    assert mark_involution_shapes(rs) == marked
    minus_one = negates(parabolic_longest_element(rs, rs.simple_roots), range(rs.npos))
    assert has_central_minus_one(rs) == minus_one
    if name.startswith("I2"):
        assert minus_one == (int(name[3:-1]) % 2 == 0)
