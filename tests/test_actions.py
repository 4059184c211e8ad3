import random

import pytest

from coxnorm.actions import (SpaceRestriction, canonical_line,
                             diagram_of_lines, invariant_split, restrict)
from coxnorm.diagrams import recognize_subsystem
from coxnorm.galois import orthogonal_complement
from coxnorm.groups import generate
from coxnorm.linalg import mat_identity
from coxnorm.normalizer import decompose
from coxnorm.parabolic import (parabolic_from_roots, shape_catalog,
                               standard_parabolic)
from coxnorm.qsqrt5 import ONE, Q5, ZERO
from coxnorm.rootsys import build_root_system


def test_invariant_split_extremes():
    rs = build_root_system("B3")
    whole = parabolic_from_roots(rs, frozenset(range(rs.nroots)))
    trivial = parabolic_from_roots(rs, frozenset())
    x, m, y = invariant_split(whole, orthogonal_complement(whole.sub))
    assert (x.dim, m.dim, y.dim) == (3, 0, 0)
    x, m, y = invariant_split(trivial, orthogonal_complement(trivial.sub))
    assert (x.dim, m.dim, y.dim) == (0, 0, 3)


def test_invariant_split_worked_example():
    rs = build_root_system("A9")
    P = standard_parabolic(rs, (4, 6, 8))
    dec = decompose(rs, P)
    xperp, mid, yperp = dec.spaces
    assert xperp.dim == 3 and yperp.dim == 3 and mid.dim == 3
    # D acts faithfully on X_perp as the symmetric group on three letters
    xsp = SpaceRestriction(rs, xperp.rows)
    images = {xsp.matrix(d) for d in dec.D}
    assert len(images) == 6
    # P fixes X = mid + yperp pointwise
    from coxnorm.parabolic import fixes_pointwise
    for i in P.sub.simples:
        assert fixes_pointwise(rs.reflection(i), P.witness)
    # the restriction of D to the mid space is the A2 reflection action
    assert dec.actions["x_cap_y"].descriptor() == "A2"


def test_restrict_is_homomorphism():
    rs = build_root_system("A9")
    P = standard_parabolic(rs, (4, 6, 8))
    dec = decompose(rs, P)
    xperp = dec.spaces[0]
    rng = random.Random(3)
    ds = list(dec.D)

    def mat_mul(A, B):
        return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(len(B))), ZERO)
                           for j in range(len(B[0]))) for i in range(len(A)))

    for _ in range(10):
        a, b = rng.choice(ds), rng.choice(ds)
        ma, mb, mab = restrict([a, b, a * b], xperp)
        assert mat_mul(ma, mb) == mab


def test_restrict_rejects_non_invariant():
    rs = build_root_system("A2")
    line = rs.span([0])
    with pytest.raises(ValueError, match="not invariant"):
        restrict([rs.reflection(1)], line)


def test_restrict_trivial_cases():
    rs = build_root_system("A3")
    from coxnorm.groups import identity
    mats = restrict([identity(rs)], rs.span([0]))
    assert mats == [mat_identity(1)]


def test_diagram_of_lines_rank2():
    one = ONE
    gram = ((Q5(2), Q5(-1)), (Q5(-1), Q5(2)))  # two roots at 120 degrees
    lines = {canonical_line((one, ZERO)), canonical_line((ZERO, one)),
             canonical_line((one, one))}
    assert diagram_of_lines(lines, gram) == ("A2",)
    assert diagram_of_lines({canonical_line((one, ZERO))}, gram) == ("A1",)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "F4"])
def test_reflection_line_is_exactly_the_reflections(name):
    rs = build_root_system(name)
    simples = list(rs.simple_roots)
    by_roots = SpaceRestriction(rs, [rs.root_vec(i) for i in simples], basis_roots=simples)
    by_vectors = SpaceRestriction(rs, mat_identity(rs.n))
    reflections = {rs.reflection(i).key: i for i in range(rs.npos)}
    for w in generate(rs.simple_reflections()):
        beta = reflections.get(w.key)
        want = None if beta is None else canonical_line(rs.root_vec(beta))
        assert by_roots.reflection_line(by_roots.matrix(w)) == want
        assert by_vectors.reflection_line(by_vectors.matrix(w)) == want


@pytest.mark.parametrize("name", ["B6", "D6", "E7", "F4", "H4"])
def test_diagram_of_root_lines_is_the_root_system(name):
    rs = build_root_system(name)
    lines = {canonical_line(rs.root_vec(i)) for i in range(rs.npos)}
    assert diagram_of_lines(lines, rs.gram) == \
        recognize_subsystem(rs, frozenset(range(rs.nroots)))


def test_dimension_sum_is_rank():
    rs = build_root_system("B4")
    for shape in shape_catalog(rs):
        dec = decompose(rs, shape)
        x, m, y = dec.spaces
        assert x.dim + m.dim + y.dim == rs.n


def test_a_family_x_perp_types():
    # the reflection action on X_perp has type B_{a2} A_2^{a3} A_3^{a4} ...
    from coxnorm.diagrams import components_string
    for name in ["A4", "A5", "A6", "A7"]:
        rs = build_root_system(name)
        for shape in shape_catalog(rs):
            dec = decompose(rs, shape)
            mult = {}
            for p in shape.partition:
                mult[p] = mult.get(p, 0) + 1
            expected = []
            a2 = mult.get(2, 0)
            if a2 == 1:
                expected.append("A1")  # a lone 2-part contributes no extra node
            elif a2 > 1:
                expected.append(f"B{a2}")
            for k, a in mult.items():
                if k >= 3:
                    expected.extend([f"A{k - 1}"] * a)
            got = dec.actions["x_perp"].diagram
            assert components_string(tuple(got)) == \
                components_string(tuple(expected)), (name, shape.label)


def test_minus_identity_cell():
    rs = build_root_system("D6")
    cat = shape_catalog(rs)
    dec = decompose(rs, cat.by_selector("[51]"))
    cell = dec.actions["x_cap_y"]
    assert cell.descriptor() == "-1"
    assert cell.classification == "minus-identity"
    assert dec.a_name == "A1:HEART"


def test_markers():
    rs = build_root_system("D6")
    cat = shape_catalog(rs)
    assert decompose(rs, cat.by_selector("[31]")).a_name == "A1^2:CLUB"
    e7 = build_root_system("E7")
    cat7 = shape_catalog(e7)
    assert decompose(e7, cat7.by_selector("A2A1^3")).a_name == "G2:SPADE"


def test_faithfulness_of_a_on_x_perp():
    # A acts faithfully on X_perp, permuting the roots of P, and fixes Y_perp
    for name in ["A5", "B4", "D5"]:
        rs = build_root_system(name)
        for shape in shape_catalog(rs):
            dec = decompose(rs, shape)
            for a in dec.A:
                assert all(int(a.img[q]) == q for q in dec.Q.sub.simples)
                assert all(int(a.img[i]) in dec.P.roots for i in dec.P.pos)
            xsp = SpaceRestriction(rs, [rs.root_vec(i) for i in dec.P.sub.simples],
                                   basis_roots=dec.P.sub.simples) \
                if dec.P.pos else None
            if xsp and len(dec.A) > 1:
                assert len({xsp.matrix(a) for a in dec.A}) == len(dec.A)
