import pytest

from coxnorm.labels import parse_label
from coxnorm.qsqrt5 import Q5
from coxnorm.rootsys import build_root_system, inner_product, reflection_in_root


def test_label_round_trips():
    for text in ["E7", "I2(7)", "A1", "B2", "H4", "D5", "F4"]:
        assert str(parse_label(text)) == text
    assert str(parse_label("e7")) == "E7"
    assert str(parse_label("i2(11)")) == "I2(11)"


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
        assert full == set(rs.vectors)


def test_b2_has_two_lengths():
    rs = build_root_system("B2")
    norms = {repr(rs.norm(i)) for i in range(rs.npos)}
    assert norms == {"1", "2"}
    # a long root has norm 2 under the normalization
    long_roots = [i for i in range(rs.npos) if rs.norm(i) == Q5(2)]
    assert long_roots


def test_inner_product_contract():
    rs = build_root_system("B2")
    a = rs.root_vec(0)
    assert inner_product(rs, a, tuple(-c for c in a)) == -inner_product(rs, a, a)
    with pytest.raises(ValueError):
        inner_product(rs, a, a[:-1])
    # commuting simple pair inside D4's fork is orthogonal
    d4 = build_root_system("D4")
    assert d4.inner(2, 3) == Q5(0)


def test_reflections_are_involutions_and_permute_roots():
    for name in ["A2", "B3", "H3", "D4"]:
        rs = build_root_system(name)
        for i in range(rs.npos):
            s = reflection_in_root(rs, i)
            assert s.is_involution()
            assert int(s.img[i]) == rs.neg(i)
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


def test_i2_backend():
    rs = build_root_system("I2(7)")
    s, t = rs.simple_reflections()
    assert (s * t).order() == 7
    assert not rs.orthogonal(0, 3)
    rs8 = build_root_system("I2(8)")
    assert rs8.orthogonal(0, 4) and not rs8.orthogonal(0, 3)


def test_signed_permutation_embedding():
    rs = build_root_system("B3")
    w = rs.signed_permutation([-3, -2, -1])
    assert w.is_involution()
    with pytest.raises(ValueError):
        rs.signed_permutation([1, 2, 2])
    d4 = build_root_system("D4")
    with pytest.raises(ValueError):
        d4.signed_permutation([-1, 2, 3, 4])  # odd number of sign flips
    a3 = build_root_system("A3")
    assert a3.signed_permutation([2, 1, 3, 4]) == a3.reflection(0)


@pytest.mark.parametrize("name", ["B6", "E8", "F4", "H4"])
def test_reflection_perms_match_gram_form(name):
    # r_a(v) = v - 2<v,a>/<a,a> a, evaluated exactly in the Gram form
    from coxnorm.linalg import dot, vec_mat
    rs = build_root_system(name)
    where = {v: i for i, v in enumerate(rs.vectors)}
    for i in range(rs.npos):
        a = rs.root_vec(i)
        ga = vec_mat(a, rs.gram)
        nn = dot(a, ga)
        expected = []
        for v in rs.vectors[: rs.npos]:
            c = (dot(v, ga) * 2) / nn
            expected.append(where[tuple(x - c * y for x, y in zip(v, a))])
        expected += [rs.neg(j) for j in expected]
        assert rs.reflection_perm(i).tolist() == expected, i
        assert rs.reflection_perm(rs.neg(i)).tolist() == expected, i
