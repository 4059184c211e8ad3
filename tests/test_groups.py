import random

import pytest

from coxnorm.groups import OrbitStabilizer, generate, identity, relative_length
from coxnorm.parabolic import standard_parabolic, subset_groupoid
from coxnorm.rootsys import build_root_system


def test_compose_basics():
    rs = build_root_system("A2")
    s1, s2 = rs.simple_reflections()
    assert (s1 * s1).is_identity()
    assert (s1 * s2).order() == 3
    assert (s1 * identity(rs)) == s1
    with pytest.raises(ValueError):
        s1 * build_root_system("A3").reflection(0)


def test_generate_orders():
    assert len(generate(build_root_system("H3").simple_reflections())) == 120
    assert len(generate(build_root_system("B5").simple_reflections())) == 3840
    rs = build_root_system("A2")
    assert len(generate([], rs=rs)) == 1


def test_generate_idempotent():
    rs = build_root_system("B3")
    W1 = generate(rs.simple_reflections())
    W2 = generate(list(W1))
    assert {w.key for w in W1} == {w.key for w in W2}


def test_relative_length():
    rs = build_root_system("A2")
    assert relative_length(identity(rs), range(rs.npos)) == 0
    s = rs.reflection(0)
    assert relative_length(s, [0]) == 1


def test_relative_length_worked_example():
    # W of type A9, P = <s5, s7, s9>; t1 = s6 s5 s7 s6 has relative length 0
    rs = build_root_system("A9")
    s = {i: rs.reflection(i - 1) for i in range(1, 10)}
    t1 = ((s[6] * s[5]) * s[7]) * s[6]
    P = standard_parabolic(rs, (4, 6, 8))
    assert relative_length(t1, P.pos) == 0


def test_set_stabilizer_worked_example():
    # the stabilizer of P's roots has order |N| = 8 * 24 * 6 = 1152
    rs = build_root_system("A9")
    P = standard_parabolic(rs, (4, 6, 8))
    size = OrbitStabilizer(rs, rs.simple_reflections(), P.roots).orbit_size
    assert rs.group_order % size == 0
    assert rs.group_order // size == 1152


def test_stabilizer_of_everything_is_w():
    rs = build_root_system("B3")
    assert OrbitStabilizer(rs, rs.simple_reflections(), range(rs.nroots)).orbit_size == 1


def test_orbit_stabilizer_identity_on_random_subsets():
    rng = random.Random(7)
    for name in ["A3", "B3", "D4", "A4", "B4"]:
        rs = build_root_system(name)
        order = rs.group_order
        for _ in range(6):
            k = rng.randrange(1, rs.npos)
            target = tuple(sorted(rng.sample(range(rs.npos), k)))
            size = OrbitStabilizer(rs, rs.simple_reflections(), target).orbit_size
            assert order % size == 0


def test_pm_pair_stabilizer():
    rs = build_root_system("B3")
    target = (0, rs.neg(0))
    size = OrbitStabilizer(rs, rs.simple_reflections(), target).orbit_size
    assert rs.group_order % size == 0


def _longest_by_scan(rs):
    """The element of the enumerated group sending every positive root negative."""
    (w0,) = [w for w in generate(rs.simple_reflections()) if (w.img[:rs.npos] >= rs.npos).all()]
    return w0


def _longest_of_the_groupoid(rs):
    w0 = subset_groupoid(rs).longest_element(range(rs.n))
    assert w0 == _longest_by_scan(rs)
    return w0


def test_longest_element():
    rs = build_root_system("A1")
    assert _longest_of_the_groupoid(rs) == rs.reflection(0)

    b2 = build_root_system("B2")
    w0 = _longest_of_the_groupoid(b2)
    assert all(int(w0.img[i]) == b2.neg(i) for i in range(b2.npos))  # central -1

    a2 = build_root_system("A2")
    w0 = _longest_of_the_groupoid(a2)
    s1, s2 = a2.simple_reflections()
    assert not all(int(w0.img[i]) == a2.neg(i) for i in range(a2.npos))
    assert ((w0.inverse() * s1) * w0) == s2  # conjugation swaps the generators


def test_transversal_consistency():
    rs = build_root_system("B3")
    P = standard_parabolic(rs, (0, 2))
    ob = OrbitStabilizer(rs, rs.simple_reflections(), sorted(P.roots))
    import numpy as np
    seed = np.array(sorted(P.roots), dtype=np.int16)
    for key in ob.order[:10]:
        u = ob.transversal(key)
        assert np.sort(u.img[seed]).tobytes() == key
