import importlib
import itertools
import random

import pytest

from coxnorm import groups
from coxnorm.groups import (OrbitStabilizer, generate, identity, permutation_group,
                            relative_length)
from coxnorm.normalizer import normalizer
from coxnorm.parabolic import (ReflectionSubgroup, parabolic_closure, shape_catalog,
                               standard_parabolic, subset_groupoid)
from coxnorm.rootsys import build_root_system

from oracles import bfs_generate, generated_by, neg


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


def _assert_generates_as_bfs(gens, rs=None):
    assert [w.key for w in generate(gens, rs=rs)] == [w.key for w in bfs_generate(gens, rs=rs)]


@pytest.mark.parametrize("label", ["H3", "B4", "D4", "F4", "A5", "I2(7)"])
def test_generate_lists_the_bfs_closure_of_the_simple_reflections(label):
    _assert_generates_as_bfs(build_root_system(label).simple_reflections())


def test_generate_lists_the_bfs_closure_of_redundant_generators():
    rs = build_root_system("H3")
    s = rs.simple_reflections()
    W = generate(s)
    _assert_generates_as_bfs(W)
    _assert_generates_as_bfs(W[::-1])
    _assert_generates_as_bfs([identity(rs), s[1], s[1], s[0] * s[2], identity(rs), s[0]])
    _assert_generates_as_bfs([identity(rs)])
    _assert_generates_as_bfs([], rs=rs)


def test_generate_lists_the_bfs_closure_of_the_normalizer_generators(monkeypatch):
    # every shape of B4, at its standard representative and at a conjugate,
    # which normalizer() reaches through a conjugated generator list
    rs = build_root_system("B4")
    normalizer_module = importlib.import_module("coxnorm.normalizer")
    seen = []

    def recording_generate(gens, rs=None):
        seen.append(list(gens))
        return generate(seen[-1], rs=rs)

    monkeypatch.setattr(normalizer_module, "generate", recording_generate)
    s = rs.simple_reflections()
    w = s[0] * s[1] * s[2] * s[3]
    for shape in shape_catalog(rs):
        P = shape.parabolic
        normalizer(P)
        normalizer(ReflectionSubgroup(rs, frozenset(int(w.img[r]) for r in P.roots)))
    assert len(seen) == 2 * len(shape_catalog(rs))
    for gens in seen:
        _assert_generates_as_bfs(gens, rs=rs)


@pytest.mark.parametrize("label", ["B4", "H3"])
def test_generate_lists_the_bfs_closure_of_random_reflections(label):
    # seeded triples of reflections, drawn until three of them have
    # generated a subgroup that is not parabolic
    rs = build_root_system(label)
    rng = random.Random(35)
    found = 0
    while found < 3:
        picked = rng.sample(range(rs.npos), 3)
        _assert_generates_as_bfs([rs.reflection(i) for i in picked])
        U = generated_by(rs, picked)
        found += parabolic_closure(U).roots != U.roots


def test_generate_refuses_past_the_enumeration_limit(monkeypatch):
    monkeypatch.setattr(groups, "ENUMERATION_LIMIT", 10)
    with pytest.raises(RuntimeError, match="exceeded limit 10"):
        generate(build_root_system("B3").simple_reflections())


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
    target = (0, neg(rs, 0))
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
    assert all(int(w0.img[i]) == neg(b2, i) for i in range(b2.npos))  # central -1

    a2 = build_root_system("A2")
    w0 = _longest_of_the_groupoid(a2)
    s1, s2 = a2.simple_reflections()
    assert not all(int(w0.img[i]) == neg(a2, i) for i in range(a2.npos))
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


def test_permutation_group_keeps_a_greedy_generating_set():
    # the transpositions (0 1), (1 2), (0 2), (3 4) of five points: (0 2) lies in
    # the group of the first two and is not kept; the closure is S3 x S2
    swap = lambda i, j: tuple(j if k == i else i if k == j else k for k in range(5))
    perms = [swap(0, 1), swap(1, 2), swap(0, 2), swap(3, 4)]
    group, kept = permutation_group(perms, 5)
    assert kept == [0, 1, 3] and len(group) == 12
    assert group == {(*p, *q) for p in itertools.permutations(range(3))
                     for q in ((3, 4), (4, 3))}
    assert permutation_group([], 3) == ({(0, 1, 2)}, [])


def test_permutation_group_refuses_past_the_enumeration_limit(monkeypatch):
    monkeypatch.setattr(groups, "ENUMERATION_LIMIT", 100)
    cycle = (1, 2, 3, 4, 5, 0)
    with pytest.raises(RuntimeError, match="exceeded limit 100"):
        permutation_group([(1, 0, 2, 3, 4, 5), cycle], 6)
