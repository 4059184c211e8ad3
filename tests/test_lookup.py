"""Class lookup by dominant-chamber reduction against root-set orbits."""

import random
import time

import numpy as np
import pytest

from coxnorm.groups import OrbitStabilizer
from coxnorm.normalizer import normalizer
from coxnorm.parabolic import ReflectionSubgroup, ShapeCatalog
from coxnorm.rootsys import build_root_system, inner_product

from oracles import neg


def _orbit_members(rs, roots):
    """Every root set conjugate to the given one, by orbit BFS on root sets."""
    orbit = OrbitStabilizer(rs, rs.simple_reflections(), sorted(roots))
    return [frozenset(np.frombuffer(key, dtype=np.int16).tolist()) for key in orbit.order]


# D6 has the two non-conjugate classes (A1^3)+ and (A1^3)- of one type
@pytest.mark.parametrize("name", ["B4", "D4", "D6", "F4", "H4", "E6"])
def test_class_of_roots_matches_orbits(name):
    rs = build_root_system(name)
    catalog = ShapeCatalog(rs)   # fresh, so no lookup below is memoized
    rng = random.Random(name)
    for shape in catalog:
        members = _orbit_members(rs, shape.roots)
        for roots in rng.sample(members, min(len(members), 12)):
            assert catalog.class_of_roots(roots) == shape.index, shape.label


@pytest.mark.parametrize("m", [7, 8, 12])
def test_i2_rank_one_parabolics(m):
    rs = build_root_system(f"I2({m})")
    catalog = ShapeCatalog(rs)
    expected = {}
    for shape in catalog:
        if shape.rank == 1:
            for roots in _orbit_members(rs, shape.roots):
                expected[roots] = shape.index
    assert len(expected) == m
    for k in range(m):
        roots = frozenset({k, neg(rs, k)})
        assert catalog.class_of_roots(roots) == expected[roots]


def test_non_parabolic_root_sets_rejected():
    b2 = build_root_system("B2")
    long_roots = [i for i in range(b2.npos)
                  if inner_product(b2, b2.root_vec(i), b2.root_vec(i)) == 2]
    a, b = long_roots
    assert b2.orthogonal(a, b)
    with pytest.raises(ValueError):
        ShapeCatalog(b2).class_of_roots({a, b, neg(b2, a), neg(b2, b)})
    i2 = build_root_system("I2(8)")
    assert i2.orthogonal(0, 4)
    with pytest.raises(ValueError):
        ShapeCatalog(i2).class_of_roots({0, 4, neg(i2, 0), neg(i2, 4)})


def test_e8_trivial_normalizer_refused_before_enumeration():
    rs = build_root_system("E8")
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="too large"):
        normalizer(ReflectionSubgroup(rs, frozenset()))
    assert time.perf_counter() - start < 10
