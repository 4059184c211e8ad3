"""Every printed name of A, B and C against isomorphism invariants of its type.

A name says which Coxeter group K is isomorphic to.  Two invariants of an
abstract group are compared: the histogram of its element orders and the
order of its center.  A product's histogram is the product of its factors'
(an element's order is the lcm of its components'), and its center is the
product of theirs.  The invariants cannot tell apart isomorphic types, such
as B3 and A3 x A1, but a name of the wrong order or the wrong structure
fails.
"""

import re
from collections import Counter
from functools import cache
from math import lcm

import numpy as np
import pytest

from coxnorm.groups import generate
from coxnorm.normalizer import decompose
from coxnorm.parabolic import shape_catalog
from coxnorm.rootsys import build_root_system

from fixture_groups import ORACLE_GROUPS

COMPONENT = re.compile(r"([A-Z]\d+|I2\(\d+\))(?:\^(\d+))?")
RANK2_LABELS = {"G2": "I2(6)", "H2": "I2(5)"}


def invariants(elements):
    """(histogram of element orders, order of the center) of a group listed in full."""
    rs = elements[0].rs
    images = np.array([w.img for w in elements])
    # (a * b).img[i] == b.img[a.img[i]], and the images of the simple roots
    # determine an element: products[a, b] is a * b on the simple roots
    products = images[np.arange(len(elements))[None, :, None],
                      images[:, None, list(rs.simple_roots)]]
    center = (products == products.transpose(1, 0, 2)).all(axis=(1, 2)).sum()
    return Counter(w.order() for w in elements), int(center)


@cache
def component_invariants(component):
    rs = build_root_system(RANK2_LABELS.get(component, component))
    return invariants(generate(rs.simple_reflections(), rs=rs))


def named_invariants(name):
    """The invariants of the Coxeter type a printed name (marker stripped) gives."""
    histogram, center = Counter({1: 1}), 1
    for component, power in COMPONENT.findall(name.split(":")[0]):
        factor, factor_center = component_invariants(component)
        for _ in range(int(power or 1)):
            product = Counter()
            for a, x in histogram.items():
                for b, y in factor.items():
                    product[lcm(a, b)] += x * y
            histogram, center = product, center * factor_center
    return histogram, center


def test_named_invariants_multiply_over_the_components():
    assert named_invariants("A1") == (Counter({1: 1, 2: 1}), 2)
    assert named_invariants("A1^2") == (Counter({1: 1, 2: 3}), 4)
    assert named_invariants("B2:HEART") == (Counter({1: 1, 2: 5, 4: 2}), 2)
    assert named_invariants("A2A1") == (Counter({1: 1, 2: 7, 3: 2, 6: 2}), 2)
    assert named_invariants("G2:SPADE") == component_invariants("I2(6)")


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_names_have_the_invariants_of_their_types(name):
    rs = build_root_system(name)
    named = 0
    for shape in shape_catalog(rs):
        dec = decompose(rs, shape)
        for K, label in ((dec.A, dec.a_name), (dec.B, dec.b_name), (dec.C, dec.c_name)):
            if label:
                assert invariants(K) == named_invariants(label), (name, shape.label, label)
                named += 1
    assert name.startswith("I2") or named


@pytest.mark.parametrize("name", ["A17", "B16", "D17"])
def test_names_past_rank_16_have_the_invariants_of_their_types(name):
    # rows whose line tables are 16 and 17 dimensional
    rs = build_root_system(name)
    dec = decompose(rs, shape_catalog(rs).by_selector("s1,s3"))
    for K, label in ((dec.A, dec.a_name), (dec.B, dec.b_name), (dec.C, dec.c_name)):
        assert invariants(K) == named_invariants(label), (name, label)
