from hypothesis import given, strategies as st
import numpy as np

from coxnorm.linalg import (dot, form_pairs, from_pairs, kernel, mat_identity,
                            pair_matmul, pair_mul, pair_sign, rref, span, to_pairs,
                            vec)
from coxnorm.qsqrt5 import ONE, Q5, ZERO

import pytest


def v(*xs):
    return vec(xs)


def test_rref_canonical():
    rows1 = [v(2, 4, 0), v(1, 2, 1)]
    rows2 = [v(1, 2, 1), v(3, 6, 1)]
    assert rref(rows1)[0] == rref(rows2)[0]


def test_subspace_equality_is_representation_equality():
    s1 = span([v(1, 1, 0), v(0, 0, 2)], 3)
    s2 = span([v(2, 2, 2), v(0, 0, 1)], 3)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.dim == 2


def test_kernel_and_solve():
    rows = [v(1, 0, -1)]
    null = kernel(rows, ncols=3)
    assert len(null) == 2
    for x in null:
        assert dot(rows[0], x) == ZERO
    # (1, 2, 1) is (1, 1, 0) + (0, 1, 1), so adding it leaves their span as it
    # is; (0, 1, 0) is not on the line (1, 0, 0)
    plane = span([v(1, 1, 0), v(0, 1, 1)], 3)
    assert span(list(plane.rows) + [v(1, 2, 1)], 3) == plane
    assert span([v(1, 0, 0), v(0, 1, 0)], 3).dim == 2


def test_intersection_and_perp():
    g = mat_identity(3)
    a = span([v(1, 0, 0), v(0, 1, 0)], 3)
    b = span([v(0, 1, 0), v(0, 0, 1)], 3)
    # the intersection is the perp of the sum of the perps
    inter = span(list(a.perp(g).rows) + list(b.perp(g).rows), 3).perp(g)
    assert inter == span([v(0, 5, 0)], 3)
    p = a.perp(g)
    assert p == span([v(0, 0, 3)], 3)
    assert span(list(a.rows) + list(p.rows), 3).dim == 3


# small enough that every product below squares within int64
scalars = st.builds(Q5, st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 6))
rows = st.lists(st.lists(scalars, min_size=3, max_size=3).map(tuple),
                min_size=1, max_size=4)


@given(rows, rows)
def test_pairs_give_the_exact_signs_of_products(xs, ys):
    # row i is scaled by a positive integer, so every sign of row i is kept
    P, Q = to_pairs(xs), to_pairs(ys)
    signs = pair_sign(pair_matmul(P, (Q[0].T, Q[1].T)))
    assert signs.tolist() == [[dot(x, y).sign() for y in ys] for x in xs]
    entry = pair_sign(pair_mul(P, (P[0][:, :1], P[1][:, :1])))
    assert entry.tolist() == [[(a * x[0]).sign() for a in x] for x in xs]


def test_pair_overflow_is_refused():
    with pytest.raises(RuntimeError):
        to_pairs([(Q5(1 << 62), ONE)])
    big = (np.full((2, 2), 1 << 31, dtype=np.int64), np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(RuntimeError):
        pair_matmul(big, big)
    with pytest.raises(RuntimeError):
        pair_mul(big, big)
    with pytest.raises(RuntimeError):
        pair_sign(big)
    with pytest.raises(RuntimeError):
        pair_sign((np.zeros(1, dtype=np.int64), np.full(1, 1 << 30, dtype=np.int64)))


def test_form_pairs_refuses_a_form_it_would_rescale():
    # a right factor's rows must not be rescaled, so 2*gram must be integral
    assert form_pairs(((ONE, Q5(-1, -1, 2)), (Q5(-1, -1, 2), ONE)))[1].tolist() == \
        [[0, -1], [-1, 0]]
    with pytest.raises(ValueError):
        form_pairs(((ONE, Q5(1, 0, 3)), (Q5(1, 0, 3), ONE)))



@given(rows)
def test_pair_rows_round_trip(xs):
    # from_pairs reads the pairs back, up to the positive scale of each row
    S = span(xs, 3)
    assert span(list(from_pairs(S.pairs)), 3) == S
    assert S.pairs[0].shape == (S.dim, 3)
    assert span([], 3).pairs[0].shape == (0, 3)
