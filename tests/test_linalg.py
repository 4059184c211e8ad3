import random

from hypothesis import given, strategies as st
import numpy as np

from coxnorm.actions import invariant_split
from coxnorm.galois import orthogonal_complement
from coxnorm.linalg import (Subspace, dot, form_pairs, from_pairs, kernel, lex_signs,
                            pair_matmul, pair_mul, pair_sign, rref, to_pairs)
from coxnorm.parabolic import shape_catalog, standard_parabolic
from coxnorm.qsqrt5 import ONE, Q5, ZERO
from coxnorm.rootsys import build_root_system

import pytest


# ---------------------------------------------------------------------------
# Reference: Gauss-Jordan elimination over Q(sqrt5), on Q5 rows


def ref_rref(rows):
    """Reduced row echelon form over Q(sqrt5).  Returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], pivots


def ref_kernel(rows, n):
    """Basis of {x : M x^T = 0} over Q(sqrt5), read off the reference echelon form."""
    red, pivots = ref_rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def vec_mat(x, M):
    """Row vector times matrix, over Q(sqrt5)."""
    return tuple(sum((c * row[j] for c, row in zip(x, M)), ZERO) for j in range(len(M[0])))


def ref_perp(rows, gram, n):
    """The orthogonal complement of the span of rows under gram, as Q5 rows."""
    return ref_kernel([vec_mat(r, gram) for r in rows], n)


def ref_pairs(rows, n):
    """The pair rows of a span: its reference echelon rows, each scaled by the
    least positive integer that clears its denominators."""
    red, _ = ref_rref(rows)
    return tuple(a.reshape(len(red), n) for a in to_pairs(red))


def assert_pairs_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------


def pairs(*rows):
    """Pair rows of rows of integers (no sqrt5 parts)."""
    p = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    return p, np.zeros_like(p)


def test_rref_canonical():
    # two bases of one plane give the same primitive echelon rows and pivots
    (p1, q1), piv1 = rref(pairs((2, 4, 0), (1, 2, 1)))
    (p2, q2), piv2 = rref(pairs((1, 2, 1), (3, 6, 1)))
    assert piv1 == piv2 == [0, 2]
    assert p1.tolist() == p2.tolist() == [[1, 2, 0], [0, 0, 1]]
    assert q1.tolist() == q2.tolist() == [[0, 0, 0], [0, 0, 0]]
    # a sqrt5 pivot is made rational: the row (1 + sqrt5, 2) is the line of
    # (1, (sqrt5 - 1)/2), whose primitive multiple is (2, -1 + sqrt5)
    (p, q), piv = rref((np.array([[1, 2]]), np.array([[1, 0]])))
    assert (p.tolist(), q.tolist(), piv) == ([[2, -1]], [[0, 1]], [0])


def test_subspace_equality_is_representation_equality():
    s1 = Subspace(pairs((1, 1, 0), (0, 0, 2)), 3)
    s2 = Subspace(pairs((2, 2, 2), (0, 0, 1)), 3)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.dim == 2
    assert s1 != Subspace(pairs((1, 1, 0)), 3)


def test_kernel_and_solve():
    rows = pairs((1, 0, -1))
    null = kernel(rows)
    assert null[0].shape == (2, 3)
    products = pair_matmul(null, (rows[0].T, rows[1].T))
    assert not products[0].any() and not products[1].any()
    # (1, 2, 1) is (1, 1, 0) + (0, 1, 1), so adding it leaves their span as it
    # is; (0, 1, 0) is not on the line (1, 0, 0)
    plane = Subspace(pairs((1, 1, 0), (0, 1, 1)), 3)
    both = tuple(np.vstack([a, b]) for a, b in zip(plane.pairs, pairs((1, 2, 1))))
    assert Subspace(both, 3) == plane
    assert Subspace(pairs((1, 0, 0), (0, 1, 0)), 3).dim == 2
    # the kernel of no condition is everything
    nothing = (np.zeros((0, 3), dtype=np.int64),) * 2
    assert kernel(nothing)[0].tolist() == np.eye(3, dtype=np.int64).tolist()


def test_intersection_and_perp():
    g = pairs((1, 0, 0), (0, 1, 0), (0, 0, 1))
    a = Subspace(pairs((1, 0, 0), (0, 1, 0)), 3)
    b = Subspace(pairs((0, 1, 0), (0, 0, 1)), 3)
    # the intersection is the perp of the sum of the perps
    perps = tuple(np.vstack([x, y]) for x, y in zip(a.perp(g).pairs, b.perp(g).pairs))
    inter = Subspace(perps, 3).perp(g)
    assert inter == Subspace(pairs((0, 5, 0)), 3)
    p = a.perp(g)
    assert p == Subspace(pairs((0, 0, 3)), 3)
    assert Subspace(tuple(np.vstack([x, y]) for x, y in zip(a.pairs, p.pairs)), 3).dim == 3
    zero = Subspace((np.zeros((0, 3)), np.zeros((0, 3))), 3)
    assert zero.dim == 0 and zero.perp(g).dim == 3


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


@pytest.mark.parametrize("width", [1, 8, 70])
def test_lex_signs_are_the_signs_of_the_first_nonzero_entries(width):
    # mostly zero rows, so the first nonzero entry is often deep, and
    # entries up to the int64 range
    rng = np.random.default_rng(width)
    x = rng.integers(-(1 << 62), 1 << 62, size=(4, 50, width))
    x[rng.random(x.shape) < 0.95] = 0
    x[0, :2] = 0          # a row with no nonzero entry,
    x[0, 1, -1] = -1      # and one whose first nonzero entry is its last
    want = [[next((int(np.sign(v)) for v in row if v), 0) for row in rows] for rows in x.tolist()]
    signs = lex_signs(x)
    assert signs.dtype == np.int8 and signs.tolist() == want
    assert lex_signs(np.zeros((3, 0), dtype=np.int64)).tolist() == [0, 0, 0]


def test_rref_refuses_a_row_that_overflows_after_normalization():
    # the row (1 + sqrt5, x + y sqrt5) fits int64, but its primitive echelon
    # row (4, x - 5y + (y - x) sqrt5) / gcd does not
    x, y = 1 << 61, -(1 << 61) + 1
    row = (np.array([[1, x]], dtype=np.int64), np.array([[1, y]], dtype=np.int64))
    (want,), _ = ref_rref(from_pairs(row))
    assert want[1].den == 4 and abs(want[1].a) >= 1 << 63
    with pytest.raises(RuntimeError):
        rref(row)
    with pytest.raises(RuntimeError):
        Subspace(row, 2)
    with pytest.raises(RuntimeError):
        kernel(row)


def test_form_pairs_refuses_a_form_it_would_rescale():
    # a right factor's rows must not be rescaled, so 2*gram must be integral
    assert form_pairs(((ONE, Q5(-1, -1, 2)), (Q5(-1, -1, 2), ONE)))[1].tolist() == \
        [[0, -1], [-1, 0]]
    with pytest.raises(ValueError):
        form_pairs(((ONE, Q5(1, 0, 3)), (Q5(1, 0, 3), ONE)))


@given(rows)
def test_pair_rows_round_trip(xs):
    # from_pairs reads the pairs back, up to the positive scale of each row
    S = Subspace(to_pairs(xs), 3)
    assert Subspace(to_pairs(from_pairs(S.pairs)), 3) == S
    assert S.pairs[0].shape == (S.dim, 3)
    assert Subspace(([], []), 3).pairs[0].shape == (0, 3)


# rows of Q(sqrt5) values with sqrt5 parts and denominators, in up to four
# columns; small enough that every echelon entry fits int64
small = st.builds(Q5, st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 3))
matrices = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(small, min_size=n, max_size=n).map(tuple),
                         min_size=1, max_size=5)))
forms = st.integers(-3, 3)


@given(matrices, st.data())
def test_pair_elimination_matches_the_q5_reference(matrix, data):
    n, xs = matrix
    red, pivots = ref_rref(xs)
    got, got_pivots = rref(to_pairs(xs))
    assert got_pivots == pivots
    assert_pairs_equal(got, ref_pairs(xs, n))
    # the kernel rows are the canonical rows of the reference kernel
    assert_pairs_equal(kernel(to_pairs(xs)), ref_pairs(ref_kernel(xs, n), n))
    # the perp under a symmetric form of integer pairs is the reference perp
    fp, fq = (np.array(data.draw(st.lists(forms, min_size=n * n, max_size=n * n)),
                       dtype=np.int64).reshape(n, n) for _ in range(2))
    form = fp + fp.T, fq + fq.T
    gram = [[Q5(int(a), int(b)) for a, b in zip(ra, rb)] for ra, rb in zip(*form)]
    assert_pairs_equal(Subspace(to_pairs(xs), n).perp(form).pairs,
                       ref_pairs(ref_perp(red, gram, n), n))


@pytest.mark.parametrize("name", ["F4", "H4", "E7", "E8"])
def test_root_spaces_match_the_q5_reference(name):
    # span, fixed space, invariant split and perp of every shape, against
    # the Q(sqrt5) elimination of the roots and their forms under the Gram
    # matrix
    rs = build_root_system(name)
    n = rs.n
    roots = [rs.root_vec(i) for i in range(rs.npos)]

    def span_pairs(indices):
        return ref_pairs([roots[i % rs.npos] for i in indices], n)

    def fixed_pairs(indices):
        return ref_pairs(ref_perp([roots[i % rs.npos] for i in indices], rs.gram, n), n)

    for shape in shape_catalog(rs):
        P = standard_parabolic(rs, shape.rep_subset)
        Q = orthogonal_complement(P)
        xperp, mid, yperp = invariant_split(P, Q)
        assert_pairs_equal(xperp.pairs, span_pairs(P.simples))
        assert_pairs_equal(yperp.pairs, span_pairs(Q.simples))
        assert_pairs_equal(mid.pairs, fixed_pairs(P.simples + Q.simples))
        assert_pairs_equal(P.witness.pairs, fixed_pairs(P.simples))
        assert_pairs_equal(rs.fixed_space(Q.simples).pairs, fixed_pairs(Q.simples))
        assert_pairs_equal(xperp.perp(rs.form).pairs,
                           ref_pairs(ref_perp(from_pairs(xperp.pairs), rs.gram, n), n))


@pytest.mark.parametrize("name", ["F4", "H4", "E6", "E7", "E8"])
def test_kernel_rows_are_kept_as_they_are(name):
    # fixed spaces and perps take kernel's rows without a second elimination:
    # on random root sets they must be byte-identical to the rows that
    # Subspace's elimination makes of them (I2 holds no pair rows)
    rs = build_root_system(name)
    rng = random.Random(name)
    for _ in range(300):
        indices = rng.sample(range(rs.nroots), rng.randint(0, rs.n + 1))
        for X in (rs.fixed_space(indices), rs.span(indices).perp(rs.form)):
            assert_pairs_equal(X.pairs, Subspace(X.pairs, rs.n).pairs)
            assert X == Subspace(X.pairs, rs.n)
