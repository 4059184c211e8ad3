from fractions import Fraction

from hypothesis import given, strategies as st

from coxnorm.qsqrt5 import ONE, PHI, Q5, SQRT5, ZERO

scalars = st.builds(Q5,
                    st.integers(min_value=-50, max_value=50),
                    st.integers(min_value=-50, max_value=50),
                    st.integers(min_value=1, max_value=20))


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_inverse_round_trip(a):
    if a:
        assert a * a.inverse() == ONE
        assert (ONE / a) * a == ONE


@given(scalars, scalars)
def test_order_matches_real_embedding(a, b):
    assert (a < b) == (float(a) < float(b) and a != b) or a == b or \
        abs(float(a) - float(b)) < 1e-6


def test_constants():
    assert PHI * PHI == PHI + ONE
    assert SQRT5 * SQRT5 == Q5(5)
    assert ZERO < ONE < SQRT5
    assert Q5(9, -4, 1) > ZERO       # 9 - 4*sqrt5 = 0.056...
    assert Q5(2, -1, 1) < ZERO       # 2 - sqrt5 < 0


def test_fraction_interop():
    assert Q5(Fraction(1, 2)) + Q5(Fraction(1, 2)) == ONE
    assert Q5(1, 0, 2) == Fraction(1, 2)
    assert hash(Q5(3, 0, 1)) == hash(Fraction(3))


@given(st.integers(min_value=-10 ** 30, max_value=10 ** 30))
def test_hash_of_an_integer_value_is_the_int_hash(k):
    assert hash(Q5(k)) == hash(k)


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_equal_values_hash_equal_whatever_they_were_built_from(p, q):
    f = Fraction(p, q)
    assert hash(Q5(f)) == hash(f)
    built = [Q5(f), Q5(p, 0, q), Q5(Q5(p, 0, q)), Q5(0, 0, 1) + f]
    if f.denominator == 1:
        built.append(Q5(f.numerator))
    assert all(x == f for x in built)
    assert len({hash(x) for x in built}) == 1

