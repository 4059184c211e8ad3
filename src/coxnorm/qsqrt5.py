"""Exact arithmetic in the real quadratic field Q(sqrt(5)).

Every scalar is stored as (a + b*sqrt(5)) / den with integer a, b and a
positive integer denominator, reduced so that gcd(a, b, den) = 1.  For the
crystallographic types b is always 0, so this is plain rational arithmetic
there; the H types need the golden ratio phi = (1 + sqrt(5)) / 2.

Comparisons use the real embedding sqrt(5) > 0, so the order is the usual
order on the real line and is decided exactly (no floating point).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class Q5:
    """An element a/den + (b/den)*sqrt(5) of Q(sqrt(5))."""

    __slots__ = ("a", "b", "den")

    def __init__(self, a=0, b=0, den=1):
        if type(a) is not int or type(b) is not int:
            if isinstance(a, Q5):
                b, den, a = a.b, a.den, a.a
            elif isinstance(a, Fraction):
                den = den * a.denominator
                a = a.numerator
            if isinstance(b, Fraction):
                a, den = a * b.denominator, den * b.denominator
                b = b.numerator
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            a, b, den = -a, -b, -den
        g = gcd(a, b, den)
        if g > 1:
            a //= g
            b //= g
            den //= g
        self.a = a
        self.b = b
        self.den = den

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = other if isinstance(other, Q5) else Q5(other)
        return Q5(self.a * o.den + o.a * self.den,
                  self.b * o.den + o.b * self.den,
                  self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Q5(-self.a, -self.b, self.den)

    def __sub__(self, other):
        o = other if isinstance(other, Q5) else Q5(other)
        return Q5(self.a * o.den - o.a * self.den,
                  self.b * o.den - o.b * self.den,
                  self.den * o.den)

    def __rsub__(self, other):
        return Q5(other).__sub__(self)

    def __mul__(self, other):
        o = other if isinstance(other, Q5) else Q5(other)
        return Q5(self.a * o.a + 5 * self.b * o.b,
                  self.a * o.b + self.b * o.a,
                  self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        # 1 / (a + b*sqrt5) = (a - b*sqrt5) / (a^2 - 5 b^2)
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return Q5(self.a * self.den, -self.b * self.den, norm)

    def __truediv__(self, other):
        o = other if isinstance(other, Q5) else Q5(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return Q5(other) * self.inverse()

    # -- comparisons ------------------------------------------------------

    def sign(self):
        """Sign of the real number a + b*sqrt(5) (den > 0 always)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 5 b^2, the larger term wins
        if a * a > 5 * b * b:
            return (a > 0) - (a < 0)
        return (b > 0) - (b < 0)

    def __eq__(self, other):
        if isinstance(other, Q5):
            return self.a == other.a and self.b == other.b and self.den == other.den
        if isinstance(other, int):
            return self.b == 0 and self.den == 1 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and Fraction(self.a, self.den) == other
        return NotImplemented

    def __hash__(self):
        # equal to the hash of the equal int or Fraction
        if self.b == 0:
            if self.den == 1:
                return hash(self.a)
            return hash(Fraction(self.a, self.den))
        return hash((self.a, self.b, self.den))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- misc --------------------------------------------------------------

    def __float__(self):
        return (self.a + self.b * 5 ** 0.5) / self.den

    def __repr__(self):
        if self.b == 0:
            if self.den == 1:
                return str(self.a)
            return f"{self.a}/{self.den}"
        s = f"{self.a}+{self.b}r5" if self.b >= 0 else f"{self.a}{self.b}r5"
        if self.den == 1:
            return s
        return f"({s})/{self.den}"


ZERO = Q5(0)
ONE = Q5(1)
SQRT5 = Q5(0, 1)
PHI = Q5(1, 1, 2)          # golden ratio (1 + sqrt5)/2 = 2 cos(pi/5)
