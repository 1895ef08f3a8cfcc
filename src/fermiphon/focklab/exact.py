"""Exact scalar arithmetic for the Fock laboratory.

Every amplitude in the lab is a Gaussian rational (QC), an element of
Q(i), so every operator entry and identity residual is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


class QC:
    """Gaussian rational (a + i b) / d on raw integer triples.

    Denominators stay unreduced through arithmetic (with a same-denominator
    fast path, the dominant case in the lab) and are normalized on demand;
    all comparisons are cross-multiplied, so results are always exact.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, int) and isinstance(im, int):
            self.a, self.b, self.d = re, im, 1
            return
        fre = re if isinstance(re, Fraction) else Fraction(re)
        fim = im if isinstance(im, Fraction) else Fraction(im)
        self.d = fre.denominator * fim.denominator
        self.a = fre.numerator * fim.denominator
        self.b = fim.numerator * fre.denominator

    @classmethod
    def _raw(cls, a, b, d):
        out = cls.__new__(cls)
        out.a, out.b, out.d = a, b, d
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if self.d == other.d:
            return QC._raw(self.a + other.a, self.b + other.b, self.d)
        return QC._raw(self.a * other.d + other.a * self.d,
                       self.b * other.d + other.b * self.d,
                       self.d * other.d)

    def __sub__(self, other):
        if self.d == other.d:
            return QC._raw(self.a - other.a, self.b - other.b, self.d)
        return QC._raw(self.a * other.d - other.a * self.d,
                       self.b * other.d - other.b * self.d,
                       self.d * other.d)

    def __neg__(self):
        return QC._raw(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, QC):
            other = QC(other)
        return QC._raw(self.a * other.a - self.b * other.b,
                       self.a * other.b + self.b * other.a,
                       self.d * other.d)

    __rmul__ = __mul__

    def conj(self):
        return QC._raw(self.a, -self.b, self.d)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def normalized(self):
        if self.a == 0 and self.b == 0:
            return QC._raw(0, 0, 1)
        g = math.gcd(math.gcd(abs(self.a), abs(self.b)), self.d)
        if g > 1:
            return QC._raw(self.a // g, self.b // g, self.d // g)
        return self

    def l1(self) -> Fraction:
        """Exact L1 magnitude |re| + |im|; zero iff the number is zero."""
        return Fraction(abs(self.a) + abs(self.b), self.d)

    def __eq__(self, other):
        return (self.a * other.d == other.a * self.d
                and self.b * other.d == other.b * self.d)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QC({self.re}, {self.im})"

    def __complex__(self):
        return (self.a + 1j * self.b) / self.d


QC_ONE = QC(1)
