"""Exact Gaussian-rational scalars: complex numbers with rational real and
imaginary parts, each an int when it is integral and a Fraction otherwise.

Every coefficient in this package is a GaussianRational, so equality,
conjugation and rank computations are decidable.  There is no floating
point anywhere.  Integral parts stay Python ints, which spares the
construction and gcd normalization of a Fraction in the common case of
integer coefficients.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x):
    """The canonical part for x: an int when x is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):  # bool and other int subclasses
        return int(x)
    if isinstance(x, str):
        return _frac(Fraction(x))
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class GaussianRational:
    """re + im*i with re, im arbitrary-precision rationals (int | Fraction).

    Immutable and hashable.  An integral part is stored as an int and any
    other part as a Fraction, whose numerator and denominator are coprime
    with positive denominator, so the stored form is canonical.  Equal
    values hash alike whichever type built them (hash(2) == hash(Fraction(2))).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is int else _frac(re))
        object.__setattr__(self, "im", im if type(im) is int else _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        # a real factor (often an integer coefficient) needs two products
        if not b:
            return GaussianRational(a * c, a * d)
        if not d:
            return GaussianRational(a * c, b * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # Fraction(a, n), not a / n: int / int would be a float
        return GaussianRational(
            Fraction(self.re * other.re + self.im * other.im, n),
            Fraction(self.im * other.re - self.re * other.im, n),
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    # -- formatting ----------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _frac_str(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(c: GaussianRational) -> str:
    """Canonical text form: `a/b`, `c/d*i` or `a/b+c/d*i` (minus signs folded in)."""
    if c.im == 0:
        return _frac_str(c.re)
    if c.im == 1:
        im = "i"
    elif c.im == -1:
        im = "-i"
    else:
        im = f"{_frac_str(c.im)}*i"
    if c.re == 0:
        return im
    sep = "+" if not im.startswith("-") else ""
    return f"{_frac_str(c.re)}{sep}{im}"
