"""Exact Gaussian-rational scalars: complex numbers with rational real and
imaginary parts, stored over the Gaussian integers.

Every coefficient in this package is a GaussianRational, so equality,
conjugation and rank computations are decidable.  There is no floating
point anywhere.  A scalar is stored as one Z[i] scalar, the int triple
zi = (re, im, den) with value (re + i*im) / den, kept canonical (den > 0 and
gcd(re, im, den) == 1): the form that Series, point tables and integer rows
use too, so crossing into them is an attribute read.  All arithmetic runs
on these ints.  The parts re and im are read-only views, each an int when
it is integral and a Fraction otherwise; this module is the only one that
reads them or builds a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new, _set = object.__new__, object.__setattr__


def _part(x):
    """(numerator, denominator > 0) of an exact rational: int, bool, Fraction or text."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def _rational(n: int, d: int):
    """n / d (d > 0) as an int when integral, else as a Fraction."""
    if d == 1:
        return n
    return n // d if n % d == 0 else Fraction(n, d)


class GaussianRational:
    """re + im*i with re, im arbitrary-precision rationals, stored as the
    canonical Z[i] scalar zi = (re, im, den) (see the module docstring).

    Immutable and hashable; the stored form is canonical, so equal values
    compare and hash alike.  GaussianRational(re, im) takes each part as an
    int, bool, Fraction or text (floats are refused); from_zi builds a scalar
    from Z[i] ints.
    """

    __slots__ = ("zi",)

    def __init__(self, re=0, im=0):
        (a, b), (c, d) = _part(re), _part(im)
        _set(self, "zi", GaussianRational.from_zi(a * d, c * b, b * d).zi)

    @staticmethod
    def from_zi(re: int, im: int, den: int = 1) -> "GaussianRational":
        """(re + i*im) / den for ints with den > 0, put in lowest terms."""
        if den != 1:
            g = gcd(re, im, den)
            if g != 1:
                re, im, den = re // g, im // g, den // g
        c = _new(GaussianRational)
        _set(c, "zi", (re, im, den))
        return c

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self):
        """The real part: an int when integral, else a Fraction."""
        return _rational(self.zi[0], self.zi[2])

    @property
    def im(self):
        """The imaginary part: an int when integral, else a Fraction."""
        return _rational(self.zi[1], self.zi[2])

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        """other as a GaussianRational if it is one, an int or a Fraction, else None."""
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return GaussianRational.from_zi(int(other), 0)
        if isinstance(other, Fraction):
            return GaussianRational.from_zi(other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, d = self.zi
        c, e, f = other.zi
        if d == f:
            return GaussianRational.from_zi(a + c, b + e, d)
        return GaussianRational.from_zi(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self.zi
        return GaussianRational.from_zi(-a, -b, d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, d = self.zi
        c, e, f = other.zi
        return GaussianRational.from_zi(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c, e, f = other.zi
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a + bi)/d * f/(c + ei) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, d = self.zi
        return GaussianRational.from_zi(f * (a * c + b * e), f * (b * c - a * e), d * n)

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
        a, b, d = self.zi
        return GaussianRational.from_zi(a, -b, d)

    def is_zero(self) -> bool:
        return not self.zi[0] and not self.zi[1]

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.zi == other.zi

    def __hash__(self):
        return hash(self.zi)

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


def _part_str(n: int, d: int) -> str:
    """n / d (d > 0) in lowest terms as `a` or `a/b`."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def format_scalar(c: GaussianRational) -> str:
    """Canonical text form: `a/b`, `c/d*i` or `a/b+c/d*i` (minus signs folded in)."""
    a, b, d = c.zi
    if not b:
        return _part_str(a, d)
    if b == d:
        im = "i"
    elif b == -d:
        im = "-i"
    else:
        im = f"{_part_str(b, d)}*i"
    if not a:
        return im
    sep = "+" if not im.startswith("-") else ""
    return f"{_part_str(a, d)}{sep}{im}"
