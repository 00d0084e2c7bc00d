import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from segrechains.manifold import ambient_space
from segrechains.scalars import GaussianRational, I, ZERO, format_scalar
from segrechains.series import Series

from helpers import ReferenceGaussianRational, small_scalar


def test_canonical_reduced_form():
    c = GaussianRational(Fraction(2, 4), Fraction(-3, -9))
    assert c.re == Fraction(1, 2) and c.re.denominator == 2
    assert c.im == Fraction(1, 3) and c.im.denominator > 0


def test_field_axioms_on_random_values():
    rng = random.Random(1)
    for _ in range(50):
        a, b, c = (small_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_i_squared_is_minus_one():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert i ** 4 == GaussianRational(1)


def test_conjugation_involution_and_norm():
    rng = random.Random(2)
    for _ in range(20):
        a = small_scalar(rng)
        assert a.conjugate().conjugate() == a
        n = a * a.conjugate()
        assert n.im == 0 and n.re >= 0


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_formatting():
    assert format_scalar(GaussianRational(1)) == "1"
    assert format_scalar(GaussianRational(Fraction(-1, 2))) == "-1/2"
    assert format_scalar(GaussianRational(0, 1)) == "i"
    assert format_scalar(GaussianRational(0, -1)) == "-i"
    assert format_scalar(GaussianRational(0, Fraction(2, 3))) == "2/3*i"
    assert format_scalar(GaussianRational(1, 1)) == "1+i"
    assert format_scalar(GaussianRational(-1, -1)) == "-1-i"


def test_immutability_and_hash():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(3)
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.25)


# -- integer-first parts -------------------------------------------------------

parts = st.one_of(
    st.integers(-50, 50),
    st.booleans(),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)
scalars = st.builds(GaussianRational, parts, parts)
INVARIANTS = settings(derandomize=True, max_examples=300, deadline=None)


def _canonical_part(x):
    """An int when integral (never a bool), else a Fraction with denominator > 1."""
    if type(x) is int:
        return True
    return type(x) is Fraction and x.denominator > 1


def test_integral_parts_are_ints():
    for value in (GaussianRational(Fraction(4, 2), Fraction(-6, 3)), GaussianRational("8/4"),
                  GaussianRational(3) / GaussianRational(3),
                  GaussianRational(2, 2) / GaussianRational(1, 1),
                  GaussianRational(Fraction(1, 2)) * 2, GaussianRational(True, False)):
        assert type(value.re) is int and type(value.im) is int, repr(value)
    half = GaussianRational(1) / GaussianRational(2)
    assert half.re == Fraction(1, 2) and type(half.im) is int


@INVARIANTS
@given(scalars, scalars, st.integers(0, 4))
def test_every_operation_keeps_parts_canonical(a, b, n):
    results = [a + b, a - b, a * b, -a, a.conjugate(), a ** n, a + 1, 2 * a,
               a * Fraction(1, 3), 1 - a]
    if not b.is_zero():
        results += [a / b, 1 / b]
    for value in [a, b] + results:
        assert _canonical_part(value.re) and _canonical_part(value.im), repr(value)


@INVARIANTS
@given(scalars)
def test_int_and_fraction_built_values_agree(a):
    twin = GaussianRational(Fraction(a.re), Fraction(a.im))
    assert twin == a and hash(twin) == hash(a)
    assert type(twin.re) is type(a.re) and type(twin.im) is type(a.im)
    if a.im == 0:
        assert a == Fraction(a.re) and hash(a) == hash(GaussianRational(a.re))


def _fraction_format(re, im):
    """format_scalar's text computed with both parts as Fractions."""
    re, im = Fraction(re), Fraction(im)
    im_text = {1: "i", -1: "-i"}.get(im, f"{im}*i")
    if im == 0:
        return str(re)
    if re == 0:
        return im_text
    return f"{re}{'' if im_text.startswith('-') else '+'}{im_text}"


@INVARIANTS
@given(scalars)
def test_format_matches_fraction_parts(a):
    assert format_scalar(a) == _fraction_format(a.re, a.im)


# -- Series results built without the constructor's checks --------------------

SPACE = ambient_space(1, 1)
orders = st.one_of(st.none(), st.integers(1, 4))
exponents = st.tuples(*[st.integers(0, 2)] * SPACE.dim)


def series(order, constant=True, size=5):
    terms = st.dictionaries(exponents, scalars, max_size=size)
    if not constant:
        terms = terms.map(lambda t: {e: c for e, c in t.items() if any(e)})
    return terms.map(lambda t: Series(SPACE, t, order))


def _assert_canonical(s):
    rebuilt = Series(s.space, s.terms, s.order)
    assert s == rebuilt and hash(s) == hash(rebuilt)
    for exp, c in s.terms.items():
        assert type(c) is GaussianRational and not c.is_zero()
        assert len(exp) == SPACE.dim and (s.order is None or sum(exp) <= s.order)
    # the stored form: one positive denominator, coprime to the parts as a
    # whole, and nonzero int pairs within the order
    assert type(s.den) is int and s.den > 0
    assert math.gcd(s.den, *(x for pair in s.pairs.values() for x in pair)) == 1
    assert s.pairs.keys() == s.terms.keys()
    for exp, pair in s.pairs.items():
        assert type(pair) is tuple and all(type(x) is int for x in pair) and any(pair)
        assert s.order is None or sum(exp) <= s.order


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data(), orders, orders)
def test_series_results_are_canonical(data, order, other_order):
    f, g = data.draw(series(order)), data.draw(series(order))
    h = data.draw(series(other_order))
    c = data.draw(scalars)
    for s in (f, h, f + g, f - g, f * g, -f, f * c, f + h, f * h, f - f, f ** 2,
              f.diff("w1"), f.diff("xi1"), f.sigma_conjugate(), 1 - f,
              f.truncate(2)):
        _assert_canonical(s)
    sub = {n: data.draw(series(order, constant=order is None, size=2)) for n in SPACE.names}
    _assert_canonical(f.compose(sub))


# -- the Z[i] scalar against the int|Fraction reference ------------------------

_wide = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70))
part_pairs = st.tuples(st.one_of(parts, _wide), st.one_of(parts, _wide))
plain = st.one_of(st.integers(-20, 20), st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))


def _assert_matches(value, ref):
    """value is canonical over Z[i] and reads exactly like the reference."""
    assert type(value) is GaussianRational
    re, im, den = value.zi
    assert all(type(x) is int for x in value.zi) and den > 0 and math.gcd(re, im, den) == 1
    assert (value.re, value.im) == (ref.re, ref.im)
    assert (type(value.re), type(value.im)) == (type(ref.re), type(ref.im))
    assert repr(value) == repr(ref) and str(value) == str(ref) == format_scalar(value)


@INVARIANTS
@given(part_pairs, part_pairs, plain, st.integers(0, 4))
def test_operations_match_fraction_reference(x, y, k, n):
    a, b = GaussianRational(*x), GaussianRational(*y)
    ra, rb = ReferenceGaussianRational(*x), ReferenceGaussianRational(*y)
    cases = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
             (-a, -ra), (a.conjugate(), ra.conjugate()), (a ** n, ra ** n),
             (a + k, ra + k), (k + a, k + ra), (a - k, ra - k), (k - a, k - ra),
             (a * k, ra * k), (k * a, k * ra)]
    if rb.is_zero():
        for divide in (lambda: a / b, lambda: k / b):
            with pytest.raises(ZeroDivisionError):
                divide()
    else:
        cases += [(a / b, ra / rb), (k / b, k / rb), (a / b * b, ra / rb * rb)]
    if k:
        cases.append((a / k, ra / k))
    for value, ref in cases:
        _assert_matches(value, ref)
    assert (a == b) == (ra == rb) and (a == k) == (ra == k) and (a != b) == (ra != rb)
    assert a.is_zero() == ra.is_zero() == (not a)


@INVARIANTS
@given(part_pairs, st.integers(1, 10 ** 6))
def test_equal_values_are_stored_and_hashed_alike(x, k):
    a = GaussianRational(*x)
    re, im, den = a.zi
    twins = [GaussianRational.from_zi(re * k, im * k, den * k),
             GaussianRational(Fraction(a.re), Fraction(a.im)),
             GaussianRational(str(a.re), str(a.im)),
             a + k - k, a * (k + I) / (k + I), a.conjugate().conjugate()]
    for twin in twins:
        assert twin == a and twin.zi == a.zi and hash(twin) == hash(a)
    assert GaussianRational.from_zi(0, 0, k).zi == ZERO.zi == (0, 0, 1)
    with pytest.raises(AttributeError):
        a.zi = (0, 0, 1)
