import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from segrechains.errors import (
    ChartMismatch,
    DimensionMismatch,
    TruncationUnsound,
    UnknownVariable,
    UnpairedVariable,
    VarSpaceMismatch,
)
from segrechains.manifold import ambient_space
from segrechains.scalars import GaussianRational, ZERO
from segrechains.series import (
    EXACT, P, RESIDUES, FlowWord, NoImage, PointTable, Series, SeriesMap, TangentVectorField,
    VarSpace, _merge_order, bracket, forward_step, residue, residue_step, zi_add,
)
from segrechains.ranks import integer_rows

from helpers import (
    gaussian_rows, random_series, reference_apply, reference_bracket, reference_compose,
    reference_diff, reference_evaluate, reference_forward_step, reference_product,
    reference_jacobian, small_scalar, variables_map,
)


def simple_space():
    return ambient_space(1, 1)  # w1, z1, zeta1, xi1 with sigma-pairing


def brute_square(space, names):
    """Oracle: expand (sum of variables)^2 by explicit term-by-term listing."""
    acc = {}
    for a in names:
        for b in names:
            exp = [0] * space.dim
            exp[space.index_of(a)] += 1
            exp[space.index_of(b)] += 1
            key = tuple(exp)
            acc[key] = acc.get(key, 0) + 1
    return Series(space, {k: GaussianRational(v) for k, v in acc.items()})


def test_square_matches_hand_expansion_oracle():
    space = simple_space()
    w = Series.variable(space, "w1")
    z = Series.variable(space, "z1")
    expected = brute_square(space, ["w1", "z1"])  # w^2 + 2wz + z^2
    assert (w + z) ** 2 == expected
    assert expected.coefficient({"w1": 1, "z1": 1}) == GaussianRational(2)
    # same expansion survives truncation at its own degree
    assert ((w + z) ** 2).truncate(2) == expected.truncate(2)


def test_additive_inverse_and_monomial_product():
    space = simple_space()
    w, zeta = Series.variable(space, "w1"), Series.variable(space, "zeta1")
    assert (w * zeta + (-(w * zeta))).is_zero()
    prod = w * zeta
    assert prod.coefficient({"w1": 1, "zeta1": 1}) == GaussianRational(1)
    assert len(prod.terms) == 1


def test_commutativity_and_associativity_randomized():
    rng = random.Random(3)
    space = simple_space()
    for _ in range(15):
        a = random_series(rng, space)
        b = random_series(rng, space)
        c = random_series(rng, space)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_varspace_mismatch():
    s1 = simple_space()
    s2 = ambient_space(2, 1)
    with pytest.raises(VarSpaceMismatch):
        Series.variable(s1, "w1") + Series.variable(s2, "w1")


def test_truncation_drops_high_degree():
    space = simple_space()
    w = Series.variable(space, "w1", order=2)
    cube = w * w * w
    assert cube.is_zero()
    sq = w * w
    assert not sq.is_zero()
    # mixed orders take the minimum
    z5 = Series.variable(space, "z1", order=5)
    assert (w + z5).order == 2


def test_diff_power_rule_and_order_drop():
    space = simple_space()
    s = Series.monomial(space, {"w1": 2, "zeta1": 2})
    d = s.diff("w1")
    assert d == Series.monomial(space, {"w1": 1, "zeta1": 2}, 2)
    const = Series.constant(space, 7)
    assert const.diff("w1").is_zero()
    truncated = Series.monomial(space, {"w1": 3}, 1, order=5)
    assert truncated.diff("w1").order == 4
    with pytest.raises(UnknownVariable):
        s.diff("nope")


def test_diff_product_rule_exact():
    rng = random.Random(4)
    space = simple_space()
    for _ in range(10):
        f = random_series(rng, space)
        g = random_series(rng, space)
        for v in ("w1", "zeta1"):
            assert (f * g).diff(v) == f.diff(v) * g + f * g.diff(v)


def test_compose_identity_and_hand_substitution(quartic):
    space = simple_space()
    f = random_series(random.Random(5), space)
    assert f.compose(variables_map(space)) == f
    # f = z, z -> xi + i*w*zeta, then zeta, xi -> 0 gives 0
    z = Series.variable(space, "z1")
    i = GaussianRational(0, 1)
    sub = {
        "w1": Series.variable(space, "w1"),
        "z1": Series.variable(space, "xi1")
        + Series.monomial(space, {"w1": 1, "zeta1": 1}, i),
        "zeta1": Series.zero(space),
        "xi1": Series.zero(space),
    }
    inner = z.compose(sub)
    zero_zeta_xi = {
        "w1": Series.variable(space, "w1"),
        "z1": Series.variable(space, "z1"),
        "zeta1": Series.zero(space),
        "xi1": Series.zero(space),
    }
    assert z.compose(sub).compose(zero_zeta_xi).is_zero() or inner.is_zero()


def test_compose_associativity_exact_mode():
    rng = random.Random(6)
    space = simple_space()
    for _ in range(6):
        f = random_series(rng, space, max_degree=3, terms=3)
        g = {n: random_series(rng, space, max_degree=2, terms=2) for n in space.names}
        h = {n: random_series(rng, space, max_degree=2, terms=2) for n in space.names}
        gh = {n: g[n].compose(h) for n in space.names}
        assert f.compose(g).compose(h) == f.compose(gh)


def test_compose_truncation_unsound_on_constant_term():
    space = simple_space()
    f = Series.variable(space, "w1", order=4)
    bad = {n: Series.constant(space, 1, order=4) for n in space.names}
    with pytest.raises(TruncationUnsound):
        f.compose(bad)


def test_sigma_conjugate_involution_and_examples():
    rng = random.Random(7)
    space = simple_space()
    for _ in range(10):
        f = random_series(rng, space)
        assert f.sigma_conjugate().sigma_conjugate() == f
    i = GaussianRational(0, 1)
    m = Series.monomial(space, {"w1": 1, "zeta1": 1}, i)  # i*w*zeta
    assert m.sigma_conjugate() == Series.monomial(space, {"w1": 1, "zeta1": 1}, -i)
    # a real-coefficient series symmetric under the block swap is fixed
    sym = Series.monomial(space, {"w1": 1, "zeta1": 1}, 3) + Series.monomial(
        space, {"z1": 1, "xi1": 1}, 2
    )
    assert sym.sigma_conjugate() == sym


def test_sigma_conjugate_unpaired():
    space = VarSpace([("a", ("a1",))])  # no pairing at all
    with pytest.raises(UnpairedVariable):
        Series.variable(space, "a1").sigma_conjugate()


def test_evaluate_exact():
    space = simple_space()
    rng = random.Random(8)
    f = random_series(rng, space)
    g = random_series(rng, space)
    pt = [small_scalar(rng) for _ in range(space.dim)]
    assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
    assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
    zero_pt = [ZERO] * space.dim
    assert f.evaluate(zero_pt) == f.constant_term()


# -- integer-first evaluation against the term-by-term reference ---------------

_small = st.one_of(
    st.integers(-20, 20), st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
)
# coordinates as large as forward-mode intermediate values
_large = st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(1, 2 ** 64))
_coefficients = st.builds(GaussianRational, _small, _small)
_coordinates = st.one_of(
    st.just(0), st.just(ZERO), st.integers(-99, 99), _small, _large,
    st.builds(GaussianRational, _small, _small),
    st.builds(GaussianRational, _large, _large),
).map(GaussianRational._coerce)


def _evaluated_series(order):
    space = simple_space()
    exponents = st.tuples(*[st.integers(0, 3)] * space.dim)
    terms = st.dictionaries(exponents, _coefficients, max_size=6)
    return terms.map(lambda t: Series(space, t, order))


def _image(value):
    """The residue of a GaussianRational (i -> ROOT)."""
    return residue(*value.zi)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data(), st.one_of(st.none(), st.integers(0, 5)))
def test_gradient_walks_match_reference_partials(data, order):
    """One walk gives the value and every partial: gradient_over's value is
    reference_evaluate of f and its entry j that of reference_diff(f, x_j),
    zero for a variable that does not occur, and residue_gradient gives
    their image in F_P (i -> ROOT); on random, zero and constant series,
    EXACT and jets, whose terms repeat variables (exponents up to 3)."""
    drawn = data.draw(_evaluated_series(order))
    space = drawn.space
    constant = Series.constant(space, data.draw(_coefficients), order)
    point = data.draw(st.lists(_coordinates, min_size=4, max_size=4))
    table = PointTable([x.zi for x in point])  # shared, as forward_step shares it
    for f in (drawn, Series.zero(space, order), constant):
        want_value = reference_evaluate(f, point)
        want = [reference_evaluate(reference_diff(f, name), point) for name in space.names]
        for keep in (False, True):
            (re, im, den), (pden, gre, gim) = f.gradient_over(table, keep)
            assert len(gre) == len(gim) == space.dim and pden > 0
            assert GaussianRational.from_zi(re, im, den) == want_value
            assert [GaussianRational.from_zi(x, y, pden) for x, y in zip(gre, gim)] == want
            assert hasattr(f, "_plan") == keep
        if any(x.zi[2] % P == 0 for x in point):
            continue  # no image of the point in F_P
        value, grad = f.residue_gradient([[1, _image(x)] for x in point])
        assert value == _image(want_value) and grad == [_image(w) for w in want]
        scaled = f * GaussianRational(Fraction(data.draw(st.integers(1, 5)), P))
        if not scaled.is_zero():
            with pytest.raises(NoImage):
                scaled.residue_gradient([[1, _image(x)] for x in point])


def _canonical_parts(value):
    """Each part an int exactly when integral, else a Fraction."""
    return all(type(p) is int or (type(p) is Fraction and p.denominator > 1)
               for p in (value.re, value.im))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), st.one_of(st.none(), st.integers(0, 5)))
def test_evaluate_matches_reference_evaluation(data, order):
    fs = data.draw(st.lists(_evaluated_series(order), min_size=1, max_size=4))
    point = data.draw(st.lists(_coordinates, min_size=4, max_size=4))
    hashes = [hash(f) for f in fs]
    expected = [reference_evaluate(f, point) for f in fs]
    table = PointTable([x.zi for x in point])  # one table across the series and repeated calls
    for _ in range(2):
        for f, want in zip(fs, expected):
            for got in (f.evaluate(point, table), f.evaluate(point)):
                assert got == want and _canonical_parts(got)
    assert gaussian_rows(integer_rows([fs, fs[::-1]], point)) == [expected, expected[::-1]]
    for f, h in zip(fs, hashes):
        assert hash(f) == h and f == Series(f.space, f.terms, f.order)
    for short in (point[:3], point + [ZERO]):
        with pytest.raises(DimensionMismatch):
            fs[0].evaluate(short)
        with pytest.raises(DimensionMismatch):
            fs[0].evaluate(short, PointTable([x.zi for x in short]))


# -- integer-first composition against the term-by-term reference -----------

_TARGET = VarSpace([("t", ("t1", "t2", "t3"))])
_ELSEWHERE = VarSpace([("u", ("u1",))])
_ORDERS = (None,) + tuple(range(9))


def _random_part(rng):
    """An int, a small fraction, or a fraction with denominator up to 2**64."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-20, 20)
    bound = 12 if kind == 1 else 2 ** 64
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _random_coefficient(rng):
    while True:
        c = GaussianRational(_random_part(rng), _random_part(rng))
        if c:
            return c


def _random_series(rng, space, order, size, constant, live=None):
    """Up to `size` nonconstant terms in the variables `live` (default all)
    with exponents up to 3, and a constant term if `constant`."""
    live = range(space.dim) if live is None else live
    terms = {}
    for _ in range(size):
        exp = tuple(rng.randint(0, 3) if i in live else 0 for i in range(space.dim))
        if any(exp):
            terms[exp] = _random_coefficient(rng)
    if constant:
        terms[(0,) * space.dim] = _random_coefficient(rng)
    return Series(space, terms, order)


def _composed(compose, f, sub):
    """compose(f, sub), or the type and message of the error it raised."""
    try:
        return compose(f, sub)
    except (TruncationUnsound, UnknownVariable, VarSpaceMismatch) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_compose_matches_reference_compose(seed):
    """Zero, constant and general outer series, EXACT or truncated at 0..8,
    with coefficients whose denominators reach 2**64 on both sides; the
    substituted series are often at another order, and those of unused
    variables often have a constant term.  Some cases are errors: a missing
    variable, a series over another space, a constant term put into a
    truncated series."""
    rng = random.Random(seed)
    space = simple_space()
    order = rng.choice(_ORDERS)
    live = rng.sample(range(space.dim), rng.randint(1, space.dim))
    shape = rng.randrange(8)  # 0: zero, 1: constant, else general
    size = 0 if shape < 2 else rng.randint(1, 5)
    constant = shape == 1 or (shape > 1 and rng.random() < 0.5)
    f = _random_series(rng, space, order, size, constant, live)
    sub = {}
    for i, name in enumerate(space.names):
        s_order = order if rng.random() < 0.5 else rng.choice(_ORDERS)
        constant = rng.random() < (0.1 if i in live else 0.5)
        sub[name] = _random_series(rng, _TARGET, s_order, rng.randint(1, 3), constant)
    fault = rng.randrange(10)
    if fault == 0:
        del sub[rng.choice(space.names)]
    elif fault == 1:
        sub[rng.choice(space.names)] = _random_series(rng, _ELSEWHERE, order, 2, False)
    want = _composed(reference_compose, f, sub)
    got = _composed(Series.compose, f, sub)
    assert got == want
    if isinstance(got, Series):
        assert got.order == want.order and got.space == want.space
        assert all(_canonical_parts(c) for c in got.terms.values())


def _termwise(space, order, terms, fn):
    """The Series of fn(exponent, coefficient) -> (exponent, coefficient) over
    a terms view, in GaussianRational arithmetic."""
    return Series(space, dict(fn(e, c) for e, c in terms.items()), order)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_arithmetic_matches_reference_arithmetic(seed):
    """*, +, -, negation, diff, sigma_conjugate and scalar products against
    term-by-term GaussianRational arithmetic, on zero, EXACT and truncated
    series at mixed orders, with int, small-fraction and 2**64-denominator
    coefficients."""
    rng = random.Random(seed)
    space = simple_space()
    f, g = (_random_series(rng, space, rng.choice(_ORDERS), rng.randint(0, 5),
                           rng.random() < 0.5) for _ in range(2))
    order = _merge_order(f.order, g.order)
    union = set(f.terms) | set(g.terms)
    for sign, got in ((1, f + g), (-1, f - g)):
        assert got == Series(space, {
            e: f.coefficient(dict(zip(space.names, e)))
            + sign * g.coefficient(dict(zip(space.names, e))) for e in union
        }, order)
    assert f * g == reference_product(f, g) == g * f
    assert f * f == reference_product(f, f)
    assert -f == _termwise(space, f.order, f.terms, lambda e, c: (e, -c))
    for name in space.names:
        assert f.diff(name) == reference_diff(f, name)
    partner = [space.partner(i) for i in range(space.dim)]
    assert f.sigma_conjugate() == _termwise(space, f.order, f.terms, lambda e, c: (
        tuple(e[partner[i]] for i in range(space.dim)), c.conjugate()))
    scalars = (_random_coefficient(rng), rng.randint(-3, 3), _random_part(rng))
    for k in scalars:
        want = _termwise(space, f.order, f.terms, lambda e, c: (e, c * k))
        assert f * k == k * f == want
        constant = Series.constant(space, k, f.order)
        assert f + k == k + f == f + constant
        assert f - k == f - constant and k - f == constant - f


def test_compose_of_a_constant_over_no_variables_matches_reference():
    empty = VarSpace([])
    for f, sub in ((Series.constant(empty, 3), {}),
                   (Series.constant(empty, 3, order=2), {"x": Series.variable(_TARGET, "t1")})):
        assert _composed(Series.compose, f, sub) == _composed(reference_compose, f, sub)


# -- the forward step over Z[i] against the GaussianRational reference -------


def _random_coordinate(rng):
    """0, an int, a Fraction (small or up to 2**64) or a GaussianRational."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((0, ZERO))
    if kind == 1:
        return rng.randint(-99, 99)
    if kind == 2:
        return _random_part(rng)
    return GaussianRational(_random_part(rng), _random_part(rng))


def _random_int_row(rng, ncols):
    """An integer row (den, re, im): all zero, or with zero entries and a
    denominator that is 1, small, or up to 2**64."""
    zeros = [0] * ncols
    kind = rng.randrange(4)
    if kind == 0:
        return 1, zeros, zeros
    den = (1, rng.randint(2, 12), rng.randint(2, 2 ** 64))[kind - 1]
    bound = rng.choice((5, 2 ** 70))

    def entry():
        return 0 if rng.random() < 0.3 else rng.randint(-bound, bound)
    return den, [entry() for _ in range(ncols)], [entry() for _ in range(ncols)]


def _exact_row(row):
    den, re, im = row
    return [GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_forward_step_matches_reference_forward_step(seed):
    """Polynomials with int, small-fraction and 2**64-denominator complex
    coefficients at points mixing integral, fractional and complex
    coordinates (zero ones make partials vanish), given to the step as Z[i]
    scalars, through integer rows with zero entries, all-zero rows and
    differing denominators."""
    rng = random.Random(seed)
    space = simple_space()
    ncols = rng.randint(1, 4)
    fns = [_random_series(rng, space, None, rng.randint(0, 5), rng.random() < 0.5)
           for _ in range(rng.randint(1, 3))]
    at = [GaussianRational._coerce(_random_coordinate(rng)) for _ in range(space.dim)]
    rows = [_random_int_row(rng, ncols) for _ in range(space.dim)]
    given_rows = [(den, list(re), list(im)) for den, re, im in rows]
    want = reference_forward_step(fns, at, [_exact_row(r) for r in rows])
    got = forward_step(fns, [x.zi for x in at], rows)
    assert rows == given_rows  # rows are shared, never mutated
    for (value, row), (want_value, want_row) in zip(got, want):
        re, im, den = value
        assert den > 0 and math.gcd(re, im, den) == 1  # in lowest terms
        assert GaussianRational(Fraction(re, den), Fraction(im, den)) == want_value
        den, re, im = row
        assert den > 0 and len(re) == len(im) == ncols
        assert math.gcd(den, *re, *im) == 1  # one gcd reduced the row
        entries = [GaussianRational.from_zi(x, y, den) for x, y in zip(re, im)]
        assert _exact_row(row) == entries == want_row
        assert all(_canonical_parts(c) for c in [GaussianRational.from_zi(*value), *entries])
    # a flow moves its coordinates by its times with zi_add
    total = zi_add(at[0].zi, at[1].zi)
    assert math.gcd(*total) == 1 and GaussianRational.from_zi(*total) == at[0] + at[1]


def _residue_row(row):
    den, re, im = row
    return [residue(x, y, den) for x, y in zip(re, im)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_residue_step_is_the_image_of_forward_step(seed):
    """residue_step gives the image in F_P (i -> ROOT) of forward_step's
    values and rows, on the polynomials, points and rows of the exact step's
    test; a polynomial whose denominator P divides has no image."""
    rng = random.Random(seed)
    space = simple_space()
    ncols = rng.randint(1, 4)
    fns = [_random_series(rng, space, None, rng.randint(0, 5), rng.random() < 0.5)
           for _ in range(rng.randint(1, 3))]
    at = [GaussianRational._coerce(_random_coordinate(rng)) for _ in range(space.dim)]
    rows = [_random_int_row(rng, ncols) for _ in range(space.dim)]
    residue_rows = [_residue_row(r) for r in rows]
    given_rows = [list(r) for r in residue_rows]
    got = residue_step(fns, [residue(*x.zi) for x in at], residue_rows)
    assert residue_rows == given_rows  # rows are shared, never mutated
    want = forward_step(fns, [x.zi for x in at], rows)
    assert got == [(residue(*value), _residue_row(row)) for value, row in want]
    for f in fns:
        scaled = f * GaussianRational(Fraction(rng.randint(1, 5), P))
        if not scaled.is_zero():
            with pytest.raises(NoImage):
                residue_step([scaled], [residue(*x.zi) for x in at], residue_rows)
    with pytest.raises(NoImage):
        residue(1, 2, 3 * P)


# -- one-pass derivations against the loop of Series operations --------------


def _random_field(rng, space):
    """A field whose coefficients are zero (often at a low order), constant or
    multi-term, EXACT or truncated at mixed orders, with parts whose
    denominators run from 1 to 2**64, so the coefficients' dens differ."""
    coeffs = []
    for _ in range(space.dim):
        order = rng.choice(_ORDERS)
        shape = rng.randrange(4)
        if shape == 0:
            coeffs.append(Series.zero(space, rng.choice((0, 1, order))))
        else:
            size = 0 if shape == 1 else rng.randint(1, 4)
            coeffs.append(_random_series(rng, space, order, size, shape == 1 or rng.random() < 0.5))
    return TangentVectorField(space, tuple(coeffs), f"X{rng.randrange(10)}")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_derivation_matches_reference_apply_and_bracket(seed):
    """apply and bracket against the loop of diffs, products and sums they
    replace (helpers.reference_apply, reference_bracket), compared as whole
    Series, order included: EXACT and jet f at mixed orders, f = 0 and
    constant f, the fields of _random_field and a field of zero coefficients
    (an empty support).  A jet g in none of X's supported variables forms no
    product, yet each nonzero c_a still cuts the order; key(-1) is the key
    of the negated field."""
    rng = random.Random(seed)
    space = simple_space()
    X, Y = _random_field(rng, space), _random_field(rng, space)
    Z = TangentVectorField(space, tuple(Series.zero(space, rng.choice(_ORDERS))
                                        for _ in range(space.dim)))
    size = 0 if rng.random() < 0.2 else rng.randint(1, 5)
    f = _random_series(rng, space, rng.choice(_ORDERS), size, rng.random() < 0.5)
    unused = [a for a, c in enumerate(X.coefficients) if c.is_zero()]
    g = _random_series(rng, space, rng.choice(_ORDERS[1:]), rng.randint(1, 5),
                       rng.random() < 0.5, unused)
    assert X.support == tuple((a, c) for a, c in enumerate(X.coefficients) if not c.is_zero())
    assert Z.support == () and Z.is_zero()
    # Series equality compares the order too
    for field, h in ((X, f), (Y, f), (Z, f), (X, g)):
        assert field.apply(h) == reference_apply(field, h)
    assert X.apply(g).is_zero()
    for A, B in ((X, Y), (X, X), (X, Z), (Z, Y)):
        assert bracket(A, B) == reference_bracket(A, B)
    for field in (X, Z, bracket(X, Y)):
        assert field.key(-1) == (-field).key()


def test_vector_field_checks_its_coefficients_and_operands():
    """A field has one coefficient per variable of its space, each over that
    space, and applies only to Series over it; a short field does not read
    its missing coefficients as zero."""
    space = VarSpace([("x", ("x1", "x2"))])
    other = VarSpace([("u", ("u1", "u2"))])
    x1, x2 = (Series.variable(space, n) for n in space.names)
    u1, u2 = (Series.variable(other, n) for n in other.names)
    for coeffs in ((x1,), (x1, x2, x1)):
        with pytest.raises(DimensionMismatch):
            TangentVectorField(space, coeffs)
    with pytest.raises(VarSpaceMismatch):
        TangentVectorField(space, (x1, u1))
    X = TangentVectorField(space, (x2, x1))
    assert X.apply(x1 * x2) == x2 * x2 + x1 * x1
    with pytest.raises(VarSpaceMismatch):
        X.apply(u1 * u2)
    with pytest.raises(ChartMismatch):
        bracket(X, TangentVectorField(other, (u2, u1)))


def test_seriesmap_evaluate_and_jacobian():
    space = simple_space()
    ident = variables_map(space)
    rng = random.Random(9)
    pt = [small_scalar(rng) for _ in range(space.dim)]
    assert ident.evaluate(pt) == pt
    jac = reference_jacobian(ident)
    for r in range(space.dim):
        for c in range(space.dim):
            expected = Series.constant(space, 1 if r == c else 0)
            assert jac[r][c] == expected
    zero_map = SeriesMap([Series.zero(space)] * space.dim, space)
    assert all(e.is_zero() for row in reference_jacobian(zero_map) for e in row)


def test_lift_preserves_terms():
    small = VarSpace([("u1", ("u1_1",))], [("u1_1", "u1_1")])
    big = VarSpace(
        [("u1", ("u1_1",)), ("u2", ("u2_1",))],
        [("u1_1", "u1_1"), ("u2_1", "u2_1")],
    )
    s = Series.monomial(small, {"u1_1": 2}, 5)
    lifted = s.lift(big)
    assert lifted.coefficient({"u1_1": 2}) == GaussianRational(5)
    assert lifted.space == big


class _CountingFlow:
    """A flow step that adds its one time to the first value and counts its steps."""

    def __init__(self):
        self.steps = 0

    def advance(self, values, rows, times, col, kernel):
        self.steps += 1
        return [kernel.add(values[0], times[0])] + values[1:], rows


def test_flow_word_run_extends_the_longest_kept_prefix():
    # a fresh k-flow run takes k steps; a word one flow longer, run with the
    # same states, takes one step and reports what a fresh run reports
    flows = [_CountingFlow() for _ in range(4)]

    def space_of(i):
        return VarSpace([(f"u{j}", (f"u{j}_1",)) for j in range(1, i + 1)])

    def word(k, out=None):
        return FlowWord(flows[:k], space_of, None, lambda params: [ZERO] * 2, None, _X, out)

    blocks = [[GaussianRational(j)] for j in range(1, 5)]
    for kernel in (EXACT, RESIDUES):
        states = {}
        word(3).run((), blocks, kernel, states)
        assert [f.steps for f in flows] == [1, 1, 1, 0]
        values, rows = word(4, out=[0]).run((), blocks, kernel, states)
        assert [f.steps for f in flows] == [1, 1, 1, 1]
        assert sorted(map(len, states)) == [0, 1, 2, 3, 4]
        assert (values, rows) == word(4, out=[0]).run((), blocks, kernel)
        assert values == [kernel.scalar(GaussianRational(10))] and len(rows) == 1
        for f in flows:
            f.steps = 0


_X = VarSpace([("x", ("x1", "x2"))])
_U = VarSpace([("u", ("u1", "u2"))])


@pytest.mark.parametrize("build, error, message", [
    (lambda: SeriesMap([Series.variable(_X, "x1"), Series.variable(_U, "u1")], _U),
     VarSpaceMismatch, "components live over different domains"),
    (lambda: SeriesMap([Series.variable(_X, "x1"), Series.variable(_X, "x2", 3)], _U),
     VarSpaceMismatch, "components carry different truncation orders"),
    (lambda: SeriesMap([Series.variable(_X, "x1")], _U),
     DimensionMismatch, "1 components for codomain of dim 2"),
    (lambda: VarSpace([("x", ("x1",)), ("x", ("x2",))]),
     VarSpaceMismatch, "duplicate block name 'x'"),
    (lambda: VarSpace([("x", ("x1",)), ("y", ("x1",))]),
     VarSpaceMismatch, "variable names must be unique"),
    (lambda: VarSpace([("x", ("x1",))], [("x1", "y1")]),
     UnknownVariable, "pairing refers to unknown variable 'x1'/'y1'"),
    (lambda: Series(_X, {(1, 0): "one"}), TypeError, "not an exact scalar: 'one'"),
    (lambda: Series(_X, {(1,): 1}), DimensionMismatch, "exponent length 1 != space dim 2"),
], ids=["map-mixed-domains", "map-mixed-orders", "map-codomain-size", "space-duplicate-block",
        "space-duplicate-variable", "space-unknown-pairing", "series-non-scalar",
        "series-exponent-length"])
def test_malformed_spaces_series_and_maps_are_refused(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
