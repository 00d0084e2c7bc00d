import random

import pytest

from segrechains.errors import ParseError
from segrechains.exprs import MAX_NESTING, format_series, parse_series
from segrechains.manifold import ambient_space
from segrechains.scalars import GaussianRational
from segrechains.series import Series

from helpers import random_series


def test_parse_basic_forms():
    space = ambient_space(2, 1)
    s = parse_series("w1^2*zeta1 - 3/2*z1 + i", space)
    assert s.coefficient({"w1": 2, "zeta1": 1}) == GaussianRational(1)
    assert s.coefficient({"z1": 1}) == GaussianRational("-3/2")
    assert s.constant_term() == GaussianRational(0, 1)


def test_parse_parentheses_and_signs():
    space = ambient_space(1, 1)
    s = parse_series("-(w1 - zeta1)^2", space)
    assert s.coefficient({"w1": 2}) == GaussianRational(-1)
    assert s.coefficient({"w1": 1, "zeta1": 1}) == GaussianRational(2)
    t = parse_series("2*i*(w1 + 1/2)*(w1 - 1/2)", space)
    assert t.coefficient({"w1": 2}) == GaussianRational(0, 2)
    assert t.constant_term() == GaussianRational(0, "-1/2")


def test_parse_errors():
    space = ambient_space(1, 1)
    for bad in ("w1 +", "q7", "w1^(2)", "1/0", "w1 ** 2", "(w1", "w1 @ 2"):
        with pytest.raises(ParseError):
            parse_series(bad, space)


def test_parse_errors_name_the_end_of_input():
    space = ambient_space(1, 1)
    for text, message in (
        ("", "unexpected end of input"),
        ("w1 +", "unexpected end of input"),
        ("-", "unexpected end of input"),
        ("w1*", "unexpected end of input"),
        ("(w1*zeta1", "expected ')', found end of input"),
        ("(w1 w1)", "expected ')', found token 'w1'"),
        ("w1 + )", "unexpected token ')'"),
    ):
        with pytest.raises(ParseError) as info:
            parse_series(text, space)
        assert str(info.value) == message, text
        assert "None" not in str(info.value)


def test_overlong_integer_literals_are_parse_errors(digit_limit):
    space = ambient_space(1, 1)
    long = "7" * (digit_limit + 700)
    assert parse_series("7" * digit_limit + "*w1", space).constant_term() == 0
    for text in (f"{long}*w1*zeta1", f"1/{long}*w1", f"w1^{long}"):
        with pytest.raises(ParseError, match=f"{len(long)}-digit integer is too long"):
            parse_series(text, space)


def test_nesting_is_capped():
    space = ambient_space(1, 1)
    ok = "(" * MAX_NESTING + "w1" + ")" * MAX_NESTING
    assert parse_series(ok, space) == Series.variable(space, "w1")
    for bad in ("(" * 2000 + "w1" + ")" * 2000, "-" * 2000 + "w1"):
        with pytest.raises(ParseError):
            parse_series(bad, space)


def test_roundtrip_random():
    rng = random.Random(10)
    space = ambient_space(2, 2)
    for _ in range(25):
        s = random_series(rng, space, max_degree=4, terms=5)
        assert parse_series(format_series(s), space) == s


def test_canonical_order_is_graded_lex():
    space = ambient_space(1, 1)
    s = parse_series("w1^3 + zeta1 + w1*zeta1", space)
    text = format_series(s)
    # degree 1 before degree 2 before degree 3
    assert text.index("zeta1") < text.index("w1*zeta1") < text.index("w1^3")


def test_zero_formats_as_zero():
    space = ambient_space(1, 1)
    assert format_series(Series.zero(space)) == "0"
    assert parse_series("0", space).is_zero()


def test_imaginary_unit_is_never_a_variable():
    space = ambient_space(1, 1)
    s = parse_series("i*i", space)
    assert s == Series.constant(space, -1)


def test_transcendental_input_rejected():
    # only polynomial data is representable: names that are not declared
    # variables (e.g. attempted exponentials) fail at parse time
    space = ambient_space(1, 1)
    with pytest.raises(ParseError):
        parse_series("e^(-1/w1^2)", space)
    with pytest.raises(ParseError):
        parse_series("exp(w1)", space)


def test_exponents_and_term_counts_are_capped():
    import time

    from segrechains.exprs import MAX_EXPONENT, MAX_TERMS

    space = ambient_space(1, 1)
    assert parse_series(f"w1^{MAX_EXPONENT}*zeta1", space).total_degree() == MAX_EXPONENT + 1
    start = time.perf_counter()
    for text in (
        f"w1^{MAX_EXPONENT + 1}*zeta1",
        "w1^100000*zeta1",
        "(1+w1+zeta1+xi1)^60",  # took more than 60 s before the caps
        "(1+w1+zeta1+xi1)^30",  # under the exponent cap, 5,456 terms
        "(1+w1+zeta1)^9*(1+xi1+w1)^9",  # 55 * 55 possible terms
    ):
        with pytest.raises(ParseError):
            parse_series(text, space)
    assert time.perf_counter() - start < 1.0
    assert 55 * 55 > MAX_TERMS >= 55
    # the bound is the number of monomials, met exactly by a generic base
    assert len(parse_series("(1+w1+zeta1+xi1)^8", space).terms) == 165
