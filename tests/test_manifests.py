import pytest

from segrechains.corpus import load_entry
from segrechains.errors import ParseError
from segrechains.exprs import format_series
from segrechains.manifests import load_manifest, parse_manifest
from segrechains.series import TangentVectorField


HEIS = """
# a comment line
kind=manifold
m=1
d=1
order=EXACT
theta_bar_1 = w1*zeta1
"""

SYSTEM = """
kind=system
n=3
m=1
a=2
order=EXACT
field_1_1_x1 = 1
field_2_1_x2 = 1
field_2_1_x3 = x1
"""


def test_parse_manifold_manifest():
    mf = parse_manifest(HEIS)
    assert mf.kind == "manifold"
    M = mf.build_manifold()
    assert (M.m, M.d) == (1, 1)


def test_parse_system_manifest():
    mf = parse_manifest(SYSTEM)
    assert mf.kind == "system"
    S = mf.build_system()
    assert (S.n, S.m, S.a) == (3, 1, 2)


def test_a_system_manifest_builds_its_fields():
    # each field_alpha_i is one TangentVectorField over x1..xn: the parsed
    # entries at their columns and zero elsewhere, at the manifest's order
    S = parse_manifest(SYSTEM.replace("order=EXACT", "order=3")).build_system()
    want = [[["1", "0", "0"]], [["0", "1", "x1"]]]
    assert [[[format_series(c) for c in X.coefficients] for X in fld]
            for fld in S.fields] == want
    for X in (X for fld in S.fields for X in fld):
        assert type(X) is TangentVectorField and X.space == S.space
        assert all(c.order == S.order == 3 for c in X.coefficients)


def test_kind_inferred():
    mf = parse_manifest("m=1\nd=1\ntheta_bar_1 = 0\n")
    assert mf.kind == "manifold"
    mf2 = parse_manifest("n=2\nm=1\na=1\nfield_1_1_x1 = 1\n")
    assert mf2.kind == "system"


def test_roundtrip_canonical():
    for text in (HEIS, SYSTEM):
        mf = parse_manifest(text).canonical()
        once = mf.serialize()
        again = parse_manifest(once).canonical().serialize()
        assert once == again


def test_parse_errors_have_location():
    with pytest.raises(ParseError) as err:
        parse_manifest("m=one\nd=1\ntheta_bar_1 = 0\n", source="bad.mf")
    assert "bad.mf:1" in str(err.value)
    with pytest.raises(ParseError):
        parse_manifest("m=1\nd=1\n")  # no entries: kind cannot be inferred
    with pytest.raises(ParseError):
        parse_manifest("kind=manifold\nd=1\ntheta_bar_1 = 0\n")  # missing m
    with pytest.raises(ParseError):
        parse_manifest("m=1\nd=1\norder=-3\ntheta_bar_1 = 0\n")


def test_dimensions_must_be_positive():
    with pytest.raises(ParseError) as err:
        parse_manifest("m=0\nd=1\ntheta_bar_1 = 0\n", source="zero.mf")
    assert "zero.mf:1" in str(err.value)
    with pytest.raises(ParseError):
        parse_manifest("m=1\nd=-1\ntheta_bar_1 = 0\n")
    with pytest.raises(ParseError):
        parse_manifest(SYSTEM.replace("a=2", "a=0"))


def test_unknown_keys_become_diagnostics():
    mf = parse_manifest("m=1\nd=1\nflavor=blue\ntheta_bar_1 = 0\n")
    assert any("flavor" in d for d in mf.diagnostics)


def test_keys_of_the_other_kind_become_diagnostics():
    # a system's theta_bar keys and a manifold's field keys are ignored as
    # unknown keys are, each named with its line, in line order
    mf = parse_manifest(SYSTEM + "theta_bar_01 = w1*zeta1\nflavor=blue\n", source="s.mf")
    assert mf.diagnostics == ["s.mf:10: ignored key 'theta_bar_01'",
                              "s.mf:11: ignored key 'flavor'"]
    mf = parse_manifest(HEIS.replace("order=EXACT", "field_1_1_x1 = 1"))
    assert mf.diagnostics == ["<manifest>:6: ignored key 'field_1_1_x1'"]
    assert mf.build_manifold().d == 1
    assert parse_manifest(SYSTEM).diagnostics == parse_manifest(HEIS).diagnostics == []


def test_a_missing_theta_names_the_manifest():
    # a manifest without a source is named as Manifest.location names it
    with pytest.raises(ParseError) as err:
        parse_manifest("m=1\nd=2\ntheta_bar_1 = w1*zeta1\n").build_manifold()
    assert str(err.value) == "<manifest>: missing theta_bar_2"
    with pytest.raises(ParseError) as err:
        parse_manifest("m=1\nd=2\ntheta_bar_1 = w1*zeta1\n", source="two.mf").build_manifold()
    assert str(err.value) == "two.mf: missing theta_bar_2"


def test_order_truncated_build():
    mf = parse_manifest("m=1\nd=1\norder=6\ntheta_bar_1 = w1*zeta1\n")
    M = mf.build_manifold()
    assert M.order == 6


def test_corpus_all_load_and_build():
    from segrechains.corpus import corpus, load_entry

    entries = corpus()
    assert len(entries) >= 10
    for name, path in entries:
        manifest = load_manifest(path)
        built = manifest.build()
        assert built is not None


def test_corpus_sidecars_well_formed():
    from segrechains.corpus import corpus, load_entry

    for name, _ in corpus():
        manifest, expected = load_entry(name)
        assert expected is not None, name
        assert isinstance(expected, dict)


def test_expression_errors_have_location():
    with pytest.raises(ParseError) as err:
        parse_manifest("m=1\nd=1\n# note\ntheta_bar_1 = w1*zeta1 + q7\n",
                       source="q7.mf").build_manifold()
    assert str(err.value) == "q7.mf:4: unknown variable 'q7'"
    with pytest.raises(ParseError) as err:
        parse_manifest(SYSTEM.replace("= x1", "= x1*x9")).canonical()
    assert str(err.value) == "<manifest>:9: unknown variable 'x9'"
    text = parse_manifest("m=1\nd=1\ntheta_bar_1 = w1*zeta1\n").serialize()
    assert parse_manifest("\n\n" + text) == parse_manifest(text)  # lines do not compare


@pytest.mark.parametrize("j", [0, 2])
def test_theta_bar_index_out_of_range(j):
    text = f"m=1\nd=1\ntheta_bar_1 = w1*zeta1\ntheta_bar_{j} = w1^2*zeta1\n"
    with pytest.raises(ParseError) as err:
        parse_manifest(text, source="range.mf").build_manifold()
    assert str(err.value) == f"range.mf:4: theta_bar_{j} out of range"


@pytest.mark.parametrize("text,line,key,first", [
    ("m=1\nd=1\ntheta_bar_1 = w1*zeta1\ntheta_bar_1 = w1^2*zeta1^2\n", 4, "theta_bar_1", 3),
    ("m=1\nd=1\ntheta_bar_1 = w1*zeta1\ntheta_bar_01 = w1^2*zeta1^2\n", 4, "theta_bar_01", 3),
    ("m=1\nd=1\ntheta_bar_01 = w1*zeta1\n\ntheta_bar_1 = 0\n", 5, "theta_bar_1", 3),
    ("m=1\nm=2\nd=1\ntheta_bar_1 = w1*zeta1\n", 2, "m", 1),
    ("m=1\nd=1\ntheta_bar_1 = w1*zeta1\nd = 1  # again\n", 4, "d", 2),
    ("m=1\nd=1\norder=5\norder=EXACT\ntheta_bar_1 = w1*zeta1\n", 4, "order", 3),
    ("kind=manifold\nkind=system\nm=1\nd=1\ntheta_bar_1 = 0\n", 2, "kind", 1),
    ("m=1\nd=1\nflavor=blue\nflavor=blue\ntheta_bar_1 = 0\n", 4, "flavor", 3),
    (SYSTEM + "field_2_1_x3 = x2\n", 10, "field_2_1_x3", 9),
    (SYSTEM + "field_02_01_x3 = x2\n", 10, "field_02_01_x3", 9),
    (SYSTEM.replace("a=2", "a=2\nn=4"), 6, "n", 3),
], ids=["theta", "theta-padded", "theta-padded-first", "m", "d", "order", "kind",
        "ignored", "field", "field-padded", "n"])
def test_duplicate_keys_are_refused(text, line, key, first):
    """A repeated key is an error at its second line, whatever the first value
    was: the parser used to keep the last one silently."""
    with pytest.raises(ParseError) as err:
        parse_manifest(text, source="dup.mf")
    assert str(err.value) == f"dup.mf:{line}: duplicate key {key!r} (first given at line {first})"


def test_distinct_keys_with_a_shared_prefix_are_kept():
    mf = parse_manifest("m=1\nd=2\ntheta_bar_1 = w1*zeta1\ntheta_bar_2 = w1^2*zeta1\n")
    assert sorted(mf.entries) == [1, 2]
    mf = parse_manifest(SYSTEM + "field_2_1_x1 = x3\n")
    assert (2, 1, "x1") in mf.entries and (2, 1, "x3") in mf.entries


@pytest.mark.parametrize("load, error, message", [
    (lambda: parse_manifest("m=1\nd=2\ntheta_bar_1 = w1*zeta1\n", source="gap.mf")
     .build_manifold(), ParseError, "gap.mf: missing theta_bar_2"),
    (lambda: parse_manifest("m=1\nd=1\ntheta_bar_1 w1*zeta1\n", source="eq.mf"),
     ParseError, "eq.mf:3: expected key=value"),
    *((lambda k=k: parse_manifest(SYSTEM.replace(f"{k}=", "# "), source="sys.mf"),
       ParseError, f"sys.mf: missing {k}=") for k in ("n", "m", "a")),
    (lambda: parse_manifest("kind=surface\nm=1\nd=1\ntheta_bar_1 = 0\n", source="kind.mf"),
     ParseError, "kind.mf: unknown kind 'surface'"),
    (lambda: load_entry("no_such_entry"),
     FileNotFoundError, "no bundled manifest named 'no_such_entry'"),
], ids=["missing-theta-bar", "no-equals-sign", "system-missing-n", "system-missing-m",
        "system-missing-a", "unknown-kind", "unknown-corpus-entry"])
def test_malformed_manifests_are_refused(load, error, message):
    with pytest.raises(error) as err:
        load()
    assert str(err.value) == message
