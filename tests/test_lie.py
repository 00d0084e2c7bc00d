import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from segrechains.errors import ChartMismatch, SegreError, WrongDimensions
from segrechains.exprs import format_series
from segrechains.invariants import segre_invariants
from segrechains.lie import (
    TangentVectorField,
    bracket,
    crosscheck_totals,
    e1_determinant,
    gradient_rows,
    holomorphic_nondegeneracy,
    hormander_numbers,
    levi_type,
    tangent_fields,
)
from segrechains.manifold import Basepoint, ambient_space, chart, new_manifold, vector_fields
from segrechains.orbit import cr_pair_system, greedy_multitype, lie_span_dimension
from segrechains.scalars import GaussianRational as G, ZERO
from segrechains.series import Series

from helpers import (
    bend_l_rows,
    brute_ladder,
    cr_oracle_manifolds,
    random_series,
    reference_span_dim,
    reference_tangent_fields,
)


def test_constant_fields_commute(heisenberg):
    L, Lbar = tangent_fields(heisenberg)
    b = bracket(L[0], L[0])
    assert b.is_zero()


def test_heisenberg_bracket_is_transversal_direction(heisenberg):
    L, Lbar = tangent_fields(heisenberg)
    b = bracket(L[0], Lbar[0])
    cs = L[0].space
    # [d/dw, d/dzeta - i w d/dxi] = -i d/dxi
    assert b.coefficients[cs.index_of("w1")].is_zero()
    assert b.coefficients[cs.index_of("zeta1")].is_zero()
    assert b.coefficients[cs.index_of("xi1")] == Series.constant(cs, G(0, -1))


def test_bracket_antisymmetry_random(quartic):
    rng = random.Random(18)
    cs = chart(quartic, "wzetaxi")[1]
    for _ in range(6):
        X = TangentVectorField(
            cs, tuple(random_series(rng, cs, 2, 2) for _ in range(cs.dim))
        )
        Y = TangentVectorField(
            cs, tuple(random_series(rng, cs, 2, 2) for _ in range(cs.dim))
        )
        lhs = bracket(X, Y)
        rhs = bracket(Y, X)
        assert all(
            (a + b).is_zero() for a, b in zip(lhs.coefficients, rhs.coefficients)
        )


def test_jacobi_identity_random(heisenberg):
    rng = random.Random(19)
    cs = chart(heisenberg, "wzetaxi")[1]
    fields = [
        TangentVectorField(
            cs, tuple(random_series(rng, cs, 2, 2) for _ in range(cs.dim))
        )
        for _ in range(3)
    ]
    X, Y, Z = fields
    total = [
        a + b + c
        for a, b, c in zip(
            bracket(X, bracket(Y, Z)).coefficients,
            bracket(Y, bracket(Z, X)).coefficients,
            bracket(Z, bracket(X, Y)).coefficients,
        )
    ]
    assert all(t.is_zero() for t in total)


def test_bracket_chart_mismatch(heisenberg, c3_tube):
    L1, _ = tangent_fields(heisenberg)
    L2, _ = tangent_fields(c3_tube)
    with pytest.raises(ChartMismatch):
        bracket(L1[0], L2[0])


def test_brackets_stay_tangent(heisenberg, quartic, c3_tube):
    # computed brackets annihilate every rho after substituting z = qbar:
    # in the intrinsic chart this reads as the bracket having no z-slot at
    # all, so instead re-derive tangency through the ambient picture:
    # bracket coefficients only involve (w, zeta, xi), which parametrize M
    for M in (heisenberg, quartic, c3_tube):
        L, Lbar = tangent_fields(M)
        b = bracket(L[0], Lbar[0])
        assert b.space == chart(M, "wzetaxi")[1]


def test_hormander_heisenberg_oracle(heisenberg):
    hd = hormander_numbers(heisenberg)
    assert [(mu, l) for mu, l, _ in hd.ladder] == [(2, 1)]
    assert hd.minimal
    ladder, dims = brute_ladder(heisenberg, Basepoint.origin(), 3)
    assert ladder == [(2, 1)]
    assert dims[0] == 2 and dims[1] == 3


def test_hormander_c3_oracle(c3_tube):
    hd = hormander_numbers(c3_tube)
    assert [(mu, l) for mu, l, _ in hd.ladder] == [(2, 1), (3, 1)]
    ladder, _ = brute_ladder(c3_tube, Basepoint.origin(), 4)
    assert ladder == [(2, 1), (3, 1)]


def test_hormander_c5_oracle():
    M = new_manifold(
        1,
        4,
        [
            "w1*zeta1",
            "w1^2*zeta1 + w1*zeta1^2",
            "w1^3*zeta1 + w1*zeta1^3",
            "w1^2*zeta1^2",
        ],
    )
    hd = hormander_numbers(M)
    assert [(mu, l) for mu, l, _ in hd.ladder] == [(2, 1), (3, 1), (4, 2)]
    assert hd.minimal
    ladder, _ = brute_ladder(M, Basepoint.origin(), 4)
    assert ladder == [(2, 1), (3, 1), (4, 2)]


def test_hormander_nonminimal(levi_flat):
    hd = hormander_numbers(levi_flat)
    assert hd.ladder == () and not hd.minimal


def test_hormander_skipped_level():
    # w2^2 zeta2^2 contributes at bracket length 4, skipping length 3
    M = new_manifold(2, 2, ["w1*zeta1", "w2^2*zeta2^2"])
    hd = hormander_numbers(M)
    assert [(mu, l) for mu, l, _ in hd.ladder] == [(2, 1), (4, 1)]
    ladder, _ = brute_ladder(M, Basepoint.origin(), 4)
    assert ladder == [(2, 1), (4, 1)]


def test_levi_type_examples(heisenberg, levi_flat):
    assert levi_type(heisenberg) == 1
    assert levi_type(levi_flat) is None
    M = new_manifold(2, 2, ["w1*zeta1", "w2*zeta2"])
    assert levi_type(M) == 1


def test_levi_gradient_heisenberg(heisenberg):
    rows = gradient_rows(heisenberg)
    texts = [[format_series(c) for c in row] for row in rows]
    assert texts == [["-i*zeta1", "1"]]


def test_levi_bound_generic(heisenberg, quartic, c3_tube):
    for M in (heisenberg, quartic, c3_tube):
        hn = holomorphic_nondegeneracy(M)
        if hn["nondegenerate"]:
            assert 1 <= hn["levi_type_generic"] <= M.m


def test_levi_span_semicontinuity(quartic):
    # generic span dimension at each level >= origin span dimension
    M = quartic
    _, Lbar = tangent_fields(M)
    cs = Lbar[0].space
    rows = gradient_rows(M)
    level = rows
    all_rows = list(rows)
    for k in range(1, 3):
        level = [[f.apply(c) for c in row] for f in Lbar for row in level]
        all_rows.extend(level)
        origin_dim = reference_span_dim(all_rows, [ZERO] * cs.dim, cs.dim, 4, 0)
        generic_dim = reference_span_dim(all_rows, None, cs.dim, 4, 0)
        assert generic_dim >= origin_dim


def test_holomorphic_degeneracy_product():
    M = new_manifold(2, 1, ["w1*zeta1"])  # no w2 dependence: product by a disc
    hn = holomorphic_nondegeneracy(M)
    assert not hn["nondegenerate"]


def test_e1_determinant_examples():
    elliptic = new_manifold(2, 2, ["w1*zeta1", "w2*zeta2"])
    det, nz = e1_determinant(elliptic)
    assert nz and format_series(det) == "zeta1*zeta2"
    flat = new_manifold(2, 2, ["0", "0"])
    det, nz = e1_determinant(flat)
    assert not nz and det.is_zero()
    M10 = new_manifold(
        2, 2, ["w1*zeta1", "xi1^2*w2*zeta2 + i*xi1*w1*zeta1*w2*zeta2"]
    )
    _, nz = e1_determinant(M10)
    assert not nz


def test_e1_determinant_wrong_dims(heisenberg):
    with pytest.raises(WrongDimensions):
        e1_determinant(heisenberg)


def test_crosscheck_totals_corpus():
    from segrechains.corpus import corpus_manifolds

    for name, M in corpus_manifolds():
        max_length = 6 if name == "w3_quadric" else None
        out = crosscheck_totals(M, max_length=max_length)
        assert out["ok"], (name, out)


def test_levi_type_2_nondegenerate_rigid():
    t1 = "w1*zeta1 + w1^2*zeta2 + zeta1^2*w2"
    M = new_manifold(2, 2, [t1, f"({t1})^2"])
    assert levi_type(M) == 2


def test_cross_field_ambient_brackets_stay_tangent(heisenberg, quartic, c3_tube):
    # the genuine tangency property: the ambient bracket [L_i, Lbar_j]
    # annihilates every rho after restricting to the graph
    from segrechains.manifold import vector_fields

    for M in (heisenberg, quartic, c3_tube):
        L, Lbar = vector_fields(M)
        space = M.space
        for i in range(M.m):
            for j in range(M.m):
                coeffs = [
                    L[i].apply(Lbar[j].coefficients[a])
                    - Lbar[j].apply(L[i].coefficients[a])
                    for a in range(space.dim)
                ]
                for r in M.rho():
                    total = Series.zero(space, M.order)
                    for a, c in enumerate(coeffs):
                        if not c.is_zero():
                            total = total + c * r.diff(space.names[a])
                    assert M.restrict(total).is_zero()


def test_crosscheck_on_random_hypersurfaces():
    # dual-route agreement on fresh random inputs, not just the corpus
    import random as _random

    from helpers import random_real_graph

    rng = _random.Random(23)
    for _ in range(4):
        M = random_real_graph(1, rng, max_degree=2, terms=2)
        out = crosscheck_totals(M, max_length=8)
        assert out["ok"]


def _random_rigid_manifold(rng):
    """m <= 2, d <= 3: each theta_bar_j a Hermitian-symmetric sum of up to
    three terms c*w^alpha*zeta^beta + conj(c)*w^beta*zeta^alpha, |alpha|,
    |beta| >= 1 and degree <= 3, c a nonzero Gaussian integer with parts in
    [-3, 3]; no xi, so the manifold is rigid."""
    m, d = rng.randint(1, 2), rng.randint(1, 3)
    space = ambient_space(m, d)
    w, zeta = space.block_vars("w"), space.block_vars("zeta")

    def term(left, right, c):  # c * w^left * zeta^right, each a list of indices
        return Series.monomial(space, Counter([w[i] for i in left] + [zeta[i] for i in right]), c)

    thetas = []
    for _ in range(d):
        theta = Series.zero(space)
        for _ in range(rng.randint(1, 3)):
            degrees = (1, 1) if rng.random() < 0.5 else rng.choice(((1, 2), (2, 1)))
            alpha, beta = ([rng.randrange(m) for _ in range(k)] for k in degrees)
            c = G(0, 0)
            while c.is_zero():
                c = G(rng.randint(-3, 3), rng.randint(-3, 3))
            theta = theta + term(alpha, beta, c) + term(beta, alpha, c.conjugate())
        thetas.append(theta)
    return new_manifold(m, d, thetas)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_routes_agree_on_random_rigid_manifolds(seed):
    """Three routes to one geometry on random rigid manifolds: the greedy
    orbit of the CR pair has the dimension of the Lie algebra its fields
    generate (lie_span_dimension) and the chains' multitype, its witness
    returns to 0 at that rank, and the chain increments and the bracket
    multiplicities have equal totals and minimality verdicts
    (crosscheck_totals)."""
    M = _random_rigid_manifold(random.Random(seed))
    system = cr_pair_system(M)
    orbit = greedy_multitype(system, witness=True)
    assert orbit.orbit_dim == lie_span_dimension(system)
    assert orbit.multitype == segre_invariants(M).multitype
    assert orbit.witness["returns_to_origin"]
    assert orbit.witness["rank_at_t_star"] == orbit.orbit_dim
    out = crosscheck_totals(M)
    assert out["ok"], out


def test_hormander_generic_basepoint():
    # generic-point ladders: leaving the basepoint symbolic and sampling
    M = new_manifold(2, 2, ["w1*zeta1", "xi1^2*w2*zeta2 + i*xi1*w1*zeta1*w2*zeta2"])
    hd0 = hormander_numbers(M)
    hdg = hormander_numbers(M, Basepoint.symbolic())
    assert [(mu, l) for mu, l, _ in hd0.ladder] == [(2, 1), (6, 1)]
    assert [(mu, l) for mu, l, _ in hdg.ladder] == [(2, 2)]
    # per-level span semicontinuity: generic dimension dominates the origin's
    for d0, dg in zip(hd0.level_dims, hdg.level_dims):
        assert dg >= d0
    quartic = new_manifold(1, 1, ["w1^2*zeta1^2"])
    assert [(mu, l) for mu, l, _ in hormander_numbers(quartic).ladder] == [(4, 1)]
    assert [
        (mu, l)
        for mu, l, _ in hormander_numbers(quartic, Basepoint.symbolic()).ladder
    ] == [(2, 1)]


def _levi_inputs():
    from helpers import exact_manifolds, random_real_graph

    out = [(name, M, None) for name, M in exact_manifolds()]
    for a, b in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 1)):
        M = new_manifold(2, 1, [f"w1^{a}*zeta1^{a} + w2^{b}*zeta2^{b}"])
        out.append((f"w1^{a}zeta1^{a}+w2^{b}zeta2^{b}", M, 2 * max(a, b)))
    t1 = "w1*zeta1 + w1^2*zeta2 + zeta1^2*w2"
    out.append(("levi_type_2", new_manifold(2, 2, [t1, f"({t1})^2"]), None))
    rng = random.Random(23)
    for i in range(4):
        M = random_real_graph(2, rng, with_x=True, transversal=i % 2 == 1, order=8)
        out.append((f"jet8_m2_{i}", M, 6))
    # kmax well past the level from which every row is identically zero
    # (level max(a, b) + 1 of w1^a zeta1^a + w2^b zeta2^b, 3 of w1^2 zeta1^2,
    # 2 of the product w1 zeta1 by a disc, the order of a jet)
    for a, b, kmax in ((1, 1, 6), (2, 3, 8), (3, 1, 8)):
        M = new_manifold(2, 1, [f"w1^{a}*zeta1^{a} + w2^{b}*zeta2^{b}"])
        out.append((f"w1^{a}zeta1^{a}+w2^{b}zeta2^{b}_kmax{kmax}", M, kmax))
    out.append(("w1^2zeta1^2_kmax8", new_manifold(1, 1, ["w1^2*zeta1^2"]), 8))
    out.append(("w1zeta1_m2_kmax6", new_manifold(2, 1, ["w1*zeta1"]), 6))
    M = random_real_graph(2, rng, with_x=True, transversal=False, order=4)
    out.append(("jet4_m2_kmax7", M, 7))
    return out


LEVI_INPUTS = _levi_inputs()


@pytest.mark.parametrize("name,M,kmax", LEVI_INPUTS, ids=[n for n, _, _ in LEVI_INPUTS])
def test_levi_type_matches_ordered_words(name, M, kmax):
    from helpers import ordered_word_levi_type

    kmax = kmax or M.m + M.d
    for bp in (Basepoint.origin(), Basepoint.symbolic()):
        want = ordered_word_levi_type(M, bp, kmax)
        assert levi_type(M, bp, kmax) == want, bp.kind
    assert holomorphic_nondegeneracy(M, kmax) == {
        "nondegenerate": want is not None, "levi_type_generic": want, "kmax": kmax}


def _generic_ladder_inputs():
    from segrechains.corpus import corpus_manifolds

    exact = [(name, M) for name, M in corpus_manifolds() if M.order is None]
    return exact + [(name, M) for name, M, _ in LEVI_INPUTS if name.startswith("jet")]


GENERIC_LADDER_INPUTS = _generic_ladder_inputs()


@pytest.mark.parametrize("name,M", GENERIC_LADDER_INPUTS,
                         ids=[n for n, _ in GENERIC_LADDER_INPUTS])
def test_hormander_ladder_matches_brute_words_at_both_basepoints(name, M):
    """The shared, deduplicated ladder ranked by ranks.span_dims against every
    left-normed word ranked afresh at every length, at the origin and at a
    symbolic basepoint (the same seeded sample points); the brute dims keep
    the last ladder dim past a full span or an empty level.  max_length keeps
    the (2m)^mu words few."""
    max_length = 6 if M.m == 1 else 4
    for basepoint in (Basepoint.origin(), Basepoint.symbolic()):
        hd = hormander_numbers(M, basepoint, max_length, trials=4, seed=3)
        ladder, dims = brute_ladder(M, basepoint, max_length, trials=4, seed=3)
        assert [(mu, l) for mu, l, _ in hd.ladder] == ladder, basepoint.kind
        tail = [hd.level_dims[-1]] * (max_length - len(hd.level_dims))
        assert list(hd.level_dims) + tail == dims, basepoint.kind


def test_levi_type_rejects_noncommuting_fields(monkeypatch):
    """tangent_fields checks each m-tuple of the chart pair once, as it builds
    it: with bent rows (L1 + w1*L2, L1) patched into manifold.cr_pair_rows, as
    L or as Lbar, tangent_fields and levi_type raise the internal error."""
    import segrechains.manifold as manifold

    rows = manifold.cr_pair_rows
    for swap, names in ((1, "L1, L2"), (-1, "Lbar1, Lbar2")):
        monkeypatch.setattr(manifold, "cr_pair_rows",
                            lambda M, s=swap: bend_l_rows(M, rows(M))[::s])
        for run in (tangent_fields, levi_type):
            M = new_manifold(2, 1, ["w1*zeta1 + w2*zeta2"])
            message = f"^internal: fields {names} do not commute$"
            with pytest.raises(SegreError, match=message):
                run(M)


def test_dependent_chart_fields_are_refused_before_any_bracket(monkeypatch, heisenberg):
    import segrechains.lie as lie
    import segrechains.series as series

    L, _ = tangent_fields(heisenberg)
    monkeypatch.setattr(lie, "tangent_fields", lambda _: (L, L))  # Lbar_1 := L_1
    built = []
    monkeypatch.setattr(series, "bracket", lambda X, Y: built.append((X, Y)))
    for basepoint in (Basepoint.origin(), Basepoint.symbolic()):
        with pytest.raises(SegreError, match="2m chart fields must be independent"):
            hormander_numbers(heisenberg, basepoint)
    assert built == []


def test_kmax_and_max_length_are_taken_literally(heisenberg):
    # 0 used to mean the default, and kmax=-1 gave "not finite" for Levi type 1
    assert levi_type(heisenberg, kmax=1) == 1
    for kmax in (0, -1):
        with pytest.raises(SegreError, match="kmax"):
            levi_type(heisenberg, kmax=kmax)
        with pytest.raises(SegreError, match="kmax"):
            holomorphic_nondegeneracy(heisenberg, kmax=kmax)
    assert holomorphic_nondegeneracy(heisenberg, kmax=1)["kmax"] == 1
    with pytest.raises(SegreError, match="max_length"):
        hormander_numbers(heisenberg, max_length=0)
    # the orbit oracle's length 1 is the span of the fields, with no bracket
    system = cr_pair_system(heisenberg)
    assert lie_span_dimension(system, max_length=1) == 2
    for max_length in (0, -5):
        with pytest.raises(SegreError, match=r"^max_length must be >= 1$"):
            lie_span_dimension(system, max_length=max_length)


def test_symbolic_span_rejects_zero_trials(heisenberg):
    # the generic Levi type samples through ranks.sample_rank, like generic_rank
    with pytest.raises(ValueError, match="trials"):
        levi_type(heisenberg, Basepoint.symbolic(), trials=0)


CR_ORACLE = cr_oracle_manifolds()


@pytest.mark.parametrize("name, M", CR_ORACLE, ids=[n for n, _ in CR_ORACLE])
def test_tangent_fields_match_reference(name, M):
    """The chart fields derived from manifold.cr_pair_rows equal the fields
    built directly in the chart."""
    assert tangent_fields(M) == reference_tangent_fields(M)


@pytest.mark.parametrize("name, M", CR_ORACLE, ids=[n for n, _ in CR_ORACLE])
def test_the_chart_pair_is_the_ambient_pair_in_the_chart(name, M):
    """tangent_fields is vector_fields read in the chart (w, zeta, xi): the
    same labels, and each chart coefficient the ambient one at that chart
    variable, restricted to the graph z = qbar, lifted to the chart."""
    keep, cs = chart(M, "wzetaxi")
    for ambient, intrinsic in zip(vector_fields(M), tangent_fields(M)):
        assert [f.label for f in intrinsic] == [f.label for f in ambient]
        for f, g in zip(ambient, intrinsic):
            want = tuple(M.restrict(f.coefficients[a]).lift(cs) for a in keep)
            assert g.coefficients == want, g.label


def test_the_chart_pair_is_built_once_per_manifold(monkeypatch):
    """The bracket ladder, Levi type, holomorphic nondegeneracy and the
    orbit's CR system share one chart pair, kept on the manifold."""
    import segrechains.manifold as manifold

    built = []
    rows = manifold.cr_pair_rows
    monkeypatch.setattr(manifold, "cr_pair_rows", lambda M: built.append(M) or rows(M))
    M = new_manifold(2, 1, ["w1*zeta1 + w2*zeta2"])
    hormander_numbers(M)
    levi_type(M)
    holomorphic_nondegeneracy(M)
    system = cr_pair_system(M)
    assert built == [M]
    L, Lbar = tangent_fields(M)
    assert tangent_fields(M)[0] is L and type(L) is type(Lbar) is tuple
    assert system.fields == tangent_fields(M)
