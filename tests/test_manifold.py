import random

import pytest

from segrechains.errors import (
    DimensionMismatch,
    OffManifold,
    RealityViolation,
    SegreError,
    SingularInput,
    TruncationUnsound,
)
from segrechains.exprs import format_series, parse_series
from segrechains.manifold import (
    Basepoint,
    ambient_space,
    graph_from_real,
    new_manifold,
    real_graph_space,
    segre_leaf,
    vector_fields,
)
from segrechains.scalars import GaussianRational as G, ZERO
from segrechains.series import Series, TangentVectorField, bracket

from helpers import (
    bend_l_rows,
    cr_oracle_manifolds,
    gaussian_integer_point,
    random_real_graph,
    reference_segre_leaf,
    small_scalar,
)


def test_heisenberg_theta_and_reality(heisenberg):
    assert format_series(heisenberg.theta[0]) == "w1*zeta1"
    # identity holds by construction; rho assembles the graph equation
    assert format_series(heisenberg.rho()[0]) == "-xi1+z1-i*w1*zeta1"


def test_levi_flat_trivial(levi_flat):
    assert levi_flat.theta[0].is_zero()
    assert format_series(levi_flat.rho()[0]) == "-xi1+z1"


def test_reality_violation_imaginary_quadric():
    with pytest.raises(RealityViolation) as err:
        new_manifold(1, 1, ["i*w1*zeta1"])
    assert err.value.monomial is not None  # names the first bad monomial


def test_reality_violation_reports_component():
    with pytest.raises(RealityViolation) as err:
        new_manifold(1, 2, ["w1*zeta1", "w1*zeta1 + i*w1^2*zeta1^2"])
    assert err.value.component == 2


def test_forbidden_variables_and_constant_term():
    with pytest.raises(RealityViolation):
        new_manifold(1, 1, ["z1*zeta1"])  # z may not occur in the graph data
    with pytest.raises(RealityViolation):
        new_manifold(1, 1, ["1 + w1*zeta1"])


def test_nonregular_coordinates_accepted():
    # theta_bar(w, 0, xi) nonzero is allowed (non-regular presentations):
    # theta_bar = (1+i)*xi gives z = i*conj(z), the real hyperplane x = y,
    # and satisfies the reality identity despite its linear term
    M = new_manifold(1, 1, ["(1+i)*xi1"])
    assert not M.theta_bar[0].is_zero()
    M2 = new_manifold(1, 1, ["2*i*xi1"])  # z = -conj(z): the plane x = 0
    assert not M2.theta_bar[0].is_zero()


def test_graph_from_real_examples():
    assert format_series(graph_from_real(1, 1, ["w1*wb1"]).theta_bar[0]) == "w1*zeta1"
    assert graph_from_real(1, 1, ["0"]).theta_bar[0].is_zero()
    assert (
        format_series(graph_from_real(1, 1, ["w1^2*wb1^2"]).theta_bar[0])
        == "w1^2*zeta1^2"
    )


def test_graph_from_real_transversal_elimination_matches_graph_form():
    # 2y1 = w1 wb1, 2y2 = x1^2 w2 wb2 + w1^2 wb1^2 w2 wb2 / 4 reproduces the
    # equivalent displayed graph equations exactly
    G2 = graph_from_real(2, 2, ["w1*wb1", "x1^2*w2*wb2 + 1/4*w1^2*wb1^2*w2*wb2"])
    M = new_manifold(2, 2, ["w1*zeta1", "xi1^2*w2*zeta2 + i*xi1*w1*zeta1*w2*zeta2"])
    assert G2.theta_bar == M.theta_bar


@pytest.mark.parametrize("m,h,order,passes", [
    (1, ["w1*wb1"], None, 2),
    (2, ["w1*wb1", "x1^2*w2*wb2 + 1/4*w1^2*wb1^2*w2*wb2"], None, 3),
    (1, ["x1*w1 + x1*wb1 + w1*wb1"], 4, 4),
])
def test_graph_from_real_composes_h_once_per_pass(m, h, order, passes, monkeypatch):
    """Each pass of the fixed-point iteration composes every h_j once, and
    the converged pass's compositions are theta_bar: none is made after it.
    theta_bar is h at x = xi + (i/2) theta_bar."""
    d = len(h)
    hs = [parse_series(s, real_graph_space(m, d), order) for s in h]
    calls = []
    compose = Series.compose

    def counted(self, sub):
        calls.extend(j for j, hj in enumerate(hs) if self == hj)
        return compose(self, sub)

    monkeypatch.setattr(Series, "compose", counted)
    M = graph_from_real(m, d, h, order)
    assert calls == list(range(d)) * passes
    monkeypatch.undo()
    sub = {f"w{i + 1}": Series.variable(M.space, f"w{i + 1}", order) for i in range(m)}
    sub.update({f"wb{i + 1}": Series.variable(M.space, f"zeta{i + 1}", order) for i in range(m)})
    sub.update({f"x{j + 1}": Series.variable(M.space, f"xi{j + 1}", order)
                + G(0, "1/2") * M.theta_bar[j] for j in range(d)})
    assert tuple(hj.compose(sub) for hj in hs) == M.theta_bar


def test_graph_from_real_refuses_an_exact_elimination_that_does_not_terminate():
    # x = xi + (i/2) w zeta (x + 1) has no polynomial solution; a jet has one
    h = ["w1*wb1*x1 + w1*wb1"]
    with pytest.raises(SegreError, match="does not terminate"):
        graph_from_real(1, 1, h)
    M = graph_from_real(1, 1, h, order=4)
    assert M.order == 4
    assert format_series(M.theta_bar[0]) == "w1*zeta1+w1*zeta1*xi1+1/2*i*w1^2*zeta1^2"


def test_graph_from_real_rejects_bad_input():
    with pytest.raises(RealityViolation):
        graph_from_real(1, 1, ["i*w1*wb1"])  # not Hermitian
    with pytest.raises(SingularInput):
        graph_from_real(1, 1, ["w1"])  # dh(0) != 0
    with pytest.raises(SingularInput):
        graph_from_real(1, 1, ["1 + w1*wb1"])  # h(0) != 0


def test_random_real_graphs_validate():
    rng = random.Random(11)
    for _ in range(8):
        M = random_real_graph(rng.choice([1, 2]), rng)
        assert M.n == M.m + 1  # construction implies the reality identity held
    for _ in range(4):
        M = random_real_graph(rng.choice([1, 2]), rng, with_x=True, order=8)
        assert M.order == 8


def test_rho_sigma_reality(heisenberg, quartic, c3_tube):
    # sigma maps the ideal generators to series vanishing on the same graph
    for M in (heisenberg, quartic, c3_tube):
        for r in M.rho():
            image = r.sigma_conjugate()
            assert M.restrict(image).is_zero()


def test_vector_fields_heisenberg(heisenberg):
    L, Lbar = vector_fields(heisenberg)
    space = heisenberg.space
    for X, labels in ((L, ("L1",)), (Lbar, ("Lbar1",))):
        assert type(X) is tuple and tuple(f.label for f in X) == labels
        assert all(isinstance(f, TangentVectorField) and f.space == space for f in X)
    i = G(0, 1)
    assert L[0].coefficients[space.index_of("w1")] == Series.constant(space, 1)
    assert L[0].coefficients[space.index_of("z1")] == Series.variable(space, "zeta1") * i
    assert Lbar[0].coefficients[space.index_of("zeta1")] == Series.constant(space, 1)
    assert Lbar[0].coefficients[space.index_of("xi1")] == Series.variable(space, "w1") * (-i)


def test_vector_fields_levi_flat(levi_flat):
    L, Lbar = vector_fields(levi_flat)
    space = levi_flat.space
    assert L[0].coefficients[space.index_of("z1")].is_zero()
    assert Lbar[0].coefficients[space.index_of("xi1")].is_zero()


def test_vector_fields_c5_first_component():
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
    L, _ = vector_fields(M)
    space = M.space
    # first z-coefficient is i * d(theta_bar_1)/dw = i*zeta
    assert L[0].coefficients[space.index_of("z1")] == Series.variable(
        space, "zeta1"
    ) * G(0, 1)
    # second: i * (2 w zeta + zeta^2)
    expected = parse_series("i*(2*w1*zeta1 + zeta1^2)", space)
    assert L[0].coefficients[space.index_of("z2")] == expected


def test_tangency_certificates_all(heisenberg, quartic, c3_tube):
    # construction runs the certificates; re-run them explicitly
    for M in (heisenberg, quartic, c3_tube):
        L, Lbar = vector_fields(M)
        for X in (L, Lbar):
            for f in X:
                for r in M.rho():
                    assert M.restrict(f.apply(r)).is_zero()


def test_commutativity_certificates_m2():
    M = new_manifold(2, 2, ["w1*zeta1", "w1*zeta2 + w2*zeta1"])
    L, Lbar = vector_fields(M)
    for X in (L, Lbar):
        for i in range(2):
            for j in range(i + 1, 2):
                assert all(c.is_zero() for c in bracket(X[i], X[j]).coefficients)
    assert [f.label for f in L + Lbar] == ["L1", "L2", "Lbar1", "Lbar2"]


@pytest.mark.parametrize("m, theta_bar, message", [
    (1, "w1*zeta1", "internal: L1 is not tangent to rho_1"),
    (2, "w1*zeta1 + w2*zeta2", "internal: fields L1, L2 do not commute"),
], ids=["not-tangent", "not-commuting"])
def test_vector_fields_refuse_a_failed_certificate(monkeypatch, m, theta_bar, message):
    import segrechains.manifold as manifold

    M = new_manifold(m, 1, [theta_bar])
    rows = manifold.cr_pair_rows(M)
    monkeypatch.setattr(manifold, "cr_pair_rows", lambda M: bend_l_rows(M, rows))
    with pytest.raises(SegreError, match=f"^{message}$"):
        vector_fields(M)


def test_basepoint_numeric_validation(heisenberg):
    i = G(0, 1)
    w, zeta, xi = [G(1)], [G(2)], [G(0)]
    z = [xi[0] + i * G(1) * G(2)]  # qbar(w, zeta, xi) = xi + i w zeta
    bp = Basepoint.numeric(heisenberg, w, z, zeta, xi)
    assert bp.kind == "numeric"
    with pytest.raises(OffManifold):
        Basepoint.numeric(heisenberg, w, [G(5)], zeta, xi)


def test_truncated_manifold_takes_only_the_origin_as_numeric_basepoint():
    # a jet does not know its values away from 0: a nonzero basepoint of a
    # truncated manifold is refused, the zero one is the origin's state
    jet = new_manifold(1, 1, ["w1*zeta1"], order=5)
    i = G(0, 1)
    for coords in (([G(1)], [i], [G(1)], [ZERO]), ([ZERO], [ZERO], [ZERO], [G(2)]),
                   ([G(1)], [G(5)], [G(1)], [ZERO])):
        with pytest.raises(TruncationUnsound, match="nonzero basepoint needs EXACT"):
            Basepoint.numeric(jet, *coords)
    zero = Basepoint.numeric(jet, [ZERO], [ZERO], [ZERO], [ZERO])
    assert zero.state_values(jet) == Basepoint.origin().state_values(jet)


def test_segre_leaf_origin_and_general(heisenberg):
    leaf = segre_leaf(heisenberg, tau_p=([ZERO], [ZERO]))
    vals = [format_series(c) for c in leaf.components]
    assert vals == ["w1", "0", "0", "0"]
    zeta_p, xi_p = [G(2)], [G(3)]
    leaf2 = segre_leaf(heisenberg, tau_p=(zeta_p, xi_p))
    space = leaf2.domain
    w = Series.variable(space, "w1")
    assert leaf2.components[0] == w
    assert leaf2.components[1] == Series.constant(space, G(3)) + w * G(0, 2)
    assert leaf2.components[2] == Series.constant(space, G(2))
    assert leaf2.components[3] == Series.constant(space, G(3))


def test_segre_leaf_fibers_constant(c3_tube):
    rng = random.Random(12)
    zeta_p = [small_scalar(rng)]
    xi_p = [small_scalar(rng), small_scalar(rng)]
    leaf = segre_leaf(c3_tube, tau_p=(zeta_p, xi_p))
    m, d = c3_tube.m, c3_tube.d
    for comp in leaf.components[m + d :]:
        assert comp.total_degree() <= 0  # (zeta, xi) components are constant


def test_segre_leaf_annihilated_by_field(heisenberg, c3_tube):
    # L annihilates the defining functions of the leaf: components satisfy
    # z = qbar(w, zeta_p, xi_p), so substituting into rho gives zero
    rng = random.Random(13)
    for M in (heisenberg, c3_tube):
        zeta_p = [small_scalar(rng) for _ in range(M.m)]
        xi_p = [small_scalar(rng) for _ in range(M.d)]
        leaf = segre_leaf(M, tau_p=(zeta_p, xi_p))
        sub = leaf.as_subst()
        for r in M.rho():
            assert r.compose(sub).is_zero()


def test_segre_leaf_sigma_relation(heisenberg):
    # sigma of the leaf through tau_p is the conjugate leaf through conj(tau_p)
    rng = random.Random(14)
    zeta_p = [small_scalar(rng)]
    xi_p = [small_scalar(rng)]
    leaf = segre_leaf(heisenberg, tau_p=(zeta_p, xi_p))
    image = [c.sigma_conjugate() for c in leaf.components]
    space = heisenberg.space
    swapped = [image[space.partner(a)] for a in range(space.dim)]
    conj = segre_leaf(
        heisenberg,
        t_p=([z.conjugate() for z in zeta_p], [x.conjugate() for x in xi_p]),
    )
    # rename the conjugate leaf's zeta-parameter to the first leaf's w-parameter
    dom = leaf.domain
    ren = {"zeta1": Series.variable(dom, "w1")}
    renamed = [c.compose(ren) for c in conj.components]
    assert renamed == swapped


CR_ORACLE = cr_oracle_manifolds()


@pytest.mark.parametrize("name, M", CR_ORACLE, ids=[n for n, _ in CR_ORACLE])
def test_segre_leaf_matches_reference(name, M):
    """Both leaves, symbolic and numeric fixed points, against hand-built
    substitutions.  A jet takes only the zero numeric point: a nonzero
    constant cannot be substituted into a truncated series."""
    rng = random.Random(len(name))
    for leaf in ("tau_p", "t_p"):
        numeric = (gaussian_integer_point(rng, M.m), gaussian_integer_point(rng, M.d))
        zero = ((ZERO,) * M.m, (ZERO,) * M.d)
        points = ["symbolic", zero] + ([numeric] if M.order is None else [])
        for p in points:
            assert segre_leaf(M, **{leaf: p}) == reference_segre_leaf(M, **{leaf: p})
        if M.order is not None:
            for build in (segre_leaf, reference_segre_leaf):
                with pytest.raises(TruncationUnsound):
                    build(M, **{leaf: numeric})


@pytest.mark.parametrize("order", [0, -1, True, False, 2.5, "3"])
def test_builders_refuse_an_order_that_is_not_exact_or_positive(order):
    for build, data in ((new_manifold, ["w1*zeta1"]), (graph_from_real, ["w1*wb1"])):
        with pytest.raises(SegreError) as info:
            build(1, 1, data, order)
        assert str(info.value) == "order must be EXACT or a positive integer"


def test_builders_refuse_a_jet_where_more_is_asked():
    theta = parse_series("w1*zeta1 + w1^2*zeta1^2", ambient_space(1, 1), 2)
    h = parse_series("w1*wb1 + w1^2*wb1^2", real_graph_space(1, 1), 2)
    for build, s in ((new_manifold, theta), (graph_from_real, h)):
        for order in (None, 3):
            with pytest.raises(TruncationUnsound):
                build(1, 1, [s], order)
        M = build(1, 1, [s], 2)
        assert M.order == 2 and M.theta_bar[0].order == 2
    lower = new_manifold(1, 1, [theta], 1)
    assert lower.theta_bar[0] == Series.zero(ambient_space(1, 1), 1)


@pytest.mark.parametrize("build, message", [
    (lambda M: new_manifold(1, 2, ["w1*zeta1"]), "expected 2 graph components, got 1"),
    (lambda M: graph_from_real(1, 1, ["w1*wb1", "w1^2*wb1^2"]), "expected 1 components, got 2"),
    (lambda M: Basepoint.numeric(M, [G(1)], [G(0, 1)], [G(1), G(0)], [G(0)]),
     "basepoint coordinate sizes do not match (m, d)"),
    (lambda M: segre_leaf(M, tau_p=([ZERO], [ZERO]), t_p=([ZERO], [ZERO])),
     "give exactly one of tau_p, t_p"),
    (lambda M: segre_leaf(M), "give exactly one of tau_p, t_p"),
], ids=["new-manifold-components", "graph-from-real-components", "basepoint-sizes",
        "segre-leaf-both-points", "segre-leaf-no-point"])
def test_mismatched_dimensions_are_refused(heisenberg, build, message):
    with pytest.raises(DimensionMismatch) as err:
        build(heisenberg)
    assert str(err.value) == message
