import random

import pytest

from segrechains.chains import (
    chain_space,
    chain_word,
    check_reparam,
    default_kmax,
    flow,
    gamma,
    psi,
    psi_chart,
    sigma_image,
    v_map,
    verify_in_manifold,
)
from segrechains.errors import DimensionMismatch, OffManifold, TruncationUnsound, UnknownVariable
from segrechains.exprs import format_series
from segrechains.manifold import Basepoint, chart, new_manifold
from segrechains.ranks import word_rank
from segrechains.scalars import GaussianRational as G, ZERO
from segrechains.series import EXACT, RESIDUES, Series, SeriesMap

from helpers import (
    exact_manifolds,
    expanded_values_and_jacobian,
    gaussian_at,
    gaussian_integer_point,
    numeric_basepoint,
    random_real_graph,
    run_at,
)

EXACT_MANIFOLDS = exact_manifolds()


def origin_state(M, space, order=None):
    comps = [Series.zero(space, order) for _ in range(2 * M.n)]
    return SeriesMap(comps, M.space)


def test_flow_from_origin_heisenberg(heisenberg):
    space = chain_space(heisenberg, 1, Basepoint.origin())
    state = origin_state(heisenberg, space)
    moved = flow(heisenberg, "L", state, "u1")
    texts = [format_series(c) for c in moved.components]
    assert texts == ["u1_1", "0", "0", "0"]


def test_flow_zero_time_is_identity(quartic):
    chain = gamma(quartic, 2)
    space = chain_space(quartic, 3, Basepoint.origin())
    lifted = SeriesMap([c.lift(space) for c in chain.map.components], quartic.space)
    moved = flow(quartic, "L", lifted, "u3")
    sub = {n: Series.variable(space, n) for n in space.names}
    sub["u3_1"] = Series.zero(space)
    frozen = [c.compose(sub) for c in moved.components]
    assert frozen == list(lifted.components)


def test_flow_off_manifold_rejected(heisenberg):
    space = chain_space(heisenberg, 1, Basepoint.origin())
    comps = [Series.zero(space) for _ in range(4)]
    comps[heisenberg.space.index_of("z1")] = Series.constant(space, 1)
    bad = SeriesMap(comps, heisenberg.space)
    with pytest.raises(OffManifold):
        flow(heisenberg, "L", bad, "u1")


def test_quartic_gamma2_matches_display(quartic):
    g2 = gamma(quartic, 2)
    texts = [format_series(c) for c in g2.map.components]
    assert texts == ["u1_1", "0", "u2_1", "-i*u1_1^2*u2_1^2"]


def test_levi_flat_chains_decouple(levi_flat):
    g5 = gamma(levi_flat, 5)
    dom = g5.map.domain
    w_sum = sum(
        (Series.variable(dom, f"u{i}_1") for i in (1, 3, 5)), Series.zero(dom)
    )
    zeta_sum = sum(
        (Series.variable(dom, f"u{i}_1") for i in (2, 4)), Series.zero(dom)
    )
    assert g5.map.component("w1") == w_sum
    assert g5.map.component("zeta1") == zeta_sum
    assert g5.map.component("z1").is_zero()
    assert g5.map.component("xi1").is_zero()


def test_in_manifold_invariant(heisenberg, quartic, c3_tube):
    for M in (heisenberg, quartic, c3_tube):
        for k in range(1, min(default_kmax(M), 5) + 1):
            for parity in ("L", "Lbar"):
                assert verify_in_manifold(gamma(M, k, parity=parity))


def test_in_manifold_symbolic_basepoint(heisenberg):
    chain = gamma(heisenberg, 3, Basepoint.symbolic())
    assert verify_in_manifold(chain)


def test_semigroup_last_block_zero(quartic, c3_tube):
    for M in (quartic, c3_tube):
        for k in (2, 3, 4):
            g_k = gamma(M, k)
            g_prev = gamma(M, k - 1)
            dom = g_k.map.domain
            sub = {n: Series.variable(dom, n) for n in dom.names}
            for j in range(1, M.m + 1):
                sub[f"u{k}_{j}"] = Series.zero(dom)
            frozen = [c.compose(sub) for c in g_k.map.components]
            lifted = [c.lift(dom) for c in g_prev.map.components]
            assert frozen == lifted


def test_first_block_zero_drops_to_conjugate_chain(quartic):
    # Gamma_k(0, u2, ..., uk) == conjugate-parity Gamma_{k-1}(u2, ..., uk)
    M = quartic
    for k in (2, 3, 4):
        g_k = gamma(M, k)
        g_bar = gamma(M, k - 1, parity="Lbar")
        dom = g_k.map.domain
        sub = {n: Series.variable(dom, n) for n in dom.names}
        sub["u1_1"] = Series.zero(dom)
        frozen = [c.compose(sub) for c in g_k.map.components]
        ren = {f"u{i}_1": Series.variable(dom, f"u{i + 1}_1") for i in range(1, k)}
        shifted = [c.compose(ren) for c in g_bar.map.components]
        assert frozen == shifted


def test_additive_flow_composition(heisenberg):
    # two consecutive flows of the same field add their times
    M = heisenberg
    space = chain_space(M, 2, Basepoint.origin())
    state = origin_state(M, space)
    once = flow(M, "L", state, "u1")
    twice = flow(M, "L", once, "u2")
    dom = twice.domain
    merged = flow(M, "L", origin_state(M, space), "u1")
    sub = {n: Series.variable(dom, n) for n in dom.names}
    sub["u1_1"] = Series.variable(dom, "u1_1") + Series.variable(dom, "u2_1")
    expected = [c.compose(sub) for c in merged.components]
    assert list(twice.components) == expected


def test_psi_projections(heisenberg, levi_flat):
    # psi^1 = (w1, i*theta_bar(w1, 0, 0)); Heisenberg psi^2 = (u2, -i u1 u2)
    p1 = psi(heisenberg, 1)
    assert [format_series(c) for c in p1.components] == ["u1_1", "0"]
    p2 = psi(heisenberg, 2)
    assert [format_series(c) for c in p2.components] == ["u2_1", "-i*u1_1*u2_1"]
    p2f = psi(levi_flat, 2)
    assert [format_series(c) for c in p2f.components] == ["u2_1", "0"]


def test_v_map_examples(heisenberg, quartic):
    v0 = v_map(heisenberg, 0)
    assert all(c.is_zero() for c in v0.components)
    v1 = v_map(heisenberg, 1)
    assert [format_series(c) for c in v1.components] == ["u1_1", "0"]
    v2 = v_map(heisenberg, 2)
    # (w1, qbar(w1, w2, q(w2, 0, 0))) = (w1, i w1 w2)
    assert [format_series(c) for c in v2.components] == ["u1_1", "i*u1_1*u2_1"]
    v1q = v_map(quartic, 1)
    assert [format_series(c) for c in v1q.components] == ["u1_1", "0"]


def test_reparam_identities_examples(heisenberg, quartic, levi_flat, c3_tube):
    for M in (heisenberg, quartic, levi_flat, c3_tube):
        for k in range(1, 6):
            assert check_reparam(M, k), (M, k)


def test_reparam_identities_random_hypersurfaces():
    rng = random.Random(15)
    for _ in range(3):
        M = random_real_graph(rng.choice([1, 2]), rng)
        for k in range(1, 6):
            assert check_reparam(M, k)


def test_sigma_image_gamma1_and_deep(heisenberg, quartic, levi_flat):
    for M in (heisenberg, quartic, levi_flat):
        for k in range(1, 6):
            image = sigma_image(gamma(M, k))
            direct = gamma(M, k, parity="Lbar")
            assert image.map.components == direct.map.components
            assert image.parity == "Lbar"
    # involution up to parity
    g = gamma(quartic, 3)
    assert sigma_image(sigma_image(g)).map.components == g.map.components


def test_sigma_image_numeric_basepoint(heisenberg):
    i = G(0, 1)
    w, zeta, xi = [G(1, 1)], [G(2)], [G(0, 3)]
    z = [xi[0] + i * w[0] * zeta[0]]
    bp = Basepoint.numeric(heisenberg, w, z, zeta, xi)
    image = sigma_image(gamma(heisenberg, 2, bp))
    direct = gamma(
        heisenberg,
        2,
        Basepoint.numeric(
            heisenberg,
            [zeta[0].conjugate()],
            [xi[0].conjugate()],
            [w[0].conjugate()],
            [z[0].conjugate()],
        ),
        parity="Lbar",
    )
    assert image.map.components == direct.map.components


def test_chart_projections(quartic):
    g2 = gamma(quartic, 2)
    assert g2.chart == "wzzeta"
    chart = g2.in_chart()
    assert [format_series(c) for c in chart.components] == ["u1_1", "0", "u2_1"]
    g3 = gamma(quartic, 3)
    assert g3.chart == "wzetaxi"
    assert len(g3.in_chart().components) == 3
    assert len(g3.in_chart("ambient").components) == 4


def test_numeric_basepoint_chain_starts_there(heisenberg):
    i = G(0, 1)
    w, zeta, xi = [G(1)], [G(1)], [G(2)]
    z = [xi[0] + i * w[0] * zeta[0]]
    bp = Basepoint.numeric(heisenberg, w, z, zeta, xi)
    g1 = gamma(heisenberg, 1, bp)
    value = g1.map.evaluate([ZERO])
    assert value == [w[0], z[0], zeta[0], xi[0]]


def test_gamma2_evaluation_example(quartic):
    one = G(1)
    value = gamma(quartic, 2).map.evaluate([one, one])
    assert value == [one, ZERO, one, G(0, -1)]


def test_psi1_nonregular_coordinates():
    # a translated quadric: theta_bar(w, 0, 0) = w is nonzero, so the first
    # projected chain has a genuine transversal component i*theta_bar(w, 0, 0)
    from segrechains.manifold import new_manifold

    M = new_manifold(1, 1, ["w1*zeta1 + w1 + zeta1"])
    p1 = psi(M, 1)
    assert [format_series(c) for c in p1.components] == ["u1_1", "i*u1_1"]


def test_psi_components_are_chain_projections(quartic, c3_tube):
    for M in (quartic, c3_tube):
        for k in (1, 2, 3, 4):
            chain = gamma(M, k, verify=False)
            pm = psi(M, k)
            want = chain.in_chart("tau" if k % 2 == 0 else "t")
            assert pm.components == want.components


def _forward_lengths(name, M, basepoint):
    """Chain lengths checked against the expanded chain: up to default_kmax at
    the origin (up to d + 3, where the rank profile stops, for the d-family,
    whose longer expanded chains take minutes), up to 4 at other basepoints."""
    if basepoint.kind != "origin":
        return range(1, 5)
    top = M.d + 3 if name.startswith("codim_d") else default_kmax(M)
    return range(1, top + 1)


@pytest.mark.parametrize("name, M", EXACT_MANIFOLDS, ids=[n for n, _ in EXACT_MANIFOLDS])
def test_forward_chain_matches_expanded_chain(name, M):
    # forward-mode values and u-Jacobian equal those of the symbolic chain
    rng = random.Random(11)
    for bp in (Basepoint.origin(), Basepoint.symbolic(), numeric_basepoint(M, rng)):
        for parity in ("L", "Lbar"):
            for k in _forward_lengths(name, M, bp):
                chain = gamma(M, k, bp, parity, verify=False)
                point = gaussian_integer_point(rng, chain.map.domain.dim)
                names = [f"u{i}_{j}" for i in range(1, k + 1) for j in range(1, M.m + 1)]
                expected = expanded_values_and_jacobian(chain.map, names, point)
                assert gaussian_at(chain_word(M, k, bp, parity, "ambient"), point) == expected, (
                    bp.kind, parity, k)


def test_chain_word_expands_to_the_chart_chain(heisenberg):
    # the chart word expands to the chart chain in either mode; an EXACT
    # chart word runs pointwise to the same values, at one block per flow,
    # and a jet word not at all
    jet = new_manifold(1, 1, ["w1*zeta1"], order=6)
    bp = Basepoint.origin()
    assert chain_word(jet, 3, bp, "L").expand() == gamma(jet, 3, verify=False).in_chart()
    assert chain_word(jet, 2, bp, "L", psi_chart(2, "L")).expand() == psi(jet, 2)
    assert chain_word(heisenberg, 2, bp, "L", psi_chart(2, "L")).expand() == psi(heisenberg, 2)
    pointwise = chain_word(heisenberg, 2, bp, "L", psi_chart(2, "L"))
    point = [G(2, 1), G(-1, 3)]
    values = [G.from_zi(*v) for v in run_at(pointwise, point)[0]]
    assert values == psi(heisenberg, 2).evaluate(point)
    with pytest.raises(DimensionMismatch):
        word_rank(pointwise, (), [point[:1]])
    with pytest.raises(TruncationUnsound):
        run_at(chain_word(jet, 2, bp, "L"), point)


def test_a_chain_word_expands_into_its_charts_space(heisenberg):
    # a chain word reports its chart's indices into its chart's space, both
    # from the one table kept on M, by default the chain's own chart;
    # "ambient" is the whole state, into M.space
    jet = new_manifold(1, 1, ["w1*zeta1"], order=6)
    bp = Basepoint.origin()
    for M in (heisenberg, jet):
        for k in (1, 2, 3):
            for name in (None, "wzzeta", "wzetaxi", "t", "tau", "ambient"):
                word = chain_word(M, k, bp, "L", name)
                out, space = chart(M, name or ("wzetaxi" if k % 2 else "wzzeta"))
                assert word.out == out and word.expand().codomain == space, (k, name)
        assert chart(M, "ambient") == (tuple(range(M.space.dim)), M.space)
        assert chart(M, "tau")[0] == M.space.block("zeta") + M.space.block("xi")
    with pytest.raises(UnknownVariable):
        chain_word(heisenberg, 1, bp, "L", "zw")


@pytest.mark.parametrize("m, d, theta", [
    (1, 2, ["w1*zeta1", "w1^2*zeta1 + w1*zeta1^2"]),
    (2, 2, ["w1*zeta1", "w1*zeta2 + w2*zeta1"]),
], ids=["m1_d2", "m2_d2"])
def test_chart_only_chain_matches_the_full_chain(m, d, theta):
    # expanded (jet), the last flow skips the block the chain's chart never
    # reads, and what the chart reads is unchanged; gamma still builds the
    # full chain (a jet chain has no numeric basepoint: its state would have
    # constant terms).  The EXACT chart word steps every flow in full and
    # reports the chart's components of the full word's run.
    rng = random.Random(19)
    exact, jet = new_manifold(m, d, theta), new_manifold(m, d, theta, order=4)
    for bp in (Basepoint.origin(), Basepoint.symbolic(), numeric_basepoint(exact, rng)):
        for parity in ("L", "Lbar"):
            for k in range(1, 6):
                if bp.kind != "numeric":
                    chart = chain_word(jet, k, bp, parity).expand()
                    assert chart == gamma(jet, k, bp, parity).in_chart(), (bp.kind, parity, k)
                word = chain_word(exact, k, bp, parity)
                full, out = chain_word(exact, k, bp, parity, "ambient"), word.out
                point = gaussian_integer_point(rng, chain_space(exact, k, bp).dim)
                for kernel in (EXACT, RESIDUES):
                    values, rows = run_at(full, point, kernel)
                    assert run_at(word, point, kernel) == (
                        [values[a] for a in out], [rows[a] for a in out]), (bp.kind, k)
    # no partial state was kept: each has a Series in every component
    states = [state for cache in jet._chain_cache.values() for state in cache.values()]
    assert len(states) == 2 * 2 * 5 + 2 and all(None not in state for state in states)


def test_chain_word_expands_to_gamma():
    # each word is expanded on a fresh manifold, so from the basepoint's state
    # up, and compared with the verified chain
    c3 = ["w1*zeta1", "w1^2*zeta1 + w1*zeta1^2"]
    cases = [(1, ["w1^2*zeta1^2"], None), (2, c3, None), (1, ["w1^2*zeta1^2"], 6)]
    for d, theta, order in cases:
        M = new_manifold(1, d, theta, order=order)
        for bp in (Basepoint.origin(), Basepoint.symbolic()):
            for parity in ("L", "Lbar"):
                for k in (1, 2, 3, 4):
                    fresh = new_manifold(1, d, theta, order=order)
                    chain = chain_word(fresh, k, bp, parity, "ambient").expand()
                    assert chain == gamma(M, k, bp, parity).map


def test_chain_word_expands_only_the_last_flow(monkeypatch):
    # the expanded states are kept on M: Gamma_{k+1} composes one CRFlow onto
    # Gamma_k, which composes each of its d functions once.  In its chart an
    # L-parity chain never reads that flow's target block (z after an L flow,
    # xi after an Lbar one), so the chart composes nothing, and the partial
    # state is not kept; an Lbar-parity chart reads it, so its state is full
    # and kept
    calls = []
    compose = Series.compose

    def counted(series, sub):
        calls.append(sub)
        return compose(series, sub)

    monkeypatch.setattr(Series, "compose", counted)
    for order in (None, 6):
        M = new_manifold(1, 2, ["w1*zeta1", "w1^2*zeta1 + w1*zeta1^2"], order=order)
        bp = Basepoint.origin()
        for parity in ("L", "Lbar"):
            for k in range(1, 6):
                chain_word(M, k, bp, parity, "ambient").expand()
                calls.clear()
                chain_word(M, k + 1, bp, parity).expand()
                assert len(calls) == (0 if parity == "L" else M.d), (order, parity, k)
                chain_word(M, k + 1, bp, parity, "ambient").expand()
                assert len(calls) == M.d, (order, parity, k)
