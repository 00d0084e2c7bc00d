"""Acceptance gate: one test per criterion, exact tolerances throughout.

Every check here is exact-arithmetic equality (or an exact integer rank);
each test prints one PASS/FAIL line so the suite doubles as a report:

    pytest tests/test_acceptance.py -s
"""

import json
import random
import subprocess
import sys

import pytest

from segrechains.chains import check_reparam, default_kmax, gamma, sigma_image, u_blocks
from segrechains.corpus import corpus, corpus_manifolds
from segrechains.exprs import parse_series
from segrechains.invariants import (
    hypersurface_minimality,
    psi_rank_checks,
    segre_invariants,
)
from segrechains.lie import (
    crosscheck_totals,
    e1_determinant,
    hormander_numbers,
    levi_type,
)
from segrechains.manifold import Basepoint, new_manifold
from segrechains.orbit import (
    VFSystem,
    coordinate_space,
    cr_pair_system,
    greedy_multitype,
    lie_span_dimension,
)
from segrechains.ranks import exact_rank, generic_rank, jacobian_rows, symbolic_determinant
from segrechains.scalars import GaussianRational as G, ZERO
from segrechains.series import Series

from helpers import (
    brute_ladder, field_tuples, random_hypersurface, reference_jacobian, small_scalar,
)


def report(number, description, ok):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def quartic_m():
    return new_manifold(1, 1, ["w1^2*zeta1^2"])


def test_criterion_01_chain_maps_match_displays(quartic_m):
    displays = {
        1: ["u1_1", "0", "0", "0"],
        2: ["u1_1", "0", "u2_1", "-i*u1_1^2*u2_1^2"],
        3: [
            "u1_1+u3_1",
            "i*u2_1^2*(u3_1^2+2*u1_1*u3_1)",
            "u2_1",
            "-i*u1_1^2*u2_1^2",
        ],
        4: [
            "u1_1+u3_1",
            "i*u2_1^2*(u3_1^2+2*u1_1*u3_1)",
            "u2_1+u4_1",
            "i*u2_1^2*(u3_1^2+2*u1_1*u3_1) - i*((u2_1+u4_1)*(u1_1+u3_1))^2",
        ],
        5: [
            "u1_1+u3_1+u5_1",
            "i*u2_1^2*(u3_1^2+2*u1_1*u3_1) - i*((u2_1+u4_1)*(u1_1+u3_1))^2"
            " + i*((u1_1+u3_1+u5_1)*(u2_1+u4_1))^2",
            "u2_1+u4_1",
            "i*u2_1^2*(u3_1^2+2*u1_1*u3_1) - i*((u2_1+u4_1)*(u1_1+u3_1))^2",
        ],
    }
    ok = True
    for k, texts in displays.items():
        chain = gamma(quartic_m, k)
        expected = [parse_series(t, chain.map.domain) for t in texts]
        ok = ok and list(chain.map.components) == expected
    report(1, "chain maps 1..5 of the quartic hypersurface equal the "
              "displayed polynomials exactly", ok)


def test_criterion_02_witness_minor_determinant(quartic_m):
    one = G(1)
    point = [one, one, ZERO, -one, -one]
    g5 = gamma(quartic_m, 5)
    returns = g5.map.evaluate(point) == [ZERO] * 4
    chart = g5.in_chart("wzetaxi")
    jac = reference_jacobian(chart, ["u1", "u2", "u3", "u4", "u5"])
    minor = [[jac[r][c] for c in range(3)] for r in range(3)]
    det = symbolic_determinant(minor)
    value = det.evaluate(point)
    # the restricted determinant family is 2i * u1 * u2^2 symbolically
    dom = chart.domain
    sub = {n: Series.variable(dom, n) for n in dom.names}
    sub["u3_1"] = Series.zero(dom)
    sub["u4_1"] = -Series.variable(dom, "u2_1")
    sub["u5_1"] = -Series.variable(dom, "u1_1")
    family = det.compose(sub)
    expected_family = parse_series("2*i*u1_1*u2_1^2", dom)
    ok = returns and value == G(0, 2) and family == expected_family
    report(2, "length-5 witness chain returns to 0 with leading 3x3 minor "
              "determinant exactly 2i at (1,1,0,-1,-1)", ok)


def test_criterion_03_no_submersive_length4_chain(quartic_m):
    g4 = gamma(quartic_m, 4)
    rng = random.Random(21)
    ok = True
    for _ in range(15):
        a = small_scalar(rng)
        for family in ([ZERO, a, ZERO, -a], [a, ZERO, -a, ZERO]):
            ok = ok and g4.map.evaluate(family) == [ZERO] * 4
            rank = exact_rank(jacobian_rows(g4.map, u_blocks(g4.k))(family))
            ok = ok and rank == 2 and rank != 3
    report(3, "every sampled return point of the length-4 chain has rank 2, "
              "never 3", ok)


def test_criterion_04_hypersurface_dichotomy():
    rng = random.Random(22)
    ok = True
    verdicts = set()
    for i in range(20):
        M = random_hypersurface(rng, i)
        minimal_test = hypersurface_minimality(M)
        minimal_ranks = segre_invariants(M).minimal
        ok = ok and (minimal_test == minimal_ranks)
        verdicts.add(minimal_test)
    ok = ok and verdicts == {True, False}
    report(4, "transversal-slice minimality test agrees with the rank-profile "
              "verdict on 20 random polynomial hypersurfaces", ok)


def test_criterion_05_codim2_rank4():
    M = new_manifold(1, 2, ["w1*zeta1", "w1^2*zeta1 + w1*zeta1^2"])
    chain = gamma(M, 4)
    rank = generic_rank(chain.in_chart(), wrt=u_blocks(chain.k), seed=0).rank
    inv = segre_invariants(M)
    ok = rank == 4 and inv.multitype == (1, 1, 1, 1) and inv.mu == M.d + 2 == 4
    report(5, "the codimension-2 four-parameter chain map has generic rank 4 "
              "and multitype (1,1,1,1) with type d+2 = 4", ok)


def test_criterion_06_projected_rank_identity():
    ok = True
    for name, M in corpus_manifolds():
        out = psi_rank_checks(M)
        ok = ok and out["all_ok"]
        for item in out["identities"]:
            ok = ok and item["lhs"] == item["rhs"]
    report(6, "m + gen-rk(psi^{k+1}) = gen-rk(Gamma_{k+2}) for every corpus "
              "manifold and every k up to stabilization", ok)


def test_criterion_07_sigma_symmetry():
    ok = True
    for name, M in corpus_manifolds():
        kmax = default_kmax(M)
        for k in range(1, kmax + 1):
            image = sigma_image(gamma(M, k, verify=False))
            direct = gamma(M, k, parity="Lbar", verify=False)
            ok = ok and image.map.components == direct.map.components
        # consequently the generic ranks agree; verify one rank pair exactly
        g = gamma(M, 3, verify=False)
        gb = gamma(M, 3, parity="Lbar", verify=False)
        ra = generic_rank(g.in_chart(), wrt=u_blocks(g.k), seed=3).rank
        rb = generic_rank(gb.in_chart(), wrt=u_blocks(gb.k), seed=3).rank
        ok = ok and ra == rb
    report(7, "sigma transports each chain to the conjugate-parity chain "
              "symbolically (k up to 2d+3), so conjugate ranks agree", ok)


def test_criterion_08_reparametrization_identities():
    ok = True
    for name, M in corpus_manifolds():
        for k in range(1, 6):
            ok = ok and check_reparam(M, k)
    report(8, "nested-map reparametrization identities hold symbolically for "
              "k = 1..5 on every corpus manifold", ok)


def test_criterion_09_semicontinuity_examples():
    ok = True
    for name in ("ex8_10", "ex8_11"):
        entry = dict(corpus())
        from segrechains.manifests import load_manifest

        M = load_manifest(entry[name]).build_manifold()
        origin = segre_invariants(M)
        generic = segre_invariants(M, Basepoint.symbolic())
        e1_origin = origin.profile.e[0] if origin.profile.e else 0
        e1_generic = generic.profile.e[0] if generic.profile.e else 0
        ok = ok and e1_origin == 1 and e1_generic == 2
    report(9, "first rank increment is 1 at the origin but 2 generically for "
              "both semicontinuity examples (non-rigid and rigid)", ok)


def test_criterion_10_quadrics():
    ok = True
    for name in ("quadric_elliptic", "quadric_parabolic", "quadric_hyperbolic"):
        entry = dict(corpus())
        from segrechains.manifests import load_manifest

        M = load_manifest(entry[name]).build_manifold()
        inv = segre_invariants(M)
        _, nonzero = e1_determinant(M)
        ok = ok and inv.minimal and inv.multitype[2:] == (2,)
        ok = ok and levi_type(M) == 1 and nonzero
    report(10, "all three nondegenerate quadrics are minimal with increment 2, "
               "Levi type 1, and nonzero increment determinant", ok)


def test_criterion_11_bracket_chain_crosscheck():
    ok = True
    for name, M in corpus_manifolds():
        max_length = 6 if name == "w3_quadric" else None
        out = crosscheck_totals(M, max_length=max_length)
        ok = ok and out["ok"]
    # the codimension-4 ladder against the independent brute-force oracle
    entry = dict(corpus())
    from segrechains.manifests import load_manifest

    M = load_manifest(entry["ex8_6"]).build_manifold()
    hd = hormander_numbers(M)
    ladder = [(mu, l) for mu, l, _ in hd.ladder]
    oracle, _ = brute_ladder(M, Basepoint.origin(), 4)
    ok = ok and ladder == [(2, 1), (3, 1), (4, 2)] == oracle
    report(11, "bracket multiplicities total the chain increments with equal "
               "minimality verdicts; codim-4 ladder (2,1),(3,1),(4,2) matches "
               "the brute-force span oracle", ok)


def test_criterion_12_orbit_engine():
    space = coordinate_space(3)
    one = Series.constant(space, 1)
    zero = Series.zero(space)
    x1 = Series.variable(space, "x1")
    S = VFSystem(field_tuples(space, [[(one, zero, zero)], [(zero, one, x1)]]))
    res = greedy_multitype(S)
    ok = res.orbit_dim == 3 and res.orbit_dim == lie_span_dimension(S)
    for name, M in corpus_manifolds():
        system = cr_pair_system(M)
        orb = greedy_multitype(system, witness=False)
        inv = segre_invariants(M)
        ok = ok and orb.multitype == (M.m, M.m) + tuple(inv.multitype[2:])
        ok = ok and orb.orbit_dim == lie_span_dimension(system)
    report(12, "greedy orbit construction gives dimension 3 on the bracket "
               "system and reproduces every corpus multitype, always equal to "
               "the bracket-span oracle", ok)


def test_criterion_13_property_suites():
    ok = True
    # reality identity holds on every validated manifold (construction
    # re-checks it; re-run the residual explicitly)
    for name, M in corpus_manifolds():
        sub = {n: Series.variable(M.space, n, M.order) for n in M.space.names}
        for j, zn in enumerate(M.space.block_vars("z")):
            sub[zn] = M.qbar[j]
        for j in range(M.d):
            ok = ok and (M.theta[j].compose(sub) - M.theta_bar[j]).is_zero()
    # membership invariant for all chain maps up to length 4
    from segrechains.chains import verify_in_manifold

    for name, M in corpus_manifolds():
        for k in range(1, 5):
            for parity in ("L", "Lbar"):
                ok = ok and verify_in_manifold(gamma(M, k, parity=parity))
    # commutativity and tangency certificates for all corpus vector fields
    from segrechains.manifold import vector_fields

    for name, M in corpus_manifolds():
        L, Lbar = vector_fields(M)  # raises internally on any failure
        for X in (L, Lbar):
            for f in X:
                for r in M.rho():
                    ok = ok and M.restrict(f.apply(r)).is_zero()
    # truncated flow group law
    space = coordinate_space(1)
    sys1 = VFSystem(field_tuples(space, [[(Series.variable(space, "x1"),)]]), check=False)
    from segrechains.orbit import formal_flow
    from segrechains.series import VarSpace

    N = 6
    fl = formal_flow(sys1, 0, order=N)
    dom = VarSpace([("s", ("s1",)), ("t", ("t1",)), ("x", ("x1",))])
    s = Series.variable(dom, "s1", N)
    t = Series.variable(dom, "t1", N)
    x = Series.variable(dom, "x1", N)
    lhs = fl.map.components[0].compose({"s1": s + t, "x1": x})
    inner = fl.map.components[0].compose({"s1": t, "x1": x})
    rhs = fl.map.components[0].compose({"s1": s, "x1": inner})
    ok = ok and lhs == rhs
    # determinism of machine reports (byte-identical)
    manifest = str(dict(corpus())["heisenberg"])
    cmd = [
        sys.executable, "-m", "segrechains.cli",
        "multitype", manifest, "--format", "machine",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True).stdout
    b = subprocess.run(cmd, capture_output=True, text=True).stdout
    ok = ok and a == b and json.loads(a)["results"]["minimal"] is True
    report(13, "reality, chain membership, field certificates, flow group law "
               "and machine-report determinism all hold", ok)
