import dataclasses
import random

import pytest

from segrechains import invariants, ranks
from segrechains.corpus import corpus
from segrechains.errors import NotAHypersurface, SegreError, TruncationUnsound
from segrechains.invariants import (
    hypersurface_minimality,
    psi_rank_checks,
    rank_profile,
    segre_invariants,
    witness_point,
)
from segrechains.manifests import load_manifest
from segrechains.manifold import Basepoint, new_manifold
from segrechains.ranks import (
    CERTIFY_MAX_SIZE,
    DEFAULT_TRIALS,
    exact_rank,
    generic_rank,
    jacobian_rows,
    pivot_positions,
    symbolic_determinant,
)
from segrechains.chains import gamma, u_blocks
from segrechains.scalars import GaussianRational as G, ZERO
from segrechains.series import EXACT, RESIDUES

from helpers import (
    codim_family, exact_manifolds, flow_steps, numeric_basepoint, random_hypersurface,
    reference_chain, reference_jacobian, reference_rank, reference_rank_profile, same_profile,
)


def test_rank_profile_quartic(quartic):
    p = rank_profile(quartic)
    assert p.r[:3] == (1, 2, 3)
    assert p.e[0] == 1
    assert p.r[0] == quartic.m and p.r[1] == 2 * quartic.m


def test_rank_profile_levi_flat(levi_flat):
    inv = segre_invariants(levi_flat)
    assert inv.kappa == 0 and inv.mu == 2 and not inv.minimal
    assert inv.multitype == (1, 1)


def test_rank_profile_c3(c3_tube):
    inv = segre_invariants(c3_tube)
    assert inv.profile.e[:2] == (1, 1)
    assert inv.kappa == 2 and inv.mu == 4
    assert inv.minimal


def test_rank_profile_nondecreasing_and_stable(heisenberg, quartic, c3_tube):
    # the chains past the profile's early stop, up to 2d + 3, gain no rank
    for M in (heisenberg, quartic, c3_tube):
        r = [reference_rank(reference_chain(M, k, Basepoint.origin(), "L"),
                            wrt=u_blocks(k), seed=k).rank for k in range(1, 2 * M.d + 4)]
        for a, b in zip(r, r[1:]):
            assert b >= a
        top = max(r)
        first = r.index(top)
        assert all(x == top for x in r[first:])
        p = rank_profile(M)
        assert p.r == tuple(r[: len(p.r)])


def test_rank_profile_certified_small(quartic):
    p = rank_profile(quartic, certify=True)
    assert p.certified


def test_segre_invariants_heisenberg(heisenberg):
    inv = segre_invariants(heisenberg)
    assert inv.minimal and inv.multitype == (1, 1, 1) and inv.mu == 3
    assert inv.orbit_dim_complexified == 3
    assert inv.orbit_dim_intrinsic == 2
    assert inv.nu == inv.mu - 1


def test_bounds_kappa_mu(heisenberg, quartic, c3_tube):
    for M in (heisenberg, quartic, c3_tube):
        inv = segre_invariants(M)
        assert inv.kappa <= M.d
        assert inv.mu <= M.d + 2


def test_hypersurface_minimality_examples(heisenberg, levi_flat, quartic):
    assert hypersurface_minimality(heisenberg)
    assert not hypersurface_minimality(levi_flat)
    assert hypersurface_minimality(quartic)


def test_hypersurface_minimality_rejects_codim2(c3_tube):
    with pytest.raises(NotAHypersurface):
        hypersurface_minimality(c3_tube)


def test_minimality_crosscheck_fixed_examples(heisenberg, levi_flat, quartic):
    for M in (heisenberg, levi_flat, quartic):
        inv = segre_invariants(M)
        assert hypersurface_minimality(M) == inv.minimal


def test_witness_quartic(quartic):
    inv = segre_invariants(quartic)
    rec = witness_point(quartic, inv)
    assert rec.chain_length == 5
    assert rec.returns_to_basepoint
    assert rec.rank_at_witness == 3
    assert rec.w_star[-1] == (ZERO,)
    # omega is the reversed negated prefix
    assert rec.omega_star == tuple(
        tuple(-c for c in blk) for blk in reversed(rec.w_star[:-1])
    )


def test_witness_levi_flat(levi_flat):
    inv = segre_invariants(levi_flat)
    rec = witness_point(levi_flat, inv)
    assert rec.chain_length == 3 and rec.rank_at_witness == 2
    assert rec.returns_to_basepoint


def test_witness_at_numeric_basepoint(heisenberg):
    i = G(0, 1)
    w, zeta, xi = [G(1)], [G(2)], [G(1)]
    z = [xi[0] + i * w[0] * zeta[0]]
    bp = Basepoint.numeric(heisenberg, w, z, zeta, xi)
    inv = segre_invariants(heisenberg, bp)
    rec = witness_point(heisenberg, inv, bp)
    assert rec.returns_to_basepoint and rec.rank_at_witness == 3


def test_witness_refuses_a_truncated_manifold():
    # a truncated chain cannot be evaluated at the witness's nonzero times
    jet = new_manifold(1, 1, ["w1^2*zeta1^2"], order=6)
    inv = segre_invariants(jet)
    with pytest.raises(TruncationUnsound):
        witness_point(jet, inv)


def test_witness_refuses_a_symbolic_basepoint(heisenberg, monkeypatch):
    # a symbolic basepoint's chains carry its parameters: refused before any search
    bp = Basepoint.symbolic()
    inv = segre_invariants(heisenberg, bp)
    monkeypatch.setattr(invariants, "return_witness", lambda *args: pytest.fail("searched"))
    with pytest.raises(SegreError, match="^witness search needs a numeric basepoint$"):
        witness_point(heisenberg, inv, bp)


def test_no_submersive_length4_return_chain(quartic):
    # returned-to-origin points of the length-4 chain have rank 2 only
    g4 = gamma(quartic, 4)
    rng = random.Random(16)
    from helpers import small_scalar

    for _ in range(12):
        a = small_scalar(rng)
        for family in ([ZERO, a, ZERO, -a], [a, ZERO, -a, ZERO]):
            assert g4.map.evaluate(family) == [ZERO] * 4
            assert exact_rank(jacobian_rows(g4.map, u_blocks(g4.k))(family)) == 2


def test_psi_rank_identity(heisenberg, quartic, c3_tube):
    for M in (heisenberg, quartic, c3_tube):
        out = psi_rank_checks(M)
        assert out["all_ok"]
        for item in out["identities"]:
            assert item["lhs"] == item["rhs"]
        assert out["projected_witness_ok"]


def test_random_hypersurface_dichotomy():
    rng = random.Random(17)
    seen = set()
    for i in range(12):
        M = random_hypersurface(rng, i)
        inv = segre_invariants(M)
        hyp = hypersurface_minimality(M)
        assert hyp == inv.minimal
        seen.add(hyp)
    assert seen == {True, False}  # both branches exercised


def test_generic_vs_central_semicontinuity():
    M = new_manifold(
        2, 2, ["w1*zeta1", "xi1^2*w2*zeta2 + i*xi1*w1*zeta1*w2*zeta2"]
    )
    origin = segre_invariants(M)
    generic = segre_invariants(M, Basepoint.symbolic())
    e1_origin = origin.profile.e[0] if origin.profile.e else 0
    e1_generic = generic.profile.e[0] if generic.profile.e else 0
    assert e1_origin == 1 and e1_generic == 2
    assert e1_generic >= e1_origin


def test_semicontinuity_on_corpus():
    from segrechains.corpus import corpus_manifolds

    for name, M in corpus_manifolds():
        origin = segre_invariants(M)
        generic = segre_invariants(M, Basepoint.symbolic())
        e_o = origin.profile.e[0] if origin.profile.e else 0
        e_g = generic.profile.e[0] if generic.profile.e else 0
        assert e_g >= e_o, name


def test_displayed_rigid_variant_has_e1_two():
    # the printed rigid m=d=2 example: both computation routes give a first
    # increment of 2 at the origin, not 1 (see the bundled corrected entry)
    M = new_manifold(
        2,
        2,
        [
            "w1*zeta1 + w1^2*zeta2 + zeta1^2*w2",
            "w1^2*zeta1 + w1*zeta1^2 - 2*w1*w2*zeta1^2 - w2*zeta1^3"
            " - 2*w1^2*zeta1*zeta2 - w1^3*zeta2",
        ],
    )
    from segrechains.lie import e1_determinant

    inv = segre_invariants(M)
    _, nonzero = e1_determinant(M)
    assert inv.profile.e[0] == 2 and nonzero


def test_cr_dimension_one_increments_all_one():
    # for m = 1 every positive increment is exactly 1, so minimality is
    # equivalent to kappa = d
    from segrechains.corpus import corpus_manifolds

    for name, M in corpus_manifolds():
        if M.m != 1:
            continue
        inv = segre_invariants(M)
        assert all(e == 1 for e in inv.multitype[2:]), name
        assert inv.minimal == (inv.kappa == M.d), name


def _expanded_chain(M, k, basepoint, parity, chart=None):
    return gamma(M, k, basepoint, parity, verify=False).in_chart(chart)


def _laplace_certified_rank(f, wrt=None, trials=5, seed=0, certify=False):
    """generic_rank of an expanded map, certified by expanding the pivot minor."""
    res = generic_rank(f, wrt=wrt, trials=trials, seed=seed)
    certified = False
    if certify and 0 < res.rank <= CERTIFY_MAX_SIZE:
        jac = reference_jacobian(f, wrt)
        matrix = [[e.evaluate(res.witness) for e in row] for row in jac]
        rows, cols = zip(*pivot_positions(matrix))
        minor = [[jac[r][c] for c in cols] for r in rows]
        certified = not symbolic_determinant(minor).is_zero()
    return dataclasses.replace(res, certified=certified)


# the Laplace expansion takes seconds to minutes on the longer-profile inputs
PROFILE_CASES = [
    (n, M) for n, M in exact_manifolds() if n not in ("ex8_6", "codim_d4", "codim_d5", "codim_d6")
]


@pytest.mark.parametrize("name, M", PROFILE_CASES, ids=[n for n, _ in PROFILE_CASES])
def test_certified_profile_matches_expanded_chains(name, M):
    # the growing-run profile equals the one ranked chain by chain on
    # expanded chains with symbolically expanded certificates, field by
    # field but the sample points
    for bp in (Basepoint.origin(), Basepoint.symbolic()):
        forward = rank_profile(M, bp, certify=True)
        expanded = reference_rank_profile(M, bp, certify=True, chain=_expanded_chain,
                                          rank=_laplace_certified_rank)
        assert same_profile(forward, expanded)


def _corpus_jets(order):
    out = []
    for name, path in corpus():
        manifest = load_manifest(path)
        if manifest.kind == "manifold":
            manifest.params["order"] = str(order)
            out.append((f"{name}_order{order}", manifest.build_manifold()))
    return out


JET_CASES = _corpus_jets(3) + _corpus_jets(5)


@pytest.mark.parametrize("name, M", JET_CASES, ids=[n for n, _ in JET_CASES])
def test_jet_certificates_match_the_expanded_jacobian(name, M, monkeypatch):
    # the certificate built from the witnessed minor's partials alone agrees
    # with the one read off the whole symbolic Jacobian, field by field
    for bp in (Basepoint.origin(), Basepoint.symbolic()):
        walked = rank_profile(M, bp, certify=True)
        with monkeypatch.context() as patch:
            patch.setattr(ranks, "generic_rank", _laplace_certified_rank)
            expanded = rank_profile(M, bp, certify=True)
        assert walked == expanded


def test_rank_profile_kmax_zero_is_not_the_default(heisenberg):
    # kmax=0 used to be read as "use the default"
    for kmax in (0, 2):
        with pytest.raises(SegreError, match="kmax"):
            rank_profile(heisenberg, kmax=kmax)
    assert rank_profile(heisenberg, kmax=3).kmax == 3


PROFILE_SWEEP = exact_manifolds() + [(f"codim_d{d}", codim_family(d)) for d in (7, 8)]


@pytest.mark.parametrize("name, M", PROFILE_SWEEP, ids=[n for n, _ in PROFILE_SWEEP])
def test_growing_run_profile_matches_the_chain_by_chain_profile(name, M):
    # one growing run per trial reads the ranks the fresh chain words of
    # every length read, at the origin, a numeric and a symbolic basepoint
    rng = random.Random(len(name))
    for bp in (Basepoint.origin(), numeric_basepoint(M, rng), Basepoint.symbolic()):
        for seed in (0, 3):
            for trials in (1, 5):
                got = rank_profile(M, bp, trials=trials, seed=seed, certify=True)
                want = reference_rank_profile(M, bp, trials=trials, seed=seed, certify=True)
                assert same_profile(got, want), (bp.kind, seed, trials)
                assert got.certified == all(0 < r <= CERTIFY_MAX_SIZE for r in got.r)
                # a witness is its trial's point after k flows: k blocks and
                # the basepoint's parameters
                extra = 2 * M.m + M.d if bp.kind == "symbolic" else 0
                assert [len(w) for w in got.witnesses] == [
                    k * M.m + extra for k in range(1, len(got.r) + 1)]


@pytest.mark.parametrize("bp", [Basepoint.origin(), Basepoint.symbolic()],
                         ids=["origin", "generic"])
def test_a_profile_steps_each_trial_one_flow_at_a_time(bp, monkeypatch):
    # each trial's run, and its exact rerun if any, extends by one flow per
    # chain length: at most trials x stopped_at steps over each kernel, plus
    # the conjugate-parity k = 3 check; none restarts from the basepoint
    cases = [codim_family(d) for d in range(2, 9)] + [
        new_manifold(1, 1, ["0"]), new_manifold(1, 1, ["w1^2*zeta1^2"]),
        new_manifold(2, 1, ["w1*zeta1"]), new_manifold(1, 2, ["w1*zeta1", "0"])]
    for i, M in enumerate(cases):
        steps = flow_steps(monkeypatch)
        p = rank_profile(M, bp)
        for kernel in (RESIDUES, EXACT):
            assert steps.count(kernel) <= DEFAULT_TRIALS * (p.stopped_at + 3), (M, kernel)
        if i < 7:
            # the minimal family: every rank is full mod P at the first trial
            assert steps == [RESIDUES] * (p.stopped_at + 3)
        monkeypatch.undo()
