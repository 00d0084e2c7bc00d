"""Rank profiles of chain maps and the derived biholomorphic invariants.

The generic ranks r_k of the chains start at r_1 = m, r_2 = 2m and grow by
increments e_k = r_{k+2} - r_{k+1}; once an increment vanishes after a
nonzero one, all later increments vanish, so the profile computation stops
at the first plateau.  kappa counts the positive increments, the type is
mu = 2 + kappa, the multitype is (m, m, e_1, ..., e_kappa), and the manifold
is minimal at the basepoint exactly when the increments sum to d.

The ranks of a profile are read from one ranks.GrowingRun, each r_k the
rank of chains.chain_word(M, k, ...) in the chart of Gamma_k.  EXACT, each
trial draws one point sequence and extends one chain state a flow at a
time, Gamma_{k+1} being Gamma_k followed by one more flow, so r_k is read
after k flows with no restart; its Jacobian comes from forward-mode
differentiation and a certified rank rests on evaluation being a ring
homomorphism.  A truncated jet chain is expanded and ranked at seed + k,
its witnessed minor certified symbolically.  psi_rank_checks reads the psi
ranks, the chains in a half-space chart, from a run of its own the same
way (_chain_ranks).  The witness comes from ranks.return_witness, the one
of the orbit witness too: it searches the chain word of length mu in its
chart, then continues the accepted try through the return chain in the
kernel that proved its rank (F_P, or Z[i] where F_P proves none) and ranks
that chart there, so it needs a numeric basepoint and an EXACT manifold;
for the same reason a truncated manifold takes no numeric basepoint but
the origin (Basepoint.numeric).  The projected witness of psi_rank_checks
is one EXACT run of the conjugate chain word in its psi chart at the
witness times, ranked there by ranks.word_rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import List, Optional

from .chains import chain_word, default_kmax, psi_chart
from .errors import DimensionMismatch, NotAHypersurface, SegreError, TruncationUnsound
from .manifold import Basepoint, CRManifold
from .ranks import DEFAULT_TRIALS, GrowingRun, return_witness, word_rank
from .scalars import GaussianRational
from .series import Series


@dataclass(frozen=True)
class RankProfile:
    """Generic ranks r_k (k = 1..), their increments, and rank witnesses."""

    r: tuple
    e: tuple
    witnesses: tuple
    certified: bool
    stopped_at: int
    kmax: int

    def rank(self, k: int) -> int:
        """r_k for k >= 1 (ranks are constant after the plateau);
        DimensionMismatch for k < 1, where no rank is computed."""
        if k < 1:
            raise DimensionMismatch(f"r_k is defined for k >= 1, not k = {k}")
        return self.r[min(k, len(self.r)) - 1]


@dataclass(frozen=True)
class SegreInvariants:
    kappa: int
    mu: int
    nu: int
    multitype: tuple
    minimal: bool
    orbit_dim_complexified: int
    orbit_dim_intrinsic: int
    orbit_dim_real: int
    profile: RankProfile


def _chain_ranks(M, basepoint, parity, trials, seed, certify):
    """(k, chart) -> the rank (a ranks.RankResult) of Gamma_k in a chart, by
    default its intrinsic (2m+d)-coordinate one: equivalent to the ambient
    rank for exact manifolds, and structurally bounded by dim M for
    truncated jets; all read from one ranks.GrowingRun."""
    run = GrowingRun(trials, seed)
    return lambda k, chart=None: run.rank(chain_word(M, k, basepoint, parity, chart), certify)


def rank_profile(
    M: CRManifold,
    basepoint: Optional[Basepoint] = None,
    kmax: Optional[int] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    certify: bool = False,
) -> RankProfile:
    """Generic ranks of the chains at the basepoint, with early stop at the
    first plateau; one conjugate-parity rank is recomputed as a symmetry check."""
    basepoint = basepoint or Basepoint.origin()
    kmax = default_kmax(M) if kmax is None else kmax
    if kmax < 3:
        raise SegreError("kmax must be >= 3")
    rs: List[int] = []
    witnesses, certified, stopped_at = [], True, kmax
    rank_of = _chain_ranks(M, basepoint, "L", trials, seed, certify)
    for k in range(1, kmax + 1):
        res = rank_of(k)
        rs.append(res.rank)
        witnesses.append(tuple(res.witness) if res.witness else None)
        certified = certified and res.certified
        if k >= 3 and rs[-1] == rs[-2]:
            stopped_at = k
            break
        if k >= 3 and rs[-1] < rs[-2]:  # a theorem along one trial's run
            raise SegreError("internal: sampled ranks decreased; raise trials")
    if rs[0] != M.m or (len(rs) > 1 and rs[1] != 2 * M.m):
        raise SegreError("internal: r_1, r_2 must equal m, 2m; sampling failed or input invalid")
    e = tuple(rs[k + 1] - rs[k] for k in range(1, len(rs) - 1))
    # sigma-consistency: one conjugate-parity rank must agree
    k_check = min(3, len(rs))
    res_bar = _chain_ranks(M, basepoint, "Lbar", trials, seed, False)(k_check)
    if res_bar.rank != rs[k_check - 1]:
        raise SegreError("internal: conjugate chain rank disagrees; raise trials")
    return RankProfile(tuple(rs), e, tuple(witnesses), certified, stopped_at, kmax)


def segre_invariants(
    M: CRManifold,
    basepoint: Optional[Basepoint] = None,
    kmax: Optional[int] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    certify: bool = False,
) -> SegreInvariants:
    profile = rank_profile(M, basepoint, kmax, trials, seed, certify)
    r = profile.r
    if not ((len(r) >= 2 and r[-1] == r[-2]) or r[-1] == 2 * M.m + M.d):
        raise SegreError(f"ranks still increasing at kmax={profile.kmax}; raise kmax")
    e_pos = list(takewhile(lambda inc: inc > 0, profile.e))
    kappa, total = len(e_pos), sum(e_pos)
    mu = 2 + kappa
    if not (kappa <= M.d and mu <= M.d + 2):
        raise SegreError("internal: type bounds kappa <= d, mu <= d + 2 violated")
    return SegreInvariants(
        kappa=kappa, mu=mu, nu=mu - 1, multitype=(M.m, M.m) + tuple(e_pos),
        minimal=(total == M.d), orbit_dim_complexified=2 * M.m + total,
        orbit_dim_intrinsic=M.m + total, orbit_dim_real=2 * M.m + total, profile=profile,
    )


def hypersurface_minimality(M: CRManifold) -> bool:
    """Minimality test for d = 1: the series theta(zeta, w, 0) must be nonzero."""
    if M.d != 1:
        raise NotAHypersurface(f"d = {M.d}, expected a hypersurface")
    return not M.theta[0].compose(M.z_subst([Series.zero(M.space, M.order)])).is_zero()


@dataclass(frozen=True)
class WitnessRecord:
    """A return-to-basepoint chain witnessing the maximal attained rank."""

    w_star: tuple  # mu blocks of m scalars, last block zero
    omega_star: tuple  # mu - 1 blocks: reversed negatives
    chain_length: int  # 2*mu - 1
    rank_at_witness: int
    returns_to_basepoint: bool
    parity: str


def witness_point(
    M: CRManifold,
    invariants: SegreInvariants,
    basepoint: Optional[Basepoint] = None,
    parity: str = "L",
    seed: int = 0,
) -> WitnessRecord:
    """Find w* = (w_1*, ..., w_{mu-1}*, 0) where the length-mu chain attains
    rank 2m + sum(e), set omega* = (-w_{mu-1}*, ..., -w_1*), and verify that
    the length-(2mu-1) chain returns to the basepoint with the same rank
    (ranks.return_witness, searched in the chart of the length-mu chain).
    EXACT manifolds only (TruncationUnsound otherwise): a truncated chain
    cannot be evaluated at nonzero times; a symbolic basepoint is refused."""
    if M.order is not None:
        raise TruncationUnsound("a witness chain needs an EXACT manifold")
    basepoint = basepoint or Basepoint.origin()
    if basepoint.kind == "symbolic":
        raise SegreError("witness search needs a numeric basepoint")
    mu, target = invariants.mu, invariants.orbit_dim_complexified
    word = chain_word(M, mu, basepoint, parity)
    w_star, rank, returns = return_witness(word, target, seed)
    # the return identity and the attained rank are theorems in exact mode;
    # a return run over F_P reads both modulo P (ranks.return_witness), a
    # congruence that the same theorem makes true
    if not returns:
        raise SegreError("internal: witness chain failed to return to the basepoint")
    if rank != target:
        raise SegreError(f"internal: witness rank {rank} != expected {target}")
    omega_star = tuple(tuple(-c for c in blk) for blk in reversed(w_star[:-1]))
    return WitnessRecord(w_star, omega_star, 2 * mu - 1, rank, True, parity)


def psi_rank_checks(
    M: CRManifold,
    basepoint: Optional[Basepoint] = None,
    kmax: Optional[int] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> dict:
    """Check m + gen-rk(psi^{k+1}) = gen-rk(Gamma_{k+2}) for each k, and the
    return/rank properties of the conjugate projected chain at length 2*nu."""
    basepoint = basepoint or Basepoint.origin()
    inv = segre_invariants(M, basepoint, kmax, trials, seed, certify=False)
    profile = inv.profile
    results = []
    psi_rank = _chain_ranks(M, basepoint, "L", trials, seed, False)
    for k in range(0, len(profile.r) - 1):
        lhs = M.m + psi_rank(k + 1, psi_chart(k + 1, "L")).rank
        rhs = profile.rank(k + 2)
        results.append({"k": k, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    witness_ok = None
    if basepoint.kind in ("origin", "numeric") and M.order is None:
        witness = witness_point(M, inv, basepoint, parity="Lbar", seed=seed)
        two_nu = 2 * inv.nu
        # psi of the conjugate parity at even length projects to the (w, z) space
        pm = chain_word(M, two_nu, basepoint, "Lbar", psi_chart(two_nu, "Lbar"))
        blocks = (witness.w_star + witness.omega_star)[:two_nu]
        values = [GaussianRational.from_zi(*v) for v in pm.run((), blocks)[0]]
        witness_ok = (values == basepoint.state_values(M)[: M.n]
                      and word_rank(pm, (), blocks) == inv.orbit_dim_intrinsic)
    return {
        "identities": results,
        "all_ok": all(r["ok"] for r in results) and witness_ok in (None, True),
        "projected_witness_ok": witness_ok,
        "invariants": inv,
    }
