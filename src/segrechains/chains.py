"""Concatenated flow maps on the complexified manifold.

gamma(M, k, ...) builds the chain map in k parameter blocks u1..uk by
alternating the two exact vectorial flows of manifold.cr_flows

    L-flow:    (w, z, zeta, xi) |-> (w + u, qbar(w + u, zeta, xi), zeta, xi)
    Lbar-flow: (w, z, zeta, xi) |-> (w, z, zeta + u, q(zeta + u, w, z))

starting from a basepoint (origin, numeric, or symbolic).  chain_word gives
this word of flows as a series.FlowWord, the word of the orbit flows too,
reporting the components of a chart (by default the chain's own; gamma's
"ambient" is the whole state) into the chart's space, both read from
manifold.chart; gamma expands it, keeping the chains from one
basepoint on M, so Gamma_k extends Gamma_{k-1}.  psi projects the chain
alternately to the two coordinate half-spaces, v_map builds the classical
nested-substitution maps independently of the flow machinery, and
check_reparam verifies the linear reparametrization identities that tie
the two constructions together.

In EXACT mode the same word also runs on exact values at one point,
carrying the derivatives in the u-blocks along (forward-mode
differentiation), so a chain is ranked without being expanded: rank
profiles and psi ranks extend one FlowWord.run a flow at a time
(ranks.GrowingRun.rank of the chain_word in its chart), and one chain (a
witness search, the projected witness) is ranked at a point by
ranks.word_rank.  A jet chain word is ranked expanded (the same
GrowingRun.rank), its last flow skipping the block (z or xi) the chart
never reads; a partial state is never kept, so gamma, psi and
check_reparam still build full chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimensionMismatch, OffManifold, SegreError
from .manifold import Basepoint, CRManifold, chart as chart_of, cr_flows
from .series import FlowWord, Series, SeriesMap, VarSpace

def _chain_chart(k: int) -> str:
    """Intrinsic chart of a length-k chain: "wzetaxi" for odd k, "wzzeta" for even."""
    return "wzetaxi" if k % 2 else "wzzeta"


def psi_chart(k: int, parity: str) -> str:
    """Half-space psi projects to: even chains to tau = (zeta, xi), odd chains
    to t = (w, z), swapped for the conjugate parity."""
    to_tau = (k % 2 == 0) if parity == "L" else (k % 2 == 1)
    return "tau" if to_tau else "t"


def u_blocks(k: int):
    return [f"u{i}" for i in range(1, k + 1)]


def default_kmax(M: CRManifold) -> int:
    """Default maximum chain length 2d + 3 (chains cannot gain rank later)."""
    return 2 * M.d + 3


def chain_space(M: CRManifold, k: int, basepoint: Basepoint) -> VarSpace:
    """Domain of a length-k chain: blocks u1..uk plus basepoint parameters."""
    blocks = [
        (f"u{i}", tuple(f"u{i}_{j}" for j in range(1, M.m + 1)))
        for i in range(1, k + 1)
    ]
    pairs = [(v, v) for _, vs in blocks for v in vs]
    extra = basepoint.param_blocks(M)
    for bn, vs in extra:
        blocks.append((bn, vs))
    if any(bn == "pw" for bn, _ in extra):
        pairs += [(f"pw{i}", f"pzeta{i}") for i in range(1, M.m + 1)]
    return VarSpace(blocks, pairs)


def chain_word(M: CRManifold, k: int, basepoint: Basepoint, parity: str,
               chart: Optional[str] = None):
    """Gamma_k as a series.FlowWord over chain_space(M, k, basepoint): the k
    CRFlows of the parity from the basepoint's state, reporting the
    components of a chart, by default the chain's own ("ambient": the whole
    state).  Its expanded states are kept on M per basepoint, so a chain
    extends the shorter one."""
    out, codomain = chart_of(M, chart or _chain_chart(k))
    states = vars(M).setdefault("_chain_cache", {}).setdefault(basepoint, {})
    return FlowWord(chain_flows(M, k, parity), lambda i: chain_space(M, i, basepoint),
                    lambda space: basepoint.state_components(M, space, M.order),
                    lambda params: basepoint.state_values(M, params), M.order, codomain, out,
                    states=states)


def flow(M: CRManifold, which: str, state: SeriesMap, param_block: str) -> SeriesMap:
    """Flow a point of the complexified manifold by an m-block of times.

    `state` must have the ambient space as codomain and satisfy rho = 0
    identically (OffManifold otherwise); `param_block` names a block of m
    variables of the state's domain used as the flow time.
    """
    if state.codomain != M.space:
        raise DimensionMismatch("state must assign all ambient coordinates")
    sub = state.as_subst()
    for j, r in enumerate(M.rho()):
        if not r.compose(sub).is_zero():
            raise OffManifold(f"state violates rho_{j + 1} = 0")
    space = state.domain
    names = space.block_vars(param_block)
    if len(names) != M.m:
        raise DimensionMismatch(f"block {param_block!r} must have {M.m} variables")
    if which not in ("L", "Lbar"):
        raise ValueError(f"unknown flow kind {which!r}")
    params = [Series.variable(space, nm, state.order) for nm in names]
    return SeriesMap(cr_flows(M)[which].expand(state.components, params), M.space)


def chain_flows(M: CRManifold, k: int, parity: str):
    """The k CRFlows of a chain of the given parity."""
    return [cr_flows(M)[_flow_kind(parity, s)] for s in range(1, k + 1)]


def _flow_kind(parity: str, step: int) -> str:
    """Type of the step-th flow (1-based) for a chain of the given parity."""
    if parity == "L":
        return "L" if step % 2 == 1 else "Lbar"
    if parity == "Lbar":
        return "Lbar" if step % 2 == 1 else "L"
    raise ValueError(f"parity must be 'L' or 'Lbar', not {parity!r}")


@dataclass(frozen=True)
class ChainMap:
    """A concatenated flow map with range in the complexified manifold."""

    manifold: CRManifold
    k: int
    parity: str
    basepoint: Basepoint
    map: SeriesMap  # ambient components over chain_space(M, k, basepoint)
    chart: str  # suggested chart: "wzetaxi" for odd k, "wzzeta" for even

    def in_chart(self, chart: Optional[str] = None) -> SeriesMap:
        """Project the ambient map to a coordinate chart of the manifold."""
        indices, space = chart_of(self.manifold, chart or self.chart)
        return SeriesMap([self.map.components[a] for a in indices], space)


def gamma(M: CRManifold, k: int, basepoint: Optional[Basepoint] = None,
          parity: str = "L", verify: bool = True) -> ChainMap:
    """The length-k chain map in m*k parameters (plus basepoint parameters)."""
    if k < 1:
        raise DimensionMismatch("chain length must be >= 1")
    basepoint = basepoint or Basepoint.origin()
    smap = chain_word(M, k, basepoint, parity, "ambient").expand()
    chain = ChainMap(M, k, parity, basepoint, smap, _chain_chart(k))
    if verify:
        verify_in_manifold(chain)
    return chain


def verify_in_manifold(chain: ChainMap) -> bool:
    """Check that substituting the chain into every rho_j gives the zero series."""
    sub = chain.map.as_subst()
    for j, r in enumerate(chain.manifold.rho()):
        if not r.compose(sub).is_zero():
            raise SegreError(
                f"internal: chain of length {chain.k} leaves the manifold at rho_{j + 1}"
            )
    return True


def psi(M: CRManifold, k: int, basepoint: Optional[Basepoint] = None,
        parity: str = "L") -> SeriesMap:
    """Projected chain: even chains to the (zeta, xi) half-space, odd chains to
    (w, z) — with the two projections swapped for the conjugate parity."""
    chain = gamma(M, k, basepoint, parity, verify=False)
    return chain.in_chart(psi_chart(k, parity))


def _ambient_subst(M: CRManifold, w, z, zeta, xi) -> dict:
    """Substitution of the ambient variables by the given component series."""
    return dict(zip(M.space.names, [*w, *z, *zeta, *xi]))


def v_map(M: CRManifold, k: int) -> SeriesMap:
    """The nested-substitution map into the (w, z) space, built independently
    of the flow machinery (cross-check oracle for the chains)."""
    if k < 0:
        raise DimensionMismatch("k must be >= 0")
    t_space = chart_of(M, "t")[1]
    if k == 0:
        space = VarSpace([])
        comps = [Series.zero(space, M.order) for _ in range(M.n)]
        return SeriesMap(comps, t_space)
    space = chain_space(M, k, Basepoint.origin())
    order = M.order
    zero = [Series.zero(space, order)] * max(M.m, M.d)

    def ublock(i):
        return [Series.variable(space, f"u{i}_{j}", order) for j in range(1, M.m + 1)]

    # innermost transversal value, then fold outwards down to slot 2
    if k % 2 == 1:
        sub = _ambient_subst(M, ublock(k), zero[: M.d], zero[: M.m], zero[: M.d])
        tail = [M.qbar[j].compose(sub) for j in range(M.d)]
    else:
        sub = _ambient_subst(M, zero[: M.m], zero[: M.d], ublock(k), zero[: M.d])
        tail = [M.q[j].compose(sub) for j in range(M.d)]
    for s in range(k - 1, 1, -1):
        if s % 2 == 0:
            sub = _ambient_subst(M, ublock(s + 1), tail, ublock(s), zero[: M.d])
            tail = [M.q[j].compose(sub) for j in range(M.d)]
        else:
            sub = _ambient_subst(M, ublock(s), zero[: M.d], ublock(s + 1), tail)
            tail = [M.qbar[j].compose(sub) for j in range(M.d)]
    if k == 1:
        comps = ublock(1) + tail
    else:
        sub = _ambient_subst(M, ublock(1), zero[: M.d], ublock(2), tail)
        comps = ublock(1) + [M.qbar[j].compose(sub) for j in range(M.d)]
    return SeriesMap(comps, t_space)


def _reparam_args(M: CRManifold, k: int, space: VarSpace):
    """Slot s of the nested map receives u_{k+1-s} + u_{k-1-s} + ... (step 2)."""
    order = M.order
    sub = {}
    for s in range(1, k + 1):
        for j in range(1, M.m + 1):
            total = Series.zero(space, order)
            t = k + 1 - s
            while t >= 1:
                total = total + Series.variable(space, f"u{t}_{j}", order)
                t -= 2
            sub[f"u{s}_{j}"] = total
    return sub


# The longest chain the reparametrization identities are stated for, and so
# the longest a sidecar may ask checkall to build.
REPARAM_MAX_K = 5


def check_reparam(M: CRManifold, k: int) -> bool:
    """Verify the reparametrization identity tying v^k to the projected chain.

    Odd k:  v^k(partial sums)            == pi_t(Gamma_k).
    Even k: conj(v^k)(partial sums)      == pi_tau(Gamma_k).
    Stated for k <= REPARAM_MAX_K; a failed identity returns False rather
    than raising.
    """
    if not 1 <= k <= REPARAM_MAX_K:
        raise DimensionMismatch(
            f"reparametrization identities are stated for k <= {REPARAM_MAX_K}"
        )
    chain = gamma(M, k, Basepoint.origin(), "L", verify=False)
    space = chain.map.domain
    v = v_map(M, k)
    args = _reparam_args(M, k, space)
    comps = list(v.components)
    if k % 2 == 0:
        comps = [c.conjugate() for c in comps]
    lhs = [c.compose(args) for c in comps]
    rhs = chain.in_chart("t" if k % 2 else "tau").components
    return all(a == b for a, b in zip(lhs, rhs))


def sigma_image(chain: ChainMap) -> ChainMap:
    """The chain transported by the antiholomorphic involution.

    Components are sigma-conjugated (coefficients conjugated, the ambient
    component blocks swapped along w<->zeta, z<->xi) and the chain parameters
    are renamed to their conjugates, which flips the parity.
    """
    M = chain.manifold
    space = M.space
    old = chain.map.components
    comps = [None] * len(old)
    for a in range(space.dim):
        b = space.partner(a)
        comps[a] = old[b].sigma_conjugate()
    bp = chain.basepoint
    if bp.kind == "numeric":
        bp = Basepoint.numeric(
            M,
            tuple(c.conjugate() for c in bp.zeta),
            tuple(c.conjugate() for c in bp.xi),
            tuple(c.conjugate() for c in bp.w),
            tuple(c.conjugate() for c in bp.z),
        )
    parity = "Lbar" if chain.parity == "L" else "L"
    return ChainMap(M, chain.k, parity, bp, SeriesMap(comps, space), chain.chart)
