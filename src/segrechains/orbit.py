"""Formal orbits of systems of commuting m-vector fields.

A VFSystem is a finite family of a m-vector fields, each an m-tuple of
commuting, pointwise independent series.TangentVectorField over one
coordinate space with polynomial coefficients, the type that the bracket
ladder brackets too.  Flows are realized as truncated Lie series
exp(s.L)(x) = sum_k (s.L)^k(x) / k!; for fields whose Lie series terminates
(all the complexified CR pairs in this package) the flow is exact.

greedy_multitype implements the greedy rank-increment construction: starting
from the concatenated flows of all a fields, repeatedly append the field
whose extra flow maximizes the generic-rank increment, stopping at rank n or
when no field adds rank; by the group law exp(s.X) exp(t.X) = exp((s+t).X)
the word's last field never does, exact or jet (see greedy_multitype).  The
resulting orbit dimension am + sum(e) can be cross-checked against the
independent left-normed bracket span oracle lie_span_dimension.

A VFSystem keeps its flows by (field, order) (system.flow) and their
expanded prefixes by order (EXACT or an int >= 1, manifold.check_order);
formal_flow alone refuses a flow order that a system truncated at order N
cannot give (EXACT, or above N).  cr_pair_system is the chart pair of
manifold.tangent_fields as a system.  flow_word
gives a concatenated flow as a series.FlowWord, the word of the Segre
chains too, and one ranks.GrowingRun ranks every word of a greedy orbit.
EXACT flows (order=None) are never expanded: the run carries exact
(value, d/dt) pairs, over F_P first, from the origin through the word's
flows at each trial's points (forward-mode differentiation, one gradient
walk per flow component), and the candidates of a greedy step extend the
state of their common prefix by one flow each, the winner's kept.  A jet
word of k flows is expanded, one flow past the prefixes kept, and ranked
at seed + k.  The starting word is checked from the field rows at the
origin (VFSystem.rank_at).  The witness is ranks.return_witness, the one
the chains use too: a seeded point t* of the word's rank, then the
accepted try's run continued through its reversed flows at the negated
times, in the kernel that proved its rank.  A jet's witness is None,
because a truncated flow cannot be evaluated at a nonzero time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ChartMismatch,
    DimensionMismatch,
    RankAssumptionViolated,
    SegreError,
    TruncationUnsound,
    VarSpaceMismatch,
    WitnessNotFound,
)
from .manifold import CRManifold, check_order, tangent_fields
from .ranks import (
    DEFAULT_TRIALS,
    GrowingRun,
    exact_rank,
    integer_rows,
    random_point,
    return_witness,
    span_dims,
)
from .scalars import GaussianRational, ZERO, format_scalar
from .series import (
    EXACT,
    FlowWord,
    Series,
    SeriesMap,
    TangentVectorField,
    VarSpace,
    bracket_levels,
    noncommuting_pair,
)


# A system's pointwise rank is checked at the origin and at this many points of Random(seed)
RANK_CHECK_TRIALS = 3
RANK_CHECK_SEED = 0


def coordinate_space(n: int) -> VarSpace:
    names = tuple(f"x{i}" for i in range(1, n + 1))
    return VarSpace([("x", names)])


class VFSystem:
    """A system of a m-vector fields over an n-dimensional coordinate space.

    fields[alpha] is an m-tuple of series.TangentVectorField, all over one
    space, which gives the system its space and n.  Components within one
    m-tuple must commute symbolically, and the a*m fields must have rank a*m
    at the origin (checked there and at sampled points, unless check=False).
    Flows are kept on it (flow).
    """

    def __init__(self, fields, order=None, check: bool = True):
        self.fields = tuple(tuple(fld) for fld in fields)
        self.a = len(self.fields)
        if self.a < 1:
            raise DimensionMismatch("a system needs at least one m-vector field")
        self.m = len(self.fields[0])
        if any(len(fld) != self.m for fld in self.fields):
            raise DimensionMismatch("all m-vector fields must share one m")
        if self.m < 1:
            raise DimensionMismatch("an m-vector field needs at least one component")
        self.space = self.fields[0][0].space
        if any(f.space != self.space for fld in self.fields for f in fld):
            raise VarSpaceMismatch("the fields of a system live over one variable space")
        self.n = self.space.dim
        check_order(order)
        self.order = order
        self._flows = {}  # (alpha, order) -> FlowMap
        self._prefixes = {}  # order -> expanded state after each flow prefix (FlowWord)
        if check:
            self._check_commutation()
            self._check_pointwise_rank()

    def flow(self, alpha: int, order: Optional[int]) -> "FlowMap":
        """formal_flow(self, alpha, order), built once, kept by (field, order)."""
        check_order(order)  # before the lookup: True == 1 as a key
        key = (alpha, order)
        if key not in self._flows:
            self._flows[key] = formal_flow(self, alpha, order)
        return self._flows[key]

    def rank_at(self, point) -> int:
        """Exact rank of the a*m field rows at a point (at 0: any a-field word's at t = 0)."""
        return exact_rank(integer_rows([f.coefficients for fld in self.fields for f in fld],
                                       point))

    def _check_commutation(self):
        for fld in self.fields:
            if noncommuting_pair(fld) is not None:
                raise ChartMismatch("components within an m-vector field must commute")

    def _check_pointwise_rank(self):
        rng = random.Random(RANK_CHECK_SEED)
        for p in [[ZERO] * self.n] + [random_point(rng, self.n) for _ in range(RANK_CHECK_TRIALS)]:
            if self.rank_at(p) != self.a * self.m:
                raise RankAssumptionViolated(
                    f"the {self.a * self.m} component fields must be pointwise "
                    f"independent (rank deficit at ({', '.join(map(format_scalar, p))}))"
                )


class FlowMap:
    """exp(s.L) as a SeriesMap over (s, x); exact=True when the Lie series
    terminated below the truncation order.  advance and expand make it a step
    of a series.FlowWord, run at a point or expanded.  (A plain class:
    building a dataclass costs milliseconds at every import.)"""

    __slots__ = ("map", "exact")

    def __init__(self, map: SeriesMap, exact: bool):
        self.map, self.exact = map, exact

    def advance(self, values, rows, times, col, kernel=EXACT):
        """exp(times.L) at values and gradient rows over a series.Kernel (Z[i]
        or F_P); the times move columns col, col + 1, ..., or none at
        constant times (col None).  Each component's value and partials in
        (s, x) come from one gradient walk."""
        zero = kernel.zero(kernel.width(rows[0]))
        time_rows = [zero if col is None else kernel.shift(zero, col + j)
                     for j in range(len(times))]
        new = kernel.step(self.map.components, list(times) + values, time_rows + rows)
        return [v for v, _ in new], [r for _, r in new]

    def expand(self, state, times, out=None):
        """exp(times.L) of the Series `state`: the map composed with (times, state)."""
        sub = dict(zip(self.map.domain.names, [*times, *state]))
        return [c.compose(sub) for c in self.map.components]


def formal_flow(system: VFSystem, alpha: int, order: Optional[int]) -> FlowMap:
    """Truncated-exponential flow of the alpha-th m-vector field (0-based).

    With an integer order, the result is the degree-order jet in (s, x); with
    order=None the Lie series must terminate (polynomial flow) and the map is
    exact.  Satisfies exp(0.L) = id and the flow equation to the jet order.
    A system truncated at order N has flows of order 1..N only (TruncationUnsound).
    """
    check_order(order)
    if system.order is not None and (order is None or order > system.order):
        flows = "EXACT flows" if order is None else f"flows of order {order}"
        raise TruncationUnsound(f"a system truncated at order {system.order} has no {flows}; "
                                f"give a flow order of at most {system.order}")
    n, names = system.n, system.space.names
    times = tuple(f"s{j}" for j in range(1, system.m + 1))
    domain = VarSpace([("s", times)] + list(system.space.blocks))
    # D = sum_j s_j * L_j as one derivation over (s, x), from each field's
    # nonzero coefficients.  The Lie series is accumulated exactly and
    # truncated by total degree: each application of D raises the s-degree by
    # one, so order+1 terms always suffice, and a dropped monomial of degree
    # > order can never re-enter lower degrees.
    dcoeffs = [Series.zero(domain)] * domain.dim
    for t, X in zip(times, system.fields[alpha]):
        s = Series.variable(domain, t)
        for a, c in X.support:
            idx = domain.index_of(names[a])
            dcoeffs[idx] = dcoeffs[idx] + s * c.lift(domain)
    D = TangentVectorField(domain, tuple(dcoeffs))

    def drop_high(f: Series):
        if order is None:
            return f, False
        kept = {e: p for e, p in f.pairs.items() if sum(e) <= order}
        return Series._reduced(domain, f.den, kept, None), len(kept) != len(f.pairs)

    cap = order if order is not None else 200
    comps = []
    exact = True
    for a in range(n):
        term = Series.variable(domain, names[a])
        total = term
        k = 0
        terminated = False
        dropped_any = False
        while k < cap:
            k += 1
            term, dropped = drop_high(D.apply(term) * GaussianRational.from_zi(1, 0, k))
            dropped_any = dropped_any or dropped
            if term.is_zero():
                terminated = True
                break
            total = total + term
        if order is None and not terminated:
            raise SegreError(
                "Lie series does not terminate for this field; "
                "pass a finite truncation order"
            )
        exact = exact and terminated and not dropped_any
        comps.append(total.truncate(order))
    return FlowMap(SeriesMap(comps, system.space), exact)


def _time_space(system: VFSystem, k: int) -> VarSpace:
    blocks = [
        (f"t{i}", tuple(f"t{i}_{j}" for j in range(1, system.m + 1)))
        for i in range(1, k + 1)
    ]
    return VarSpace(blocks)


def flow_word(system: VFSystem, word: Sequence[int], order: Optional[int] = None) -> FlowWord:
    """The concatenated flow of `word` as a series.FlowWord over the t-blocks:
    the origin carried through the flows exp(t_i.L_word[i-1]) of the given
    order (system.flow), expanded prefixes kept on the system per order."""
    n = system.n
    return FlowWord([system.flow(alpha, order) for alpha in word],
                    lambda k: _time_space(system, k),
                    lambda space: [Series.zero(space, order)] * n,
                    lambda params: [ZERO] * n, order, system.space,
                    states=system._prefixes.setdefault(order, {}))


def concatenated_flow(system: VFSystem, word: Sequence[int],
                      order: Optional[int] = None) -> Tuple[SeriesMap, bool]:
    """The map t_(k) -> flow_{word[k-1]}(t_k, ... flow_{word[0]}(t_1, 0) ...).

    Returns (map over the t-blocks, all_flows_exact): the expanded flow_word,
    which reuses the expanded state of its longest prefix kept on the system.
    """
    fw = flow_word(system, word, order)
    return fw.expand(), all(f.exact for f in fw.flows)


@dataclass(frozen=True)
class OrbitResult:
    word: tuple  # selected field indices (0-based), length mu0
    e: tuple
    kappa0: int
    mu0: int
    multitype: tuple
    orbit_dim: int
    ranks: tuple  # generic ranks along the greedy construction
    flows_exact: bool
    witness: Optional[dict]


def greedy_multitype(
    system: VFSystem,
    kmax: Optional[int] = None,
    order: Optional[int] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    start_order: Optional[Sequence[int]] = None,
    witness: bool = True,
) -> OrbitResult:
    """Greedy rank-increment construction of a minimality multitype at 0.

    Ties among rank-maximizing candidate fields break to the lowest index;
    kmax bounds the word length (default a + n - a*m + 1); `order` is the
    flow jet order (None = require terminating Lie series; at most
    system.order, see formal_flow).  The starting word's Jacobian at zero
    times is the a*m field rows at 0 (VFSystem.rank_at).  Every word is
    ranked by one ranks.GrowingRun, a jet word of k flows at seed + k.  The
    witness needs flows at nonzero constant times, which truncated flows
    cannot give soundly, so with a finite order it is None.  The last field
    is never a candidate: its flows form a group (Sussmann 1973), so
    word + [word[-1]] is word after the linear surjection
    t_k -> t_k + t_{k+1}, of equal rank; jets too, as no flow from 0 has a
    constant term and a linear substitution commutes with truncation.  The
    loop ends at rank n, the most in C^n.
    """
    a, m, n = system.a, system.m, system.n
    kmax = a + (n - a * m) + 1 if kmax is None else kmax
    word = list(start_order) if start_order is not None else list(range(a))
    if sorted(word) != list(range(a)):
        raise DimensionMismatch("start_order must be a permutation of the fields")
    if kmax < a:
        raise DimensionMismatch(f"kmax must be >= a = {a}, the starting word's length")
    base = flow_word(system, word, order)
    if system.rank_at([ZERO] * n) != a * m:
        raise RankAssumptionViolated("concatenated initial flows are rank-deficient at 0")
    run = GrowingRun(trials, seed)
    rank = run.rank(base).rank
    ranks = [rank]
    e: List[int] = []
    while len(word) < kmax and rank < n:
        best_alpha, best_rank = None, rank
        for alpha in range(a):
            if alpha == word[-1]:  # the flow group law: it adds no rank
                continue
            r = run.rank(flow_word(system, word + [alpha], order)).rank
            if r > best_rank:
                best_alpha, best_rank = alpha, r
        if best_alpha is None:
            break
        e.append(best_rank - rank)
        rank = best_rank
        ranks.append(rank)
        word.append(best_alpha)
    result = OrbitResult(
        word=tuple(word), e=tuple(e), kappa0=len(e), mu0=a + len(e),
        multitype=(m,) * a + tuple(e), orbit_dim=a * m + sum(e), ranks=tuple(ranks),
        flows_exact=all(f.exact for f in base.flows), witness=None,
    )
    if witness and order is None:
        try:
            record = _orbit_witness(system, result, seed)
        except WitnessNotFound:
            record = None
        result = replace(result, witness=record)
    return result


def _orbit_witness(system, result, seed):
    """Witness per the greedy construction (ranks.return_witness): a point
    t* = (t_1*, .., t_{mu0-1}*, 0) of maximal rank whose reversed, negated
    flows return the endpoint to 0.  EXACT flows only."""
    word = flow_word(system, result.word)
    t_star, rank, returns = return_witness(word, result.orbit_dim, seed)
    return {
        "t_star": t_star,
        "rank_at_t_star": rank,
        "returns_to_origin": returns,
        "exact_flows": all(f.exact for f in word.flows),
    }


def orbit_dimension(system: VFSystem, kmax: Optional[int] = None,
                    order: Optional[int] = None, trials: int = DEFAULT_TRIALS,
                    seed: int = 0) -> int:
    return greedy_multitype(
        system, kmax, order, trials, seed, witness=False
    ).orbit_dim


def lie_span_dimension(system: VFSystem, max_length: Optional[int] = None) -> int:
    """Independent oracle: dimension at 0 of the Lie algebra generated by the
    a*m component fields, via left-normed brackets up to max_length: the
    last dimension of ranks.span_dims at the origin.

    The default bound n + 2 is raised to (max coefficient degree + 1) when the
    coefficients have higher degree, which covers bracket jumps that appear
    only at the weighted order of the coefficients (e.g. the quadrics
    z = conj(z) + i (w conj(w))^k need length 2k); pass max_length explicitly
    to push further (1: the fields' span, no bracket; below 1 is refused).
    """
    singles = [f for fld in system.fields for f in fld]
    if max_length is None:
        degmax = max((c.total_degree() for f in singles for c in f.coefficients), default=0)
        max_length = max(system.n + 2, degmax + 1)
    elif max_length < 1:
        raise SegreError("max_length must be >= 1")
    levels = ([f.coefficients for f in level] for level in bracket_levels(singles, max_length))
    *_, dim = span_dims(levels, [ZERO] * system.n)
    return dim


def cr_pair_system(M: CRManifold) -> VFSystem:
    """The complexified CR pair {L, Lbar} as a VFSystem over the intrinsic
    chart (w, zeta, xi): the chart pair of manifold.tangent_fields as it is.
    Its greedy multitype reproduces the chain profile.  Unchecked:
    tangent_fields checks each m-tuple commutes (see there)."""
    return VFSystem(tangent_fields(M), order=M.order, check=False)
