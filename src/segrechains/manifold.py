"""CR-generic manifolds in graph form and their complexified geometry.

A manifold of CR dimension m and codimension d is stored through the d-tuple
theta_bar over the ambient complexified coordinates (w, z, zeta, xi): the
graph equations are z_j = qbar_j := xi_j + i*theta_bar_j(w, zeta, xi), or
equivalently xi_j = q_j := z_j - i*theta_j(zeta, w, z) with theta the
sigma-conjugate of theta_bar.  Construction validates the reality identity

    theta(zeta, w, qbar(w, zeta, xi)) == theta_bar(w, zeta, xi)

term by term (exactly in polynomial mode, modulo the truncation order
otherwise); failure raises RealityViolation with the first bad monomial.

The coordinates of M^C live here: chart(M, name) gives a chart of CHARTS
(ambient indices, space), kept on M, and z_subst replaces the z block
(graph_subst: by qbar).  cr_pair_rows gives the ambient rows of the
complexified CR pair (L, Lbar), one builder labels them and checks each
m-tuple commutes for vector_fields (certified tangent) and tangent_fields
(the intrinsic chart (w, zeta, xi), kept on M), and cr_flows gives its
closed-form flows (CRFlow), stepping values and gradient rows at a point
(advance, one gradient walk of qbar or q per recomputed component) or
Series (expand).
A Segre variety (segre_leaf) and a symbolic basepoint are one flow of a
fixed point; the Segre chains of the chains module are words of flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    OffManifold,
    RealityViolation,
    SegreError,
    SingularInput,
    TruncationUnsound,
    UnknownVariable,
)
from .exprs import format_series, parse_series
from .scalars import GaussianRational, I, ZERO
from .series import (
    EXACT, PointTable, Series, SeriesMap, TangentVectorField, VarSpace, grlex_key,
    noncommuting_pair,
)


def ambient_space(m: int, d: int) -> VarSpace:
    """(w, z, zeta, xi) with the sigma-pairing w<->zeta, z<->xi."""
    w = tuple(f"w{i}" for i in range(1, m + 1))
    z = tuple(f"z{j}" for j in range(1, d + 1))
    zeta = tuple(f"zeta{i}" for i in range(1, m + 1))
    xi = tuple(f"xi{j}" for j in range(1, d + 1))
    pairs = list(zip(w, zeta)) + list(zip(z, xi))
    return VarSpace(
        [("w", w), ("z", z), ("zeta", zeta), ("xi", xi)], pairs
    )


# coordinate charts of the complexified manifold, by ambient blocks
CHARTS = {
    "ambient": ("w", "z", "zeta", "xi"),
    "wzzeta": ("w", "z", "zeta"),
    "wzetaxi": ("w", "zeta", "xi"),
    "t": ("w", "z"),
    "tau": ("zeta", "xi"),
}


def chart(M: CRManifold, name: str):
    """(ambient indices as a tuple, space) of a chart's blocks, built once
    per manifold and chart and kept on M in one table."""
    charts = vars(M).setdefault("_charts", {})
    if name not in charts:
        if name not in CHARTS:
            raise UnknownVariable(f"unknown chart {name!r}")
        blocks = CHARTS[name]
        charts[name] = (tuple(M.space.index_of(v) for b in blocks for v in M.space.block_vars(b)),
                        M.space.subspace(blocks))
    return charts[name]


def real_graph_space(m: int, d: int) -> VarSpace:
    """(w, wb, x) used by the real graph form 2*Im(z) = h(w, conj(w), Re(z))."""
    w = tuple(f"w{i}" for i in range(1, m + 1))
    wb = tuple(f"wb{i}" for i in range(1, m + 1))
    x = tuple(f"x{j}" for j in range(1, d + 1))
    return VarSpace([("w", w), ("wb", wb), ("x", x)], list(zip(w, wb)) + [(v, v) for v in x])


class CRManifold:
    """Validated CR-generic manifold in graph coordinates."""

    def __init__(self, m: int, d: int, theta_bar: Sequence[Series], order, space: VarSpace):
        self.m = m
        self.d = d
        self.n = m + d
        self.order = order
        self.space = space
        self.theta_bar = tuple(theta_bar)
        self.theta = tuple(t.sigma_conjugate() for t in self.theta_bar)
        xi_vars = space.block_vars("xi")
        z_vars = space.block_vars("z")
        self.qbar = tuple(
            Series.variable(space, xi_vars[j], order) + I * self.theta_bar[j]
            for j in range(d)
        )
        self.q = tuple(
            Series.variable(space, z_vars[j], order) - I * self.theta[j]
            for j in range(d)
        )
        self._graph_subst = None
        self._validate_reality()

    # -- derived data -----------------------------------------------------

    def rho(self) -> Tuple[Series, ...]:
        """Defining d-tuple of the complexification: rho_j = z_j - qbar_j."""
        z_vars = self.space.block_vars("z")
        return tuple(
            Series.variable(self.space, z_vars[j], self.order) - self.qbar[j]
            for j in range(self.d)
        )

    def z_subst(self, values) -> dict:
        """Substitution keeping every ambient variable, the z block replaced by `values`."""
        sub = {n: Series.variable(self.space, n, self.order) for n in self.space.names}
        sub.update(zip(self.space.block_vars("z"), values))
        return sub

    def graph_subst(self) -> dict:
        """Substitution restricting an ambient series to the graph z = qbar."""
        if self._graph_subst is None:
            self._graph_subst = self.z_subst(self.qbar)
        return self._graph_subst

    def restrict(self, s: Series) -> Series:
        """Restrict an ambient series to the manifold (substitute z = qbar)."""
        return s.compose(self.graph_subst())

    # -- validation ---------------------------------------------------------

    def _validate_reality(self):
        w_vars = self.space.block_vars("w")
        zeta_vars = self.space.block_vars("zeta")
        xi_vars = self.space.block_vars("xi")
        for j, tb in enumerate(self.theta_bar):
            if not tb.constant_term().is_zero():
                raise RealityViolation(
                    f"theta_bar_{j + 1} has a nonzero constant term", component=j + 1
                )
            bad = tb.used_indices() - {
                self.space.index_of(v) for v in w_vars + zeta_vars + xi_vars
            }
            if bad:
                names = [self.space.names[i] for i in sorted(bad)]
                raise RealityViolation(
                    f"theta_bar_{j + 1} uses forbidden variables {names}",
                    component=j + 1,
                )
        for j in range(self.d):
            residual = self.restrict(self.theta[j]) - self.theta_bar[j]
            if not residual.is_zero():
                exp = min(residual.pairs, key=grlex_key)
                mono = format_series(
                    Series._reduced(self.space, residual.den, {exp: residual.pairs[exp]},
                                    self.order)
                )
                raise RealityViolation(
                    f"reality identity fails for component {j + 1}: "
                    f"first offending monomial {mono}",
                    component=j + 1,
                    monomial=mono,
                )

    def __repr__(self):
        tag = "EXACT" if self.order is None else f"N={self.order}"
        return f"CRManifold(m={self.m}, d={self.d}, {tag})"


ORDER_MESSAGE = "order must be EXACT or a positive integer"


def check_order(order):
    """SegreError unless the truncation order is None (EXACT) or an int >= 1, not a bool."""
    if order is not None and (type(order) is not int or order < 1):
        raise SegreError(ORDER_MESSAGE)


def _input_series(items, space: VarSpace, order):
    """Expression strings or Series taken to `space` at the truncation order
    (check_order); a jet of a lower order than asked for, or asked for as
    EXACT, is refused (TruncationUnsound)."""
    check_order(order)
    out = [parse_series(s, space, order) if isinstance(s, str)
           else s.lift(space).truncate(order) for s in items]
    for s in out:
        if s.order != order:
            raise TruncationUnsound(
                f"a series known to order {s.order} cannot give order {order or 'EXACT'}")
    return out


def new_manifold(m: int, d: int, theta_bar, order=None) -> CRManifold:
    """Build and validate a manifold from its graph data.

    theta_bar entries may be expression strings or Series over ambient_space(m, d).
    order=None selects polynomial (EXACT) mode.
    """
    if len(theta_bar) != d:
        raise DimensionMismatch(f"expected {d} graph components, got {len(theta_bar)}")
    space = ambient_space(m, d)
    return CRManifold(m, d, _input_series(theta_bar, space, order), order, space)


# Fixed-point iterations graph_from_real allows an EXACT input before it
# refuses a transversal elimination that does not terminate.
GRAPH_MAX_ITER = 32


def graph_from_real(m: int, d: int, h, order=None) -> CRManifold:
    """Convert the real graph form 2*Im(z) = h(w, conj(w), Re(z)) to theta_bar.

    Requires h(0) = 0, dh(0) = 0 and the reality condition (swapping the w
    and wb blocks and conjugating coefficients must fix h).  The transversal
    part Re(z) is eliminated by the fixed-point iteration
    x = xi + (i/2) h(w, zeta, x); for polynomial h with transversal
    dependence that does not terminate, a finite truncation order is required.
    """
    hs = _input_series(h, real_graph_space(m, d), order)
    if len(hs) != d:
        raise DimensionMismatch(f"expected {d} components, got {len(hs)}")
    for j, s in enumerate(hs):
        if not s.constant_term().is_zero():
            raise SingularInput(f"h_{j + 1}(0) != 0")
        if any(sum(exp) == 1 for exp in s.pairs):
            raise SingularInput(f"dh_{j + 1}(0) != 0")
        if s.sigma_conjugate() != s:
            raise RealityViolation(
                f"h_{j + 1} violates the reality condition on its coefficients",
                component=j + 1,
            )
    space = ambient_space(m, d)
    w_vars = space.block_vars("w")
    zeta_vars = space.block_vars("zeta")
    xi_vars = space.block_vars("xi")
    sub = {f"w{i + 1}": Series.variable(space, w_vars[i], order) for i in range(m)}
    sub.update(
        {f"wb{i + 1}": Series.variable(space, zeta_vars[i], order) for i in range(m)}
    )
    half_i = GaussianRational(0, "1/2")
    xi = [Series.variable(space, v, order) for v in xi_vars]
    x = xi
    # h has no term below degree 2, so pass k fixes x in degree k + 2 and a
    # jet of order N converges by pass N: only EXACT input reaches the cap
    for _ in range(GRAPH_MAX_ITER if order is None else order):
        sub.update({f"x{j + 1}": x[j] for j in range(d)})
        theta_bar = [s.compose(sub) for s in hs]  # h(w, zeta, x)
        new_x = [v + half_i * t for v, t in zip(xi, theta_bar)]
        if new_x == x:  # converged: theta_bar is h at this x
            break
        x = new_x
    else:
        raise SegreError(
            "transversal elimination does not terminate for this polynomial "
            "input; rebuild with a finite truncation order"
        )
    return CRManifold(m, d, theta_bar, order, space)


# -- basepoints -------------------------------------------------------------


@dataclass(frozen=True)
class Basepoint:
    """A point of the complexified manifold: the origin, numeric, or symbolic.

    Numeric basepoints must satisfy z = qbar(w, zeta, xi) exactly, and on a
    truncated manifold only the origin is one (TruncationUnsound otherwise):
    a jet does not know its values away from 0.  A symbolic
    basepoint stands for a Zariski-generic point: fresh parameter blocks
    pw, pzeta, pxi are appended to chain domains and z is the derived series
    qbar(pw, pzeta, pxi).
    """

    kind: str  # "origin" | "numeric" | "symbolic"
    w: Optional[tuple] = None
    z: Optional[tuple] = None
    zeta: Optional[tuple] = None
    xi: Optional[tuple] = None

    @staticmethod
    def origin() -> "Basepoint":
        return Basepoint("origin")

    @staticmethod
    def numeric(M: CRManifold, w, z, zeta, xi) -> "Basepoint":
        w, z, zeta, xi = (tuple(v) for v in (w, z, zeta, xi))
        if (len(w), len(z), len(zeta), len(xi)) != (M.m, M.d, M.m, M.d):
            raise DimensionMismatch("basepoint coordinate sizes do not match (m, d)")
        if M.order is not None and not all(c.is_zero() for c in (*w, *z, *zeta, *xi)):
            raise TruncationUnsound(
                "a truncated manifold is not evaluated away from the origin: "
                "a nonzero basepoint needs EXACT"
            )
        point = list(w) + [ZERO] * M.d + list(zeta) + list(xi)
        for j in range(M.d):
            if M.qbar[j].evaluate(point) != z[j]:
                raise OffManifold(
                    f"basepoint violates z_{j + 1} = qbar_{j + 1}(w, zeta, xi)"
                )
        return Basepoint("numeric", w, z, zeta, xi)

    @staticmethod
    def symbolic() -> "Basepoint":
        return Basepoint("symbolic")

    def param_blocks(self, M: CRManifold):
        """Extra variable blocks a symbolic basepoint adds to a chain domain."""
        if self.kind != "symbolic":
            return ()
        return (
            ("pw", tuple(f"pw{i}" for i in range(1, M.m + 1))),
            ("pzeta", tuple(f"pzeta{i}" for i in range(1, M.m + 1))),
            ("pxi", tuple(f"pxi{j}" for j in range(1, M.d + 1))),
        )

    def state_values(self, M: CRManifold, params=()):
        """The 2n starting values (w, z, zeta, xi); for a symbolic basepoint
        `params` gives its pw, pzeta, pxi values and z = qbar(pw, pzeta, pxi)."""
        if self.kind == "origin":
            return [ZERO] * (2 * M.n)
        if self.kind == "numeric":
            return list(self.w) + list(self.z) + list(self.zeta) + list(self.xi)
        at = list(params[: M.m]) + [ZERO] * M.d + list(params[M.m :])
        table = PointTable([x.zi for x in at])
        return at[: M.m] + [s.evaluate(at, table) for s in M.qbar] + at[M.n :]

    def state_components(self, M: CRManifold, space: VarSpace, order):
        """The 2n starting components (w, z, zeta, xi) over a chain domain."""
        if self.kind == "origin":
            return [Series.zero(space, order) for _ in range(2 * M.n)]
        if self.kind == "numeric":
            return [Series.constant(space, v, order) for v in self.state_values(M)]
        # the L-flow of (0, 0, pzeta, pxi) by the times pw
        p = [Series.variable(space, v, order) for _, vs in self.param_blocks(M) for v in vs]
        state = [Series.zero(space, order)] * M.n + p[M.m :]
        return cr_flows(M)["L"].expand(state, p[: M.m])


# -- the CR flows -------------------------------------------------------------


class CRFlow:
    """The L or Lbar flow of M: the moved block (w or zeta) gains its times,
    then the recomputed block (z or xi) takes the values of qbar or q on the
    whole state (qbar never reads z, q never reads xi).  advance steps values
    and gradient rows over a series.Kernel (Z[i] or F_P), the times' unit
    entries in columns col, col + 1, ... (none at constant times, col None);
    expand steps Series, and leaves the recomputed block None when `out`,
    the components the caller reads, holds none of it."""

    __slots__ = ("names", "moved", "target", "fns")

    def __init__(self, space: VarSpace, moved, target, fns):
        self.names, self.moved, self.target, self.fns = space.names, moved, target, fns

    def advance(self, values, rows, times, col, kernel=EXACT):
        values, rows = list(values), list(rows)
        for i, a in enumerate(self.moved):
            values[a] = kernel.add(values[a], times[i])
            if col is not None:
                rows[a] = kernel.shift(rows[a], col + i)  # the unit time entry
        new = kernel.step(self.fns, values, rows)
        for t, (value, row) in zip(self.target, new):
            values[t], rows[t] = value, row
        return values, rows

    def expand(self, state, times, out=None):
        """The flow at the Series `times` of ambient state components."""
        state = list(state)
        for i, a in enumerate(self.moved):
            state[a] = state[a] + times[i]
        sub = dict(zip(self.names, state))
        skip = out is not None and not set(self.target).intersection(out)
        for t, f in zip(self.target, self.fns):
            state[t] = None if skip else f.compose(sub)
        return state


def cr_flows(M: CRManifold) -> dict:
    """The "L" and "Lbar" CRFlows of M, built on first use, then kept on M."""
    flows = getattr(M, "_cr_flows", None)
    if flows is None:
        m, d, n = M.m, M.d, M.n
        flows = M._cr_flows = {
            "L": CRFlow(M.space, range(m), range(m, m + d), M.qbar),
            "Lbar": CRFlow(M.space, range(m + d, 2 * m + d), range(2 * m + d, 2 * n), M.q),
        }
    return flows


# -- ambient CR vector fields ------------------------------------------------


def cr_pair_rows(M: CRManifold):
    """(L rows, Lbar rows): the ambient coefficients of the complexified CR
    pair L_i = d/dw_i + i*theta_bar_{w_i} d/dz and
    Lbar_i = d/dzeta_i - i*theta_{zeta_i} d/dxi, one Series per ambient
    variable in each row."""
    space = M.space
    zero = Series.zero(space, M.order)
    one = Series.constant(space, 1, M.order)

    def rows(moved, target, fns, c):
        out = []
        for v in space.block_vars(moved):
            row = [zero] * space.dim
            row[space.index_of(v)] = one
            for t, f in zip(space.block(target), fns):
                row[t] = c * f.diff(v)
            out.append(tuple(row))
        return tuple(out)

    return rows("w", "z", M.theta_bar, I), rows("zeta", "xi", M.theta, -I)


def _cr_pair(M: CRManifold, field) -> Tuple[tuple, tuple]:
    """The pair as two m-tuples L1..Lm and Lbar1..Lbarm, field(row, label)
    building each from its cr_pair_rows row; each m-tuple must commute."""
    pair = tuple(tuple(field(row, f"{name}{i + 1}") for i, row in enumerate(rows))
                 for name, rows in zip(("L", "Lbar"), cr_pair_rows(M)))
    for X in pair:
        bad = noncommuting_pair(X)
        if bad is not None:
            raise SegreError("internal: fields {}, {} do not commute".format(
                *(X[i].label for i in bad)))
    return pair


def vector_fields(M: CRManifold) -> Tuple[tuple, tuple]:
    """The complexified CR pair (cr_pair_rows) in the ambient chart: two
    m-tuples of TangentVectorFields, L1..Lm and Lbar1..Lbarm, certified
    symbolically: each field is tangent (it annihilates every rho_j on the
    graph z = qbar) and the fields of each tuple commute."""
    pair = _cr_pair(M, lambda row, label: TangentVectorField(M.space, row, label))
    rho = M.rho()
    for f in pair[0] + pair[1]:
        for j, r in enumerate(rho):
            if not M.restrict(f.apply(r)).is_zero():
                raise SegreError(f"internal: {f.label} is not tangent to rho_{j + 1}")
    return pair


def tangent_fields(M: CRManifold) -> Tuple[tuple, tuple]:
    """The pair in the intrinsic chart (w, zeta, xi): the rows of
    cr_pair_rows without their z coefficients, each coefficient that reads z
    restricted to the graph z = qbar, lifted to the chart.  Built and
    checked once (each m-tuple commutes; the w and zeta columns are the
    identity, so the fields are independent), kept on M."""
    pair = getattr(M, "_tangent_fields", None)
    if pair is None:
        keep, cs = chart(M, "wzetaxi")
        z_idx = set(M.space.block("z"))

        def chart_field(row, label):
            coeffs = tuple(
                (M.restrict(row[a]) if row[a].used_indices() & z_idx else row[a]).lift(cs)
                for a in keep
            )
            return TangentVectorField(cs, coeffs, label)

        pair = M._tangent_fields = _cr_pair(M, chart_field)
    return pair


# -- complexified Segre varieties --------------------------------------------


def segre_leaf(M: CRManifold, tau_p=None, t_p=None) -> SeriesMap:
    """Parametrized complexified Segre variety: the L or Lbar flow of its
    fixed point.

    With tau_p=(zeta_p, xi_p): the leaf w |-> (w, qbar(w, zeta_p, xi_p),
    zeta_p, xi_p) of the first flow foliation.  With t_p=(w_p, z_p): the
    conjugate leaf zeta |-> (w_p, z_p, zeta, q(zeta, w_p, z_p)).  Fixed-point
    coordinates may be numeric tuples or the string "symbolic".  The leaf is
    built at M's truncation order.
    """
    if (tau_p is None) == (t_p is None):
        raise DimensionMismatch("give exactly one of tau_p, t_p")
    order = M.order
    conjugate = t_p is not None
    fixed_p = t_p if conjugate else tau_p
    symbolic = fixed_p == "symbolic"
    names = ("zeta", "pw", "pz") if conjugate else ("w", "pzeta", "pxi")
    blocks = [(b, tuple(f"{b}{i}" for i in range(1, size + 1)))
              for b, size in zip(names, (M.m, M.m, M.d) if symbolic else (M.m,))]
    space = VarSpace(blocks, [(v, v) for v in blocks[0][1]])
    leaf_vars = [Series.variable(space, v, order) for v in blocks[0][1]]
    if symbolic:
        fixed = [Series.variable(space, v, order) for _, vs in blocks[1:] for v in vs]
    else:
        first, second = fixed_p
        if (len(first), len(second)) != (M.m, M.d):
            raise DimensionMismatch("fixed-point coordinate sizes do not match (m, d)")
        fixed = [Series.constant(space, v, order) for v in (*first, *second)]
    moving = [Series.zero(space, order)] * M.n
    state = fixed + moving if conjugate else moving + fixed
    comps = cr_flows(M)["Lbar" if conjugate else "L"].expand(state, leaf_vars)
    return SeriesMap(comps, M.space)
