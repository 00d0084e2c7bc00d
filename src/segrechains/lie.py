"""Lie brackets of tangent fields, bracket-generation ladders, Levi type.

All computations happen in the intrinsic chart (w, zeta, xi) of the
complexified manifold, where the pair of m-vector fields takes the form

    L_i    = d/dw_i
    Lbar_i = d/dzeta_i - i * sum_j theta_{j, zeta_i}(zeta, w, qbar) d/dxi_j.

The chart and its fields (tangent_fields, re-exported here) come from
manifold, the fields built once per manifold and kept on it, so the bracket
ladder, Levi type and orbit.cr_pair_system share one chart pair, whose
m-tuples are checked to commute there, once.  The field type, the bracket
and the deduplicated bracket ladder are series.TangentVectorField,
series.bracket and series.bracket_levels (re-exported here).  The bracket
ladder and the Levi-type flag rank their growing rows through
ranks.span_dims: exactly at a numeric basepoint, sampled by
ranks.sample_rank, the one rank loop, at a symbolic one; each row is
evaluated once per point, and no level past a full span is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import SegreError, WrongDimensions
from .invariants import segre_invariants
from .manifold import Basepoint, CRManifold, chart, tangent_fields
from .ranks import DEFAULT_TRIALS, span_dims
from .scalars import I
from .series import Series, TangentVectorField, bracket, bracket_levels


def chart_point(M: CRManifold, basepoint: Basepoint):
    """Chart coordinates (w, zeta, xi) of a numeric basepoint, or None (symbolic)."""
    if basepoint.kind == "symbolic":
        return None
    values = basepoint.state_values(M)
    return [values[a] for a in chart(M, "wzetaxi")[0]]


@dataclass(frozen=True)
class HormanderData:
    """Bracket-generation ladder: jumps (mu_k, l_k, dim_k) above dim 2m at level 1."""

    ladder: tuple  # ((mu_1, l_1, dim_1), ...)
    h: int
    minimal: bool
    level_dims: tuple  # dim of D^mu at the basepoint for mu = 1..last computed

    def multiplicities(self):
        return tuple(l for _, l, _ in self.ladder)


def hormander_numbers(
    M: CRManifold,
    basepoint: Optional[Basepoint] = None,
    max_length: Optional[int] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> HormanderData:
    """Dimension jumps of the iterated bracket spans of the CR pair.

    Brackets are enumerated as left-normed words [X, [..., Y]] with X among
    the 2m generators, which span every bracket level of the generated Lie
    algebra (series.bracket_levels: identically zero and duplicate fields
    are dropped), ranked by ranks.span_dims.  The ladder stops at the full
    dimension 2m + d, after an empty level, or at max_length (default
    2d + 2, at least 2).
    """
    basepoint = basepoint or Basepoint.origin()
    max_length = 2 * M.d + 2 if max_length is None else max_length
    if max_length < 2:
        raise SegreError("max_length must be >= 2")
    L, Lbar = tangent_fields(M)
    levels = ([f.coefficients for f in level] for level in bracket_levels(L + Lbar, max_length))
    dims = []
    for dim in span_dims(levels, chart_point(M, basepoint), trials, seed):
        if not dims and dim != 2 * M.m:  # before any bracket is built
            raise SegreError("internal: the 2m chart fields must be independent")
        dims.append(dim)
    ladder = tuple((mu, b - a, b) for mu, (a, b) in enumerate(zip(dims, dims[1:]), 2) if b > a)
    return HormanderData(
        ladder=ladder,
        h=len(ladder),
        minimal=(dims[-1] == 2 * M.m + M.d),
        level_dims=tuple(dims),
    )


def gradient_rows(M: CRManifold) -> List[List[Series]]:
    """Holomorphic gradients of rho_j in chart variables: (-i theta_bar_{j,w}, e_j)."""
    cs = chart(M, "wzetaxi")[1]
    rows = []
    for j in range(M.d):
        row = [(-I) * M.theta_bar[j].diff(wv) for wv in M.space.block_vars("w")]
        unit = [Series.constant(M.space, int(l == j), M.order) for l in range(M.d)]
        rows.append([c.lift(cs) for c in row] + [u.lift(cs) for u in unit])
    return rows


def levi_type(
    M: CRManifold,
    basepoint: Optional[Basepoint] = None,
    kmax: Optional[int] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> Optional[int]:
    """Smallest k with Span{Lbar^beta grad rho_j : |beta| <= k} = C^n at the
    basepoint; None when kmax (default m + d, at least 1) is exhausted.  A
    symbolic basepoint yields the generic Levi type.

    beta runs over multi-indices, not ordered words: the chart fields Lbar_i
    commute (tangent_fields checks this once per manifold), so
    Lbar_{i_k}...Lbar_{i_1} grad rho_j is the same row for every
    order of i_1..i_k.  Each level therefore extends a row only by the
    fields whose index is at least the last one applied, and builds every
    beta once: at most d*C(m+k-1, k) rows at level k instead of d*m^k, each
    level built only while ranks.span_dims finds the span short of C^n.  A
    row whose entries are all zero Series is dropped: it and every extension
    of it add no rank, and an empty level ends the ladder.
    """
    basepoint = basepoint or Basepoint.origin()
    kmax = M.m + M.d if kmax is None else kmax
    if kmax < 1:
        raise SegreError("kmax must be >= 1")
    _, Lbar = tangent_fields(M)

    def levels():
        level = [(0, row) for row in gradient_rows(M)]  # (last field applied, row)
        yield [row for _, row in level]
        for _ in range(kmax):
            grown = ((i, [Lbar[i].apply(c) for c in row])
                     for last, row in level for i in range(last, M.m))
            level = [(i, row) for i, row in grown if not all(c.is_zero() for c in row)]
            yield [row for _, row in level]

    dims = span_dims(levels(), chart_point(M, basepoint), trials, seed)
    return next((k for k, dim in enumerate(dims) if dim == M.n), None)


def holomorphic_nondegeneracy(
    M: CRManifold, kmax: Optional[int] = None, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> dict:
    """Generic Levi type via a symbolic basepoint; finite means nondegenerate."""
    ell = levi_type(M, Basepoint.symbolic(), kmax, trials, seed)
    return {
        "nondegenerate": ell is not None,
        "levi_type_generic": ell,
        "kmax": M.m + M.d if kmax is None else kmax,
    }


def e1_determinant(M: CRManifold):
    """For m = d = 2: the determinant of (theta_{j, w_i}) restricted to the
    second chain of the origin (z = 0); it is nonzero iff e_1(0) = 2."""
    if M.m != 2 or M.d != 2:
        raise WrongDimensions("this determinant test needs m = 2, d = 2")
    sub = M.z_subst([Series.zero(M.space, M.order)] * M.d)
    w_vars = M.space.block_vars("w")
    entries = [
        [M.theta[j].diff(w_vars[i]).compose(sub) for i in range(2)] for j in range(2)
    ]
    det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    return det, not det.is_zero()


def crosscheck_totals(
    M: CRManifold,
    basepoint: Optional[Basepoint] = None,
    kmax: Optional[int] = None,
    max_length: Optional[int] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> dict:
    """Assert sum(l) = sum(e) and that the bracket and chain minimality
    verdicts coincide at the basepoint."""
    basepoint = basepoint or Basepoint.origin()
    inv = segre_invariants(M, basepoint, kmax, trials, seed, certify=False)
    hd = hormander_numbers(M, basepoint, max_length, trials, seed)
    sum_e = sum(inv.multitype[2:])
    sum_l = sum(hd.multiplicities())
    return {
        "sum_e": sum_e,
        "sum_l": sum_l,
        "totals_agree": sum_e == sum_l,
        "minimal_chains": inv.minimal,
        "minimal_brackets": hd.minimal,
        "verdicts_agree": inv.minimal == hd.minimal,
        "ok": (sum_e == sum_l) and (inv.minimal == hd.minimal),
        "invariants": inv,
        "hormander": hd,
    }
