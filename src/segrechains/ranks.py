"""Exact rank of matrices over Q(i) and generic rank of series maps.

The matrix type here is the integer row (den, re, im) of series.reduced_row:
integer_rows builds it from a matrix of Series at a point, jacobian_rows
from a SeriesMap's Jacobian and series.FlowWord.run from a word of flows,
both through the pointwise gradient (Series.gradient_over).  Ranks
and pivots ignore den, a row scaling; the public exact_rank and
pivot_positions also take GaussianRational matrices.

A generic rank is sampled: the highest rank of the Jacobian over
pseudo-random Gaussian-rational points (exact at the first, a proven lower
bound mod P at a later one with residue rows), a certified lower bound that
equals the generic rank outside a measure-zero set of sample failures.  There is
one trials loop (sample_rank, which stops at full rank), one rank
(exact_rank) and one exact eliminator (pivot_positions, Bareiss over Z[i]).
sample_rank draws seeded points for generic_rank and for span_dims (lie's
bracket ladder and Levi type, the orbit oracle).  GrowingRun.rank is the one
rank of a series.FlowWord sampled (rank profiles, psi ranks, greedy
orbits): an EXACT word feeds sample_rank the indices of the run's trials,
each extending one FlowWord.run a flow at a time; a jet word of k flows is
expanded and ranked by generic_rank in its k time blocks at seed + k.  An
EXACT word is ranked only by runs: sampled by a GrowingRun, at one point by
word_rank (the witness tries); a SeriesMap only sampled.

exact_rank first eliminates modulo the prime P under re + i*im ->
re + ROOT*im, a ring homomorphism Z[i] -> F_P that maps minors to minors,
so a full rank mod P proves the exact rank; any other matrix is eliminated
exactly, and no probability enters a rank.  Word runs go over F_P first
(series.RESIDUES), their residue rows the image of their integer rows: a
run with no image in F_P (a denominator divisible by P) is rerun exactly at
the same point, and so is a word_rank, a return run or a sample's first
point below full rank mod P, straight to Bareiss (_point_rank); a GrowingRun
builds no exact run for a later trial that has an image in F_P.
return_witness, the witness of chains and orbits, ranks its search's tries
by word_rank and keeps their runs; the return flows then continue the
accepted try in the kernel that proved its rank, and _point_rank ranks the
rows `out` reached.  Over F_P that rank and the return to the start values
are read modulo P; the return reruns exactly only where F_P proves no rank.

A SeriesMap (a jet chain, a psi map, a jet orbit flow) is never
differentiated to be ranked: jacobian_rows reads every partial at a point
from one gradient walk per component (forward evaluation, as in Griewank
and Walther, Evaluating Derivatives, 2008).  Certification: in EXACT mode
evaluation is a ring homomorphism, so a minor that is nonzero at the sample
point is a nonzero polynomial; only a jet's witnessed r x r minor is
differentiated and its determinant expanded symbolically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DimensionMismatch, WitnessNotFound
from .scalars import GaussianRational, ZERO
from .series import (
    EXACT, P, RESIDUES, ROOT, Kernel, NoImage, PointTable, Series, SeriesMap,
    check_point, reduced_row,
)

# Sampling box: numerators in [-99, 99], denominators in [1, 9] for both the
# real and imaginary parts.  Keeps bignum growth bounded while making an
# accidental rank drop vanishingly unlikely.
NUM_BOUND = 99
DEN_BOUND = 9
DEFAULT_TRIALS = 5
CERTIFY_MAX_SIZE = 6
WITNESS_RETRIES = 20


def _integer_row(values) -> tuple:
    """The integer row of Z[i] scalars (re, im, den): over the lcm of their
    denominators, reduced by one gcd (reduced_row)."""
    den = math.lcm(*(d for _, _, d in values))
    return reduced_row(den, [a * (den // d) for a, _, d in values],
                       [b * (den // d) for _, b, d in values])


def integer_rows(matrix, point) -> list:
    """The integer rows of a matrix of Series at a point of their space's
    dimension, every entry through Series.value_over with one PointTable."""
    for dim in {s.space.dim for row in matrix for s in row}:
        check_point(dim, point)
    table = PointTable([x.zi for x in point])
    return [_integer_row([s.value_over(table) for s in row]) for row in matrix]


def jacobian_rows(f: SeriesMap, wrt=None):
    """point -> the integer rows of the Jacobian of the SeriesMap f in the
    `wrt` columns (blocks or names, all domain variables by default) at the
    point, no partial derivative built: one Series.gradient_over walk over
    each component's terms against one PointTable of the point, its plan not
    kept (a jet's components are ranked at a few points, then dropped), and
    reduced_row reduces the row.  DimensionMismatch for a point of the
    wrong length."""
    domain = f.domain
    cols = [domain.index_of(name) for name in f._resolve_names(wrt)]

    def rows_at(point):
        check_point(domain.dim, point)
        table = PointTable([x.zi for x in point])
        rows = []
        for s in f.components:
            _, (den, re, im) = s.gradient_over(table, keep=False)
            rows.append(reduced_row(den, [re[j] for j in cols], [im[j] for j in cols]))
        return rows

    return rows_at


def _integer_matrix(matrix) -> list:
    """A matrix of integer rows as it is, with every row of GaussianRationals
    (or of no entries) converted: the public entries' one conversion."""
    return [_integer_row([x.zi for x in row])
            if not row or isinstance(row[0], GaussianRational) else row
            for row in matrix]


def _full_rank(rows) -> int:
    """min(rows, cols) of integer rows."""
    return min(len(rows), len(rows[0][1])) if rows else 0


def _residue_rows(rows) -> list:
    """The image in F_P of integer rows, each up to its den (a row scaling)."""
    return [[(a + ROOT * b) % P for a, b in zip(re, im)] for _, re, im in rows]


def _rank_mod_p(m) -> int:
    """The rank of a matrix of residues over F_P (see the module docstring),
    the matrix left as it is."""
    m, rank = list(m), 0
    while m and m[0]:
        pivot = next((r for r, row in enumerate(m) if row[0]), None)
        if pivot is None:
            m = [row[1:] for row in m]
            continue
        head, *tail = m.pop(pivot)
        rest = []
        for row in m:  # row -> head * row - f * pivot row, head a unit mod P
            f = row[0]
            rest.append([(head * x - f * y) % P for x, y in zip(row[1:], tail)] if f else row[1:])
        m = rest
        rank += 1
    return rank


def pivot_positions(matrix) -> List[Tuple[int, int]]:
    """(row, col) pivot positions of a rank-revealing elimination over Q(i)
    of integer rows or of a GaussianRational matrix.

    The pivot of a column is its first nonzero entry below the pivot rows.
    Elimination is fraction-free (Bareiss 1968) over the Gaussian integers,
    on the rows' numerators: each step replaces an entry a of a later row by
    (p*a - f*b) / q, with p the new pivot, f the row's entry in the pivot
    column, b the pivot row's entry and q the previous pivot.  The division
    is exact in Z[i], and every entry is a nonzero multiple of the entry
    Gaussian elimination over Q(i) would hold there, so the pivots are those
    of Gaussian elimination.
    """
    rows = [list(zip(re, im)) for _, re, im in _integer_matrix(matrix)]
    if not rows or not rows[0]:
        return []
    nrows, ncols = len(rows), len(rows[0])
    order = list(range(nrows))
    pivots = []
    qr, qi, qn = 1, 0, 1  # previous pivot and its norm
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col] != (0, 0):
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        order[rank], order[pivot] = order[pivot], order[rank]
        pivots.append((order[rank], col))
        prow = rows[rank]
        pr, pi = prow[col]
        for r in range(rank + 1, nrows):
            row = rows[r]
            fr, fi = row[col]
            for c in range(col + 1, ncols):
                ar, ai = row[c]
                br, bi = prow[c]
                xr = pr * ar - pi * ai - fr * br + fi * bi
                xi = pr * ai + pi * ar - fr * bi - fi * br
                if qi:
                    row[c] = ((xr * qr + xi * qi) // qn, (xi * qr - xr * qi) // qn)
                else:
                    row[c] = (xr // qr, xi // qr)
        qr, qi, qn = pr, pi, pr * pr + pi * pi
        rank += 1
        col += 1
    return pivots


def exact_rank(matrix) -> int:
    """Rank over Q(i) of integer rows or of a GaussianRational matrix, the
    one rank of the package: the rank modulo P when it is full, which proves
    it (see the module docstring), else the number of exact pivots."""
    rows = _integer_matrix(matrix)
    rank = _rank_mod_p(_residue_rows(rows))
    return rank if rank == _full_rank(rows) else len(pivot_positions(rows))


def random_scalar(rng: random.Random, num_bound: int = NUM_BOUND) -> GaussianRational:
    """a/b + i*c/d from four draws in the order a, b, c, d: numerators in
    [-num_bound, num_bound], denominators in [1, DEN_BOUND]."""
    a, b = rng.randint(-num_bound, num_bound), rng.randint(1, DEN_BOUND)
    c, d = rng.randint(-num_bound, num_bound), rng.randint(1, DEN_BOUND)
    return GaussianRational.from_zi(a * d, c * b, b * d)


def random_point(
    rng: random.Random, dim: int, num_bound: int = NUM_BOUND
) -> List[GaussianRational]:
    return [random_scalar(rng, num_bound) for _ in range(dim)]


def _point_rank(matrix_at, residues_at, point, exact: bool = True):
    """(rank, full rank, matrix) at one point: the residue rows of
    residues_at(point) when they exist and their rank mod P is full, which
    proves the exact rank, or is a proven lower bound and `exact` is False;
    else the integer rows of matrix_at(point), by exact Bareiss when the
    residue rank was not full (they have that rank mod P), else by
    exact_rank.  residues_at None, or a NoImage, means no residue rows."""
    if residues_at is not None:
        try:
            rows = residues_at(point)
        except NoImage:
            pass
        else:
            rank, full = _rank_mod_p(rows), (min(len(rows), len(rows[0])) if rows else 0)
            if rank == full or not exact:
                return rank, full, rows
            matrix = matrix_at(point)
            return len(pivot_positions(matrix)), full, matrix
    matrix = matrix_at(point)
    return exact_rank(matrix), _full_rank(matrix), matrix


def sample_rank(matrix_at, dim: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                residues_at=None, points=None):
    """(rank, point, matrix): the highest rank of the integer rows
    matrix_at(point) over up to `trials` points, by default seeded points of
    `dim` coordinates, else those `points` gives (drawn as they are needed),
    with the first point reaching it and its matrix, or its residue rows
    residues_at(point) (optional) (_point_rank): exact at the first point, a
    later one's rank mod P where it has residue rows, a proven lower bound.
    The loop stops early at full rank, which no later point can exceed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if points is None:
        rng = random.Random(seed)
        points = (random_point(rng, dim) for _ in range(trials))
    best = (0, None, None)
    for i, point in enumerate(points):
        r, full, matrix = _point_rank(matrix_at, residues_at, point, i == 0)
        if r > best[0] or best[1] is None:
            best = (r, point, matrix)
        if best[0] == full:
            break
    return best


def span_dims(levels, point, trials: int = DEFAULT_TRIALS, seed: int = 0):
    """Yield the span dimension of the rows of Series read so far after each
    of `levels`, exact at a numeric point, sampled (sample_rank) at points of
    the rows' space when point is None; stop after reaching the row width
    (a full span) or after an empty level.  The first level must not be
    empty.  The integer rows at each point are kept by its coordinates and
    extended by the rows new there, each row evaluated once per point:
    sample_rank draws the same points at every level."""
    rows, done = [], {}

    def matrix_at(p):
        have = done.setdefault(tuple(x.zi for x in p), [])
        have.extend(integer_rows(rows[len(have):], p))
        return have

    for level in levels:
        rows.extend(level)
        span = (exact_rank(matrix_at(point)) if point is not None
                else sample_rank(matrix_at, rows[0][0].space.dim, trials, seed)[0])
        yield span
        if span == len(rows[0]) or not level:
            return


def symbolic_determinant(matrix: List[List[Series]]) -> Series:
    """Laplace expansion of a square matrix of Series (sizes <= 6 in practice)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return matrix[0][0]
    total = Series.zero(matrix[0][0].space, matrix[0][0].order)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        term = entry * symbolic_determinant(
            [[matrix[r][c] for c in range(n) if c != j] for r in range(1, n)])
        total = total + term if j % 2 == 0 else total - term
    return total


@dataclass(frozen=True)
class RankResult:
    rank: int
    witness: Optional[list]
    certified: bool


def generic_rank(
    f: SeriesMap,
    wrt=None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    certify: bool = False,
) -> RankResult:
    """Generic rank of the SeriesMap f with respect to the given variables (blocks or names).

    Deterministic in (seed, trials); monotone nondecreasing in
    trials; the evaluation points range over all domain variables, while only
    the `wrt` columns are differentiated.  With certify=True and an attained
    rank of at most CERTIFY_MAX_SIZE the result is flagged certified when the
    witnessed minor is a nonzero series: in EXACT mode that follows from the
    nonzero minor at the witness point; in jet mode only the pivot rows and
    columns of the minor are differentiated (components[r].diff), and its
    determinant is expanded symbolically.  No other partial is built: the
    sample points read the Jacobian of a SeriesMap through jacobian_rows.
    """
    best_rank, best_point, best_matrix = sample_rank(jacobian_rows(f, wrt), f.domain.dim,
                                                     trials, seed)
    certified = False
    if certify and 0 < best_rank <= CERTIFY_MAX_SIZE:
        if f.order is None:
            # evaluation is a ring homomorphism: a minor that is nonzero at
            # the witness point is a nonzero polynomial
            certified = True
        else:
            pivots = pivot_positions(best_matrix)
            rows = [p[0] for p in pivots]
            cols = [p[1] for p in pivots]
            names = f._resolve_names(wrt)
            minor = [[f.components[r].diff(names[c]) for c in cols] for r in rows]
            certified = not symbolic_determinant(minor).is_zero()
    return RankResult(best_rank, best_point, certified)


def word_rank(word, params, blocks, states=None) -> int:
    """Exact rank of the Jacobian in all time blocks of the rows `out` of an
    EXACT series.FlowWord, run at the start's `params` and `blocks`, one
    block of m times per flow (DimensionMismatch otherwise): over F_P first,
    rerun exactly where that proves no rank (_point_rank).  `states`, if
    given ({EXACT: {}, RESIDUES: {}}), keeps each kernel's run there
    (FlowWord.run); an EXACT run was made only if its dict is filled."""
    k, m = len(word.flows), len(word.space_of(1).blocks[0][1])
    if len(blocks) != k or any(len(blk) != m for blk in blocks):
        raise DimensionMismatch(f"a word of {k} flows runs at {k} blocks of {m} times")
    states = {EXACT: {}, RESIDUES: {}} if states is None else states
    return _point_rank(lambda _: word.run(params, blocks, EXACT, states[EXACT])[1],
                       lambda _: word.run(params, blocks, RESIDUES, states[RESIDUES])[1], None)[0]


class GrowingRun:
    """The sampler of the words of flows (series.FlowWord) from one start,
    EXACT or jet: chain ranks (profiles, psi) and greedy orbits.  An EXACT
    word runs over up to `trials` lazy runs of flows: trial t draws from
    Random(seed + t) the start's parameters once, then a time block per
    flow as it grows, so its point after k flows (k blocks, then the
    parameters) extends to its point after k + 1.  Each trial keeps one
    FlowWord.run state per kernel, over F_P, and exactly, built lazily at
    the same point, only where _point_rank reads exact rows: the first
    trial's below full rank mod P, any trial's whose F_P run had no image
    (not run over F_P again).  A word of k flows extends the longest prefix
    kept, and only prefixes of at least k - 1 flows stay.  A flow at fixed
    times is a biholomorphism, so no rank drops along one trial.  The
    time-block width and the parameter count are read from the first EXACT
    word ranked; the words of one run share them and their start."""

    def __init__(self, trials: int = DEFAULT_TRIALS, seed: int = 0):
        self.trials, self.seed = trials, seed
        self.m = self.nparams = None
        self.runs = []  # per trial: [its Random, params, time blocks, {kernel: states or None}]

    def rank(self, word, certify: bool = False) -> RankResult:
        """The rank of a FlowWord's components `out` in the time columns of
        its k flows.  A jet word is expanded and ranked by generic_rank in
        its first k blocks at seed + k.  An EXACT word is sampled by
        sample_rank over the trials (their indices its points), certified as
        generic_rank certifies an EXACT rank."""
        k = len(word.flows)
        if word.order is not None:
            f = word.expand()
            return generic_rank(f, [b for b, _ in f.domain.blocks[:k]], self.trials,
                                self.seed + k, certify)
        if self.m is None:
            space = word.space_of(1)
            self.m = len(space.blocks[0][1])
            self.nparams = space.dim - self.m

        def rows_at(kernel):
            def at(t):
                if t == len(self.runs):
                    rng = random.Random(self.seed + t)
                    self.runs.append([rng, random_point(rng, self.nparams), [], {}])
                rng, params, blocks, kept = self.runs[t]
                while len(blocks) < k:
                    blocks.append(random_point(rng, self.m))
                states = kept.get(kernel, {})
                if states is None:
                    raise NoImage("this trial's run had no image in F_P")
                kept[kernel] = None  # kept only if the run ends
                rows = word.run(params, blocks, kernel, states)[1]
                kept[kernel] = {f: s for f, s in states.items() if len(f) >= k - 1}
                return rows
            return at

        rank, t, _ = sample_rank(rows_at(EXACT), None, self.trials, self.seed, rows_at(RESIDUES),
                                 range(self.trials))
        _, params, blocks, _ = self.runs[t]
        point = [c for blk in blocks[:k] for c in blk] + params
        return RankResult(rank, point, certify and 0 < rank <= CERTIFY_MAX_SIZE)


def _returned(word, blocks, kernel: Kernel, states: dict):
    """(values of the whole state, rows of the components `out`) after the
    word at `blocks` over the kernel, resumed from the longest prefix
    `states` keeps (FlowWord.run), then on through flows mu - 1, ..., 1 at
    the constant times -blocks[mu-2], ..., -blocks[0], which add no column.
    The return ends at the start, where `out` (a chain's chart) and the
    whole state are both graph coordinates of M^C: the rows `out`, fewer,
    have the rank of the whole state's."""
    word.run((), blocks, kernel, states)
    values, rows = states[word.flows]
    for flow, blk in zip(word.flows[-2::-1], reversed(blocks[:-1])):
        values, rows = flow.advance(values, rows, [kernel.scalar(-c) for c in blk], None, kernel)
    return values, rows if word.out is None else [rows[a] for a in word.out]


def return_witness(word, target: int, seed: int):
    """(t*, rank, returns): the return witness of an EXACT series.FlowWord of
    mu flows, the one witness of chains and orbits.  t* = (t_1*, ...,
    t_{mu-1}*, 0), mu blocks of scalars, is a seeded point at which the
    Jacobian of the word's `out` (a chain's chart) has rank `target`, each
    try ranked by word_rank with its runs kept: WITNESS_RETRIES tries in the
    sampling box, then as many in a box ten times wider; WitnessNotFound if
    none reaches the target.  The accepted try's whole state then goes on
    through flows mu - 1, ..., 1 at the negated times in the kernel that
    proved its rank (_returned): mu - 1 F_P steps, or mu - 1 exact ones
    where the try was run exactly.  _point_rank ranks the rows `out` reached,
    the rows the search ranked, and reruns exactly from the start (2 mu - 1
    steps) an F_P return run with no image in F_P or below full rank mod P.
    rank is the exact rank of the rows reached, the word's rank at t*
    (fixed-time flows are biholomorphisms); returns says whether the values
    are the word's start values in the kernel that ranked them, over F_P a
    congruence mod P that the return identity of EXACT flows makes true as
    well."""
    mu, m = len(word.flows), len(word.space_of(1).blocks[0][1])
    rng = random.Random(seed)
    for attempt in range(2 * WITNESS_RETRIES):
        bound = NUM_BOUND if attempt < WITNESS_RETRIES else NUM_BOUND * 10
        found = [random_point(rng, m, bound) for _ in range(mu - 1)] + [[ZERO] * m]
        states = {EXACT: {}, RESIDUES: {}}
        if word_rank(word, (), found, states) == target:
            break
    else:
        raise WitnessNotFound(
            f"no rank-{target} point of the required shape after {2 * WITNESS_RETRIES} tries"
        )
    returns = {}

    def rows_at(kernel):
        def at(_):
            values, rows = _returned(word, found, kernel, states[kernel])
            returns[kernel] = values == [kernel.scalar(x) for x in word.values(())]
            return rows
        return at

    rank = _point_rank(rows_at(EXACT), None if states[EXACT] else rows_at(RESIDUES), None)[0]
    # exact rows, where they were built, are the ones _point_rank ranked
    return tuple(map(tuple, found)), rank, returns.get(EXACT, returns.get(RESIDUES))
