import contextlib
import io
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from segrechains import ranks, series
from segrechains.chains import chain_word, gamma, psi_chart, u_blocks
from segrechains.cli import main
from segrechains.errors import DimensionMismatch, TruncationUnsound
from segrechains.invariants import rank_profile, segre_invariants, witness_point
from segrechains import lie, orbit
from segrechains.lie import holomorphic_nondegeneracy, hormander_numbers, levi_type
from segrechains.manifold import Basepoint, ambient_space, new_manifold
from segrechains.orbit import (
    concatenated_flow, cr_pair_system, flow_word, greedy_multitype, lie_span_dimension,
)
from segrechains.ranks import (
    DEN_BOUND,
    NUM_BOUND,
    RankResult,
    exact_rank,
    generic_rank,
    integer_rows,
    jacobian_rows,
    pivot_positions,
    random_point,
    random_scalar,
    return_witness,
    sample_rank,
    span_dims,
    symbolic_determinant,
    word_rank,
)
from segrechains.scalars import GaussianRational as G, ZERO
from segrechains.series import EXACT, RESIDUES, NoImage, Series, SeriesMap, VarSpace

from helpers import (
    ReferenceGaussianRational, codim_family, exact_manifolds, flow_steps, gaussian_rows,
    numeric_basepoint, reference_evaluate, reference_jacobian_rows, reference_pivot_positions,
    run_at, variables_map,
)


def test_exact_rank_known_matrices():
    one, two = G(1), G(2)
    assert exact_rank([[one, ZERO], [ZERO, one]]) == 2
    assert exact_rank([[one, two], [two, G(4)]]) == 1
    assert exact_rank([[ZERO, ZERO], [ZERO, ZERO]]) == 0
    i = G(0, 1)
    # rows (1, i) and (i, -1) are proportional over Q(i)
    assert exact_rank([[one, i], [i, G(-1)]]) == 1


def test_pivot_positions_select_independent_minor():
    one = G(1)
    m = [[ZERO, one, ZERO], [ZERO, ZERO, one]]
    assert pivot_positions(m) == [(0, 1), (1, 2)]


def test_generic_rank_zero_identity_and_determinism():
    space = ambient_space(1, 1)
    zero_map = SeriesMap([Series.zero(space)] * 4, space)
    assert generic_rank(zero_map).rank == 0
    ident = variables_map(space)
    res = generic_rank(ident, trials=3, seed=5)
    assert res.rank == 4
    again = generic_rank(ident, trials=3, seed=5)
    assert res.witness == again.witness and res.rank == again.rank


def test_generic_rank_monotone_in_trials():
    space = ambient_space(2, 1)
    comps = [
        Series.monomial(space, {"w1": 1, "w2": 1}),
        Series.variable(space, "w2"),
        Series.zero(space),
        Series.zero(space),
        Series.zero(space),
        Series.zero(space),
    ]
    f = SeriesMap(comps, space)
    prev = 0
    for trials in (1, 2, 4, 8):
        r = generic_rank(f, wrt=["w1", "w2"], trials=trials, seed=0).rank
        assert r >= prev
        prev = r
    assert prev == 2


def test_certification_expands_nonzero_minor():
    space = ambient_space(1, 1)
    comps = [
        Series.variable(space, "w1"),
        Series.monomial(space, {"w1": 1, "z1": 1}),
        Series.zero(space),
        Series.zero(space),
    ]
    f = SeriesMap(comps, space)
    res = generic_rank(f, wrt=["w1", "z1"], trials=4, seed=1, certify=True)
    assert res.rank == 2 and res.certified


def test_symbolic_determinant_matches_cofactor_expansion():
    space = ambient_space(1, 1)
    w = Series.variable(space, "w1")
    z = Series.variable(space, "z1")
    one = Series.constant(space, 1)
    det = symbolic_determinant([[w, z], [one, w]])
    assert det == w * w - z


def test_rank_at_point_vs_generic():
    space = ambient_space(1, 1)
    comps = [
        Series.variable(space, "w1"),
        Series.monomial(space, {"w1": 2}),
        Series.zero(space),
        Series.zero(space),
    ]
    f = SeriesMap(comps, space)
    assert exact_rank(jacobian_rows(f, ["w1"])([ZERO] * 4)) == 1
    assert generic_rank(f, wrt=["w1"]).rank == 1


@pytest.mark.parametrize("order", [None, 3])
def test_jacobian_at_a_point_checks_the_point_dimension(order):
    space = VarSpace([("x", ("x1", "x2"))])
    x1, x2 = (Series.variable(space, n, order) for n in space.names)
    f = SeriesMap([x1 * x2], VarSpace([("y", ("y1",))]))
    for point in ([ZERO], [G(1), G(2), G(3)]):
        message = f"point dimension {len(point)} != space dim 2"
        with pytest.raises(DimensionMismatch, match=message):
            exact_rank(jacobian_rows(f, None)(point))
        with pytest.raises(DimensionMismatch, match=message):
            jacobian_rows(f, ["x"])(point)
    # a point one zero coordinate too long is refused as well
    with pytest.raises(DimensionMismatch, match="point dimension 3 != space dim 2"):
        exact_rank(jacobian_rows(f, None)([G(1), G(2), ZERO]))
    assert exact_rank(jacobian_rows(f, None)([G(1), G(2)])) == 1


EXACT_MANIFOLDS = exact_manifolds()


@pytest.mark.parametrize("path", ["chain", "orbit"])
@pytest.mark.parametrize("name,M", EXACT_MANIFOLDS, ids=[n for n, _ in EXACT_MANIFOLDS])
def test_return_witness_matches_the_expanded_return_map(name, M, path):
    """return_witness's returns and rank are those of the expanded return map
    at t* followed by -t*_{mu-1}, ..., -t*_1: Gamma_{2mu-1} for a chain, the
    concatenated flow of word + word[-2::-1] for an orbit, each evaluated
    there and its symbolic Jacobian ranked in the first mu blocks."""
    if path == "chain":
        inv = segre_invariants(M)
        mu, target = inv.mu, inv.orbit_dim_complexified
        word = chain_word(M, mu, Basepoint.origin(), "L")
        expanded, blocks = gamma(M, 2 * mu - 1).map, u_blocks(mu)
    else:
        system = cr_pair_system(M)
        res = greedy_multitype(system, witness=False)
        mu, target, flows = res.mu0, res.orbit_dim, list(res.word)
        word = flow_word(system, flows)
        expanded, _ = concatenated_flow(system, flows + flows[-2::-1])
        blocks = [f"t{i}" for i in range(1, mu + 1)]
    t_star, rank, returns = return_witness(word, target, seed=0)
    assert len(t_star) == mu and t_star[-1] == (ZERO,) * M.m
    point = [c for blk in t_star for c in blk] + [-c for blk in reversed(t_star[:-1]) for c in blk]
    values = [reference_evaluate(c, point) for c in expanded.components]
    assert values == [ZERO] * len(values)  # back at the origin
    assert returns
    assert rank == exact_rank(reference_jacobian_rows(expanded, blocks, point)) == target


def _witness_word(M, path):
    """(word, target) of the chain witness (the length-mu chain's chart word
    at the origin) or of the greedy orbit's witness (its flow word)."""
    if path == "chain":
        inv = segre_invariants(M)
        word = chain_word(M, inv.mu, Basepoint.origin(), "L")
        return word, inv.orbit_dim_complexified
    system = cr_pair_system(M)
    res = greedy_multitype(system, witness=False)
    return flow_word(system, list(res.word)), res.orbit_dim


def _steps_by_point_rank(monkeypatch, residues=True):
    """(steps, starts): the kernel of every flow step from now on
    (helpers.flow_steps), and the number made when each ranks._point_rank
    call began; with residues False every call gets no residue rows, so no
    rank is read over F_P."""
    steps, starts = flow_steps(monkeypatch), []
    point_rank = ranks._point_rank

    def started(matrix_at, residues_at, point, exact=True):
        starts.append(len(steps))
        return point_rank(matrix_at, residues_at if residues else None, point, exact)

    monkeypatch.setattr(ranks, "_point_rank", started)
    return steps, starts


@pytest.mark.parametrize("path", ["chain", "orbit"])
@pytest.mark.parametrize("name,M", EXACT_MANIFOLDS, ids=[n for n, _ in EXACT_MANIFOLDS])
def test_return_witness_continues_the_accepted_try_over_f_p(name, M, path, monkeypatch):
    """Every accepted try is full rank mod P, so after the search the return
    run goes on from that try's F_P state, and the rows `out` it reaches (a
    chain's chart, an orbit's whole state) are full rank mod P as well: mu -
    1 F_P steps and no exact one, also where the whole state has more rows
    and the time blocks more columns than the target rank (the chains of
    ex8_10, ex8_11 and product_degenerate)."""
    word, target = _witness_word(M, path)
    mu = len(word.flows)
    steps, starts = _steps_by_point_rank(monkeypatch)
    return_witness(word, target, seed=0)
    after_search = steps[starts[-1]:]  # the return is ranked by the last call
    assert after_search == [RESIDUES] * (mu - 1)


@pytest.mark.parametrize("path", ["chain", "orbit"])
@pytest.mark.parametrize("name,M", EXACT_MANIFOLDS, ids=[n for n, _ in EXACT_MANIFOLDS])
def test_return_witness_makes_2mu_minus_1_exact_flow_steps(name, M, path, monkeypatch):
    """With no rank read over F_P, every try is run and ranked exactly, and
    the return run goes on from the accepted try's exact state: the try's mu
    flows forward, then mu - 1 back at constant times, all exact."""
    word, target = _witness_word(M, path)
    mu = len(word.flows)
    steps, starts = _steps_by_point_rank(monkeypatch, residues=False)
    return_witness(word, target, seed=0)
    assert RESIDUES not in steps
    assert steps[starts[-2]:] == [EXACT] * (2 * mu - 1)
    assert len(steps) == mu * (len(starts) - 1) + mu - 1


@pytest.mark.parametrize("path", ["chain", "orbit"])
@pytest.mark.parametrize("name,M", EXACT_MANIFOLDS, ids=[n for n, _ in EXACT_MANIFOLDS])
def test_return_run_mod_p_is_the_image_of_the_exact_one(name, M, path, monkeypatch):
    """The F_P return run of return_witness, values of the whole state and
    rows of the components `out`, is the image mod P of the exact return run
    at the same t*: the word run exactly at t*, then flows mu - 1, ..., 1 at
    -t*_{mu-1}, ..., -t*_1, stepped here one flow at a time."""
    word, target = _witness_word(M, path)
    runs = []
    returned = ranks._returned

    def recorded(word_, blocks, kernel, states):
        runs.append((kernel, returned(word_, blocks, kernel, states)))
        return runs[-1][1]

    monkeypatch.setattr(ranks, "_returned", recorded)
    t_star, rank, returns = return_witness(word, target, seed=0)
    assert returns and rank == target
    assert runs[0][0] is RESIDUES
    values, rows = runs[0][1]
    states = {}
    word.run((), t_star, EXACT, states)
    exact_values, exact_rows = states[word.flows]
    for flow, blk in zip(word.flows[-2::-1], reversed(t_star[:-1])):
        exact_values, exact_rows = flow.advance(exact_values, exact_rows,
                                                [(-c).zi for c in blk], None)
    out = range(len(exact_rows)) if word.out is None else word.out
    assert values == [series.residue(*v) for v in exact_values]
    assert rows == _image_mod_p([exact_rows[a] for a in out])
    assert values == [series.residue(*x.zi) for x in word.values(())]


@pytest.mark.parametrize("order", [None, 3])
def test_integer_rows_checks_the_point_dimension(order):
    # the rows of ranks.span_dims (the bracket ladder, Levi type and
    # lie_span_dimension) and of VFSystem's rank check
    space = VarSpace([("x", ("x1", "x2"))])
    x1, x2 = (Series.variable(space, n, order) for n in space.names)
    for point in ([G(1)], [G(1), G(2), G(3)]):
        with pytest.raises(DimensionMismatch,
                           match=f"point dimension {len(point)} != space dim 2"):
            integer_rows([[x1 * x2]], point)
    assert exact_rank(integer_rows([[x1 * x2, x2]], [G(1), G(2)])) == 1


# -- the Jacobian walk against the symbolic Jacobian ------------------------

_WALK_SPACE = VarSpace([("a", ("a1", "a2")), ("b", ("b1",))])
_small = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
_large = st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(1, 2 ** 64))
_walk_coordinates = st.builds(G, *[st.one_of(st.integers(-99, 99), _small, _large)] * 2)


def _walk_component(order):
    exponents = st.tuples(*[st.integers(0, 3)] * _WALK_SPACE.dim)
    terms = st.dictionaries(exponents, st.builds(G, _small, _small), max_size=6)
    return st.one_of(
        terms.map(lambda t: Series(_WALK_SPACE, t, order)),
        st.just(Series.zero(_WALK_SPACE, order)),
        st.builds(G, _small, _small).map(lambda c: Series.constant(_WALK_SPACE, c, order)),
    )


_wrt = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_WALK_SPACE.block_names()), min_size=1, max_size=3),
    st.lists(st.sampled_from(_WALK_SPACE.names), max_size=4),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), st.one_of(st.none(), st.integers(0, 5)), _wrt)
def test_jacobian_walk_matches_the_symbolic_jacobian(data, order, wrt):
    components = data.draw(st.lists(_walk_component(order), min_size=1, max_size=3))
    f = SeriesMap(components, VarSpace([("y", tuple(f"y{i}" for i in range(len(components))))]))
    rows_at = jacobian_rows(f, wrt)
    for _ in range(2):
        point = data.draw(st.lists(_walk_coordinates, min_size=3, max_size=3))
        assert rows_at(point) == reference_jacobian_rows(f, wrt, point)
    # the walk keeps no plan: a jet's components are ranked at a few points
    assert not any(hasattr(s, "_plan") for s in components)


def test_certification_differentiates_only_the_witnessed_minor(monkeypatch):
    # a jet chain map of a quartic hypersurface: the certificate expands the
    # pivot minor, whose entries are the only partials built
    M = new_manifold(1, 1, ["w1^2*zeta1^2 + w1*zeta1"], 5)
    calls = []
    diff = Series.diff

    def counted(series, name):
        calls.append(name)
        return diff(series, name)

    for k in range(1, 5):
        chain = chain_word(M, k, Basepoint.origin(), "L").expand()
        calls.clear()
        monkeypatch.setattr(Series, "diff", counted)
        res = generic_rank(chain, wrt=u_blocks(k), seed=k, certify=True)
        monkeypatch.undo()
        assert 0 < res.rank and res.certified
        assert len(calls) <= res.rank ** 2


@pytest.mark.parametrize("certify", [False, True])
def test_a_jet_word_is_ranked_expanded_at_seed_plus_its_length(certify):
    # the one jet rule: GrowingRun.rank of a jet word of k flows is
    # generic_rank of its expansion in its first k time blocks at seed + k,
    # field by field, for chain words in their own chart and in a psi chart
    # (at the origin and at a symbolic basepoint, whose parameter blocks are
    # not differentiated) and for orbit words
    M = new_manifold(1, 2, ["w1*zeta1", "w1^2*zeta1 + w1*zeta1^2"], order=4)
    system = cr_pair_system(M)
    words = [(chain_word(M, k, bp, "L", chart), u_blocks(k))
             for bp in (Basepoint.origin(), Basepoint.symbolic())
             for k in (1, 2, 3, 4) for chart in (None, psi_chart(k, "L"))]
    words += [(flow_word(system, w, 3), [f"t{i}" for i in range(1, len(w) + 1)])
              for w in ([0, 1], [0, 1, 0], [1, 0, 1])]
    trials, seed = 3, 11
    run = ranks.GrowingRun(trials, seed)
    for word, blocks in words:
        k = len(word.flows)
        want = generic_rank(word.expand(), blocks, trials, seed + k, certify)
        assert want.rank > 0 and run.rank(word, certify) == want


def test_span_dimension():
    assert exact_rank([]) == 0
    assert exact_rank([[G(1), G(2)], [G(2), G(4)], [G(0), G(1)]]) == 2


def test_span_dims_stops_at_full_and_after_an_empty_level():
    space = VarSpace([("x", ("x1", "x2"))])
    x1, x2 = (Series.variable(space, n) for n in space.names)
    one = Series.constant(space, 1)
    pulled = []

    def levels(*rows_by_level):
        for level in rows_by_level:
            pulled.append(len(level))
            yield level

    origin = [ZERO, ZERO]
    # x2 vanishes at the origin but not at a sample point
    assert list(span_dims(levels([[one, x1]], [[x2, x1]], [[x1, one]]), origin)) == [1, 1, 2]
    assert list(span_dims(levels([[one, x1]], [[x2, x1]], [[x1, one]]), None)) == [1, 2]
    assert pulled == [1, 1, 1, 1, 1]  # no level past a full span is read
    assert list(span_dims(levels([[one, x1]], [], [[x1, one]]), origin)) == [1, 1]
    assert list(span_dims(levels(), origin)) == []


def test_span_dims_reads_its_width_and_point_dimension_from_its_rows():
    # rows of one entry over a 2-variable space: the span is full at 1, and
    # the sample points have the space's 2 coordinates
    space = VarSpace([("x", ("x1", "x2"))])
    x1, x2 = (Series.variable(space, n) for n in space.names)
    pulled = []

    def levels():
        for level in ([[x2]], [[x1]]):
            pulled.append(level)
            yield level

    assert list(span_dims(levels(), [ZERO, G(1)])) == [1]
    assert list(span_dims(levels(), None)) == [1]
    assert len(pulled) == 2  # neither run reads the second level


class _LadderCount:
    """What a span ladder run through `module`'s span_dims builds and
    evaluates: the rows of every level it reads (kept, so that no row's id is
    reused), each (row, point) pair handed to ranks.integer_rows and the
    rows handed to it whose entries are all zero Series."""

    def __init__(self, monkeypatch, module):
        self.levels, self.dims, self.pairs, self.zero_rows = [], [], [], []
        integer_rows_, span_dims_ = ranks.integer_rows, ranks.span_dims

        def counted_rows(matrix, point):
            key = tuple(x.zi for x in point)
            self.pairs.extend((id(row), key) for row in matrix)
            self.zero_rows.extend(row for row in matrix if all(s.is_zero() for s in row))
            return integer_rows_(matrix, point)

        def counted_levels(levels):
            for level in levels:
                self.levels.append(list(level))
                yield level

        def counted_dims(levels, *args):
            for dim in span_dims_(counted_levels(levels), *args):
                self.dims.append(dim)
                yield dim

        monkeypatch.setattr(ranks, "integer_rows", counted_rows)
        monkeypatch.setattr(module, "span_dims", counted_dims)

    def check(self, points):
        """Each built row evaluated exactly once at each of `points` distinct
        points, no identically zero row evaluated, and no level built past
        the last one ranked."""
        rows = sum(map(len, self.levels))
        assert len({key for _, key in self.pairs}) == points
        assert len(set(self.pairs)) == len(self.pairs) == rows * points
        assert not self.zero_rows
        assert len(self.levels) == len(self.dims)


# Inputs on which no span ever fills, so that every level is ranked and, at
# a symbolic basepoint, every trial point is drawn: a nonminimal manifold
# (theta_2 = 0) for the bracket ladder and a product by a disc (no w2) for
# Levi type, whose nonzero rows outnumber their rank
NONMINIMAL = ["w1*zeta1 + w2^2*zeta2^2", "0"]
HOLOMORPHICALLY_DEGENERATE = ["w1*zeta1 + w1^2*zeta1^2"]


@pytest.mark.parametrize("kind", ["origin", "symbolic"])
def test_span_ladders_evaluate_each_row_once_per_point(monkeypatch, kind):
    basepoint = getattr(Basepoint, kind)()
    points = 1 if kind == "origin" else ranks.DEFAULT_TRIALS
    count = _LadderCount(monkeypatch, lie)
    ladder = hormander_numbers(new_manifold(2, 2, NONMINIMAL), basepoint)
    assert ladder.level_dims == (4, 5, 5, 5, 5)
    count.check(points)
    assert [len(level) for level in count.levels] == [4, 2, 2, 1, 0]
    count = _LadderCount(monkeypatch, lie)
    assert levi_type(new_manifold(2, 1, HOLOMORPHICALLY_DEGENERATE), basepoint) is None
    count.check(points)
    # of d*C(m+k-1, k) = 1, 2, 3, 4 rows for k <= m + d, only the Lbar_1^k
    # grad rho with k <= 2 are not identically zero; the empty level ends
    # the ladder
    assert [len(level) for level in count.levels] == [1, 1, 1, 0]
    # w1*zeta1's rows vanish from k = 2 on, and its span (rank 2 of 2
    # nonzero rows) is full at the first sample point
    count = _LadderCount(monkeypatch, lie)
    assert levi_type(new_manifold(2, 1, ["w1*zeta1"]), basepoint) is None
    count.check(1)
    assert [len(level) for level in count.levels] == [1, 1, 0]
    # a span that fills stops the ladder: heisenberg's Levi type is 1
    heisenberg = new_manifold(1, 1, ["w1*zeta1"])
    count = _LadderCount(monkeypatch, lie)
    assert levi_type(heisenberg, basepoint) == 1
    count.check(1)
    assert len(count.levels) == 2


def test_lie_span_dimension_evaluates_each_row_once(monkeypatch):
    count = _LadderCount(monkeypatch, orbit)
    assert lie_span_dimension(cr_pair_system(new_manifold(2, 2, NONMINIMAL))) == 5
    count.check(1)
    count = _LadderCount(monkeypatch, orbit)
    assert lie_span_dimension(cr_pair_system(new_manifold(1, 1, ["w1*zeta1"]))) == 3
    count.check(1)
    assert len(count.levels) == 2  # level 3 is never built


def test_sampler_early_exit_matches_max_over_all_trials():
    # 0/1 matrices read off the sample point: their rank changes from point
    # to point, and a repeated row makes some of them rank-deficient
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        dim, trials, seed = nrows * ncols, rng.randint(1, 6), rng.randrange(1000)
        repeat = nrows > 1 and rng.random() < 0.5

        def matrix_at(point):  # integer rows (den, re, im), the sampler's matrix type
            rows = [(1, [point[r * ncols + c].re.numerator % 2 for c in range(ncols)],
                     [0] * ncols) for r in range(nrows)]
            return rows[:-1] + [rows[0]] if repeat else rows

        draw = random.Random(seed)
        points = [random_point(draw, dim) for _ in range(trials)]
        ranks = [exact_rank(matrix_at(p)) for p in points]
        rank, point, matrix = sample_rank(matrix_at, dim, trials, seed)
        assert rank == max(ranks)
        assert point == points[ranks.index(rank)] and matrix == matrix_at(point)


def test_random_point_matches_fraction_construction():
    """Each coordinate is a/b + i*c/d from the draws a, b, c, d in that
    order, as two Fractions would build it: every sample point, witness and
    report depends on these values."""
    for seed in range(8):
        for bound in (NUM_BOUND, 10 * NUM_BOUND):
            rng, twin = random.Random(seed), random.Random(seed)
            for dim in (1, 2, 5):
                want = [ReferenceGaussianRational(
                    Fraction(twin.randint(-bound, bound), twin.randint(1, DEN_BOUND)),
                    Fraction(twin.randint(-bound, bound), twin.randint(1, DEN_BOUND)),
                ) for _ in range(dim)]
                got = random_point(rng, dim, bound)
                assert [repr(c) for c in got] == [repr(c) for c in want]
                assert [(c.re, c.im) for c in got] == [(c.re, c.im) for c in want]
            assert rng.getstate() == twin.getstate()


def _oracle_matrix(rng):
    """A random matrix of shape 1..7 x 1..7 for the eliminator oracle: full,
    low rank (A*B), or with tiny entries; sampled in the sampling box or
    the 10x witness box; then with some entries zeroed and some rows made
    purely real."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    bound = rng.choice((NUM_BOUND, 10 * NUM_BOUND))
    kind = rng.randrange(3)
    if kind == 0:
        rows = [[random_scalar(rng, bound) for _ in range(ncols)] for _ in range(nrows)]
    elif kind == 1:
        k = rng.randint(0, min(nrows, ncols))
        a = [[random_scalar(rng, bound) for _ in range(k)] for _ in range(nrows)]
        b = [[random_scalar(rng, bound) for _ in range(ncols)] for _ in range(k)]
        rows = [[sum((a[r][j] * b[j][c] for j in range(k)), ZERO) for c in range(ncols)]
                for r in range(nrows)]
    else:
        rows = [[G(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(ncols)]
                for _ in range(nrows)]
    zero_p, real_p = rng.choice((0.0, 0.3, 0.7)), rng.choice((0.0, 0.5, 1.0))
    for r in range(nrows):
        if rng.random() < real_p:
            rows[r] = [G(x.re) for x in rows[r]]
        rows[r] = [ZERO if rng.random() < zero_p else x for x in rows[r]]
    return rows


def test_bareiss_pivots_match_gaussian_elimination_oracle():
    rng = random.Random(20260)
    shapes = set()
    for _ in range(2500):
        m = _oracle_matrix(rng)
        shapes.add((len(m), len(m[0])))
        assert pivot_positions(m) == reference_pivot_positions(m), m
    assert len(shapes) == 49


def test_bareiss_handles_denominators_up_to_den_bound():
    # rows whose lcm of denominators is as large as the box allows
    dens = range(1, DEN_BOUND + 1)
    m = [[G(Fraction(1, a), Fraction(-1, b)) for a in dens] for b in dens]
    assert pivot_positions(m) == reference_pivot_positions(m)
    vander = [[G(Fraction(k, DEN_BOUND)) ** e for e in range(7)] for k in range(1, 8)]
    assert pivot_positions(vander) == [(r, r) for r in range(7)]


# -- the rank modulo P and its exact fallback --------------------------------


def test_modulus_is_a_prime_with_a_square_root_of_minus_one():
    p, root = ranks.P, ranks.ROOT
    assert p % 4 == 1 and p < 2 ** 30
    assert all(p % d for d in range(2, math.isqrt(p) + 1))
    assert 0 < root < p and root * root % p == p - 1


@pytest.fixture
def exact_eliminations(monkeypatch):
    """The matrices exact_rank hands to the exact eliminator, in call order."""
    calls = []
    pivots = ranks.pivot_positions

    def counted(matrix):
        calls.append(matrix)
        return pivots(matrix)

    monkeypatch.setattr(ranks, "pivot_positions", counted)
    return calls


def test_rank_mod_p_is_taken_only_when_full(exact_eliminations):
    i, p = G(0, 1), ranks.P
    # full rank modulo P proves the rank: no exact elimination
    assert exact_rank([[G(1), i, G(2)], [i, G(-1), G(3)]]) == 2
    assert exact_rank([(1, [0, 5], [1, 0]), (7, [0, 0], [0, 0]), (2, [3, 0], [0, 1])]) == 2
    assert exact_eliminations == []
    # rows (1, i) and (i, -1) are proportional over Q(i) and so modulo P
    assert exact_rank([[G(1), i], [i, G(-1)]]) == 1
    assert len(exact_eliminations) == 1
    # entries divisible by P: only the exact elimination sees the full rank
    assert exact_rank([(1, [1, 1], [0, 0]), (1, [1, 1 + p], [0, 0])]) == 2
    assert exact_rank([(1, [p, 0], [p, 0]), (3, [0, 0], [0, 0])]) == 1
    assert exact_rank([[G(p, 2 * p)]]) == 1
    assert len(exact_eliminations) == 4


def test_exact_rank_matches_gaussian_elimination_oracle(exact_eliminations):
    rng = random.Random(4243)
    matrices = [_oracle_matrix(rng) for _ in range(600)]
    for m in matrices:
        assert exact_rank(m) == len(reference_pivot_positions(m)), m
    # both the proven ranks modulo P and the exact fallback were exercised
    assert 100 < len(exact_eliminations) < 500


def _integer_rows_of(matrix, scale=1):
    """A GaussianRational matrix as integer rows, each over `scale` times the
    lcm of its parts' denominators (not reduced)."""
    out = []
    for row in matrix:
        den = scale * math.lcm(*(Fraction(q).denominator for x in row for q in (x.re, x.im)))
        out.append((den, [int(x.re * den) for x in row], [int(x.im * den) for x in row]))
    return out


def test_public_entries_take_gaussian_rational_matrices():
    rng = random.Random(31)
    third = G(Fraction(1, 3), Fraction(-2, 7))
    matrices = [_oracle_matrix(rng) for _ in range(300)] + [
        [],
        [[], []],
        [[ZERO, ZERO, ZERO]],
        [[third, ZERO, G(Fraction(5, 2))], [ZERO, ZERO, ZERO], [third * 2, ZERO, G(5)]],
        [[ZERO, G(Fraction(1, 9), 1)], [ZERO, G(2, Fraction(18, 9))], [ZERO, ZERO]],
    ]
    for m in matrices:
        pivots = reference_pivot_positions(m)
        for scale in (1, 6):
            rows = _integer_rows_of(m, scale)
            assert gaussian_rows(rows) == [list(row) for row in m]
            assert exact_rank(m) == exact_rank(rows) == len(pivots), m
            assert pivot_positions(m) == pivot_positions(rows) == pivots, m


def _package_modules():
    return [mod for name, mod in sys.modules.items()
            if name == "segrechains" or name.startswith("segrechains.")]


def _recorded_ranks(monkeypatch, run):
    """run()'s answer and every sample_rank and generic_rank result it got,
    in call order, through whichever module binding it called."""
    log = []
    with monkeypatch.context() as patch:
        for name in ("sample_rank", "generic_rank"):
            original = getattr(ranks, name)

            def recorded(*args, _original=original, **kwargs):
                log.append(_original(*args, **kwargs))
                return log[-1]

            for mod in _package_modules():
                if vars(mod).get(name) is original:
                    patch.setattr(mod, name, recorded)
        answer = run()
    return answer, log


def _checkall():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["checkall", "--format", "machine", "--seed", "3"])
    return code, out.getvalue()


def _family():
    return [segre_invariants(codim_family(d)) for d in range(2, 9)]


def _orbits_levi():
    out = []
    for d in range(2, 6):
        system = cr_pair_system(codim_family(d))
        out.append((greedy_multitype(system, witness=True), lie_span_dimension(system)))
    for a, b in ((2, 2), (3, 2), (3, 3), (2, 4)):
        M = new_manifold(2, 1, [f"3*w1^{a}*zeta1^{a} + 5/2*w2^{b}*zeta2^{b}"])
        out.append((levi_type(M, kmax=12), holomorphic_nondegeneracy(M),
                    hormander_numbers(M, max_length=2 * max(a, b))))
    return out


def _chain_witnesses():
    """Chain witnesses of the EXACT corpus, at the origin and at a numeric
    basepoint: the witness search ranks its tries residue-first."""
    rng = random.Random(5)
    out = []
    for name, M in exact_manifolds():
        if not name.startswith("codim_"):
            for bp in (Basepoint.origin(), numeric_basepoint(M, rng)):
                out.append(witness_point(M, segre_invariants(M, bp), bp))
    return out


def _is_residue_matrix(matrix):
    """Residue rows are lists, where integer rows are (den, re, im) tuples."""
    return bool(matrix) and isinstance(matrix[0], list)


def _image_mod_p(rows):
    """The image in F_P of integer rows: entry (re + ROOT*im) / den mod P."""
    p, root = ranks.P, ranks.ROOT
    return [[(a + root * b) * pow(den, -1, p) % p for a, b in zip(re, im)]
            for den, re, im in rows]


@pytest.mark.parametrize("run", [_checkall, _family, _orbits_levi, _chain_witnesses],
                         ids=["corpus", "family_d2_8", "orbits_levi", "chain_witnesses"])
def test_rank_mod_p_answers_like_the_exact_path(run, monkeypatch):
    shipped = _recorded_ranks(monkeypatch, run)
    point_rank = ranks._point_rank
    with monkeypatch.context() as patch:
        # both shortcuts off: no word runs over F_P, and no rank mod P is
        # full, so every rank is exact Bareiss on the integer rows
        patch.setattr(ranks, "_point_rank", lambda matrix_at, residues_at, point, exact=True:
                      point_rank(matrix_at, None, point, exact))
        patch.setattr(ranks, "_rank_mod_p", lambda rows: -1)
        steps = flow_steps(patch)
        exact = _recorded_ranks(monkeypatch, run)
        assert RESIDUES not in steps
    answer, log = shipped
    assert len(log) > 10
    assert answer == exact[0]
    assert len(log) == len(exact[1])
    residue_runs = 0
    for got, want in zip(log, exact[1]):
        if isinstance(got, RankResult):
            assert got == want  # rank, witness, trials, seed and certified
            continue
        # (rank, point, matrix) of sample_rank: a matrix of residue rows
        # proved its rank at full rank mod P, and is the image of the exact
        # rows at that point
        (rank, point, matrix), (exact_rank_, exact_point, exact_matrix) = got, want
        assert (rank, point) == (exact_rank_, exact_point)
        if _is_residue_matrix(matrix):
            residue_runs += 1
            assert rank == min(len(matrix), len(matrix[0]))
            assert matrix == _image_mod_p(exact_matrix)
        else:
            assert matrix == exact_matrix
    assert residue_runs > 0


def test_family_needs_no_exact_fallback(exact_eliminations):
    # every chain Jacobian of the d = 2..8 family is full rank modulo P
    assert all(inv.minimal for inv in _family())
    assert exact_eliminations == []


@pytest.mark.parametrize("d,deficient", [(4, 1), (8, 5)])
def test_m2_family_ranks_each_deficient_k_exactly_once(d, deficient, exact_eliminations):
    # m = 2: increments 2, 2, 2, then 1 (below m) until the rank fills the
    # chart's d + 4 rows, so each k from 4 to d has a rank below full mod P
    # (1 at d = 4, 5 at d = 8); its first trial is ranked by one exact
    # elimination and the later trials keep their ranks mod P
    M = codim_family(d, m=2)
    inv = segre_invariants(M)
    assert inv.multitype == (2, 2, 2) + (1,) * (d - 2) and inv.minimal
    assert len(exact_eliminations) == deficient
    system = cr_pair_system(M)
    orbit = greedy_multitype(system)
    assert orbit.multitype == inv.multitype
    assert orbit.orbit_dim == lie_span_dimension(system) == d + 4


# -- words without a full rank modulo P: the exact rerun ---------------------


def _residue_runs(monkeypatch):
    """Whether the residue rows of a word or a trial had an image in F_P,
    one per residue run, in call order: every run is read by _point_rank."""
    runs = []
    point_rank = ranks._point_rank

    def recorded(matrix_at, residues_at, point, exact=True):
        if residues_at is None:
            return point_rank(matrix_at, None, point, exact)

        def residues(point):
            runs.append(False)
            rows = residues_at(point)
            runs[-1] = True
            return rows

        return point_rank(matrix_at, residues, point, exact)

    monkeypatch.setattr(ranks, "_point_rank", recorded)
    return runs


@pytest.mark.parametrize("scale", [str(ranks.P), f"1/{ranks.P}"],
                         ids=["rank_drops_mod_p", "no_image_mod_p"])
def test_words_without_a_full_rank_mod_p_rerun_exactly(scale, monkeypatch, exact_eliminations):
    # theta_2 times P vanishes in F_P, so from k = 4 the chain ranks drop
    # there; divided by P it has no image in F_P in any word that reads it
    M = new_manifold(1, 2, ["w1*zeta1", f"{scale}*w1^2*zeta1 + {scale}*w1*zeta1^2"])
    runs = _residue_runs(monkeypatch)
    inv, log = _recorded_ranks(monkeypatch, lambda: segre_invariants(M))
    assert inv.multitype == (1, 1, 1, 1) and inv.minimal
    assert inv.profile.r == (1, 2, 3, 4, 4)
    orbit = greedy_multitype(cr_pair_system(M))
    assert orbit.multitype == (1, 1, 1, 1) and orbit.orbit_dim == 4
    assert orbit.witness["rank_at_t_star"] == 4
    samples = [entry for entry in log if not isinstance(entry, RankResult)]
    matrices = [entry[2] for entry in samples]
    if scale == str(ranks.P):
        # ranks 1..3 are proven mod P, ranks 4 rerun exactly
        assert any(map(_is_residue_matrix, matrices))
        assert exact_eliminations
    else:
        # every run reads theta_2 (each chain's first L flow recomputes z
        # through it), so every residue run ends in NoImage and its trial, or
        # its one-off word, runs exactly at the same point: each chain rank
        # is that of the chain's exact Jacobian at its sample point, the
        # profile's witness (sample_rank reads a growing run's trials by index)
        assert runs and not any(runs)
        assert not any(map(_is_residue_matrix, matrices)) and len(matrices) > 1
        for k, (rank, _, matrix) in enumerate(samples[:5], 1):
            point = list(inv.profile.witnesses[k - 1])
            word = chain_word(M, k, Basepoint.origin(), "L")
            assert len(point) == k and rank == inv.profile.r[k - 1]
            assert matrix == run_at(word, point)[1]


def test_word_rank_is_the_rank_of_the_expanded_jacobian(heisenberg, quartic):
    # a chain word in its chart and an orbit word, ranked at the same blocks
    # by word_rank and by the symbolic Jacobian of their expanded maps
    blocks = [[G(1, 2)], [G(-3)], [G(2, -1)]]
    point = [c for blk in blocks for c in blk]
    for M in (heisenberg, quartic):
        chain = chain_word(M, 3, Basepoint.origin(), "L")
        expanded = gamma(M, 3, verify=False).in_chart()
        system = cr_pair_system(M)
        orbit_word = flow_word(system, [0, 1, 0])
        flow_map, _ = concatenated_flow(system, [0, 1, 0])
        for word, smap in ((chain, expanded), (orbit_word, flow_map)):
            want = exact_rank(reference_jacobian_rows(smap, smap.domain.block_names(), point))
            assert word_rank(word, (), blocks) == want == 3


def test_the_residue_run_keeps_the_word_checks(heisenberg):
    system = cr_pair_system(heisenberg)
    word = flow_word(system, [0, 1, 0])
    assert word_rank(word, (), [[G(1)], [G(2)], [G(3)]]) == 3
    # too few blocks, too many, and a block of the wrong width
    for blocks in ([[G(1)], [G(2)]], [[G(1)], [G(2)], [G(3)], [G(4)]],
                   [[G(1)], [G(2), G(5)], [G(3)]]):
        with pytest.raises(DimensionMismatch, match="3 flows runs at 3 blocks of 1 times"):
            word_rank(word, (), blocks)
    # a coordinate over P has no image in F_P: the exact run ranks the point
    far = [[G(Fraction(1, ranks.P))], [G(2)], [G(3)]]
    with pytest.raises(NoImage):
        word.run((), far, RESIDUES)
    assert word_rank(word, (), far) == exact_rank(word.run((), far)[1]) == 3
    jet = flow_word(system, [0, 1, 0], order=3)
    with pytest.raises(TruncationUnsound):
        jet.run((), [[G(1)], [G(2)], [G(3)]])
    with pytest.raises(TruncationUnsound):
        word_rank(jet, (), [[G(1)], [G(2)], [G(3)]])


def test_a_trial_without_an_image_mod_p_fails_over_f_p_once(monkeypatch):
    # every residue run of this manifold fails at its first flow (see
    # test_words_without_a_full_rank_mod_p_rerun_exactly); a growing run's
    # trial then runs exactly only, so each trial, and each one-off word,
    # makes one failing F_P step
    M = new_manifold(1, 2, ["w1*zeta1", f"1/{ranks.P}*w1^2*zeta1 + 1/{ranks.P}*w1*zeta1^2"])
    steps, failed, advance = flow_steps(monkeypatch), [], series.advance

    def counted(flow, values, rows, times, kernel=EXACT):
        try:
            return advance(flow, values, rows, times, kernel)
        except NoImage:
            failed.append(kernel)
            raise

    monkeypatch.setattr(series, "advance", counted)
    assert rank_profile(M).r == (1, 2, 3, 4, 4)
    # one trial of the L profile, one of the conjugate k = 3 check
    assert steps.count(RESIDUES) == len(failed) == 2
    steps.clear(), failed.clear()
    assert greedy_multitype(cr_pair_system(M), witness=False).orbit_dim == 4
    # the one trial: the starting word is checked from the field rows at 0,
    # with no flow step
    assert failed == [RESIDUES]
