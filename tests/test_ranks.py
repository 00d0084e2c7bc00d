import random

from segrechains.manifold import ambient_space
from segrechains.ranks import (
    exact_rank,
    generic_rank,
    pivot_positions,
    random_point,
    rank_at_point,
    sample_rank,
    span_dimension,
    symbolic_determinant,
)
from segrechains.scalars import GaussianRational as G, ZERO
from segrechains.series import Series, SeriesMap, identity_map


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
    ident = identity_map(space)
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
    assert rank_at_point(f, ["w1"], [ZERO] * 4) == 1
    assert generic_rank(f, wrt=["w1"]).rank == 1


def test_span_dimension():
    assert span_dimension([]) == 0
    assert span_dimension([[G(1), G(2)], [G(2), G(4)], [G(0), G(1)]]) == 2


def test_sampler_early_exit_matches_max_over_all_trials():
    # 0/1 matrices read off the sample point: their rank changes from point
    # to point, and a repeated row makes some of them rank-deficient
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        dim, trials, seed = nrows * ncols, rng.randint(1, 6), rng.randrange(1000)
        repeat = nrows > 1 and rng.random() < 0.5

        def matrix_at(point):
            rows = [[G(point[r * ncols + c].re.numerator % 2) for c in range(ncols)]
                    for r in range(nrows)]
            return rows[:-1] + [rows[0]] if repeat else rows

        draw = random.Random(seed)
        points = [random_point(draw, dim) for _ in range(trials)]
        ranks = [exact_rank(matrix_at(p)) for p in points]
        rank, point, matrix = sample_rank(matrix_at, dim, trials, seed)
        assert rank == max(ranks)
        assert point == points[ranks.index(rank)] and matrix == matrix_at(point)
