import random
from fractions import Fraction

from segrechains.manifold import ambient_space
from segrechains.ranks import (
    DEN_BOUND,
    NUM_BOUND,
    exact_rank,
    generic_rank,
    pivot_positions,
    random_point,
    random_scalar,
    rank_at_point,
    sample_rank,
    symbolic_determinant,
)
from segrechains.scalars import GaussianRational as G, ZERO
from segrechains.series import Series, SeriesMap

from helpers import reference_pivot_positions, variables_map


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
    assert rank_at_point(f, ["w1"], [ZERO] * 4) == 1
    assert generic_rank(f, wrt=["w1"]).rank == 1


def test_span_dimension():
    assert exact_rank([]) == 0
    assert exact_rank([[G(1), G(2)], [G(2), G(4)], [G(0), G(1)]]) == 2


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
