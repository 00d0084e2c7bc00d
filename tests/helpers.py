"""Shared test utilities: random exact inputs and independent brute oracles."""

import random
from dataclasses import replace
from fractions import Fraction

from segrechains.chains import chain_word, default_kmax, u_blocks
from segrechains.corpus import corpus
from segrechains.errors import (
    ChartMismatch, DimensionMismatch, RankAssumptionViolated, SegreError, TruncationUnsound,
    UnknownVariable, VarSpaceMismatch, WitnessNotFound,
)
from segrechains.invariants import RankProfile
from segrechains.lie import bracket, chart_point, gradient_rows, tangent_fields
from segrechains.manifests import load_manifest
from segrechains.manifold import (
    Basepoint, CRFlow, chart, graph_from_real, new_manifold, real_graph_space,
)
from segrechains.orbit import FlowMap, OrbitResult, _orbit_witness, concatenated_flow, flow_word
from segrechains.ranks import (
    CERTIFY_MAX_SIZE, RankResult, exact_rank, generic_rank, integer_rows, jacobian_rows,
    sample_rank,
)
from segrechains.scalars import GaussianRational, I, ONE, ZERO
from segrechains.series import (
    EXACT, RESIDUES, PointTable, Series, SeriesMap, TangentVectorField, VarSpace, _merge_order,
)


def _reference_part(x):
    """The canonical part for x: an int when x is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):  # bool and other int subclasses
        return int(x)
    if isinstance(x, str):
        return _reference_part(Fraction(x))
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class ReferenceGaussianRational:
    """Reference scalar: re + im*i with each part stored as an int when it is
    integral and as a Fraction otherwise, every operation in Fraction
    arithmetic (the scalar kernel before it moved onto Z[i])."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is int else _reference_part(re))
        object.__setattr__(self, "im", im if type(im) is int else _reference_part(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, ReferenceGaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ReferenceGaussianRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ReferenceGaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceGaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ReferenceGaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return ReferenceGaussianRational(a * c, a * d)
        if not d:
            return ReferenceGaussianRational(a * c, b * c)
        return ReferenceGaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return ReferenceGaussianRational(
            Fraction(self.re * other.re + self.im * other.im, n),
            Fraction(self.im * other.re - self.re * other.im, n),
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ReferenceGaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conjugate(self):
        return ReferenceGaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return reference_format_scalar(self)


def _reference_part_str(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def reference_format_scalar(c) -> str:
    """format_scalar's text read from the parts of a ReferenceGaussianRational."""
    if c.im == 0:
        return _reference_part_str(c.re)
    if c.im == 1:
        im = "i"
    elif c.im == -1:
        im = "-i"
    else:
        im = f"{_reference_part_str(c.im)}*i"
    if c.re == 0:
        return im
    sep = "+" if not im.startswith("-") else ""
    return f"{_reference_part_str(c.re)}{sep}{im}"


def reference_pivot_positions(matrix):
    """Reference eliminator: plain Gaussian elimination over Q(i) in
    GaussianRational arithmetic, with the first nonzero entry of a column
    below the pivot rows as its pivot (the package's rule)."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return []
    ncols = len(rows[0])
    order = list(range(len(rows)))
    pivots = []
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        order[rank], order[pivot] = order[pivot], order[rank]
        pivots.append((order[rank], col))
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col].is_zero():
                continue
            f = rows[r][col] / pv
            for c in range(col, ncols):
                rows[r][c] = rows[r][c] - f * rows[rank][c]
        rank += 1
        col += 1
    return pivots


def gaussian_rows(rows):
    """Integer rows (den, re, im) as a GaussianRational matrix, divided term by term."""
    return [[GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)]
            for den, re, im in rows]


def reference_jacobian(f, wrt=None):
    """The Jacobian of a SeriesMap as a matrix of Series, every partial
    built: rows follow components, columns the `wrt` variables (blocks or
    names of the domain, all its variables by default)."""
    names = f._resolve_names(wrt)
    return [[s.diff(v) for v in names] for s in f.components]


def reference_jacobian_rows(f, wrt, point):
    """The integer rows of a SeriesMap's Jacobian at a point the symbolic
    way: every partial built by reference_jacobian, then evaluated."""
    return integer_rows(reference_jacobian(f, wrt), point)


def run_at(word, point, kernel=EXACT):
    """FlowWord.run at a flat point of the word's space: one block of m
    times per flow, then the start's parameters."""
    k, m = len(word.flows), len(word.space_of(1).blocks[0][1])
    return word.run(point[m * k:], [point[i * m : (i + 1) * m] for i in range(k)], kernel)


def gaussian_at(word, point):
    """A FlowWord's Z[i] values and integer rows at `point` as GaussianRationals."""
    values, rows = run_at(word, point)
    return [GaussianRational(Fraction(re, den), Fraction(im, den))
            for re, im, den in values], gaussian_rows(rows)


def reference_evaluate(series, point):
    """Reference evaluator: the value of a Series at a point summed term by
    term in GaussianRational arithmetic, one Fraction product per factor."""
    if len(point) != series.space.dim:
        raise DimensionMismatch(
            f"point dimension {len(point)} != space dim {series.space.dim}"
        )
    total = ZERO
    for exp, c in series.terms.items():
        v = c
        for i, e in enumerate(exp):
            if e:
                v = v * GaussianRational._coerce(point[i]) ** e
        total = total + v
    return total


def reference_compose(series, sub):
    """Reference substitution: every monomial multiplied out by
    reference_product (one cached power per variable, one GaussianRational
    product and sum per term), with the package's checks and messages."""
    if isinstance(sub, SeriesMap):
        mapping = sub.as_subst()
    else:
        mapping = dict(sub)
    missing = [n for n in series.space.names if n not in mapping]
    if missing:
        raise UnknownVariable(f"substitution missing variables {missing}")
    used = series.used_indices()
    target = None
    order = series.order
    for i in sorted(used):
        s = mapping[series.space.names[i]]
        if target is None:
            target = s.space
        elif s.space != target:
            raise VarSpaceMismatch("substituted series live over different spaces")
        if series.order is not None and not s.constant_term().is_zero():
            raise TruncationUnsound(
                f"substituting a series with nonzero constant term for "
                f"{series.space.names[i]!r} into a truncated series"
            )
        order = _merge_order(order, s.order)
    if target is None:
        for s in mapping.values():
            target = s.space
            order = _merge_order(order, s.order)
            break
        if target is None:
            raise VarSpaceMismatch("empty substitution for a constant series")
    terms = {}
    constant = {(0,) * target.dim: ONE}
    powers = {}
    for exp, c in series.terms.items():
        prod = None
        for i, e in enumerate(exp):
            if not e:
                continue
            cache = powers.setdefault(i, [Series.constant(target, 1, order)])
            while len(cache) <= e:
                cache.append(reference_product(cache[-1], mapping[series.space.names[i]]))
            prod = cache[e] if prod is None else reference_product(prod, cache[e])
        for e, v in (constant if prod is None else prod.terms).items():
            t = terms.get(e, ZERO) + c * v
            if t.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = t
    return Series(target, terms, order)


def reference_product(f, g):
    """Reference Series product: every pair of terms multiplied and summed
    in GaussianRational arithmetic, cut at the lower truncation order."""
    if f.space != g.space:
        raise VarSpaceMismatch("series live over different variable spaces")
    order = _merge_order(f.order, g.order)
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            if order is not None and sum(e1) + sum(e2) > order:
                continue
            exp = tuple(a + b for a, b in zip(e1, e2))
            terms[exp] = terms.get(exp, ZERO) + c1 * c2
    return Series(f.space, terms, order)


def reference_diff(f, name):
    """Reference partial derivative in GaussianRational arithmetic; the
    truncation order drops by one."""
    i = f.space.index_of(name)
    terms = {}
    for exp, c in f.terms.items():
        if exp[i]:
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = c * exp[i]
    return Series(f.space, terms, None if f.order is None else max(f.order - 1, 0))


def reference_apply(field, f):
    """TangentVectorField.apply as it was before the one-pass derivation: a
    loop of Series operations, one diff, product and sum per nonzero c_a,
    each reduced on its own."""
    out = Series.zero(field.space, f.order)
    for a, coeff in enumerate(field.coefficients):
        if coeff.is_zero():
            continue
        out = out + coeff * f.diff(field.space.names[a])
    return out


def reference_bracket(X, Y):
    """series.bracket as 2n reference applies and n subtractions."""
    if X.space != Y.space:
        raise ChartMismatch("bracket of fields over different charts")
    coeffs = tuple(
        reference_apply(X, Y.coefficients[a]) - reference_apply(Y, X.coefficients[a])
        for a in range(X.space.dim)
    )
    return TangentVectorField(X.space, coeffs, f"[{X.label},{Y.label}]")


def variables_map(space, order=None):
    """The identity SeriesMap of a space: each variable as its own component."""
    return SeriesMap([Series.variable(space, n, order) for n in space.names], space)


def nonzero_partials(f):
    """(index, partial derivative) for every variable that occurs in f."""
    return [(a, f.diff(f.space.names[a])) for a in sorted(f.used_indices())]


def reference_forward_step(fns, at, rows):
    """Reference forward-mode step: every partial differentiated
    (nonzero_partials) and evaluated on its own, then the chain rule on rows
    of GaussianRationals, every product and sum in GaussianRational
    arithmetic."""
    zero_row = [ZERO] * len(rows[0])
    table = PointTable([x.zi for x in at])
    out = []
    for f in fns:
        row = zero_row
        for a, p in nonzero_partials(f):
            c = p.evaluate(at, table)
            if not c.is_zero():
                row = [x + c * y if y else x for x, y in zip(row, rows[a])]
        out.append((f.evaluate(at, table), row))
    return out


def small_scalar(rng, bound=5):
    return GaussianRational(
        Fraction(rng.randint(-bound, bound), rng.randint(1, 3)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, 3)),
    )


def random_series(rng, space, max_degree=3, terms=4, order=None):
    """A sparse random polynomial over the given space."""
    out = Series.zero(space, order)
    for _ in range(terms):
        exp = [0] * space.dim
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(space.dim)] += 1
        out = out + Series(space, {tuple(exp): small_scalar(rng)}, order)
    return out


def random_real_graph(m, rng, transversal=False, with_x=False, order=None,
                      max_degree=3, terms=3):
    """A random real hypersurface (d=1) built through the real graph form.

    Reality is enforced on coefficients: pairs h_{k,alpha,beta} /
    conj(h_{k,beta,alpha}).  With with_x=True terms may carry powers of the
    transversal variable (which needs a finite truncation order for the
    elimination); with transversal=True every term does, which forces
    theta(zeta, w, 0) = 0, a nonminimal input.
    """
    space = real_graph_space(m, 1)
    h = Series.zero(space, order)
    for _ in range(terms):
        alpha = [0] * m
        beta = [0] * m
        if transversal:
            k = rng.randint(1, 2)
        elif with_x:
            k = rng.randint(0, 1)
        else:
            k = 0
        for _ in range(rng.randint(1, max_degree)):
            alpha[rng.randrange(m)] += 1
        for _ in range(rng.randint(1, max_degree)):
            beta[rng.randrange(m)] += 1
        c = small_scalar(rng, bound=3)
        powers = {f"w{i + 1}": alpha[i] for i in range(m)}
        powers.update({f"wb{i + 1}": beta[i] for i in range(m)})
        powers["x1"] = k
        term = Series.monomial(space, powers, c, order)
        mirror_powers = {f"w{i + 1}": beta[i] for i in range(m)}
        mirror_powers.update({f"wb{i + 1}": alpha[i] for i in range(m)})
        mirror_powers["x1"] = k
        mirror = Series.monomial(space, mirror_powers, c.conjugate(), order)
        h = h + term + mirror
    return graph_from_real(m, 1, [h], order)


def random_hypersurface(rng, index):
    """Mixed stream of exact and truncated random hypersurfaces: rigid exact,
    Levi-flat, transversally perturbed, and forced-nonminimal inputs."""
    m = rng.choice([1, 2])
    mode = index % 4
    if mode == 0:
        return random_real_graph(m, rng)
    if mode == 1:
        return random_real_graph(m, rng, with_x=True, order=8)
    if mode == 2:
        return random_real_graph(m, rng, transversal=True, order=8)
    return graph_from_real(m, 1, ["0"])


def field_tuples(space, fields):
    """The m-tuples of TangentVectorField over `space` whose coefficient
    tuples are `fields[alpha][i]`: a VFSystem's fields."""
    return [[TangentVectorField(space, tuple(c)) for c in fld] for fld in fields]


def reference_span_dim(rows, point, dim, trials, seed) -> int:
    """Span dimension of rows of Series at a point, or sampled (point None),
    every row evaluated afresh at every point: the reference for
    ranks.span_dims, which evaluates each row once per point."""
    if point is not None:
        return exact_rank(integer_rows(rows, point))
    return sample_rank(lambda p: integer_rows(rows, p), dim, trials, seed)[0]


def brute_bracket_span_dims(M, basepoint, max_length, trials=5, seed=0):
    """Independent ladder oracle: enumerate EVERY left-normed bracket word
    of each length (no sharing, no dedup) and rank all the words' rows so far
    at each length with reference_span_dim, exactly at a numeric basepoint
    and sampled at a symbolic one."""
    L, Lbar = tangent_fields(M)
    generators = L + Lbar
    point = chart_point(M, basepoint)
    dim = generators[0].space.dim
    words = list(generators)
    rows = [f.coefficients for f in words]
    dims = [reference_span_dim(rows, point, dim, trials, seed)]
    for _ in range(2, max_length + 1):
        words = [bracket(g, h) for g in generators for h in words]
        rows = rows + [f.coefficients for f in words]
        dims.append(reference_span_dim(rows, point, dim, trials, seed))
    return dims


def brute_ladder(M, basepoint, max_length, trials=5, seed=0):
    """(mu, l) jumps extracted from the brute-force span dimensions."""
    dims = brute_bracket_span_dims(M, basepoint, max_length, trials, seed)
    ladder = []
    for i in range(1, len(dims)):
        if dims[i] > dims[i - 1]:
            ladder.append((i + 1, dims[i] - dims[i - 1]))
    return ladder, dims


def ordered_word_levi_type(M, basepoint, kmax, trials=5, seed=0):
    """Levi-type reference over ORDERED words Lbar_{i_k}...Lbar_{i_1} grad rho_j
    (m^k rows per gradient at level k, no use of commutation); the same span
    test and sampling as lie.levi_type."""
    _, Lbar = tangent_fields(M)
    dim = Lbar[0].space.dim
    point = chart_point(M, basepoint)
    level = gradient_rows(M)
    all_rows = list(level)
    if reference_span_dim(all_rows, point, dim, trials, seed) == M.n:
        return 0
    for k in range(1, kmax + 1):
        level = [[f.apply(c) for c in row] for f in Lbar for row in level]
        all_rows.extend(level)
        if reference_span_dim(all_rows, point, dim, trials, seed) == M.n:
            return k
    return None


def sampled_word_rank(word, wrt=None, trials=5, seed=0, certify=False):
    """generic_rank of an EXACT FlowWord in all its time blocks (`wrt`),
    sampled pointwise: ranks.sample_rank over seeded points of the word's
    space, each run over F_P first, the first point exactly where that
    proves no rank (run_at), certified as generic_rank certifies an EXACT
    rank."""
    rank, point, _ = sample_rank(lambda p: run_at(word, p)[1],
                                 word.space_of(len(word.flows)).dim, trials, seed,
                                 lambda p: run_at(word, p, RESIDUES)[1])
    return RankResult(rank, point, certify and 0 < rank <= CERTIFY_MAX_SIZE)


def reference_rank(f, wrt=None, trials=5, seed=0, certify=False):
    """generic_rank of a SeriesMap, sampled_word_rank of an EXACT FlowWord."""
    rank = generic_rank if isinstance(f, SeriesMap) else sampled_word_rank
    return rank(f, wrt=wrt, trials=trials, seed=seed, certify=certify)


def reference_rank_at(f, wrt, point):
    """The exact rank of a SeriesMap's Jacobian rows at a point
    (ranks.jacobian_rows); that of an EXACT FlowWord's rows at a flat point
    (run_at)."""
    if isinstance(f, SeriesMap):
        return exact_rank(jacobian_rows(f, wrt)(point))
    return exact_rank(run_at(f, point)[1])


def reference_chain(M, k, basepoint, parity, chart=None):
    """Gamma_k in a chart (by default its own) as the chain-by-chain oracles
    sample it: the chain_word of the chart's components, EXACT run
    pointwise, a jet expanded."""
    word = chain_word(M, k, basepoint, parity, chart)
    return word if M.order is None else word.expand()


def reference_flow(system, word, order=None):
    """The concatenated flow of `word` as the greedy oracle samples it:
    EXACT, the flow_word, run pointwise; a jet expanded
    (orbit.concatenated_flow)."""
    if order is None:
        return flow_word(system, word)
    return concatenated_flow(system, word, order)[0]


def reference_rank_profile(M, basepoint=None, kmax=None, trials=5, seed=0, certify=False,
                           chain=reference_chain, rank=reference_rank):
    """invariants.rank_profile as it was before one growing run per trial:
    each r_k is rank(chain(M, k, basepoint, parity), wrt=u_blocks(k),
    trials=trials, seed=seed + k, certify=certify), a fresh word of length k
    sampled at its own points, and so is the conjugate-parity k = 3 check."""
    basepoint = basepoint or Basepoint.origin()
    kmax = default_kmax(M) if kmax is None else kmax

    def chain_rank(k, parity, certify):
        return rank(chain(M, k, basepoint, parity), wrt=u_blocks(k), trials=trials,
                    seed=seed + k, certify=certify)

    rs, witnesses, certified, stopped_at = [], [], True, kmax
    for k in range(1, kmax + 1):
        res = chain_rank(k, "L", certify)
        rs.append(res.rank)
        witnesses.append(tuple(res.witness) if res.witness else None)
        certified = certified and res.certified
        if k >= 3 and rs[-1] == rs[-2]:
            stopped_at = k
            break
        if k >= 3 and rs[-1] < rs[-2]:
            raise SegreError("internal: sampled ranks decreased; raise trials")
    e = tuple(rs[k + 1] - rs[k] for k in range(1, len(rs) - 1))
    k_check = min(3, len(rs))
    if chain_rank(k_check, "Lbar", False).rank != rs[k_check - 1]:
        raise SegreError("internal: conjugate chain rank disagrees; raise trials")
    return RankProfile(tuple(rs), e, tuple(witnesses), certified, stopped_at, kmax)


def same_profile(got, want):
    """Whether two RankProfiles agree in every field but the sample points."""
    return (got.r, got.e, got.certified, got.stopped_at, got.kmax) == (
        want.r, want.e, want.certified, want.stopped_at, want.kmax)


def flow_steps(monkeypatch):
    """The kernel of every CRFlow.advance and FlowMap.advance call from now
    on, in call order: one per flow step of a pointwise run."""
    steps = []
    for cls in (CRFlow, FlowMap):
        def counted(self, values, rows, times, col, kernel=EXACT, _advance=cls.advance):
            steps.append(kernel)
            return _advance(self, values, rows, times, col, kernel)

        monkeypatch.setattr(cls, "advance", counted)
    return steps


def bend_l_rows(M, rows):
    """The CR pair rows (manifold.cr_pair_rows) with L bent: for m = 1, L1
    with its z coefficients dropped (not tangent); else (L1 + w1*L2, L1),
    still tangent, but [L1 + w1*L2, L1] = -L2 is not zero."""
    L, Lbar = rows
    if M.m == 1:
        z = set(M.space.block("z"))
        return (tuple(Series.zero(M.space) if a in z else c for a, c in enumerate(L[0])),), Lbar
    w1 = Series.variable(M.space, "w1")
    return (tuple(c + w1 * e for c, e in zip(L[0], L[1])), L[0]), Lbar


def codim_family(d, m=1):
    """The manifold with theta_bar_1 = w1*zeta1 + ... + wm*zetam and, for
    j = 2..d, theta_bar_j = c_j*w1^j*zeta1 + conj(c_j)*w1*zeta1^j,
    c_j = 1 + (j-1)*i.  For m = 1: multitype (1, 1, ..., 1), minimal, rank
    increments up to length d + 2.  For m = 2: multitype (2, 2, 2, 1, ...,
    1), minimal, its increments of 1, below m, leaving chain ranks that are
    not full."""
    theta = [" + ".join(f"w{a}*zeta{a}" for a in range(1, m + 1))] + [
        f"(1+{j - 1}*i)*w1^{j}*zeta1 + (1-{j - 1}*i)*w1*zeta1^{j}"
        for j in range(2, d + 1)
    ]
    return new_manifold(m, d, theta)


def exact_manifolds():
    """(name, manifold) for every EXACT corpus manifold and the d = 2..6 family."""
    out = []
    for name, path in corpus():
        manifest = load_manifest(path)
        if manifest.kind == "manifold" and manifest.order_value() is None:
            out.append((name, manifest.build_manifold()))
    return out + [(f"codim_d{d}", codim_family(d)) for d in range(2, 7)]


def gaussian_integer_point(rng, dim):
    """A point with small nonzero Gaussian-integer coordinates."""
    return [GaussianRational(rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(dim)]


def numeric_basepoint(M, rng):
    """A Gaussian-integer point of the complexified manifold: z = qbar(w, zeta, xi)."""
    m, d = M.m, M.d
    v = Basepoint.symbolic().state_values(M, gaussian_integer_point(rng, 2 * m + d))
    return Basepoint.numeric(M, v[:m], v[m : m + d], v[m + d : 2 * m + d], v[2 * m + d :])


def expanded_values_and_jacobian(f, names, point):
    """Values of an expanded SeriesMap at a point with no zero coordinate, and
    its Jacobian in the `names` columns, read off term by term:
    d(c*u^e)/du_i = e_i*c*u^e/u_i, summed per column before the one division."""
    cols = [f.domain.index_of(n) for n in names]
    powers = {}
    values, rows = [], []
    for s in f.components:
        value, sums = ZERO, [ZERO] * len(cols)
        for exp, c in s.terms.items():
            mono = c
            for i, e in enumerate(exp):
                if e:
                    if (i, e) not in powers:
                        powers[(i, e)] = point[i] ** e
                    mono = mono * powers[(i, e)]
            value = value + mono
            for col, i in enumerate(cols):
                if exp[i]:
                    sums[col] = sums[col] + mono * exp[i]
        values.append(value)
        rows.append([t / point[i] for t, i in zip(sums, cols)])
    return values, rows


def reference_tangent_fields(M):
    """Reference chart fields, built directly in the chart: L_i = d/dw_i and
    Lbar_i = d/dzeta_i - i*sum_j theta_{j,zeta_i}(zeta, w, qbar) d/dxi_j, every
    xi coefficient restricted to the graph."""
    cs = chart(M, "wzetaxi")[1]
    order = M.order
    zero = Series.zero(cs, order)
    one = Series.constant(cs, 1, order)
    L = []
    for i, wv in enumerate(cs.block_vars("w")):
        coeffs = [zero] * cs.dim
        coeffs[cs.index_of(wv)] = one
        L.append(TangentVectorField(cs, tuple(coeffs), f"L{i + 1}"))
    Lbar = []
    xi_idx = [cs.index_of(v) for v in cs.block_vars("xi")]
    for i, zv in enumerate(cs.block_vars("zeta")):
        coeffs = [zero] * cs.dim
        coeffs[cs.index_of(zv)] = one
        for j in range(M.d):
            c = M.restrict(M.theta[j].diff(M.space.block_vars("zeta")[i]))
            coeffs[xi_idx[j]] = (-I) * c.lift(cs)
        Lbar.append(TangentVectorField(cs, tuple(coeffs), f"Lbar{i + 1}"))
    return tuple(L), tuple(Lbar)


def reference_segre_leaf(M, tau_p=None, t_p=None):
    """Reference Segre variety by hand-built substitutions: the leaf
    w |-> (w, qbar(w, zeta_p, xi_p), zeta_p, xi_p), or with t_p the
    conjugate leaf zeta |-> (w_p, z_p, zeta, q(zeta, w_p, z_p))."""
    order = M.order
    conjugate = t_p is not None
    leaf_block = ("zeta", tuple(f"zeta{i}" for i in range(1, M.m + 1))) if conjugate \
        else ("w", tuple(f"w{i}" for i in range(1, M.m + 1)))
    symbolic = (tau_p == "symbolic") or (t_p == "symbolic")
    blocks = [leaf_block]
    if symbolic:
        if conjugate:
            blocks += [
                ("pw", tuple(f"pw{i}" for i in range(1, M.m + 1))),
                ("pz", tuple(f"pz{j}" for j in range(1, M.d + 1))),
            ]
        else:
            blocks += [
                ("pzeta", tuple(f"pzeta{i}" for i in range(1, M.m + 1))),
                ("pxi", tuple(f"pxi{j}" for j in range(1, M.d + 1))),
            ]
    space = VarSpace(blocks, [(v, v) for v in leaf_block[1]])
    leaf_vars = [Series.variable(space, v, order) for v in leaf_block[1]]
    zero = Series.zero(space, order)
    if not conjugate:
        if symbolic:
            zeta_p = [Series.variable(space, f"pzeta{i}", order) for i in range(1, M.m + 1)]
            xi_p = [Series.variable(space, f"pxi{j}", order) for j in range(1, M.d + 1)]
        else:
            zeta_p = [Series.constant(space, v, order) for v in tau_p[0]]
            xi_p = [Series.constant(space, v, order) for v in tau_p[1]]
        sub = dict(zip(M.space.names, leaf_vars + [zero] * M.d + zeta_p + xi_p))
        z = [M.qbar[j].compose(sub) for j in range(M.d)]
        comps = leaf_vars + z + zeta_p + xi_p
    else:
        if symbolic:
            w_p = [Series.variable(space, f"pw{i}", order) for i in range(1, M.m + 1)]
            z_p = [Series.variable(space, f"pz{j}", order) for j in range(1, M.d + 1)]
        else:
            w_p = [Series.constant(space, v, order) for v in t_p[0]]
            z_p = [Series.constant(space, v, order) for v in t_p[1]]
        sub = dict(zip(M.space.names, w_p + z_p + leaf_vars + [zero] * M.d))
        xi = [M.q[j].compose(sub) for j in range(M.d)]
        comps = w_p + z_p + leaf_vars + xi
    return SeriesMap(comps, M.space)


def cr_oracle_manifolds():
    """(name, manifold) inputs of the CR-pair and Segre-leaf oracles: the
    EXACT corpus, the d = 2..5 family, an m = d = 2 manifold and two
    graph_from_real jets, of orders 5 and 6."""
    exact = [(n, M) for n, M in exact_manifolds() if n != "codim_d6"]
    mixed = new_manifold(2, 2, ["w1*zeta1", "w1*zeta2 + w2*zeta1"])
    jets = [
        (f"jet_order{order}", graph_from_real(
            1, 1, ["w1*wb1 + w1^2*wb1^2*x1 + (1+i)*w1^2*wb1 + (1-i)*w1*wb1^2"], order))
        for order in (5, 6)
    ]
    return exact + [("m2d2", mixed)] + jets


def reference_greedy_multitype(system, kmax=None, order=None, trials=5, seed=0,
                               start_order=None, witness=True):
    """orbit.greedy_multitype as it was before it skipped the last letter's
    repeat and stopped at rank n: every field is tried at every step, until
    no candidate adds rank or the word reaches kmax."""
    a, m, n = system.a, system.m, system.n
    kmax = a + (n - a * m) + 1 if kmax is None else kmax
    word = list(start_order) if start_order is not None else list(range(a))
    if sorted(word) != list(range(a)):
        raise DimensionMismatch("start_order must be a permutation of the fields")
    if kmax < a:
        raise DimensionMismatch(f"kmax must be >= a = {a}, the starting word's length")
    base = reference_flow(system, word, order)
    exact = all(system.flow(alpha, order).exact for alpha in word)
    blocks = [f"t{i}" for i in range(1, a + 1)]
    zero_pt = [ZERO] * (a * m)
    if reference_rank_at(base, blocks, zero_pt) != a * m:
        raise RankAssumptionViolated(
            "concatenated initial flows are rank-deficient at 0"
        )
    rank = reference_rank(base, wrt=blocks, trials=trials, seed=seed).rank
    ranks = [rank]
    e = []
    while len(word) < kmax:
        best_alpha, best_rank = None, rank
        for alpha in range(a):
            cand = reference_flow(system, word + [alpha], order)
            cblocks = [f"t{i}" for i in range(1, len(word) + 2)]
            r = reference_rank(
                cand, wrt=cblocks, trials=trials, seed=seed + len(word)
            ).rank
            exact = exact and system.flow(alpha, order).exact
            if r > best_rank:
                best_alpha, best_rank = alpha, r
        if best_alpha is None:
            break
        e.append(best_rank - rank)
        rank = best_rank
        ranks.append(rank)
        word.append(best_alpha)
    kappa0 = len(e)
    mu0 = a + kappa0
    result = OrbitResult(
        word=tuple(word),
        e=tuple(e),
        kappa0=kappa0,
        mu0=mu0,
        multitype=(m,) * a + tuple(e),
        orbit_dim=a * m + sum(e),
        ranks=tuple(ranks),
        flows_exact=exact,
        witness=None,
    )
    if witness and order is None:
        try:
            record = _orbit_witness(system, result, seed)
        except WitnessNotFound:
            record = None
        result = replace(result, witness=record)
    return result
