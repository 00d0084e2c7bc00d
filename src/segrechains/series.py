"""Sparse multivariate polynomial / truncated power series arithmetic over Q(i).

A VarSpace is an ordered collection of named variable blocks with an optional
sigma-pairing (the involution that swaps each holomorphic variable with its
complexified conjugate).  A Series is a finite map from exponent vectors to
Q(i) coefficients, EXACT (a polynomial, order=None) or a jet truncated at a
total degree, stored over the Gaussian integers: one positive int `den` and a
dict `pairs` from exponent tuple to an (re, im) int pair, the coefficient
being (re + i*im) / den.  A GaussianRational is stored over Z[i] as well
(its zi, (re, im, den)), so the boundary is an attribute read on the way in
and one GaussianRational.from_zi on the way out.  A SeriesMap is a tuple of
Series sharing one domain, its components assigned to a codomain's variables.

The calculus on Series lives here, once for every caller: sums, derivatives
and products by one term on the stored ints, one polynomial product
(_zi_product over packed exponents, cut off by degree) behind every other
product and substitution (Series.compose), and the pointwise walks over a
Series' terms against a PointTable of an exact point: its value
(Series.value_over) and its pointwise gradient, the value and every first
partial in one walk (Series.gradient_over; Series.residue_gradient, its
image in F_P under i -> ROOT, NoImage where P divides a denominator).  On
the gradient stands the forward-mode chain-rule step (forward_step over
Z[i], the integer rows ranks eliminates; residue_step over F_P), and on it
the one-flow step of a pointwise run (advance: the rows widen by the flow's
block of time columns) and the word of flows of Segre chains and orbit
flows alike (FlowWord: run at a point over a Kernel, EXACT or RESIDUES, one
advance per flow, or expanded to a SeriesMap into the word's codomain, each
keeping the state after every prefix).  A vector field acts as a derivation
(TangentVectorField.apply), and a bracket of two fields is one pass of
_derivation, every c_a * df/dx_a summed into one dict over one denominator;
the pass walks only the field's support (its nonzero c_a, kept once when the
field is built) and forms products only for the x_a that occur in f.  On it stand the commutation
check (noncommuting_pair) and the deduplicated left-normed bracket ladder
(bracket_levels, level 1 first).

All values are immutable after construction; results are kept canonical
(no (0, 0) pair, no term beyond the truncation order, and no factor of den
above 1 divides every part: one gcd per result), so equality and hashing
are plain data comparisons.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

from .errors import (
    ChartMismatch,
    DimensionMismatch,
    TruncationUnsound,
    UnknownVariable,
    UnpairedVariable,
    VarSpaceMismatch,
)
from .scalars import GaussianRational, ZERO


class VarSpace:
    """Ordered blocks of named variables with an optional sigma-pairing.

    blocks: sequence of (block_name, (var_name, ...)).
    pairs:  sequence of (var_a, var_b); each entry pairs a with b *and* b
            with a (a == b declares a self-paired variable, as used for
            chain parameters).
    """

    __slots__ = ("blocks", "names", "_index", "_partner", "_block_index")

    def __init__(self, blocks, pairs=()):
        blocks = tuple((str(bn), tuple(str(v) for v in vs)) for bn, vs in blocks)
        names = []
        block_index = {}
        for bn, vs in blocks:
            if bn in block_index:
                raise VarSpaceMismatch(f"duplicate block name {bn!r}")
            block_index[bn] = tuple(range(len(names), len(names) + len(vs)))
            names.extend(vs)
        if len(set(names)) != len(names):
            raise VarSpaceMismatch("variable names must be unique")
        index = {v: i for i, v in enumerate(names)}
        partner = {}
        for a, b in pairs:
            ia, ib = index.get(a), index.get(b)
            if ia is None or ib is None:
                raise UnknownVariable(f"pairing refers to unknown variable {a!r}/{b!r}")
            partner[ia] = ib
            partner[ib] = ia
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_partner", partner)
        object.__setattr__(self, "_block_index", block_index)

    def __setattr__(self, name, value):
        raise AttributeError("VarSpace is immutable")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def block(self, block_name: str):
        """Indices of a named block."""
        try:
            return self._block_index[block_name]
        except KeyError:
            raise UnknownVariable(f"unknown block {block_name!r}") from None

    def block_vars(self, block_name: str):
        return tuple(self.names[i] for i in self.block(block_name))

    def block_names(self):
        return tuple(bn for bn, _ in self.blocks)

    def partner(self, index: int) -> Optional[int]:
        return self._partner.get(index)

    def subspace(self, block_names) -> "VarSpace":
        """The space made of the given blocks, keeping internal pairings."""
        keep = set(block_names)
        blocks = [(bn, vs) for bn, vs in self.blocks if bn in keep]
        kept_names = {v for _, vs in blocks for v in vs}
        pairs = [
            (self.names[a], self.names[b])
            for a, b in self._partner.items()
            if a <= b and self.names[a] in kept_names and self.names[b] in kept_names
        ]
        return VarSpace(blocks, pairs)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, VarSpace):
            return NotImplemented
        return self.blocks == other.blocks and self._partner == other._partner

    def __hash__(self):
        return hash((self.blocks, tuple(sorted(self._partner.items()))))

    def __repr__(self):
        return f"VarSpace({', '.join(bn for bn, _ in self.blocks)})"


def _merge_order(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# The prime of the residue kernel and of ranks.exact_rank's shortcut, below
# 2**30 so that a residue is one CPython digit, and ROOT, a square root of -1
# modulo it: re + i*im -> re + ROOT*im is a ring homomorphism Z[i] -> F_P.
P = 1_073_741_789
ROOT = 933_053_945


class NoImage(ArithmeticError):
    """A scalar or Series without an image in F_P: P divides its denominator."""


def residue(re: int, im: int, den: int) -> int:
    """The image (re + ROOT*im) / den in F_P of a Z[i] scalar; NoImage when
    P divides den."""
    if not den % P:
        raise NoImage(f"denominator {den} is divisible by P")
    return (re + ROOT * im) * pow(den, -1, P) % P


def zi_add(x, y):
    """The sum of two Z[i] scalars (re, im, den), in lowest terms."""
    a, b, d = x
    c, e, f = y
    re, im, den = a * f + c * d, b * f + e * d, d * f
    g = math.gcd(re, im, den)
    return re // g, im // g, den // g


def check_point(dim: int, point) -> None:
    """DimensionMismatch unless `point` has `dim` coordinates."""
    if len(point) != dim:
        raise DimensionMismatch(f"point dimension {len(point)} != space dim {dim}")


def reduced_row(den: int, re, im):
    """The integer row (den, re, im) (entry k (re[k] + i*im[k]) / den) over
    the least denominator: one gcd over den and every entry."""
    g = math.gcd(den, *re, *im)
    if g > 1:
        return den // g, [x // g for x in re], [y // g for y in im]
    return den, re, im


class PointTable:
    """An exact point over Z[i], shared by the Series evaluated at it.

    Built from the point's coordinates as Z[i] scalars (re, im, den) (a
    GaussianRational's zi), every coordinate put over one common
    denominator q, the lcm of theirs: pows[i][e] is N_i^e as an (re, im) int
    pair for the numerator N_i of coordinate i, and qpow[k] is q^k.  Both
    lists grow (grow) as the Z[i] walks of Series need higher powers.
    """

    __slots__ = ("q", "qpow", "pows")

    def __init__(self, coords):
        self.q = q = math.lcm(*(den for _, _, den in coords))
        self.qpow = [1]
        self.pows = [[(1, 0), (re * (q // den), im * (q // den))] for re, im, den in coords]

    def grow(self, needed, degree: int):
        """(pows, qpow) filled up to N_i^e for each (i, e) in `needed` and to q^degree."""
        for i, e in needed:
            row = self.pows[i]
            nr, ni = row[1]
            while len(row) <= e:
                a, b = row[-1]
                row.append((a * nr - b * ni, a * ni + b * nr))
        while len(self.qpow) <= degree:
            self.qpow.append(self.qpow[-1] * self.q)
        return self.pows, self.qpow


_UNIT = ((0, 1, 0),)  # the term list of the constant 1


def _zi_product(left, right, cap, out):
    """Add the product of two term lists over Z[i] into `out` (packed
    exponent -> [re, im]): the one polynomial product of the package.  Terms
    are (packed exponent, re, im), sorted by packed exponent, whose top field
    is the total degree: a product whose key reaches `cap` lies beyond the
    truncation order, and so do all later ones of the row, so the row stops
    there."""
    if not right:
        return out
    first = right[0][0]
    for k1, a, b in left:
        if k1 + first >= cap:
            break
        for k2, c, d in right:
            k = k1 + k2
            if k >= cap:
                break
            v = out.get(k)
            if v is None:
                out[k] = [a * c - b * d, a * d + b * c]
            else:
                v[0] += a * c - b * d
                v[1] += a * d + b * c
    return out


def _sorted_terms(acc):
    """The nonzero terms of a _zi_product sum as a sorted term list."""
    return sorted((k, a, b) for k, (a, b) in acc.items() if a or b)


@lru_cache(maxsize=256)
def _packing(dim: int, limit: int):
    """(cap, weights, shifts, mask) of exponents over `dim` variables packed
    into one int each, variable j in the field of mask's bits at shifts[j]
    (weights[j] the key of x_j), under a top field holding the total degree:
    adding keys multiplies monomials, and a key of `cap` or more lies beyond
    total degree `limit` (no field below overflows), see _zi_product."""
    width = max(limit, 1).bit_length()
    top = width * dim
    shifts = tuple(range(0, top, width))
    weights = tuple((1 << j) + (1 << top) for j in shifts)
    return (limit + 1) << top, weights, shifts, (1 << width) - 1


def _packed(s, packing):
    """The stored pairs of the Series s as a sorted term list (key, re, im)."""
    weights = packing[1]
    return sorted((sum(map(operator.mul, e, weights)), a, b) for e, (a, b) in s.pairs.items())


def _unpacked(space, packing, acc, den: int, order):
    """The reduced Series of a _zi_product sum `acc` over `den`."""
    _, _, shifts, mask = packing
    return Series._reduced(space, den, {
        tuple(map(operator.and_, map(operator.rshift, repeat(k), shifts), repeat(mask))): (re, im)
        for k, (re, im) in acc.items() if re or im
    }, order)


_new, _set = object.__new__, object.__setattr__


def grlex_key(exp):
    """Graded-lexicographic sort key used for canonical term order."""
    return (sum(exp), exp)


class Series:
    """A sparse polynomial (order=None) or truncated jet (order=N) over Q(i),
    stored over Z[i]: the coefficient of x^e is pairs[e] = (re, im) over the
    one positive int denominator den."""

    # _plan and _rplan: the per-term factors the Z[i] walks (value_over,
    # gradient_over) and the F_P walk (residue_gradient) keep on first use
    __slots__ = ("space", "den", "pairs", "order", "_plan", "_rplan")

    def __init__(self, space: VarSpace, terms=None, order: Optional[int] = None):
        clean = {}
        for exp, c in (terms or {}).items():
            scalar = GaussianRational._coerce(c)
            if scalar is None:
                raise TypeError(f"not an exact scalar: {c!r}")
            c = scalar.zi
            if not c[0] and not c[1]:
                continue
            exp = tuple(exp)
            if len(exp) != space.dim:
                raise DimensionMismatch(f"exponent length {len(exp)} != space dim {space.dim}")
            if order is not None and sum(exp) > order:
                continue
            clean[exp] = c
        # over the lcm of the canonical denominators, no factor of den divides every part
        den = math.lcm(*(d for _, _, d in clean.values()))
        _set(self, "space", space)
        _set(self, "den", den)
        _set(self, "pairs", {e: (re * (den // d), im * (den // d))
                             for e, (re, im, d) in clean.items()})
        _set(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def _reduced(space: VarSpace, den: int, pairs: dict, order: Optional[int]) -> "Series":
        """The Series of coefficients pairs[e] / den without __init__'s checks:
        `pairs` maps exponent tuples of the space's length, none beyond
        `order`, to nonzero (re, im) int pairs, and the caller no longer
        mutates it.  One gcd divides out the common factor of den and them."""
        if den > 1:
            g = math.gcd(den, *(x for p in pairs.values() for x in p))
            if g > 1:
                den //= g
                pairs = {e: (a // g, b // g) for e, (a, b) in pairs.items()}
        s = _new(Series)
        _set(s, "space", space)
        _set(s, "den", den)
        _set(s, "pairs", pairs)
        _set(s, "order", order)
        return s

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(space: VarSpace, order=None) -> "Series":
        return Series._reduced(space, 1, {}, order)

    @staticmethod
    def constant(space: VarSpace, c, order=None) -> "Series":
        return Series.monomial(space, {}, c, order)

    @staticmethod
    def variable(space: VarSpace, name: str, order=None) -> "Series":
        return Series.monomial(space, {name: 1}, 1, order)

    @staticmethod
    def monomial(space: VarSpace, powers: dict, c=1, order=None) -> "Series":
        exp = [0] * space.dim
        for name, e in powers.items():
            exp[space.index_of(name)] += int(e)
        return Series(space, {tuple(exp): c}, order)

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self):
        """A read-only view: exponent tuple -> GaussianRational coefficient."""
        return MappingProxyType({e: GaussianRational.from_zi(*p, self.den)
                                 for e, p in self.pairs.items()})

    def is_zero(self) -> bool:
        return not self.pairs

    def constant_term(self) -> GaussianRational:
        return self.coefficient({})

    def total_degree(self) -> int:
        """Degree of the stored polynomial part (-1 for the zero series)."""
        return max(map(sum, self.pairs), default=-1)

    def coefficient(self, powers: dict) -> GaussianRational:
        exp = [0] * self.space.dim
        for name, e in powers.items():
            exp[self.space.index_of(name)] = int(e)
        pair = self.pairs.get(tuple(exp))
        return ZERO if pair is None else GaussianRational.from_zi(*pair, self.den)

    def used_indices(self):
        return {i for exp in self.pairs for i, e in enumerate(exp) if e}

    # -- arithmetic --------------------------------------------------------

    def _check_space(self, other: "Series"):
        if self.space != other.space:
            raise VarSpaceMismatch("series live over different variable spaces")

    def _sum(self, other, sign: int) -> "Series":
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, Series):
            if GaussianRational._coerce(other) is None:
                return NotImplemented
            other = Series.constant(self.space, other, self.order)
        self._check_space(other)
        order = _merge_order(self.order, other.order)
        f, g = self.truncate(order), other.truncate(order)
        if not g.pairs:
            return f
        if not f.pairs and sign == 1:
            return g
        den = math.lcm(f.den, g.den)
        scale, other_scale = den // f.den, sign * (den // g.den)
        pairs = dict(f.pairs) if scale == 1 else {
            e: (a * scale, b * scale) for e, (a, b) in f.pairs.items()}
        for e, (c, d) in g.pairs.items():
            a, b = pairs.get(e, (0, 0))
            a, b = a + c * other_scale, b + d * other_scale
            if a or b:
                pairs[e] = (a, b)
            else:
                del pairs[e]
        return Series._reduced(self.space, den, pairs, order)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        pairs = {e: (-a, -b) for e, (a, b) in self.pairs.items()}
        return Series._reduced(self.space, self.den, pairs, self.order)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            scalar = GaussianRational._coerce(other)
            if scalar is None:
                return NotImplemented
            re, im, den = scalar.zi
            if not re and not im:
                return Series.zero(self.space, self.order)
            return self._times_term((0,) * self.space.dim, re, im, den, self.order)
        self._check_space(other)
        order = _merge_order(self.order, other.order)
        f, g = (self, other) if len(self.pairs) >= len(other.pairs) else (other, self)
        if not g.pairs:
            return Series.zero(self.space, order)
        if len(g.pairs) == 1:
            ((exp, (re, im)),) = g.pairs.items()
            return f._times_term(exp, re, im, g.den, order)
        limit = order
        if limit is None:
            limit = f.total_degree() + g.total_degree()
        packing = _packing(self.space.dim, limit)
        acc = _zi_product(_packed(f, packing), _packed(g, packing), packing[0], {})
        return _unpacked(self.space, packing, acc, f.den * g.den, order)

    __rmul__ = __mul__

    def _times_term(self, exp, c: int, d: int, den: int, order) -> "Series":
        """self * (c + i*d)/den * x^exp (nonzero) cut at `order`: no two terms meet."""
        pairs = {}
        for e, (a, b) in self.pairs.items():
            e = tuple(map(operator.add, e, exp))
            if order is None or sum(e) <= order:
                pairs[e] = (a * c - b * d, a * d + b * c)
        return Series._reduced(self.space, self.den * den, pairs, order)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Series.constant(self.space, 1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, order: Optional[int]) -> "Series":
        """The series cut at the lower of its order and `order`; a jet never
        becomes EXACT (order None cuts nothing)."""
        order = _merge_order(self.order, order)
        if order == self.order:
            return self
        pairs = {e: p for e, p in self.pairs.items() if sum(e) <= order}
        return Series._reduced(self.space, self.den, pairs, order)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return ((self.space, self.order, self.den, self.pairs)
                == (other.space, other.order, other.den, other.pairs))

    def __hash__(self):
        return hash((self.space, self.order, self.den, tuple(sorted(self.pairs.items()))))

    # -- calculus ------------------------------------------------------------

    def diff(self, name: str) -> "Series":
        """Partial derivative; the truncation order drops by one."""
        i = self.space.index_of(name)
        pairs = {}
        for exp, (a, b) in self.pairs.items():
            e = exp[i]
            if e:
                pairs[exp[:i] + (e - 1,) + exp[i + 1:]] = (a * e, b * e)
        order = None if self.order is None else max(self.order - 1, 0)
        return Series._reduced(self.space, self.den, pairs, order)

    def evaluate(self, point: Sequence,
                 table: Optional[PointTable] = None) -> GaussianRational:
        """Exact value of the stored polynomial part at a Gaussian-rational point.

        In truncated mode this is jet evaluation: the value of the stored
        polynomial.  It gives the Jacobians of rank sampling, basepoint state
        values and reality checks: the integer value_over `table` (a
        PointTable of `point` that the caller may share between calls),
        divided once.
        """
        check_point(self.space.dim, point)
        if table is None:
            table = PointTable([x.zi for x in point])
        return GaussianRational.from_zi(*self.value_over(table))

    def value_over(self, table: PointTable):
        """The value at the table's point as ints (re, im, den), not reduced:
        sum((re + i*im)_e * N^e * q^(D - |e|)) over den * q^D, with N/q the
        point over its common denominator q and D the total degree (the
        per-term factors are kept on first use)."""
        degree, needed, terms = self._factor_plan()
        if not terms:
            return 0, 0, 1
        pows, qpow = table.grow(needed, degree)
        re = im = 0
        for factors, deg, a, b in terms:
            for i, e in factors:
                c, d = pows[i][e]
                a, b = a * c - b * d, a * d + b * c
            k = qpow[degree - deg]
            re += a * k
            im += b * k
        return re, im, self.den * qpow[degree]

    def _factor_plan(self, keep: bool = True):
        """(D, ((i, largest e), ...), ((factors, |e|, re, im), ...)), factors
        the (i, e) with e > 0 of a term: from _plan, else kept there if `keep`."""
        if hasattr(self, "_plan"):
            return self._plan
        needed = {}
        terms = []
        for exp, (a, b) in self.pairs.items():
            factors = tuple([(i, e) for i, e in enumerate(exp) if e])
            for i, e in factors:
                if e > needed.get(i, 0):
                    needed[i] = e
            terms.append((factors, sum(exp), a, b))
        degree = max([t[1] for t in terms], default=0)
        plan = (degree, tuple(needed.items()), tuple(terms))
        if keep:
            _set(self, "_plan", plan)
        return plan

    def gradient_over(self, table: PointTable, keep: bool = True):
        """(value, gradient) at the table's point in one walk over
        _factor_plan's terms (kept on self if `keep`): the value as value_over
        gives it and the unreduced integer row of every partial df/dx_j, over
        den * q^(D - 1) (den when D = 0).  A term c x^e adds
        e_j * c * N^(e - 1_j) * q^(D - |e|) to entry j, and that product of its
        first factor j times N_j to the value: one multiply more per term."""
        degree, needed, terms = self._factor_plan(keep)
        pows, qpow = table.grow(needed, degree)
        re = im = 0
        gre, gim = [0] * len(pows), [0] * len(pows)
        for factors, deg, a, b in terms:
            k = qpow[degree - deg]
            a, b = a * k, b * k
            if not factors:  # the constant term
                re, im = re + a, im + b
                continue
            first = factors[0][0]
            for j, ej in factors:
                x, y = a, b
                for i, e in factors:
                    e -= i == j
                    if e:
                        c, d = pows[i][e]
                        x, y = x * c - y * d, x * d + y * c
                if j == first:  # the value's term: this product times N_j
                    c, d = pows[j][1]
                    re += x * c - y * d
                    im += x * d + y * c
                if ej > 1:
                    x, y = ej * x, ej * y
                gre[j] += x
                gim[j] += y
        pden = self.den * qpow[degree - 1] if degree else self.den
        return (re, im, self.den * qpow[degree]), (pden, gre, gim)

    def residue_gradient(self, pows):
        """gradient_over's image in F_P, value and row of residues, at the
        point whose coordinates' residues x_i are pows[i][1], pows[i][e]
        being x_i^e mod P (the lists grow here).  On first use each term's
        coefficient is reduced once, r_e = (re + ROOT*im) / den mod P, zero
        residues dropped, and kept in _rplan.  NoImage when P divides den."""
        try:
            plan = self._rplan
        except AttributeError:
            plan = None
            if self.den % P:
                _, needed, terms = self._factor_plan(keep=False)
                inv = pow(self.den, -1, P)
                plan = (needed, tuple((factors, r) for factors, _, a, b in terms
                                      if (r := (a + ROOT * b) * inv % P)))
            _set(self, "_rplan", plan)
        if plan is None:
            raise NoImage(f"denominator {self.den} is divisible by P")
        needed, terms = plan
        for i, e in needed:
            row = pows[i]
            while len(row) <= e:
                row.append(row[-1] * row[1] % P)
        total, grad = 0, [0] * len(pows)
        for factors, r in terms:
            if not factors:
                total += r
                continue
            first = factors[0][0]
            for j, ej in factors:
                x = r
                for i, e in factors:
                    e -= i == j
                    if e:
                        x = x * pows[i][e] % P
                if j == first:
                    total += x * pows[j][1]
                grad[j] += ej * x
        return total % P, [g % P for g in grad]

    def conjugate(self) -> "Series":
        """Conjugate every coefficient; the exponents stay."""
        pairs = {e: (a, -b) for e, (a, b) in self.pairs.items()}
        return Series._reduced(self.space, self.den, pairs, self.order)

    def sigma_conjugate(self) -> "Series":
        """Conjugate coefficients and transport exponents along the sigma-pairing."""
        space = self.space
        return self.conjugate()._moved(
            space, [space.partner(i) for i in range(space.dim)],
            lambda i: UnpairedVariable(f"variable {space.names[i]!r} has no sigma-partner"),
        )

    def _moved(self, space: VarSpace, index, error) -> "Series":
        """The series over `space` with variable i moved to index[i]; the
        exception error(i) when a variable i that occurs has index[i] None."""
        pairs = {}
        for exp, p in self.pairs.items():
            new = [0] * space.dim
            for i, e in enumerate(exp):
                if e:
                    if index[i] is None:
                        raise error(i)
                    new[index[i]] = e
            pairs[tuple(new)] = p
        return Series._reduced(space, self.den, pairs, self.order)

    def compose(self, sub) -> "Series":
        """Substitute a series for every variable.

        `sub` is a SeriesMap whose codomain is this series' space, or a dict
        mapping variable names to Series over a common target space.  In
        truncated mode every substituted series that actually occurs must
        have zero constant term, otherwise the truncated result would be
        wrong (TruncationUnsound).

        The sum is taken over Z[i] and reduced once.  With L this series'
        denominator, E_i the largest exponent of variable i and L_i the
        denominator of the series s_i substituted for it, the power s_i^e is
        a list of int pairs over L_i^e.  The monomial c * prod s_i^e_i,
        scaled by prod L_i^(E_i - e_i), is added into one sum over
        D = L * prod L_i^E_i, whose common factor one gcd divides out.
        Exponents of the target are packed (_packing), and truncated
        products stop at the order.
        """
        mapping = sub.as_subst() if isinstance(sub, SeriesMap) else dict(sub)
        missing = [n for n in self.space.names if n not in mapping]
        if missing:
            raise UnknownVariable(f"substitution missing variables {missing}")
        # not kept: the series composed once each (a manifold's theta when it
        # is validated) outnumber those composed again, so kept plans only add memory
        _, top, monomials = self._factor_plan(keep=False)
        subs = {i: mapping[self.space.names[i]] for i, _ in top}
        target, order = None, self.order
        for i in sorted(subs):
            s = subs[i]
            if target is None:
                target = s.space
            elif s.space != target:
                raise VarSpaceMismatch("substituted series live over different spaces")
            if self.order is not None and (0,) * s.space.dim in s.pairs:
                raise TruncationUnsound(
                    f"substituting a series with nonzero constant term for "
                    f"{self.space.names[i]!r} into a truncated series"
                )
            order = _merge_order(order, s.order)
        if target is None:
            # no variable occurs: constant (or zero) series transported verbatim
            s = next(iter(mapping.values()), None)
            if s is None:
                raise VarSpaceMismatch("empty substitution for a constant series")
            target, order = s.space, _merge_order(order, s.order)
        limit = order
        if limit is None:
            limit = sum(e * max(subs[i].total_degree(), 0) for i, e in top)
        packing = _packing(target.dim, limit)
        cap = packing[0]
        powers, den = {}, self.den  # powers[i][e]: s_i^e over subs[i].den^e
        for i, e in top:
            den *= subs[i].den ** e
            powers[i] = [_UNIT, _packed(subs[i], packing)]
        acc = {}
        for factors, _, a, b in monomials:
            scale = den // self.den
            tables = []
            for i, e in factors:
                scale //= subs[i].den ** e
                table = powers[i]
                while len(table) <= e:
                    table.append(_sorted_terms(_zi_product(table[-1], table[1], cap, {})))
                tables.append(table[e])
            # the largest factor last, multiplied straight into the sum
            tables.sort(key=len)
            last = tables.pop() if tables else _UNIT
            prod = [(0, a * scale, b * scale)]
            for table in tables:
                prod = _sorted_terms(_zi_product(prod, table, cap, {}))
            _zi_product(prod, last, cap, acc)
        return _unpacked(target, packing, acc, den, order)

    def lift(self, space: VarSpace) -> "Series":
        """Re-express over a larger space containing all used variables (by name)."""
        if space == self.space:
            return self
        names = self.space.names
        return self._moved(
            space, [space.index_of(n) if n in space else None for n in names],
            lambda i: UnknownVariable(f"variable {names[i]!r} absent from target space"),
        )

    # -- display ---------------------------------------------------------

    def __repr__(self):
        from .exprs import format_series

        tag = "EXACT" if self.order is None else f"O({self.order})"
        return f"Series[{tag}]({format_series(self)})"


class SeriesMap:
    """An ordered tuple of Series over one domain, one per codomain variable."""

    __slots__ = ("components", "domain", "codomain")

    def __init__(self, components: Iterable[Series], codomain: VarSpace):
        components = tuple(components)
        if not components:
            raise DimensionMismatch("a SeriesMap needs at least one component")
        domain = components[0].space
        order = components[0].order
        for s in components:
            if s.space != domain:
                raise VarSpaceMismatch("components live over different domains")
            if s.order != order:
                raise VarSpaceMismatch("components carry different truncation orders")
        if len(components) != codomain.dim:
            raise DimensionMismatch(
                f"{len(components)} components for codomain of dim {codomain.dim}"
            )
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMap is immutable")

    @property
    def order(self):
        return self.components[0].order

    def as_subst(self) -> dict:
        return dict(zip(self.codomain.names, self.components))

    def component(self, name: str) -> Series:
        return self.components[self.codomain.index_of(name)]

    def evaluate(self, point: Sequence):
        table = PointTable([x.zi for x in point])
        return [s.evaluate(point, table) for s in self.components]

    def _resolve_names(self, wrt):
        if wrt is None:
            return list(self.domain.names)
        names = []
        for item in wrt:
            if item in self.domain.block_names():
                names.extend(self.domain.block_vars(item))
            else:
                self.domain.index_of(item)  # raises UnknownVariable if absent
                names.append(item)
        return names

    def __eq__(self, other):
        if not isinstance(other, SeriesMap):
            return NotImplemented
        return (
            self.components == other.components and self.codomain == other.codomain
        )

    def __hash__(self):
        return hash((self.components, self.codomain))

    def __repr__(self):
        return f"SeriesMap({self.domain!r} -> {self.codomain!r})"


def forward_step(fns, at, rows):
    """One forward-mode chain-rule step through polynomials at an exact point,
    over the Gaussian integers.

    at[a] is the value of the a-th variable of the fns' space, a Z[i] scalar
    (re, im, den), and rows[a] its gradient row, an integer row (den, re, im)
    (see reduced_row).  Returns a (value, row) pair per function: fns[j](at)
    as a Z[i] scalar in lowest terms and the row sum_a dfns[j]/dx_a(at) *
    rows[a], from one Series.gradient_over walk against the step's one
    PointTable: one integer linear combination over the gradient's
    denominator times the lcm of the rows' dens, reduced by one gcd.  Rows
    are built new, never mutated: callers share them.
    """
    zeros = [0] * len(rows[0][1])
    table = PointTable(at)
    out = []
    for f in fns:
        (re, im, den), (pden, gre, gim) = f.gradient_over(table)
        used = [(cr, ci, row) for cr, ci, row in zip(gre, gim, rows)
                if (cr or ci) and (any(row[1]) or any(row[2]))]
        lcd = math.lcm(*(row[0] for _, _, row in used))
        rre = rim = zeros
        for cr, ci, (d, xs, ys) in used:
            cr, ci = cr * (lcd // d), ci * (lcd // d)
            rre = [u + cr * x - ci * y for u, x, y in zip(rre, xs, ys)]
            rim = [v + cr * y + ci * x for v, x, y in zip(rim, xs, ys)]
        g = math.gcd(re, im, den)
        out.append(((re // g, im // g, den // g), reduced_row(lcd * pden, rre, rim)))
    return out


def residue_step(fns, at, rows):
    """forward_step over F_P: at[a] is the residue of the a-th variable and
    rows[a] its gradient row, a list of residues; a (value, row) pair of
    residues per function, from one Series.residue_gradient walk each.
    NoImage for a Series whose denominator P divides."""
    zeros = [0] * len(rows[0])
    pows = [[1, x] for x in at]
    out = []
    for f in fns:
        value, grad = f.residue_gradient(pows)
        row = zeros
        for c, xs in zip(grad, rows):
            if c and any(xs):
                row = [u + c * x for u, x in zip(row, xs)]
        out.append((value, [u % P for u in row]))
    return out


def _exact_shift(row, col):
    den, re, im = row
    re = list(re)
    re[col] += den  # the unit entry, den / den
    return den, re, im


def _residue_shift(row, col):
    row = list(row)
    row[col] = (row[col] + 1) % P
    return row


class Kernel:
    """The scalars a FlowWord runs over, EXACT (Z[i]) or RESIDUES (F_P, the
    image under i -> ROOT): scalar(x) of a GaussianRational, add(x, y),
    zero(ncols) the zero row, width(row), widen(row, n) the row with n zero
    columns more, shift(row, col) the row plus the unit vector of column
    col, and step(fns, values, rows) the forward-mode step (forward_step or
    residue_step), one gradient walk per Series."""

    __slots__ = ("scalar", "add", "zero", "width", "widen", "shift", "step")

    def __init__(self, scalar, add, zero, width, widen, shift, step):
        self.scalar, self.add, self.zero, self.width = scalar, add, zero, width
        self.widen, self.shift, self.step = widen, shift, step


EXACT = Kernel(operator.attrgetter("zi"), zi_add, lambda n: (1, [0] * n, [0] * n),
               lambda row: len(row[1]), lambda row, n: (row[0], row[1] + [0] * n, row[2] + [0] * n),
               _exact_shift, forward_step)
RESIDUES = Kernel(lambda x: residue(*x.zi), lambda x, y: (x + y) % P, lambda n: [0] * n,
                  len, lambda row, n: row + [0] * n, _residue_shift, residue_step)


def advance(flow, values, rows, times, kernel: Kernel = EXACT):
    """The one-flow step of a pointwise run, over the kernel: the rows widen
    by one block of columns for `times`, and flow.advance steps the state,
    the times' unit entries in that block."""
    col = kernel.width(rows[0])
    rows = [kernel.widen(row, len(times)) for row in rows]
    return flow.advance(values, rows, times, col, kernel)


class FlowWord:
    """A word of flows from a start state, the one word of Segre chains and
    orbit flows: run pointwise (run), expanded to a SeriesMap (expand), or
    ranked by ranks.GrowingRun, which runs an EXACT word and expands a jet.

    Flow i (1-based) takes its times from block i - 1 of space_of(i), whose
    blocks end with the start's parameters.  run, the one pointwise loop,
    carries (value, gradient row in the time blocks) pairs over a Kernel
    (Z[i], or F_P for ranks) from values(params) through one advance step
    per flow, each widening the rows by its block; a jet word (order not
    None) is not run at a point, as truncation does not commute with
    evaluation.  expand carries start(space_of(0)) through flow i's
    expand(state lifted into space_of(i), times, out), whose last flow skips
    a block `out` does not read; the word's `states`, kept by the caller,
    holds the state after each flow prefix, so words sharing one expand it
    once (never a partial state).  Both report the components `out` (all by
    default), the variables of `codomain`.  A plain class: a dataclass costs
    milliseconds at every import.
    """

    __slots__ = ("flows", "space_of", "start", "values", "order", "codomain", "out", "states")

    def __init__(self, flows, space_of, start, values, order, codomain: "VarSpace", out=None,
                 states: Optional[dict] = None):
        self.flows, self.space_of, self.start = tuple(flows), space_of, start
        self.values, self.order, self.codomain = values, order, codomain
        self.out, self.states = out, states

    def run(self, params, blocks, kernel: Kernel = EXACT, states: Optional[dict] = None):
        """(values, Jacobian rows in the time blocks) of the components `out`
        after the word at the start's `params` and one block of times per
        flow, over the kernel: Z[i] scalars and integer rows, as forward_step
        gives them, or residues and residue rows (NoImage when a scalar or a
        flow's Series has no image in F_P); TruncationUnsound for a jet.  It
        resumes from the longest flow prefix whose state `states` (one
        kernel's, at one point) keeps, and keeps the state after each flow
        there."""
        if self.order is not None:
            raise TruncationUnsound("a truncated word is not evaluated at a point")
        flows, states = self.flows, {} if states is None else states
        done = next((i for i in range(len(flows), -1, -1) if flows[:i] in states), None)
        if done is None:  # the start's values, rows of no column (replaced, never mutated)
            values = [kernel.scalar(x) for x in self.values(tuple(params))]
            done, states[()] = 0, (values, [kernel.zero(0)] * len(values))
        values, rows = states[flows[:done]]
        for i in range(done, len(flows)):
            times = [kernel.scalar(t) for t in blocks[i]]
            values, rows = states[flows[: i + 1]] = advance(flows[i], values, rows, times, kernel)
        if self.out is not None:
            return [values[a] for a in self.out], [rows[a] for a in self.out]
        return values, rows

    def expand(self) -> SeriesMap:
        """The components `out` after the word as a SeriesMap from
        space_of(len(flows)) to `codomain`."""
        flows, states = self.flows, {} if self.states is None else self.states
        if () not in states:
            states[()] = self.start(self.space_of(0))
        done = next(i for i in range(len(flows), -1, -1) if flows[:i] in states)
        state, last = states[flows[:done]], len(flows)
        for i in range(done + 1, last + 1):
            space = self.space_of(i)
            names = space.blocks[i - 1][1]
            times = [Series.variable(space, t, self.order) for t in names]
            state = flows[i - 1].expand([s.lift(space) for s in state], times,
                                        self.out if i == last else None)
            if None not in state:
                states[flows[:i]] = state
        return SeriesMap(state if self.out is None else [state[a] for a in self.out],
                         self.codomain)


# -- vector fields and brackets ----------------------------------------------


@dataclass(frozen=True)
class TangentVectorField:
    """A vector field sum_a coefficients[a] * d/d(space.names[a]) on Series:
    one coefficient per variable of `space`, each a Series over it (checked
    when the field is built, so apply and bracket need not check them).
    support holds the (a, c_a) of the nonzero coefficients, kept once when
    the field is built: apply and bracket walk only it."""

    space: VarSpace
    coefficients: tuple
    label: str = ""
    support: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coefficients) != self.space.dim:
            raise DimensionMismatch(
                f"{len(self.coefficients)} coefficients for space dim {self.space.dim}")
        if any(c.space != self.space for c in self.coefficients):
            raise VarSpaceMismatch("a coefficient lives over another variable space")
        _set(self, "support", tuple((a, c) for a, c in enumerate(self.coefficients) if c.pairs))

    def apply(self, f: Series) -> Series:
        """The field as a derivation: sum_a c_a * df/dx_a in one pass over
        the support (_derivation), cut at f.order merged with c_a.order and
        max(f.order - 1, 0) for every nonzero c_a."""
        if f.space != self.space:
            raise VarSpaceMismatch("series live over different variable spaces")
        return _derivation(self.space, ((1, self.support, f),))

    def is_zero(self) -> bool:
        return not self.support

    def key(self, sign: int = 1):
        """The coefficients' values, whatever their truncation orders;
        key(-1) is the key of the negated field, which it does not build."""
        return tuple((c.den, tuple(sorted((e, (sign * a, sign * b))
                                          for e, (a, b) in c.pairs.items())))
                     for c in self.coefficients)

    def __neg__(self):
        return TangentVectorField(
            self.space, tuple(-c for c in self.coefficients), f"-{self.label}"
        )


def _derivation(space: VarSpace, halves) -> Series:
    """The sum over (sign, support, f) in `halves` of
    sign * sum_a c_a * df/dx_a over a field's support (its (a, c_a) with
    c_a nonzero): the one derivation code, of apply and bracket.

    One pass: each c_a whose x_a occurs in f walks f's pairs once, a term
    x^e with e_a > 0 giving e_a * x^(e - 1_a) times every term of c_a; a c_a
    whose x_a does not occur in f forms no product.  All products go into one
    dict over one denominator, the lcm of their c_a.den * f.den, reduced by
    one gcd.  The order is f.order merged with c_a.order and
    max(f.order - 1, 0) for every c_a of every support, skipped or not; a
    zero c_a, outside the support, lowers nothing."""
    order, den, work = None, 1, []
    for sign, support, f in halves:
        order = _merge_order(order, f.order)
        if not support:
            continue
        lowered = None if f.order is None else max(f.order - 1, 0)
        used = f.used_indices()
        for a, c in support:
            order = _merge_order(order, _merge_order(c.order, lowered))
            if a in used:
                den = math.lcm(den, c.den * f.den)
                work.append((sign, a, c, f))
    top = math.inf if order is None else order
    acc = {}
    for sign, a, c, f in work:
        scale = sign * (den // (c.den * f.den))
        cterms = [(sum(e), e, x, y) for e, (x, y) in c.pairs.items()]
        for exp, (re, im) in f.pairs.items():
            k = exp[a]
            if not k:
                continue
            exp = exp[:a] + (k - 1,) + exp[a + 1:]
            k *= scale
            room, re, im = top - sum(exp), re * k, im * k
            for deg, e, x, y in cterms:
                if deg > room:
                    continue
                key = tuple(map(operator.add, exp, e)) if deg else exp
                u, v = acc.get(key, (0, 0))
                acc[key] = (u + re * x - im * y, v + re * y + im * x)
    return Series._reduced(space, den, {e: p for e, p in acc.items() if p[0] or p[1]}, order)


def bracket(X: TangentVectorField, Y: TangentVectorField) -> TangentVectorField:
    """[X, Y]_a = X(Y_a) - Y(X_a), exact: each component one _derivation of
    both halves over the two supports, cut at the merge of both halves'
    orders (see apply)."""
    if X.space != Y.space:
        raise ChartMismatch("bracket of fields over different charts")
    coeffs = tuple(
        _derivation(X.space, ((1, X.support, Y.coefficients[a]),
                              (-1, Y.support, X.coefficients[a])))
        for a in range(X.space.dim)
    )
    return TangentVectorField(X.space, coeffs, f"[{X.label},{Y.label}]")


def noncommuting_pair(fields):
    """(i, j), i < j, of the first two fields whose bracket is nonzero, or None."""
    for i, X in enumerate(fields):
        for j in range(i + 1, len(fields)):
            if not bracket(X, fields[j]).is_zero():
                return i, j
    return None


def bracket_levels(generators, max_length: int):
    """Yield levels mu = 1..max_length, lazily: level 1 is the generators,
    level mu the left-normed brackets [g, h] of a generator g with a field h
    of level mu - 1, without zero fields and without fields equal up to sign
    to an earlier one of any level (key and key(-1)).  An empty level stays
    empty."""
    level = list(generators)
    seen = {f.key() for f in level}
    yield level
    for _ in range(2, max_length + 1):
        new_level = []
        for g in generators:
            for h in level:
                b = bracket(g, h)
                if b.is_zero():
                    continue
                k = b.key()
                if k in seen or b.key(-1) in seen:
                    continue
                seen.add(k)
                new_level.append(b)
        level = new_level
        yield level

