import pytest

from segrechains.corpus import corpus
from segrechains.errors import (
    ChartMismatch,
    DimensionMismatch,
    RankAssumptionViolated,
    SegreError,
    TruncationUnsound,
    VarSpaceMismatch,
)
from segrechains.exprs import format_series
from segrechains.invariants import segre_invariants
from segrechains.manifold import ORDER_MESSAGE
from segrechains.orbit import (
    VFSystem,
    concatenated_flow,
    coordinate_space,
    cr_pair_system,
    flow_word,
    formal_flow,
    greedy_multitype,
    lie_span_dimension,
    orbit_dimension,
)
from segrechains.ranks import DEFAULT_TRIALS, generic_rank, word_rank
from segrechains.scalars import GaussianRational as G
from segrechains.series import EXACT, RESIDUES, Series, SeriesMap, VarSpace

from helpers import (
    codim_family, field_tuples, flow_steps, gaussian_at, reference_flow,
    reference_greedy_multitype, reference_jacobian, reference_rank, run_at, sampled_word_rank,
)



def simple_system(n, fields, check=True):
    space = coordinate_space(n)

    def build(entries):
        comps = [Series.zero(space) for _ in range(n)]
        for idx, text in entries.items():
            from segrechains.exprs import parse_series

            comps[idx] = parse_series(text, space)
        return tuple(comps)

    return VFSystem(field_tuples(space, [[build(f) for f in fld] for fld in fields]),
                    check=check)


def test_translation_flow_exact():
    S = simple_system(2, [[{0: "1"}]])
    fl = formal_flow(S, 0, order=None)
    assert fl.exact
    assert [format_series(c) for c in fl.map.components] == ["x1+s1", "x2"]


def test_nilpotent_flow_exact():
    # x d/dy flows (x, y) to (x, y + s x); the field vanishes at 0, so the
    # pointwise-independence validation is skipped to study the bare flow
    S = simple_system(2, [[{0: "1"}], [{1: "x1"}]], check=False)
    fl = formal_flow(S, 1, order=None)
    assert fl.exact
    assert [format_series(c) for c in fl.map.components] == ["x1", "x2+s1*x1"]


def test_scaling_flow_truncated_lie_series():
    # x d/dx: exp(s L)(x) = x (1 + s + s^2/2 + ...) up to the jet order
    S = simple_system(1, [[{0: "1"}], [{0: "x1"}]], check=False)
    fl = formal_flow(S, 1, order=4)
    assert not fl.exact
    c = fl.map.components[0]
    assert c.coefficient({"x1": 1}) == G(1)
    assert c.coefficient({"s1": 1, "x1": 1}) == G(1)
    assert c.coefficient({"s1": 2, "x1": 1}) == G("1/2")
    assert c.coefficient({"s1": 3, "x1": 1}) == G("1/6")
    with pytest.raises(SegreError):
        formal_flow(S, 1, order=None)  # the Lie series never terminates
    with pytest.raises(SegreError, match=ORDER_MESSAGE):
        formal_flow(S, 1, order=0)  # the identity: no flow at all


def test_flow_group_law_to_order():
    S = simple_system(1, [[{0: "1"}], [{0: "x1"}]], check=False)
    N = 5
    fl = formal_flow(S, 1, order=N)
    dom = VarSpace([("s", ("s1",)), ("t", ("t1",)), ("x", ("x1",))])
    s = Series.variable(dom, "s1", N)
    t = Series.variable(dom, "t1", N)
    x = Series.variable(dom, "x1", N)
    sub_sum = {"s1": s + t, "x1": x}
    lhs = fl.map.components[0].compose(sub_sum)
    inner = fl.map.components[0].compose({"s1": t, "x1": x})
    rhs = fl.map.components[0].compose({"s1": s, "x1": inner})
    assert lhs == rhs


def test_flow_permutation_invariance_m2():
    # commuting pair inside one m-vector field: order of single flows is moot
    space = coordinate_space(3)
    from segrechains.exprs import parse_series

    one = parse_series("1", space)
    zero = Series.zero(space)
    x1 = parse_series("x1", space)
    field = [
        (one, zero, zero),  # d/dx1
        (zero, one, x1),    # d/dx2 + x1 d/dx3 (commutes with d/dx1? no!)
    ]
    # use genuinely commuting components: d/dx1 and d/dx2 + x3 d/dx3? keep
    # it simple with translations
    field = [(one, zero, zero), (zero, one, zero)]
    S = VFSystem(field_tuples(space, [field]))
    fl = formal_flow(S, 0, order=None)
    # swapping the two time slots fixes the flow of a commuting pair
    dom = fl.map.domain
    swap = {n: Series.variable(dom, n) for n in dom.names}
    swap["s1"], swap["s2"] = (
        Series.variable(dom, "s2"),
        Series.variable(dom, "s1"),
    )
    swapped = [c.compose(swap) for c in fl.map.components]
    assert [format_series(c) for c in swapped] == ["x1+s2", "x2+s1", "x3"]


def test_noncommuting_tuple_rejected():
    space = coordinate_space(3)
    from segrechains.exprs import parse_series

    one = parse_series("1", space)
    zero = Series.zero(space)
    x1 = parse_series("x1", space)
    bad_field = [(one, zero, zero), (zero, one, x1)]  # [d/dx1, ...] != 0
    with pytest.raises(Exception):
        VFSystem(field_tuples(space, [bad_field]))


def test_rank_assumption_violated():
    space = coordinate_space(2)
    from segrechains.exprs import parse_series

    x1 = parse_series("x1", space)
    zero = Series.zero(space)
    with pytest.raises(RankAssumptionViolated):
        VFSystem(field_tuples(space, [[(x1, zero)]]))  # vanishes at the origin


def test_greedy_bracket_system():
    S = simple_system(3, [[{0: "1"}], [{1: "1", 2: "x1"}]])
    res = greedy_multitype(S)
    assert res.orbit_dim == 3
    assert res.multitype == (1, 1, 1)
    assert res.e == (1,)
    assert res.witness is not None and res.witness["returns_to_origin"]
    assert res.witness["rank_at_t_star"] == 3
    assert lie_span_dimension(S) == 3


def test_greedy_commuting_translations():
    S = simple_system(3, [[{0: "1"}], [{1: "1"}]])
    res = greedy_multitype(S)
    assert res.orbit_dim == 2 and res.multitype == (1, 1)
    assert lie_span_dimension(S) == 2


def test_orbit_dimension_length3_brackets():
    S = simple_system(4, [[{0: "1"}], [{1: "1", 2: "x1", 3: "x1^2"}]])
    assert orbit_dimension(S) == 4
    assert lie_span_dimension(S) == 4


def test_single_field_orbit():
    S = simple_system(2, [[{0: "1"}]])
    assert orbit_dimension(S) == 1


def test_cr_pair_reproduces_invariants(heisenberg, quartic, c3_tube):
    for M in (heisenberg, quartic, c3_tube):
        system = cr_pair_system(M)
        res = greedy_multitype(system, witness=False)
        inv = segre_invariants(M)
        assert res.e == tuple(inv.multitype[2:])
        assert res.orbit_dim == inv.orbit_dim_complexified
        assert res.orbit_dim == lie_span_dimension(system)
        assert res.flows_exact


def test_cr_pair_both_start_orders_agree(heisenberg, c3_tube):
    for M in (heisenberg, c3_tube):
        system = cr_pair_system(M)
        a = greedy_multitype(system, witness=False)
        b = greedy_multitype(system, start_order=[1, 0], witness=False)
        assert a.multitype == b.multitype


def test_concatenated_flow_matches_chain(quartic):
    # intrinsic-chart flows concatenated by the orbit engine reproduce the
    # chain map components in the (w, zeta, xi) chart
    system = cr_pair_system(quartic)
    fwd, exact = concatenated_flow(system, [0, 1, 0])
    assert exact
    from segrechains.chains import gamma

    chain = gamma(quartic, 3).in_chart("wzetaxi")
    ren = {f"t{i}_{1}": f"u{i}_1" for i in range(1, 4)}
    dom = chain.domain
    sub = {f"t{i}_1": Series.variable(dom, f"u{i}_1") for i in range(1, 4)}
    transported = [c.compose(sub) for c in fwd.components]
    assert transported == list(chain.components)


def test_single_flow_composition_order_irrelevant():
    # within one m-vector field the single-component flows commute, so
    # composing them in either order equals the joint m-flow
    space = coordinate_space(4)
    from segrechains.exprs import parse_series

    one = parse_series("1", space)
    zero = Series.zero(space)
    x3 = parse_series("x3", space)
    # L_1 = d/dx1 and L_2 = d/dx2 + x3 d/dx4 commute
    pair = [(one, zero, zero, zero), (zero, one, zero, x3)]
    S = VFSystem(field_tuples(space, [pair]))
    joint = formal_flow(S, 0, order=None)
    # single-component systems for each member of the pair
    S1 = VFSystem(field_tuples(space, [[pair[0]]]), check=False)
    S2 = VFSystem(field_tuples(space, [[pair[1]]]), check=False)
    f1 = formal_flow(S1, 0, order=None)
    f2 = formal_flow(S2, 0, order=None)
    dom = joint.map.domain  # blocks s1, s2, x1..x4

    def compose(first, second, tfirst, tsecond):
        sub = {"s1": Series.variable(dom, tfirst)}
        sub.update({n: Series.variable(dom, n) for n in space.names})
        state = [c.compose(sub) for c in first.map.components]
        sub2 = {"s1": Series.variable(dom, tsecond)}
        sub2.update(dict(zip(space.names, state)))
        return [c.compose(sub2) for c in second.map.components]

    a = compose(f1, f2, "s1", "s2")
    b = compose(f2, f1, "s2", "s1")
    assert a == b == list(joint.map.components)


# -- pointwise (forward-mode) flows against the expanded concatenated flows ---


def _oracle_systems():
    from segrechains.corpus import corpus
    from segrechains.manifests import load_manifest

    from helpers import codim_family, exact_manifolds

    out = [
        ("bracket", simple_system(3, [[{0: "1"}], [{1: "1", 2: "x1"}]])),
        ("translations", simple_system(3, [[{0: "1"}], [{1: "1"}]])),
        ("length3", simple_system(4, [[{0: "1"}], [{1: "1", 2: "x1", 3: "x1^2"}]])),
        ("nilpotent", simple_system(2, [[{0: "1"}], [{1: "x1"}]], check=False)),
        ("orbit_heisenberg_like",
         load_manifest(dict(corpus())["orbit_heisenberg_like"]).build_system()),
    ]
    out += [(name, cr_pair_system(M)) for name, M in exact_manifolds()
            if not name.startswith("codim_")]
    out += [(f"codim_d{d}", cr_pair_system(codim_family(d))) for d in range(2, 6)]
    return out


ORACLE_SYSTEMS = _oracle_systems()


def _default_kmax(system):
    return system.a + (system.n - system.a * system.m) + 1


def _expanded_at(smap, point):
    values = smap.evaluate(point)
    rows = [[entry.evaluate(point) for entry in row] for row in reference_jacobian(smap)]
    return values, rows


def _return_map(system, fwd, returns):
    """The forward map followed by flows at constant times, composed symbolically."""
    state = list(fwd.components)
    for alpha, times in returns:
        sub = {f"s{j}": Series.constant(fwd.domain, c) for j, c in enumerate(times, 1)}
        sub.update(zip(system.space.names, state))
        state = [c.compose(sub) for c in system.flow(alpha, None).map.components]
    return SeriesMap(state, system.space)


@pytest.mark.parametrize("name,system", ORACLE_SYSTEMS, ids=[n for n, _ in ORACLE_SYSTEMS])
def test_pointwise_flow_matches_concatenated_flow(name, system):
    import random

    from helpers import gaussian_integer_point

    rng = random.Random(len(name))
    m = system.m
    k = _default_kmax(system)
    word = [i % system.a for i in range(k)]
    point = gaussian_integer_point(rng, m * k)
    fwd, exact = concatenated_flow(system, word)
    assert exact
    pw = flow_word(system, word)
    assert pw.space_of(k) == fwd.domain
    assert gaussian_at(pw, point) == _expanded_at(fwd, point)
    # the witness's return map: the longer word, reversed flows at negated
    # times; its values and the rows of the forward columns are those of the
    # forward map followed by the reversed flows at constant times
    back = [(word[i - 1], [-c for c in point[(i - 1) * m : i * m]])
            for i in range(k - 1, 0, -1)]
    ret = flow_word(system, word + word[-2::-1])
    values, rows = gaussian_at(ret, point + [c for _, times in back for c in times])
    want = _expanded_at(_return_map(system, fwd, back), point)
    assert (values, [row[: m * k] for row in rows]) == want


CORPUS_SYSTEMS = [(n, s) for n, s in ORACLE_SYSTEMS if n in dict(corpus())]


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("name,system", CORPUS_SYSTEMS, ids=[n for n, _ in CORPUS_SYSTEMS])
def test_jet_flows_share_expanded_prefixes(name, system, order, monkeypatch):
    """Every candidate word of a jet-mode greedy run, expanded on one system,
    which keeps the expanded prefixes, equals its expansion on a fresh copy
    of the system, with fewer compose calls."""
    word = greedy_multitype(system, order=order, witness=False).word
    words = [list(word[:length]) + [alpha]
             for length in range(system.a, len(word) + 1) for alpha in range(system.a)]
    calls = []
    compose = Series.compose

    def counted(series, sub):
        calls.append(sub)
        return compose(series, sub)

    def copy():
        return VFSystem(system.fields, system.order, check=False)

    monkeypatch.setattr(Series, "compose", counted)
    one = copy()
    shared = [concatenated_flow(one, w, order) for w in words]
    shared_calls = len(calls)
    fresh = [concatenated_flow(copy(), w, order) for w in words]
    assert shared == fresh
    assert shared_calls < len(calls) - shared_calls


def test_pointwise_flow_rank_matches_expanded(heisenberg, quartic, c3_tube):
    for M in (heisenberg, quartic, c3_tube):
        system = cr_pair_system(M)
        for word in ([0, 1], [0, 1, 0], [1, 0, 1, 0]):
            blocks = [f"t{i}" for i in range(1, len(word) + 1)]
            fwd, _ = concatenated_flow(system, word)
            a = generic_rank(fwd, wrt=blocks, seed=3)
            b = sampled_word_rank(flow_word(system, word), wrt=blocks, seed=3)
            assert (a.rank, a.witness) == (b.rank, b.witness)
            with pytest.raises(DimensionMismatch):
                word_rank(flow_word(system, word), (), [a.witness])


def test_jet_flow_word_expands_but_is_not_run_pointwise(heisenberg):
    system = cr_pair_system(heisenberg)
    jet = flow_word(system, [0, 1, 0], order=3)
    fwd, _ = concatenated_flow(system, [0, 1, 0], 3)
    assert jet.expand() == fwd
    # an orbit word, EXACT or jet, expands into the system's space
    for order in (None, 3):
        assert flow_word(system, [0, 1], order).expand().codomain == system.space
    with pytest.raises(TruncationUnsound):
        run_at(jet, [G(1), G(2), G(3)])


def test_truncated_flows_record_no_witness(heisenberg):
    system = cr_pair_system(heisenberg)
    res = greedy_multitype(system, order=3, witness=True)
    assert res.witness is None
    assert res.orbit_dim == 3


def test_truncated_system_needs_a_flow_order():
    # a jet manifold's CR pair is truncated: its flows are jets too, never EXACT
    from segrechains import new_manifold

    system = cr_pair_system(new_manifold(1, 1, ["w1*zeta1 + w1^2*zeta1^2"], 3))
    assert system.order == 3
    # formal_flow refuses EXACT flows and orders above 3, on every path to it
    for run in (greedy_multitype, orbit_dimension, lambda S: formal_flow(S, 0, None),
                lambda S: flow_word(S, [0, 1]), lambda S: concatenated_flow(S, [0, 1]),
                lambda S: formal_flow(S, 0, 4), lambda S: concatenated_flow(S, [0, 1], 5),
                lambda S: greedy_multitype(S, order=4)):
        with pytest.raises(TruncationUnsound, match="truncated at order 3"):
            run(system)
    res = greedy_multitype(system, order=system.order)
    assert res.orbit_dim == 3 == lie_span_dimension(system)
    assert res.witness is None
    assert res == reference_greedy_multitype(system, order=system.order)


def test_flows_are_kept_by_order():
    # an order-2 expansion first, then an EXACT run of the same word on the
    # same system: the run steps the EXACT flows, as on a fresh system
    M = codim_family(3)
    system, fresh = cr_pair_system(M), cr_pair_system(M)
    point = [G(1, 2), G(-3), G(2, -1)]
    _, exact = concatenated_flow(system, [0, 1, 0], 2)
    assert not exact and system.flow(0, 2) is not system.flow(0, None)
    runs = [run_at(flow_word(S, [0, 1, 0]), point) for S in (system, fresh)]
    assert runs[0] == runs[1]
    assert concatenated_flow(system, [0, 1, 0]) == concatenated_flow(fresh, [0, 1, 0])


def test_kmax_below_starting_word_rejected(heisenberg):
    with pytest.raises(DimensionMismatch):
        greedy_multitype(cr_pair_system(heisenberg), kmax=1)


def test_kmax_zero_is_not_the_default(heisenberg):
    # kmax=0 used to be read as "use the default"
    with pytest.raises(DimensionMismatch):
        greedy_multitype(cr_pair_system(heisenberg), kmax=0)


def test_noncommuting_components_raise_chart_mismatch():
    # d/dx1 and d/dx2 + x1 d/dx3 are independent everywhere, but their
    # bracket is d/dx3: the commutation check, not the rank check, refuses them
    S = simple_system(3, [[{0: "1"}, {1: "1", 2: "x1"}]], check=False)
    with pytest.raises(ChartMismatch, match="commute"):
        VFSystem(S.fields)
    # the same components in two separate fields are a valid system
    two = VFSystem([[S.fields[0][0]], [S.fields[0][1]]])
    assert lie_span_dimension(two) == 3


# -- the greedy loop against the loop that tries every candidate -------------


def _greedy_systems():
    """Every corpus system, the m = 1 family at d = 2..8, and two one-field
    systems, where no candidate is left to try."""
    from helpers import codim_family

    out = list(CORPUS_SYSTEMS)
    out += [(f"codim_d{d}", cr_pair_system(codim_family(d))) for d in range(2, 9)]
    out += [("one_field", simple_system(2, [[{0: "1"}]])),
            ("one_field_m2", simple_system(3, [[{0: "1"}, {1: "1"}]]))]
    return out


GREEDY_SYSTEMS = _greedy_systems()
ORDERS = [None, 2, 3, 4, 5]


def _greedy_options(system):
    """Keyword arguments of greedy_multitype covering seeds 0 and 3, the
    other start order and a small kmax."""
    other = {"start_order": [1, 0]} if system.a == 2 else {}
    return [{}, {"seed": 3, **other}, {"kmax": system.a + 2}]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: "EXACT" if o is None else f"order{o}")
@pytest.mark.parametrize("name,system", GREEDY_SYSTEMS, ids=[n for n, _ in GREEDY_SYSTEMS])
def test_greedy_matches_reference_greedy(name, system, order):
    """Skipping the repeated field and stopping at rank n change no result:
    word, e, ranks, flows_exact and witness equal those of the old loop."""
    for options in _greedy_options(system):
        got = greedy_multitype(system, order=order, **options)
        assert got == reference_greedy_multitype(system, order=order, **options), options


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: "EXACT" if o is None else f"order{o}")
@pytest.mark.parametrize("name,system", GREEDY_SYSTEMS, ids=[n for n, _ in GREEDY_SYSTEMS])
def test_repeating_the_last_field_adds_no_rank(name, system, order):
    """The flow group law exp(s.X) exp(t.X) = exp((s + t).X), exact and
    truncated: at every greedy step, word + [word[-1]] has the rank of word,
    sampled on its own as the reference greedy loop samples a candidate."""
    res = greedy_multitype(system, order=order, witness=False)
    for length in range(system.a, len(res.word) + 1):
        word = list(res.word[:length])
        cand = reference_flow(system, word + [word[-1]], order)
        blocks = [f"t{i}" for i in range(1, length + 2)]
        rank = reference_rank(cand, wrt=blocks, seed=length).rank
        assert rank == res.ranks[length - system.a], word


def test_a_greedy_orbit_steps_each_trial_one_flow_at_a_time(monkeypatch):
    # a candidate extends its step's shared prefix state by one flow, and the
    # winner's state is kept: over each kernel at most trials x (word length
    # + candidates tried) steps; the starting word is checked at 0 from the
    # field rows, with no flow step
    first_trial = [cr_pair_system(codim_family(d)) for d in range(2, 9)] + [
        simple_system(6, [[{0: "1"}], [{1: "1", 2: "x1"}], [{3: "1", 4: "x2", 5: "x1*x2"}]])]
    more_trials = [simple_system(5, [[{0: "1"}], [{1: "1", 2: "x1"}], [{3: "1", 4: "x2"}]])]
    for system in first_trial + more_trials:
        steps = flow_steps(monkeypatch)
        res = greedy_multitype(system, witness=False)
        a, length = system.a, len(res.word)
        tried = (a - 1) * (length - a + 1)
        for kernel in (RESIDUES, EXACT):
            assert steps.count(kernel) <= DEFAULT_TRIALS * (length + tried), kernel
        if system in first_trial:
            # every rank is full mod P at the first trial, and the word ends
            # at rank n: a steps for the starting word, then one per
            # candidate, a - 1 at each of the length - a steps
            assert steps == [RESIDUES] * (a + (a - 1) * (length - a))
        monkeypatch.undo()


def _unit(n, i):
    space = coordinate_space(n)
    return tuple(Series.constant(space, int(a == i)) for a in range(n))


def _system(n, fields, order=None):
    return VFSystem(field_tuples(coordinate_space(n), fields), order=order)


BAD_ORDERS = (0, -2, True, "3", 2.0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: VFSystem([]), DimensionMismatch, "a system needs at least one m-vector field"),
    (lambda: _system(3, [[_unit(3, 0)], [_unit(3, 1), _unit(3, 2)]]),
     DimensionMismatch, "all m-vector fields must share one m"),
    (lambda: VFSystem([[]]), DimensionMismatch, "an m-vector field needs at least one component"),
    (lambda: _system(2, [[_unit(2, 0)[:1]]]), DimensionMismatch, "1 coefficients for space dim 2"),
    (lambda: greedy_multitype(_system(2, [[_unit(2, 0)], [_unit(2, 1)]]), start_order=[0, 0]),
     DimensionMismatch, "start_order must be a permutation of the fields"),
] + [(lambda order=order: _system(1, [[_unit(1, 0)]], order), SegreError, ORDER_MESSAGE)
     for order in BAD_ORDERS],
    ids=["no-field", "unequal-m", "empty-m-tuple", "short-component",
         "start-order-not-a-permutation"] + [f"order-{order!r}" for order in BAD_ORDERS])
def test_malformed_systems_are_refused(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_greedy_refuses_a_malformed_flow_order(heisenberg):
    # refused before any flow is built, and not read as order 1 where the
    # order-1 flows are kept (True == 1 as a key)
    system = cr_pair_system(heisenberg)
    greedy_multitype(system, order=1, witness=False)
    for order in ("2", 2.5, True):
        with pytest.raises(SegreError) as err:
            greedy_multitype(system, order=order)
        assert type(err.value) is SegreError and str(err.value) == ORDER_MESSAGE, order


def test_fields_over_two_spaces_are_refused():
    fields = field_tuples(coordinate_space(2), [[_unit(2, 0)]])
    fields += field_tuples(coordinate_space(3), [[_unit(3, 1)]])
    with pytest.raises(VarSpaceMismatch, match="one variable space"):
        VFSystem(fields)
