"""Outside-in tracer: spans and counters around segrechains' public functions.

The tracer never edits the package.  It replaces functions in the module
dicts (and methods on classes) with timing wrappers, and puts the originals
back afterwards.  A name brought in with ``from .x import f`` is a separate
binding in every importing module, so each target is patched wherever it is
bound: a call that goes through any binding lands in the span.

A span records calls, total time and self time (total minus the time of
wrapped calls made inside it).  A re-entrant call to a span that is already
open (``symbolic_determinant`` recursing, ``new_manifold`` inside
``build_manifold``) runs unwrapped, so each span counts outermost calls only.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "segrechains"

# (span name, module, attribute); an attribute "Cls.meth" patches a method.
SPANS = (
    ("exprs.parse_series", "exprs", "parse_series"),
    ("manifold.build", "manifold", "new_manifold"),
    ("manifold.build", "manifold", "graph_from_real"),
    ("manifold.build", "manifests", "Manifest.build_manifold"),
    ("series.evaluate", "series", "Series.evaluate"),
    ("series.compose", "series", "Series.compose"),
    ("series.diff", "series", "Series.diff"),
    ("chains.gamma", "chains", "gamma"),
    ("chains.check_reparam", "chains", "check_reparam"),
    ("ranks.generic_rank", "ranks", "generic_rank"),
    ("ranks.exact_rank", "ranks", "exact_rank"),
    ("ranks.symbolic_determinant", "ranks", "symbolic_determinant"),
    ("invariants.rank_profile", "invariants", "rank_profile"),
    ("lie.apply", "lie", "TangentVectorField.apply"),
    ("lie.bracket", "lie", "bracket"),
    ("lie.levi_type", "lie", "levi_type"),
    ("lie.hormander_numbers", "lie", "hormander_numbers"),
    ("orbit.formal_flow", "orbit", "formal_flow"),
    ("orbit.concatenated_flow", "orbit", "concatenated_flow"),
    ("orbit.greedy_multitype", "orbit", "greedy_multitype"),
    ("orbit.lie_span_dimension", "orbit", "lie_span_dimension"),
    ("cli.checkall", "cli", "cmd_checkall"),
)

# Counted in ranks' own namespace only: these are exactly the points that
# generic_rank draws (lie, orbit and invariants draw through their own
# bindings for other purposes).
POINTS_COUNTER = ("ranks.points_sampled", "ranks", "random_point")


def _coeff_bits(series) -> int:
    bits = 0
    for c in series.terms.values():
        for q in (c.re, c.im):
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


class Tracer:
    """Span and counter totals for one traced pass."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.maxima = {}
        self._frames = []  # per open span: time spent in wrapped children
        self._open = set()

    # -- recording ----------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def high_water(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, name, fn, hooks=(None, None)):
        """A wrapper timing `fn` as span `name`.

        hooks = (before, after): `before(tracer, args)` returns a token and
        `after(tracer, args, result, token)` records derived values.  Both run
        outside the span and are charged to no span.
        """
        before, after = hooks
        spans, frames, open_ = self.spans, self._frames, self._open
        spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            token = before(self, args) if before is not None else None
            open_.add(name)
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                open_.discard(name)
                stat = spans[name]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
            if after is not None:
                hook_start = perf_counter()
                after(self, args, result, token)
                if frames:
                    frames[-1][0] += perf_counter() - hook_start
            return result

        return wrapper

    def counter_wrap(self, name, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every target wherever the package binds it; restore on exit."""
        modules = _package_modules()
        undo = []
        everywhere = []
        for name, mod_name, attr in SPANS:
            owner, key = _owner(modules, mod_name, attr)
            original = owner.__dict__[key]
            wrapper = self.wrap(name, original, _HOOKS.get(name, (None, None)))
            if isinstance(owner, type):
                undo.append((owner, key, original))
                setattr(owner, key, wrapper)
            else:
                everywhere.append(original)
                for mod in modules.values():
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            undo.append((mod, k, original))
                            setattr(mod, k, wrapper)
        name, mod_name, attr = POINTS_COUNTER
        owner = modules[mod_name]
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, self.counter_wrap(name, getattr(owner, attr)))
        try:
            _assert_no_unwrapped(modules, everywhere)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # -- reporting --------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat metric dict: <span>.{calls,total_s,self_s} plus derived values."""
        out = {}
        for name, (calls, total, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        out.update(self.maxima)
        c = self.counters
        out["ranks.points_per_call"] = _ratio(
            c.get("ranks.points_sampled", 0), out.get("ranks.generic_rank.calls", 0)
        )
        out["lie.bracket.nonzero_ratio"] = _ratio(
            c.get("lie.bracket.nonzero", 0), out.get("lie.bracket.calls", 0)
        )
        out["orbit.candidate_accept_ratio"] = _ratio(
            c.get("orbit.candidates.accepted", 0), c.get("orbit.candidates.tried", 0)
        )
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _package_modules() -> dict:
    """Short name -> module for the package and every loaded submodule."""
    out = {}
    for full, mod in list(sys.modules.items()):
        if full == PACKAGE:
            out[""] = mod
        elif full.startswith(PACKAGE + ".") and mod is not None:
            out[full[len(PACKAGE) + 1:]] = mod
    return out


def _owner(modules, mod_name, attr):
    mod = modules[mod_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


def _assert_no_unwrapped(modules, originals):
    ids = {id(f) for f in originals}
    for mod_name, mod in modules.items():
        for key, value in vars(mod).items():
            if id(value) in ids:
                raise AssertionError(
                    f"{PACKAGE}.{mod_name}.{key} still holds an unwrapped target"
                )


# -- per-span hooks (run outside every span) ---------------------------------


def _after_compose(tracer, args, result, token):
    tracer.high_water("series.terms_max", len(result.terms))
    tracer.high_water("series.coeff_bits_max", _coeff_bits(result))


def _after_bracket(tracer, args, result, token):
    if not result.is_zero():
        tracer.count("lie.bracket.nonzero")


def _after_rank_profile(tracer, args, result, token):
    tracer.high_water("invariants.chain_len_max", len(result.r))


def _before_greedy(tracer, args):
    return tracer.spans["ranks.generic_rank"][0]


def _after_greedy(tracer, args, result, rank_calls_at_entry):
    # greedy_multitype samples one generic rank for the initial word and one
    # per candidate field; every accepted candidate extends the word
    rank_calls = tracer.spans["ranks.generic_rank"][0] - rank_calls_at_entry
    tracer.count("orbit.candidates.tried", rank_calls - 1)
    tracer.count("orbit.candidates.accepted", result.kappa0)


_HOOKS = {
    "series.compose": (None, _after_compose),
    "lie.bracket": (None, _after_bracket),
    "invariants.rank_profile": (None, _after_rank_profile),
    "orbit.greedy_multitype": (_before_greedy, _after_greedy),
}
